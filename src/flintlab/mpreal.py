"""Arbitrary-precision reals with guaranteed absolute error bounds.

The value model is a dyadic ball: a center ``man * 2**exp`` (exact big
integers) plus an exact non-negative radius ``err`` such that the true
mathematical quantity lies in ``[center - err, center + err]``.  The
radius is an integer pair (numerator, denominator), never rounded; every
radius the library makes is ``units / 2**k``, so balls are built,
rounded and rendered with shifts, and ``MpReal.err`` is a
:class:`~fractions.Fraction` view for the callers that want one.  Public
operations take a target precision ``bits`` and return values whose
``err`` is at most ``2**-bits`` (assuming exact or near-exact inputs);
nothing here is correctly rounded, only error-bounded.

Constants are produced by exact rational binary splitting:

* pi from the Chudnovsky series, P/Q/T splitting plus math.isqrt for
  sqrt(10005), about 47 bits per term,
* ln 2 from ln 2 = 2*atanh(1/3), a Q/T splitting that keeps the 9**i
  as one power per node,

and are served as *canonically rounded* mantissas ``round(x * 2**w)``.
Canonical rounding makes every mantissa a pure function of ``w``: a
request never observes how much precision happens to be cached, so
results are bit-reproducible across processes, thread schedules and
cache warm-up order.  The rounding is certified by checking that the
uncertainty interval around the stored rational stays clear of the
nearest half-integer, refining the rational (and only then paying for a
new binary-splitting run) when the check fails.

One function, :func:`reduce_fixed`, performs every reduction mod pi.
It writes a dyadic ``x = m * 2**-d`` (integers are d = 0) as
``x = k*pi + r`` in one divmod, with ``k`` the nearest integer to
``x * 2**w / pi_mantissa(w)``, which need not be round(x/pi), and ``r``
as an integer at scale ``2**-w``, within a derived ``(|k| >> 1) + 2``
ulps.  Callers add about ``log2 |x|`` guard bits to w, because the
subtraction ``x - k*pi`` cancels that many leading bits, and ``2**w >=
|x|`` keeps |r| below 1.77.

Sine at integer arguments has one primitive, :func:`sin_ball`: the
reduction, then the Taylor kernel, returning the signed integer ball
``(S, err_ulps)`` at scale ``2**-w``.  :func:`sin_int` and the anchors
of :func:`abs_sin_walk` use the ball as it is.  Near a multiple of pi
|sin n| is tiny, and a ball of fixed absolute width says little about
it, so the consumers that need sin n to a *relative* precision -- the
criterion kernel (and through it the scan) and the local exponent of
the spike records -- take it from :func:`sin_rel`, the one loop that
raises an integer sine's precision until its radius is a given fraction
of its center.  Ball arguments have two entry points,
:func:`sin_reduced` and :func:`cos_reduced`, which share one body:
reduce the center, run the kernel, add the ball's radius.

Two layers on top of the ball serve the partial sums:

* :func:`abs_sin_canonical` returns ``round(|sin n| * 2**w)`` exactly,
  with the same Ziv-style test as the constants: evaluate the ball with
  32 guard bits, and accept the rounding only when the whole ball
  rounds the same way; otherwise double the guard bits.  The result is
  a pure function of (n, w), whatever computed it.
* :func:`abs_sin_walk` yields those same integers for consecutive n, one
  block ``(n0, ms)`` at a time, by the recurrence ``sin(n + 1) = 2 cos 1
  * sin n - sin(n - 1)`` -- one multiplication instead of a reduction and
  a Taylor sum per n.  A block anchors on two direct balls, of n0 and
  n0 - 1, and ends at the next multiple of 4096 or power of two (past
  which w changes).  A tight loop fills it under a proven drift bound,
  with the rounding test written out as one add and one mask, and hands
  any n whose rounding the drift leaves ambiguous to
  :func:`abs_sin_canonical`.  partial_sum takes every sine from it; a
  term that escalates, or one computed on its own (term), calls
  abs_sin_canonical.

The Taylor kernels at the bottom of the file work on plain integers at
a fixed scale and report their rounding as a ulp count, which callers
turn into the radius ``ulps / 2**w``.  Every power ``n**c`` (c > 0
rational) comes from one kernel, :func:`fx_pow`, with a derived bound.

Rendering (:func:`guaranteed_decimal`) works on a ball's integer ends
``[lo/den, hi/den]`` (:meth:`MpReal.ends`) and divides by a power-of-two
den with shifts.
"""

from __future__ import annotations

import math
import threading
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from .errors import DomainError, ResourceLimitError

__all__ = [
    "MAX_BITS",
    "MpReal",
    "PI_CACHE",
    "SIN_GUARD_BITS",
    "WALK_BLOCK",
    "abs_sin_canonical",
    "abs_sin_walk",
    "clog2",
    "compute_pi",
    "cos_reduced",
    "exact_decimal",
    "exact_fraction",
    "floor_log10",
    "fx_atanh",
    "fx_cos",
    "fx_exp_small",
    "fx_ln_int",
    "fx_pow",
    "fx_sin",
    "guaranteed_decimal",
    "ln2_mantissa",
    "pi_mantissa",
    "reduce_fixed",
    "round_div",
    "sin_ball",
    "sin_int",
    "sin_reduced",
    "sin_rel",
]

MAX_BITS = 10_000_000
SIN_GUARD_BITS = 32      # least first guard-bit count of abs_sin_canonical and the walk
WALK_BLOCK = 4096        # abs_sin_walk re-anchors at least this often
_ROTATION_GUARD = 16     # bits of cos 1 beyond the walk's scale
_STR_BITS = 8192         # _digits converts integers up to this size directly


def clog2(n: int) -> int:
    """ceil(log2 n) for n >= 1."""
    return (n - 1).bit_length()


def round_div(a: int, b: int) -> int:
    """Nearest integer to a/b for b > 0; exact halves round toward +inf."""
    return (2 * a + b) // (2 * b)


def _is_int(x) -> bool:
    """x is an int and not a bool (JSON true and false load as bools)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _require_bits(bits: int) -> None:
    if not _is_int(bits) or bits < 8:
        raise DomainError(f"precision must be an integer >= 8 bits, got {bits!r}")
    if bits > MAX_BITS:
        raise ResourceLimitError(
            f"requested {bits} bits exceeds the configured maximum of {MAX_BITS}"
        )


def exact_fraction(value, name: str) -> Fraction:
    """value as an exact Fraction, or a DomainError naming it.

    Accepts what Fraction does: an int, a float (at its exact binary
    value), a Fraction, a Decimal, or a string such as "2.1", "1e-3" or
    "21/10" (at its exact value).  Booleans, non-finite values and
    malformed strings are refused.
    """
    if isinstance(value, bool):
        raise DomainError(f"{name} must be a number, got {value!r}")
    try:
        return Fraction(value)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        raise DomainError(f"{name} must be a finite number, got {value!r}") from exc


class _Frozen:
    """Base of every flintlab record: read-only fields held in __slots__.

    A record declares its fields once, ``__slots__ = _fields = (...)``,
    and holds nothing else.  It is equal to a record of its own class with
    equal fields, hashed as their tuple, shown as Name(field=value, ...),
    and copied and pickled by value, as a frozen dataclass is.  This base is the one way to declare a record, and it
    lives here because importing dataclasses brings inspect, ast and dis
    with it: most of a cold `cf` call's import time.

    Each class's constructor is built once, when the class is defined:
    ``_init(self, <fields>)`` stores each argument through its slot's own
    setter, and becomes __init__ unless the class writes one that checks
    its arguments and ends with ``self._init(...)``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        names = cls._fields
        scope = {f"set_{name}": getattr(cls, name).__set__ for name in names}
        exec(f"def _init(self, {', '.join(names)}):\n"
             + "".join(f"    set_{name}(self, {name})\n" for name in names), scope)
        cls._init = scope["_init"]
        if "__init__" not in cls.__dict__:
            cls.__init__ = cls._init

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


# --------------------------------------------------------------------------
# exact rational constants via binary splitting
# --------------------------------------------------------------------------

def _atanh_split(a: int, b: int) -> tuple[int, int]:
    """(Q, T) of the terms i = a..b-1 of ln 2's series, for 0 <= a < b.

    Q = prod (2i+1) and T/(Q * 9**(b-1-a)) = sum_i 1/((2i+1) * 9**(i-a)).
    The 9s stay a power, taken once per node: with m the midpoint, the
    sum over [a, b) is the one over [a, m) plus 9**-(m-a) times the one
    over [m, b), so T = T1 * Q2 * 9**(b-m) + T2 * Q1 and Q = Q1 * Q2.
    """
    if b - a == 1:
        return 2 * a + 1, 1
    m = (a + b) // 2
    q1, t1 = _atanh_split(a, m)
    q2, t2 = _atanh_split(m, b)
    return q1 * q2, t1 * q2 * 9 ** (b - m) + t2 * q1


def _chudnovsky_split(a: int, b: int) -> tuple[int, int, int]:
    """(P, Q, T) of the Chudnovsky terms k = a..b-1, for 1 <= a < b.

    Term k multiplies the previous one by p_k/q_k with p_k =
    -(6k-5)(2k-1)(6k-1) and q_k = k^3 * 640320^3/24, and carries the
    factor 13591409 + 545140134k.  P = prod p_k, Q = prod q_k and T/Q =
    sum_k (13591409 + 545140134k) * prod_{j=a..k} p_j/q_j.
    """
    if b - a == 1:
        p = -(6 * a - 5) * (2 * a - 1) * (6 * a - 1)
        return p, a * a * a * 10939058860032000, p * (13591409 + 545140134 * a)
    m = (a + b) // 2
    p1, q1, t1 = _chudnovsky_split(a, m)
    p2, q2, t2 = _chudnovsky_split(m, b)
    return p1 * p2, q1 * q2, q2 * t1 + p1 * t2


def _chudnovsky_pi_rational(w: int) -> tuple[int, int]:
    """Exact rational (num, den) with |pi - num/den| <= 2**-w, for w >= 1.

    Chudnovsky: pi = 426880 * sqrt(10005) / S with S = sum_{k>=0} t_k,
    t_k = (-1)^k (6k)! (13591409 + 545140134k) / ((3k)! (k!)^3 640320^(3k)).
    With N terms, S_N = 13591409 + T/Q from _chudnovsky_split(1, N), and
    with s = isqrt(10005 * 4**g) <= sqrt(10005) * 2**g < s + 1 at g = w + 8
    guard bits, num/den = 426880 * s * Q / ((13591409*Q + T) * 2**g).

    * sqrt truncation: num/den misses 426880 * sqrt(10005) / S_N by less
      than 426880*Q/(13591409*Q + T) * 2**-g = 426880/S_N * 2**-g, and
      S_N >= t_0 - |t_1| > 1.35e7 makes the factor below 1/16: the miss
      is below 2**-(w+12).
    * series tail: |t_(k+1)/t_k| = 8(6k+1)(6k+3)(6k+5)/(k+1)^3 * (13591409
      + 545140134(k+1))/(13591409 + 545140134k) / 640320^3, whose first
      factor is below 1728 and whose second is at most 42, so |t_k|
      falls and the alternating tail |S - S_N| is at most |t_N| <=
      (13591409 + 545140134N) * (1728/640320^3)^N < 2**29.1 * N *
      2**(-47.11 N), as log2(640320^3/1728) = 47.1104...  Then |pi -
      426880 sqrt(10005)/S_N| = 426880 sqrt(10005) |S - S_N|/(S*S_N) <
      2**-21.9 * |t_N|, and N = floor(w/47.11) + 2 has 47.11*N >= w +
      47.11, so this part is below N * 2**-(w+39.9), under 2**-(w+2)
      while N < 2**37.
    * the cut to w + 8 bits of den (see _cut_rational): num/den < 4, so
      below 4 * 2**-(w+7) = 2**-(w+5).
    The three parts sum to less than 2**-(w+12) + 2**-(w+2) + 2**-(w+5) <
    2**-w.
    """
    n = w * 100 // 4711 + 2
    g = w + 8
    _, q, t = _chudnovsky_split(1, n)
    s = math.isqrt(10005 << (2 * g))
    return _cut_rational(426880 * s * q, (13591409 * q + t) << g, w)


def _atanh_ln2_rational(w: int) -> tuple[int, int]:
    """Exact rational (num, den) with |ln2 - num/den| <= 2**-w.

    ln 2 = 2 atanh(1/3) = (2/3) * sum_i 1/((2i+1) * 9**i), summed for i <
    n with 3.17*(n - 1) > w + 16, from _atanh_split(0, n) as 2T / (3Q *
    9**(n-1)).  The tail is below (2/3) * 9**-n * 9/8 < 9**-n <
    2**-(w+19), and the cut (see _cut_rational, with num/den < 1) adds
    less than 2**-(w+7): the sum is below 2**-w.  Before the cut den has
    about n * log2(2n/e) + 3.17n bits: 4.8w at w = 2e4, 6.1w at 3e5.
    """
    n = int((w + 16) / 3.169925) + 2         # log2(9) = 3.1699...
    q, t = _atanh_split(0, n)
    return _cut_rational(2 * t, 3 * q * 9 ** (n - 1), w)


def _cut_rational(num: int, den: int, w: int) -> tuple[int, int]:
    """(num >> k, den >> k) with k = max(den.bit_length() - (w + 8), 0).

    The binary splitting leaves num and den far longer than w bits (about
    3w for pi), and _ConstSource divides them; the cut keeps w + 8 bits of
    den.  With num/den < c and x >> k = x/2**k - f, f in [0, 1), num'/den'
    - num/den = (f_den * num/den - f_num) / den', so the cut moves the
    ratio by less than max(c, 1)/den' <= max(c, 1) * 2**-(w+7), as den' >=
    2**(w+7).  (k = 0 leaves the ratio as it is.)
    """
    k = max(den.bit_length() - (w + 8), 0)
    return num >> k, den >> k


class _ConstSource:
    """Monotone store of a rational approximation to one irrational constant.

    ``mantissa(w)`` returns ``round(x * 2**w)`` exactly, for an integer w
    >= 0 (DomainError otherwise).  The answer depends on (constant, w)
    alone -- never on cache state -- which is what makes every downstream
    value reproducible.  Certification: with |x - num/den| <= 2**-src_w,
    the rounding is determined once the interval of half-width
    2**(w-src_w) around num/den * 2**w keeps a factor-2 margin from the
    nearest half-integer; otherwise the source is refined and the check
    repeated (terminates: x is irrational).  A refine at least doubles
    src_w, to max(w + 16, 2 * src_w), so an ascending sweep of w refines
    about log2(w_max / w_min) times, not once per w.

    Threads.  A hit is one ``_mans.get(w)`` without the lock.  That is
    safe because each entry is written once, under the lock, after its
    rounding is certified, and never changed or removed: a reader sees
    either no entry, and misses, or the final one.  Every miss checks w
    against MAX_BITS + 256 and takes the lock, which re-reads the entry
    and serialises the refines, as a refine writes ``_num``, ``_den`` and
    ``_src_w`` together.  The type test keeps a hit from serving ``True``
    or ``1.0`` the entry of w = 1 (they equal 1 as dict keys).  Only a
    w's first ask can refine (a later miss finds the entry under the
    lock), and threads that each ask one ascending list make their first
    asks in that order, as one thread does: both see the same (w, src_w)
    sequence and refine as often.
    """

    def __init__(self, name: str, refine) -> None:
        self._name = name
        self._refine = refine
        self._lock = threading.Lock()
        self._src_w = 0
        self._num = 0
        self._den = 1
        self._mans: dict[int, int] = {}
        self.refinements = 0

    def mantissa(self, w: int) -> int:
        man = self._mans.get(w)
        if man is not None and type(w) is int:
            return man
        if not _is_int(w) or w < 0:
            raise DomainError(f"{self._name}: working bits must be an integer >= 0, got {w!r}")
        if w > MAX_BITS + 256:
            raise ResourceLimitError(
                f"{self._name}: {w} working bits exceeds the configured maximum"
            )
        with self._lock:
            man = self._mans.get(w)
            if man is not None:
                return man
            src_w = self._src_w
            if w + 16 > src_w:              # a refine at least doubles src_w
                src_w = max(w + 16, 2 * src_w)
            while True:
                if src_w > self._src_w:
                    self._num, self._den = self._refine(src_w)
                    self._src_w = src_w
                    self.refinements += 1
                man, r = divmod(self._num << w, self._den)
                if abs(2 * r - self._den) << (self._src_w - w) > 4 * self._den:
                    man += 2 * r >= self._den      # round half up, as round_div
                    self._mans[w] = man
                    return man
                src_w *= 2


PI_CACHE = _ConstSource("pi", _chudnovsky_pi_rational)    # public for its refinements count
_LN2_SOURCE = _ConstSource("ln2", _atanh_ln2_rational)


def pi_mantissa(w: int) -> int:
    """round(pi * 2**w), exactly, for an integer w >= 0; deterministic in w."""
    return PI_CACHE.mantissa(w)


def ln2_mantissa(w: int) -> int:
    """round(ln2 * 2**w), exactly, for an integer w >= 0; deterministic in w."""
    return _LN2_SOURCE.mantissa(w)


def compute_pi(bits: int) -> MpReal:
    """pi with absolute error <= 2**-bits; deterministic in bits."""
    _require_bits(bits)
    w = bits + 8
    return _ball(pi_mantissa(w), -w, 1, 1 << (w + 1))


# --------------------------------------------------------------------------
# the ball type
# --------------------------------------------------------------------------

class MpReal:
    """Dyadic ball: center ``man * 2**exp`` and an exact radius ``err >= 0``.

    The radius is stored as an integer pair (numerator, denominator) and
    never rounded.  Every radius the library makes has a power-of-two
    denominator, so building, rounding (``round_to``) and rendering a ball
    take shifts and no gcd; the public constructor also accepts any
    non-negative Fraction or int, whose pair is kept in lowest terms.
    ``err`` is a read-only Fraction view of the same value.

    Instances are treated as immutable.  Arithmetic is exact on centers
    and adds up radii; ``round_to`` and ``div`` are where a precision
    enters.  ``add``, ``mul`` and ``div`` (used by the identities) work
    on the Fraction view.
    """

    __slots__ = ("man", "exp", "_rnum", "_rden")

    def __init__(self, man: int, exp: int, err: Fraction | int = 0) -> None:
        err = Fraction(err)
        if err < 0:
            raise DomainError("error bound must be non-negative")
        self.man = man
        self.exp = exp
        self._rnum = err.numerator
        self._rden = err.denominator

    @property
    def err(self) -> Fraction:
        """The radius as a Fraction, built on each read."""
        return Fraction(self._rnum, self._rden)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_fraction(cls, value: Fraction, bits: int) -> "MpReal":
        _require_bits(bits)
        w = bits + 8
        man = round_div(value.numerator << w, value.denominator)
        err = abs(value - Fraction(man, 1 << w))
        return cls(man, -w, err)

    @classmethod
    def from_decimal(cls, text: str, bits: int) -> "MpReal":
        try:
            value = Fraction(Decimal(text))
        except Exception as exc:
            raise DomainError(f"not a decimal number: {text!r}") from exc
        return cls.from_fraction(value, bits)

    # -- views -------------------------------------------------------------

    def center(self) -> Fraction:
        if self.exp >= 0:
            return Fraction(self.man << self.exp)
        return Fraction(self.man, 1 << -self.exp)

    def lower(self) -> Fraction:
        return self.center() - self.err

    def upper(self) -> Fraction:
        return self.center() + self.err

    def ends(self) -> tuple[int, int, int]:
        """(lo, hi, den): the ball is [lo/den, hi/den], on integers.

        A power-of-two radius denominator 2**j puts both ends at 2**-t, t =
        max(j, -exp), by shifts; any other den is scaled by 2**-exp.
        """
        num, den, man, exp = self._rnum, self._rden, self.man, self.exp
        if den & (den - 1):
            if exp >= 0:
                mid = (man << exp) * den
            else:
                mid, num, den = man * den, num << -exp, den << -exp
        else:
            j = den.bit_length() - 1
            t = max(j, -exp)
            mid, num, den = man << (exp + t), num << (t - j), 1 << t
        return mid - num, mid + num, den

    # -- arithmetic --------------------------------------------------------

    def neg(self) -> "MpReal":
        return _ball(-self.man, self.exp, self._rnum, self._rden)

    def abs_(self) -> "MpReal":
        return _ball(abs(self.man), self.exp, self._rnum, self._rden)

    def add(self, other: "MpReal") -> "MpReal":
        e = min(self.exp, other.exp)
        man = (self.man << (self.exp - e)) + (other.man << (other.exp - e))
        return MpReal(man, e, self.err + other.err)

    def sub(self, other: "MpReal") -> "MpReal":
        return self.add(other.neg())

    def mul(self, other: "MpReal") -> "MpReal":
        err = (abs(self.center()) * other.err
               + abs(other.center()) * self.err
               + self.err * other.err)
        return MpReal(self.man * other.man, self.exp + other.exp, err)

    def mul_int(self, m: int) -> "MpReal":
        return MpReal(self.man * m, self.exp, self.err * abs(m))

    def div(self, other: "MpReal", bits: int) -> "MpReal":
        _require_bits(bits)
        if abs(other.center()) <= other.err:
            raise DomainError("division by a ball containing zero")
        w = bits + 16
        num_man, den_man = self.man, other.man
        if den_man < 0:
            num_man, den_man = -num_man, -den_man
        shift = w + self.exp - other.exp
        if shift >= 0:
            man = round_div(num_man << shift, den_man)
        else:
            man = round_div(num_man, den_man << -shift)
        center = Fraction(man, 1 << w)
        ends = []
        for a in (self.lower(), self.upper()):
            for b in (other.lower(), other.upper()):
                ends.append(a / b)
        err = max(max(ends) - center, center - min(ends))
        return MpReal(man, -w, err)

    def round_to(self, bits: int) -> "MpReal":
        """Coarsen the center to scale 2**-(bits+8), folding the shift into err.

        If exp < -(bits+8), the center man * 2**exp becomes man' *
        2**-(bits+8) with man' = round_div(man, 2**sh), sh = -(bits+8) -
        exp, and the radius p/q grows by d * 2**exp, d = |man - man' *
        2**sh|.  The result is rounded up to units of 2**-scale, scale =
        bits + 24, which keeps radius denominators bounded: ceil((p/q + d *
        2**exp) * 2**scale) units.  For q = 2**j that sum is one integer
        over 2**max(j, -exp), and the ceiling a shift; any other q takes
        one exact integer division.
        """
        _require_bits(bits)
        exp_t = -(bits + 8)
        scale = bits + 24
        num, den, man, exp = self._rnum, self._rden, self.man, self.exp
        d = 0
        if exp < exp_t:
            sh = exp_t - exp
            man = (man + (1 << (sh - 1))) >> sh        # round_div(man, 2**sh)
            d = abs(self.man - (man << sh))
            exp, k = exp_t, -exp
        if den & (den - 1):
            if d:
                num, den = (num << k) + d * den, den << k
            units = -(-(num << scale) // den)
        else:
            j = den.bit_length() - 1
            if d:
                if j >= k:
                    num += d << (j - k)
                else:
                    num, j = (num << (k - j)) + d, k
            units = num << (scale - j) if scale >= j else -(-num >> (j - scale))
        return _ball(man, exp, units, 1 << scale)

    # -- display -----------------------------------------------------------

    def decimal(self, max_digits: int | None = None) -> str:
        """Decimal rendering restricted to digits the error bound guarantees."""
        return guaranteed_decimal(*self.ends(), max_digits)

    def __repr__(self) -> str:
        if self._rnum == 0:
            etxt = "0"
        else:
            # the pair is in lowest terms up to a power of two, which
            # leaves the bit-length difference as the Fraction's
            e2 = self._rnum.bit_length() - self._rden.bit_length()
            etxt = f"<~2^{e2 + 1}"
        return f"MpReal(~{self.decimal(20)}, err{etxt})"


_new = object.__new__


def _ball(man: int, exp: int, num: int, den: int) -> MpReal:
    """MpReal(man, exp, Fraction(num, den)) without the checks or a gcd,
    for num >= 0 and den a power of two (or a pair already checked)."""
    x = _new(MpReal)
    x.man = man
    x.exp = exp
    x._rnum = num
    x._rden = den
    return x


# --------------------------------------------------------------------------
# fixed-point kernels (integers at scale 2**-w, error reported in ulps)
# --------------------------------------------------------------------------

def _taylor_pairs(term: int, X: int, w: int, c: int, dc: int) -> tuple[int, int]:
    """The Taylor loop of fx_sin and fx_cos, two terms a pass, for X >= 0:
    (total, 8*i + 16) from term = term_0, c = c_1 and dc = c_2 - c_1, which
    grows by 8 a step in both series.  The callers derive the bound."""
    xx = (X * X) >> w
    total = term
    i = 1
    while term:
        term = ((term * xx) >> w) // c
        if not term:
            return total, 8 * i + 24            # term_i = 0: the counter is i + 1
        total -= term
        term = ((term * xx) >> w) // (c + dc)
        total += term
        i, c, dc = i + 2, c + 2 * dc + 8, dc + 16
    return total, 8 * i + 16


def fx_sin(X: int, w: int) -> tuple[int, int]:
    """sin(X * 2**-w) in units of 2**-w, for |X * 2**-w| <= 3.3 and w >= 8.

    Returns (value_units, err_ulps) with err_ulps = 8*i + 16, i being the
    loop counter of _taylor_pairs at exit.  Derivation, for X >= 0 (the
    sign is restored): let x = X * 2**-w, term_0 = X, c_i = 2i(2i+1) and
    t_i = x**(2i+1) / (2i+1)! * 2**w, the exact i-th Taylor term in units.
    The code keeps xx = x**2 * 2**w - phi with phi in [0, 1) and computes
    term_i = floor(floor(term_(i-1) * xx / 2**w) / c_i), which equals
    floor(term_(i-1) * xx / (c_i * 2**w)) because floor(floor(a/b)/c) =
    floor(a/(b*c)) for positive integers b, c.  So d_i = term_i - t_i obeys

        |d_i| <= |d_(i-1)| * x**2/c_i + t_(i-1) * phi/(c_i * 2**w) + 1,

    with d_0 = 0.  For x <= 3.3, x**2/c_i is at most 1.82, 0.55, 0.26,
    then less, and t_(i-1)/(c_i * 2**w) = x**(2i-1)/((2i-1)! * c_i) is at
    most 0.55, 0.30, 0.08, then less; so |d_1| <= 1.55, |d_2| <= 2.15 and
    every later |d_i| <= 1.7: every |d_i| <= 2.2.  The loop stops at the
    first L = i - 1 with term_L = 0, so t_L <= 2.2, and the omitted tail
    t_(L+1) + t_(L+2) + ... shrinks by x**2/c_j <= 0.55 per term: it is
    below 2.7.  The total error is at most 2.2*L + 2.7 <= 8*i + 16.
    """
    a = abs(X)
    total, err = _taylor_pairs(a, a, w, 6, 14)
    return (-total if X < 0 else total), err


def fx_cos(X: int, w: int) -> tuple[int, int]:
    """cos(X * 2**-w) in units of 2**-w, for |X * 2**-w| <= 3.3 and w >= 8.

    Returns (value_units, err_ulps) with err_ulps = 8*i + 16, derived as
    in :func:`fx_sin` with c_i = (2i-1)(2i) and t_i = x**(2i)/(2i)! * 2**w:
    term_0 = 2**w is exact, x**2/c_i is at most 5.45, 0.91, 0.37, 0.20,
    then less, and t_(i-1)/(c_i * 2**w) at most 0.50, 0.46, 0.17, 0.04,
    then less; so |d_1| <= 1.5, |d_2| <= 2.9, |d_3| <= 2.2 and every later
    |d_i| <= 1.5.  If the loop stops at L = 1, then x**2 <= 3 * 2**-w, the
    tail ratio is below 0.001 and the tail below 0.01; for L >= 2 the
    tail ratio is at most 0.37 and the tail below 1.8.  The total error is
    at most 2.9*L + 1.8 <= 8*i + 16.
    """
    return _taylor_pairs(1 << w, abs(X), w, 2, 10)


def fx_atanh(T: int, w: int) -> tuple[int, int]:
    """atanh(T * 2**-w) in units of 2**-w, for 0 <= T * 2**-w <= 0.4.

    Returns (value_units, err_ulps), err_ulps = 4*i + 8 with i the loop
    counter at exit; the value never exceeds the truth.  With x = T * 2**-w
    and t_j = x**(2j+1) * 2**w, atanh(x) * 2**w is the sum of t_j/(2j+1).
    tt = x**2 * 2**w - phi with phi in [0, 1), and p_j = floor(p_(j-1) *
    tt / 2**w) with p_0 = T = t_0, so d_j = t_j - p_j >= 0 obeys d_j <
    0.16*d_(j-1) + 0.4 + 1 (p_(j-1) <= 0.4 * 2**w): every d_j < 5/3.  Each
    added floor(p_j/(2j+1)) misses t_j/(2j+1) by less than d_j/3 + 1 <
    14/9.  The loop stops at i = L + 1 with p_L = 0, so t_L < 5/3 and the
    omitted tail is below 0.07: the error is below 14/9 * (i-1) + 0.07 <
    2*i, half the bound.
    """
    tt = (T * T) >> w
    p = T
    total = T
    d = 3                   # 2i + 1
    while p:
        p = (p * tt) >> w
        total += p // d
        d += 2
    return total, 2 * d + 6             # 4i + 8


def fx_exp_small(R: int, w: int) -> tuple[int, int]:
    """exp(R * 2**-w) in units of 2**-w, for |R * 2**-w| <= 0.4.

    Returns (value_units, err_ulps), err_ulps = 4*i + 8 with i the loop
    counter at exit.  With x = R * 2**-w and t_j = x**j/j! * 2**w, term_1 =
    R is exact and term_j is the nearest integer to term_(j-1) * x/j, so
    d_j = term_j - t_j obeys |d_j| <= |d_(j-1)|/5 + 1/2 <= 5/8.  The loop
    stops at the first term_L = 0, i = L + 1, where |t_L| <= 5/8 and the
    tail is below 1/6: the error is below 5/8 * (L - 1) + 1/6 < i.
    """
    term = R
    one = 1 << w
    total = one + R
    R2, i, iw = 2 * R, 2, 2 << w
    while term:
        # round_div(term * R, i << w), dividing by i after the shift
        term = ((term * R2 + iw) >> (w + 1)) // i
        total += term
        i += 1
        iw += one
    return total, 4 * i + 8


def fx_ln_int(n: int, w: int) -> tuple[int, int]:
    """ln(n) in units of 2**-w for integer n >= 1.

    Uses ln n = (b-1)*ln 2 + 2*atanh(y), y = (n - h)/(n + h) in [0, 1/3)
    with h = 2**(b-1), and returns (L, err_ulps).  T = round(y * 2**w) is
    within 1/2 ulp of y, and atanh' < 1.2 on [0, 0.4] (T * 2**-w <= 0.4
    for w >= 3), so fx_atanh(T) is within e1 + 0.6 ulps of atanh(y); twice
    that plus b - 1 copies of ln 2, each within 1/2 ulp, is below
    2*e1 + b + 8.  ln 1 = 0 is exact.
    """
    if n == 1:
        return 0, 1
    b = n.bit_length()
    half = 1 << (b - 1)
    T = round_div((n - half) << w, n + half)
    at, e1 = fx_atanh(T, w)
    return 2 * at + (b - 1) * ln2_mantissa(w), 2 * e1 + b + 8


def fx_pow(L: int, e_ln: int, c: Fraction, w: int) -> tuple[int, int, int]:
    """x**c for rational c > 0 as exp(c * ln x), from a ball for ln x >= 0.

    (L, e_ln) is ln x at 2**-w within e_ln ulps, as fx_ln_int returns it;
    w >= 8.  Returns (E, err_ulps, q): x**c lies within err_ulps * 2**(q-w)
    of E * 2**(q-w), and E > err_ulps.

    With A = round(c*L), l2 = ln2_mantissa(w) and q = round(A/l2) >= 0,
    x**c = 2**q * exp(r), r = c*ln x - q*ln 2, and R = A - q*l2 stands for
    r * 2**w.  In ulps of 2**-w:
    * R misses r * 2**w by at most d = c*e_ln + 1/2 + q/2: c*L is within
      c*e_ln, A rounds by 1/2, and each of the q copies of l2 is off by 1/2.
    * |R| <= l2/2, so |R * 2**-w| <= ln2/2 + 2**-(w+2) < 0.35, where
      fx_exp_small is within its own e_exp ulps.
    * If d <= 2**(w-5), r and R * 2**-w lie in |t| < 0.35 + 1/32 < 0.4,
      where exp' < e**0.4 < 3/2: exp(R * 2**-w) misses exp(r) by < 3d/2.
    So err_ulps = e_exp + ceil(3d/2).  w >= log2(c*e_ln + q) + 6 meets the
    condition; where it fails fx_pow raises DomainError, as sin_ball does
    below its floor.  Where it holds, E > err_ulps: fx_exp_small's terms at
    least halve (round(0.35t) <= t/2), so e_exp <= 4w + 12, E > 0.70 * 2**w
    - e_exp and E - err_ulps > 0.65 * 2**w - 8w - 25 > 0 for w >= 8.
    """
    a, b = c.numerator, c.denominator
    A = round_div(L * a, b)
    l2 = ln2_mantissa(w)
    q = round_div(A, l2)
    E, e_exp = fx_exp_small(A - q * l2, w)
    d4b = 4 * a * e_ln + 2 * b * (1 + q)       # 4b * d
    if d4b > b << (w - 3):                     # d > 2**(w-5)
        raise DomainError(f"fx_pow at w={w}: the error of c*ln x exceeds 2**{w - 5} ulps")
    return E, e_exp - (-3 * d4b // (8 * b)), q


# --------------------------------------------------------------------------
# argument reduction and sine
# --------------------------------------------------------------------------

def reduce_fixed(m: int, w: int, d: int = 0) -> tuple[int, int, int]:
    """x = k*pi + r for the dyadic x = m * 2**-d, d >= 0: returns (k, R, err_ulps).

    k is the nearest integer to q = x * 2**w / P, P = pi_mantissa(w),
    halves rounding up, and R is r in units of 2**-w with |R * 2**-w - r|
    <= err_ulps * 2**-w, err_ulps = (|k| >> 1) + 2.  Integer arguments use
    d = 0.

    k need not be round(x/pi): sin x = (-1)**k sin r and cos x = (-1)**k
    cos r for every integer k, and the kernels only need |r| small.  With
    P = pi * 2**w + delta and |delta| <= 1/2, q misses x/pi by |x| * 2**w *
    |delta| / (P * (P - delta)) <= |x| / (6P), which is below |x| *
    2**-(w+4) because P - 1/2 >= 3 * 2**w.  So |x/pi - k| <= 1/2 + |x| *
    2**-(w+4), and |r| < pi/2 + pi/16 < 1.77 whenever 2**w >= |x|.  Where
    x/pi lies farther than |x| * 2**-(w+4) from a half-integer, k =
    round(x/pi).

    Error of R.  r * 2**w = (m * 2**w - k * P * 2**d) / 2**d + k * delta
    exactly, for any integer k.  The code divides the first part, the
    remainder of the divmod, by 2**d with round_div, which is exact for
    d = 0 and adds at most 1/2 otherwise; the second part is at most
    |k|/2.  In all, |k|/2 + 1/2 <= (|k| >> 1) + 1 < err_ulps.
    """
    den = pi_mantissa(w) << d
    k, R = divmod(m << w, den)
    if 2 * R >= den:
        k, R = k + 1, R - den
    if d:
        R = round_div(R, 1 << d)
    return k, R, (abs(k) >> 1) + 2


def sin_ball(n: int, w: int) -> tuple[int, int]:
    """sin(n) for integer n >= 0 as the integer ball (S, err_ulps) at 2**-w.

    |S * 2**-w - sin n| <= err_ulps * 2**-w.  Computed as (-1)**k sin(r)
    from n = k*pi + r; sine is 1-Lipschitz, so the reduction error adds
    to the kernel's, plus one ulp of slack.  The absolute accuracy is
    about 2**-(w - log2 n): callers add ceil(log2 n) guard bits.  n = 0,
    which a walk from 1 anchors on, gives (0, 27).

    DomainError unless w >= max(8, clog2(max(n, 2))).  That keeps R in
    fx_sin's domain: as 2**w >= n, r = n - k*pi has |r| < 1.77 and k <=
    n/pi + 9/16 (reduce_fixed), and R misses r * 2**w by at most (|k| >>
    1) + 2 <= n/(2 pi) + 2.29 ulps, which is at most 1/(2 pi) + 2.29/256
    < 0.17 in x, as 2**w >= 256.  So |R * 2**-w| < 1.94 < 3.3, and w >= 8
    is fx_sin's own floor.  Below the bound that argument fails.
    """
    if w < 8 or clog2(n) > w:          # clog2(0) = 1 and clog2(1) = 0
        raise DomainError(f"sin_ball({n}) needs w >= max(8, clog2 n), got {w}")
    k, R, e_red = reduce_fixed(n, w)
    S, e_sin = fx_sin(R, w)
    return (-S if k & 1 else S), e_red + e_sin + 1


def _round_abs(S: int, e: int, g: int) -> int | None:
    """round(|x| * 2**-g) for every x in [S - e, S + e], or None if that
    rounding is not the same across the ball (or its sign is unknown).

    The value rounded is never exactly on a rounding boundary (|sin n| is
    irrational), so agreement at both ends decides the rounding.
    """
    a = abs(S)
    if a <= e:
        return None
    half = 1 << (g - 1)
    m = (a - e + half) >> g
    return m if m == (a + e + half) >> g else None


def abs_sin_canonical(n: int, w: int) -> int:
    """round(|sin n| * 2**w) for integer n >= 1, exactly.

    Ziv's rounding test: evaluate sin_ball with g extra bits, and accept
    the rounding to w bits only when the whole ball rounds the same way;
    otherwise double g.  |sin n| * 2**w is never a half-integer, so the
    loop ends.  The result depends on (n, w) alone.  For accuracy near
    2**-w, w must already include ceil(log2 n) guard bits (see sin_ball).

    The first g is max(SIN_GUARD_BITS, clog2 n + 8).  sin_ball's reduction
    error is about n/(2 pi) ulps (reduce_fixed), and 2**g >= 256 n keeps
    the ball's width below 1/800 of the rounding step 2**g, so about one
    n in 800 needs a second ball.  A fixed g fails for nearly every n once
    n/6 nears 2**g, from n near 2.6e10 at g = 32.  Callers: the walk's
    fallback, and every term that series computes without the walk or
    escalates.
    """
    g = max(SIN_GUARD_BITS, clog2(n) + 8)
    while True:
        S, e = sin_ball(n, w + g)
        m = _round_abs(S, e, g)
        if m is not None:
            return m
        g *= 2


@lru_cache(maxsize=256)
def _rotation(W: int) -> tuple[int, int]:
    """cos 1 at 2**-(W + _ROTATION_GUARD) and its error in ulps; 1 < pi/2
    needs no reduction."""
    w = W + _ROTATION_GUARD
    return fx_cos(1 << w, w)


def _walk_block(n0: int, end: int, w: int, g: int) -> tuple[list[int], int, int]:
    """abs_sin_walk's values for n = n0..end, which share w and g, and its
    ball (S, D + step) at 2**-(w + g) for end + 1: one anchor, then the
    recurrence.  D is the radius of end, which serves every n of the block."""
    W = w + g
    h = _ROTATION_GUARD
    S, e0 = sin_ball(n0, W)
    prev, e_prev = sin_ball(n0 - 1, W)
    C1, e1 = _rotation(W)
    K = C1 >> (h - 1)
    kappa = (e1 >> (h - 1)) + 2
    step = (6 * (kappa + 2) + 4) // 5
    D = (6 * (e0 + e_prev) + 4) // 5 + (end - n0) * step
    half, M = 1 << (g - 1), (1 << g) - 1
    top = M - D
    ms = []
    append = ms.append
    for n in range(n0, end + 1):
        a = abs(S)
        t = a + half
        low = t & M
        append(t >> g if D < a and D <= low <= top else abs_sin_canonical(n, w))
        prev, S = S, (K * S >> W) - prev
    return ms, S, D + step


def abs_sin_walk(lo: int, hi: int, base: int) -> Iterator[tuple[int, list[int]]]:
    """abs_sin_canonical(n, w(n)) for n = lo..hi, w(n) = base + clog2(max(n, 2)),
    one block at a time: yields (n0, ms), where ms[j] is the value of n0 + j.

    The values are the canonical ones, so they do not depend on lo or on
    where the walk anchors.  A block ends at hi, at the next multiple of
    WALK_BLOCK or at the next power of two, past which w changes, so every
    n of a block has the same c = clog2(max(n, 2)) and w.  Within a block,
    at W = w + g bits with g = max(SIN_GUARD_BITS, c + 8) (the first guard
    of abs_sin_canonical at 2**c), S ~ sin n * 2**W advances by the
    three-term recurrence sin(n + 1) = 2 cos 1 * sin n - sin(n - 1):
    S' = (K*S >> W) - S_prev with K ~ 2 cos 1 * 2**W, one multiplication
    per n.  _walk_block fills one block: two direct balls, then the
    recurrence.

    Error bound.  The block's first n0 anchors on (S_0, e0) = sin_ball(n0,
    W) and (S_{-1}, e_prev) = sin_ball(n0 - 1, W), so with t_j = sin(n0 +
    j) * 2**W exactly and e_j = S_j - t_j, |e_0| <= e0 and |e_{-1}| <=
    e_prev.  With |K - 2 cos 1 * 2**W| <= kappa and f_j in [0, 1) the part
    that >> W drops,

        e_{j+1} = 2 cos 1 * e_j - e_{j-1} + d_j,
        d_j = (K - 2 cos 1 * 2**W) * (t_j + e_j) * 2**-W - f_j,

    so |d_j| < kappa + 2 while kappa * |e_j| <= 2**W.  By induction on j,
    with the Chebyshev polynomials U_j of the second kind at cos 1
    (U_{j+1} = 2 cos 1 * U_j - U_{j-1}, U_{-1} = 0, U_0 = 1),

        e_j = U_j * e_0 - U_{j-1} * e_{-1} + sum_{i<j} U_{j-1-i} * d_i,

    and |U_j| = |sin(j + 1)| / sin 1 < 6/5.  So |e_j| < 6/5 * (e0 + e_prev
    + j * (kappa + 2)), and D_j = ceil(6/5 * (e0 + e_prev)) + j * ceil(6/5 *
    (kappa + 2)) is a radius for sin n that grows by a fixed step per n.
    It grows with j, so D, the D_j of the block's last n, is a radius for
    every n of the block, and _walk_block rounds every ball with it.
    (C1, e1) = _rotation(W) holds cos 1 at 2**-(W + h), h =
    _ROTATION_GUARD, within e1 ulps, and K = C1 >> (h - 1) drops less than
    1, so kappa = (e1 >> (h - 1)) + 2 bounds its error.

    Rounding.  The ball (S, D) goes through abs_sin_canonical's test,
    _round_abs(S, D, g), written out as one add and one mask: with a =
    |S|, t = a + 2**(g-1), low = t mod 2**g and M = 2**g - 1, the ball
    rounds one way iff a > D and D <= low <= M - D, and then m = t >> g.
    For _round_abs accepts m iff a > D and (t - D) >> g == (t + D) >> g,
    and then returns that value.  Write t = (t >> g) * 2**g + low.  If D
    <= low <= M - D, then t - D and t + D lie in [(t >> g) * 2**g, (t >>
    g) * 2**g + M], so both shift to t >> g.  If low < D, then (t - D) >>
    g < t >> g <= (t + D) >> g; if low > M - D, then (t + D) >> g > t >> g
    >= (t - D) >> g: the ends differ.  An n that the ball leaves ambiguous
    falls back to abs_sin_canonical.  A radius above D_j only widens the
    ball, so it can send more n there, never change a value: both paths
    give the canonical one.

    The side conditions hold for base >= 8.  Then g >= 32 gives W >= 40 +
    c, so n <= 2**(W-40).  Each anchor radius is sin_ball's reduction
    error, at most n/6 + 3 ulps (|k| <= n/pi + 1/2 + n * 2**-(W+4)), plus
    the kernel's and one: |x| < 1.6 (|r| <= pi/2 + n * 2**-(W+2)), so the
    Taylor terms start below 2**(W+1) and at least halve from the
    second on, so the kernels stop with i <= W + 4 and report at most
    8*W + 48 ulps; hence e0, e_prev <= n/6 + 8*W + 52 and e1 <= 8*(W + h)
    + 48 = 8*W + 176.  So kappa <= W/2**12 + 3, the step is at most
    1.2*W/2**12 + 7, and _walk_block takes at most WALK_BLOCK steps (the
    last one to the ball of end + 1), so the radius it rounds with and the
    one it returns are at most 0.4*n + 21*W + 2**15 < 2**(W-41) + 21*W +
    2**15, which keeps kappa*D < 2**(W-1) for every W >= 40, however g
    grows W.  The same 0.4*n term bounds the width 2D against the step
    2**g >= 256 * 2**c, so few walked n fall back.
    """
    if lo < 1 or base < 8:
        raise DomainError(f"abs_sin_walk requires lo >= 1 and base >= 8, got {lo!r}, {base!r}")
    n0 = lo
    while n0 <= hi:
        c = clog2(max(n0, 2))
        end = min(hi, 1 << c, (n0 - 1) // WALK_BLOCK * WALK_BLOCK + WALK_BLOCK)
        yield n0, _walk_block(n0, end, base + c, max(SIN_GUARD_BITS, c + 8))[0]
        n0 = end + 1


def sin_rel(n: int, rel: int, w: int) -> tuple[int, int, int]:
    """sin(n) for integer n >= 1 to 2**-rel of its size: (S, e, w') with
    sin n within e * 2**-w' of S * 2**-w' and |S| > e * 2**rel.

    w' is the first of w, w + d_1, w + d_1 + d_2, ... whose sin_ball(n, w')
    passes the test, where each step adds the bits the failed ball lacks
    plus 8: d = bitlen(e * 2**rel) - bitlen(S) + 8.  The result is a pure
    function of (n, rel, w), and a w' past MAX_BITS raises
    ResourceLimitError.  w must be at least max(8, clog2 n), as sin_ball
    needs, or DomainError; callers add clog2 n + 8 guard bits or more.

    The loop ends.  sin_ball's radius e is its reduction error, at most
    n/6 + 3 ulps at every w it accepts, plus the Taylor kernel's 8i + 16
    with i <= w + 4 (see abs_sin_walk), plus one; so e * 2**-w falls to 0
    as w grows, by at least 8 bits a step.  pi is irrational, so sin n !=
    0 for integer n >= 1, and once (2**rel + 1) * e * 2**-w < |sin n|, |S|
    >= |sin n| * 2**w - e > e * 2**rel.  Where the failed ball's center is accurate (its
    radius a small part of it), d is the shortfall plus 8, so one step
    passes; where the ball holds 0, each step adds at least rel + 8 bits.
    """
    while True:
        if w > MAX_BITS:
            raise ResourceLimitError(
                f"sin({n}) to 2**-{rel} of its size needs {w} working bits (max {MAX_BITS})"
            )
        S, e = sin_ball(n, w)
        need = e << rel
        if abs(S) > need:
            return S, e, w
        w += need.bit_length() - abs(S).bit_length() + 8


def _sin_int_w(n: int, bits: int) -> int:
    """sin_int's working precision: bits plus ceil(log2 n) + 40 guard bits."""
    return bits + clog2(max(n, 2)) + 40


def _sin_to_bits(S: int, e: int, w: int, bits: int) -> MpReal:
    """The integer sine ball (S, e) at 2**-w rounded to bits, as sin_int
    rounds its own."""
    return _ball(S, -w, e, 1 << w).round_to(bits)


def sin_int(n: int, bits: int) -> MpReal:
    """sin(n) for integer n >= 1 with absolute error <= 2**-bits.

    Computed as (-1)**k * sin(r) from the reduction n = k*pi + r.
    """
    _require_bits(bits)
    if not _is_int(n) or n < 1:
        raise DomainError(f"sin_int requires an integer n >= 1, got {n!r}")
    w = _sin_int_w(n, bits)
    if w > MAX_BITS:
        raise ResourceLimitError(
            f"sin({n}) at {bits} bits needs {w} working bits (max {MAX_BITS})"
        )
    return _sin_to_bits(*sin_ball(n, w), w, bits)


def _sin_cos_reduced(x: MpReal, bits: int, kernel, exact_zero: int) -> MpReal:
    """kernel (fx_sin or fx_cos) of the ball x, after reduce_fixed.

    The center c = m * 2**-d is reduced at w = bits + 32 + clog2(mag + 2),
    mag = floor(|c|): c = k*pi + r, and sin c = (-1)**k sin r, cos c =
    (-1)**k cos r.  Both functions are 1-Lipschitz, so the result is
    within err(x) + (e_red + e_kernel + 1) * 2**-w of the truth.  Since
    |k| <= (mag + 1)/pi + 1/2 + 2**-36 (reduce_fixed, with |c| <= mag + 1
    and 2**w >= 2**32 * (mag + 2)), e_red <= (mag + 2)/6 + 3 ulps, so
    e_red * 2**-w < 2**-(bits+30); the guard bits also absorb the
    kernel's ulps before round_to(bits).
    An exact zero gives the exact value exact_zero.
    """
    _require_bits(bits)
    if x.man == 0 and x._rnum == 0:
        return MpReal(exact_zero, 0)
    if x.exp >= 0:
        m, d = x.man << x.exp, 0
    else:
        m, d = x.man, -x.exp
    w = bits + 32 + clog2((abs(m) >> d) + 2)
    k, R, e_red = reduce_fixed(m, w, d)
    V, e_kernel = kernel(R, w)
    if k & 1:
        V = -V
    err = x.err + Fraction(e_red + e_kernel + 1, 1 << w)
    return MpReal(V, -w, err).round_to(bits)


def sin_reduced(x: MpReal, bits: int) -> MpReal:
    """sin(x) for any finite ball x, error <= err(x) + 2**-bits; sin(exact 0) = 0."""
    return _sin_cos_reduced(x, bits, fx_sin, 0)


def cos_reduced(x: MpReal, bits: int) -> MpReal:
    """cos(x) for any finite ball x, error <= err(x) + 2**-bits; cos(exact 0) = 1."""
    return _sin_cos_reduced(x, bits, fx_cos, 1)

# --------------------------------------------------------------------------
# decimal rendering
# --------------------------------------------------------------------------

def _exact_units(num: int, den: int) -> tuple[int, int] | None:
    """(units, d) with num/den = units / 10**d for num/den in lowest terms,
    or None if it has no finite decimal expansion.

    With den = 2**two * 5**five the least d is max(two, five), and
    units = num * 10**d / den = num * 5**(d - five) * 2**(d - two): a
    multiplication and a shift, no division.  The last digit of units is
    then not 0 unless d = 0.
    """
    two = (den & -den).bit_length() - 1
    den >>= two
    five = 0
    while den % 5 == 0:
        den //= 5
        five += 1
    if den != 1:
        return None
    d = max(two, five)
    return (num * 5 ** (d - five)) << (d - two), d


def exact_decimal(value: Fraction) -> str:
    """Exact decimal expansion; the denominator must divide some 10**d."""
    parts = _exact_units(value.numerator, value.denominator)
    if parts is None:
        raise DomainError("value has no finite decimal expansion")
    return _format_units(*parts)


def _round_units(x: int, den: int, d: int) -> int:
    """round(x/den * 10**d), exact halves toward +inf as round_div; d < 0
    rounds to a multiple of 10**-d.

    A power-of-two den = 2**t divides by a shift: round_div(y, 2**t * p)
    = floor((2y + 2**t * p) / 2**(t+1) / p), and the floor of a floor by
    positive integers is the floor of the whole quotient.
    """
    if d >= 0:
        x, p = x * 10 ** d, 1
    else:
        p = 10 ** -d
    if den & (den - 1):
        return round_div(x, den * p)
    t = den.bit_length() - 1
    y = (2 * x + (p << t)) >> (t + 1)
    return y if p == 1 else y // p


def _digits(n: int, width: int = 0) -> str:
    """str(n) for n >= 0, zero-padded to width digits.

    Numbers above _STR_BITS bits are split as n = hi * 10**half + lo with
    half about half their digit count, so no single int -> str conversion
    meets CPython's digit limit (4300 by default).  half is at most the
    digit count less one, so hi > 0 unless the padding already covers it.
    """
    if n.bit_length() <= _STR_BITS:
        return str(n).zfill(width)
    half = (max(width, n.bit_length() * 30103 // 100000 + 1) + 1) // 2
    hi, lo = divmod(n, 10 ** half)
    return _digits(hi, width - half) + _digits(lo, half)


def _format_units(units: int, d: int) -> str:
    sign = "-" if units < 0 else ""
    units = abs(units)
    if d == 0:
        return sign + _digits(units)
    ip, fp = divmod(units, 10 ** d)
    text = f"{sign}{_digits(ip)}.{_digits(fp, d)}".rstrip("0")
    return text + "0" if text.endswith(".") else text


def floor_log10(num: int, den: int) -> int:
    """floor(log10(num/den)) for integers num, den > 0.

    With B the bit-length difference of num and den, 2**(B-1) < num/den <
    2**(B+1), and 646456993/2**31 is below log10(2) by less than 2**-31:
    while |B| < 3e9 the start floor(B * 646456993/2**31) is within two of
    the answer, and exact comparisons step it there.
    """
    e = (num.bit_length() - den.bit_length()) * 646456993 >> 31
    p = 10 ** abs(e)
    top, bottom = (num, den * p) if e >= 0 else (num * p, den)    # x / 10**e
    while top < bottom:
        top *= 10
        e -= 1
    while top >= 10 * bottom:
        bottom *= 10
        e += 1
    return e


def guaranteed_decimal(lo: int, hi: int, den: int,
                       max_digits: int | None = None) -> str:
    """Decimal string of the interval [lo/den, hi/den] (lo <= hi, den >= 1)
    showing only digits that every point of it shares.

    Picks the largest digit count d (capped by max_digits) at which both
    ends round to the same d-decimal string, then prints that string; a
    unit 10**-d <= (hi - lo)/den separates them, so the search starts
    below it.  Where even d = 0 leaves them apart, it goes on over coarser
    units and prints round(x / 10**K) followed by ``e+K`` for the least K
    >= 1 at which both agree: 123456789 +- 1000 prints ``12346e+4``, 5 +- 7
    prints ``0e+2``.  A point (lo = hi) prints its exact expansion when it
    is finite and within the cap, else rounds to max_digits (64 if None).
    A power-of-two den is divided by shifts (see _round_units).
    """
    if lo == hi:
        g = math.gcd(lo, den)
        lo, den = lo // g, den // g
        parts = _exact_units(lo, den)
        if parts is not None and (max_digits is None or parts[1] <= max_digits):
            return _format_units(*parts)
        d = max_digits if max_digits is not None else 64
        return _format_units(_round_units(lo, den, d), d)
    d = -floor_log10(hi - lo, den) - 1
    if max_digits is not None:
        d = min(d, max_digits)
    while True:
        units = _round_units(lo, den, d)
        if units == _round_units(hi, den, d):
            return _format_units(units, d) if d >= 0 else f"{_format_units(units, 0)}e+{-d}"
        d -= 1
