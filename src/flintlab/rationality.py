"""Continued-fraction structure of pi and the sine spikes it produces.

Partial quotients are extracted from the *interval* [x - err, x + err]
rather than from the center: a term is emitted only while both
endpoints agree on it, so every returned quotient is stable against the
value's error bound by construction.  When the endpoints first
disagree, the expansion stops and the result is flagged
precision-exhausted.  (Quotients are discontinuous in the input; a
center-only extraction silently corrupts the tail.)

Spikes are the running record minima of |sin n| -- parameter-free, and
exactly the indices where the series term 1/(sin^2 n * n^3) jumps.  The
records are exactly 1 and the numerators of the continued-fraction
convergents of pi (see spike_indices); the local exponent

    lambda(n) = -ln|sin n| / ln n

quantifies how deep each record goes relative to n itself.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError, PrecisionError
from .mpreal import (MpReal, _is_int, _require_bits, _sin_int_w, _sin_to_bits, clog2,
                     compute_pi, fx_ln_int, ln2_mantissa, sin_int, sin_rel)

__all__ = [
    "CfExpansion",
    "SpikeRecord",
    "cf_terms",
    "convergent_numerators_up_to",
    "local_exponent",
    "spike_indices",
]


class _Frozen:
    """A read-only record whose fields are its class's __slots__.

    Equal, within one class, when the fields are; hashed as the tuple of
    its fields; shown as Name(field=value, ...); copied and pickled by
    value.  That is how a frozen dataclass behaves, without importing
    dataclasses, which brings inspect, ast and dis with it: most of a cold
    `cf` call's import time for this module.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

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
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class CfExpansion(_Frozen):
    """Stable partial quotients of a value.

    exhausted -- extraction stopped because the value's error bound no
    longer pins down the next quotient (fewer terms than asked for).
    complete -- the expansion terminated exactly (rational input).
    """

    __slots__ = ("terms", "exhausted", "complete")
    terms: tuple[int, ...]
    exhausted: bool
    complete: bool

    def __init__(self, terms: tuple[int, ...], exhausted: bool, complete: bool) -> None:
        init = object.__setattr__
        init(self, "terms", terms)
        init(self, "exhausted", exhausted)
        init(self, "complete", complete)

    def __len__(self) -> int:
        return len(self.terms)


_LEHMER_MIN_BITS = 320    # below this size cf_terms steps on the integers alone


def _cf_run(a: int, b: int, c: int, d: int,
            count: int) -> tuple[list[int], str | None, tuple[int, int, int, int]]:
    """Partial quotients shared by every point of [a/b, c/d], at most `count`.

    a >= 0, b, c, d >= 1 and a/b <= c/d.  Returns (terms, stop, (p, p',
    q, q')) with stop None when `count` terms were taken, "split" when the
    end points' floors differ, and "edge" when the lower end reached an
    integer.  Each step takes the common floor t and maps x to 1/(x - t),
    which turns [a/b, c/d] into [d/(c - t*d), b/(a - t*b)]: each pair runs
    Euclid's step and the pairs trade places.

    Only the lower end can sit on the common floor t (c == t*d forces
    a/b = c/d = t), so a == 0 after the step is the one "edge" test.

    The matrix.  (p, p', q, q') is the product of [[t, 1], [1, 0]] over
    the terms taken, so p/q and p'/q' are the last two convergents of
    [t_1; ..., t_k] (the identity (1, 0, 0, 1) while k = 0).  The run keeps
    that invariant as it goes: a step right-multiplies the matrix by its
    own [[t, 1], [1, 0]], and a batch by the matrix its nested run
    returns, which is the product over the batch's terms.  So no matrix
    is rebuilt from its terms.

    Lehmer batches.  When both denominators exceed _LEHMER_MIN_BITS, the
    run recurses on J = [(a>>s)/((b>>s)+1), ((c>>s)+1)/(d>>s)], the
    integers with their low s bits (about half) cut off.  J contains
    [a/b, c/d] strictly at both ends, and each step keeps that, being a
    decreasing bijection of (t, t+1).  So every quotient J takes is the
    common floor of every point of [a/b, c/d], and where J stops on an
    edge, its lower end is t but this run's lies above t: this run goes
    on wherever J goes on or stops, and every quotient of the batch is
    its own.  The batch t_1..t_k acts on both pairs at once: with (e, f,
    g, h) its matrix, (n, m) becomes (-1)**k * (h*n - f*m, e*m - g*n), and
    for odd k the pairs trade places.
    """
    terms: list[int] = []
    p, p1, q, q1 = 1, 0, 0, 1
    while len(terms) < count:
        if b >> _LEHMER_MIN_BITS and d >> _LEHMER_MIN_BITS:
            size = min(b.bit_length(), d.bit_length())
            sh = size - size // 2
            batch, _, (e, f, g, h) = _cf_run(a >> sh, (b >> sh) + 1, (c >> sh) + 1,
                                             d >> sh, count - len(terms))
            if batch:
                a, b, c, d = h * a - f * b, e * b - g * a, h * c - f * d, e * d - g * c
                if len(batch) & 1:
                    a, b, c, d = -c, -d, -a, -b
                p, p1, q, q1 = p * e + p1 * g, p * f + p1 * h, q * e + q1 * g, q * f + q1 * h
                terms += batch
                continue
        t, a = divmod(a, b)
        s, c = divmod(c, d)
        if s != t:
            return terms, "split", (p, p1, q, q1)
        terms.append(t)
        p, p1, q, q1 = t * p + p1, p, t * q + q1, q
        if a == 0:
            return terms, "edge", (p, p1, q, q1)
        a, b, c, d = d, c, b, a
    return terms, None, (p, p1, q, q1)


def cf_terms(x: MpReal | Fraction, count: int) -> CfExpansion:
    """First `count` certain partial quotients of x > 0.

    The quotients are those shared by every point of [x - err, x + err],
    taken on the ball's integer ends over one denominator (MpReal.ends,
    made by shifts; see _cf_run).  Accepts an exact Fraction as well as a
    ball; an exact rational input yields its full (finite) expansion,
    flagged complete.
    """
    if not _is_int(count) or count < 1:
        raise DomainError(f"cf_terms needs an integer count >= 1, got {count!r}")
    if isinstance(x, Fraction):
        a = c = x.numerator
        b = x.denominator
    else:
        a, c, b = x.ends()
    if a <= 0:
        raise DomainError("cf_terms requires x > 0 beyond its error bound")
    low = a | b | c
    z = (low & -low).bit_length() - 1      # their common power of two
    terms, stop, _ = _cf_run(a >> z, b >> z, c >> z, b >> z, count)
    if stop is None:
        return CfExpansion(tuple(terms), False, False)
    if stop == "split":
        return CfExpansion(tuple(terms), True, False)
    point = a == c
    return CfExpansion(tuple(terms), not point, point)


_FIRST_TERMS = 8     # convergent_numerators_up_to's first request to cf_terms
_LAMBDA_BITS = 128   # a record's log precision from bits = 128 on (see _lambda)
_LAMBDA_MAN = 192    # sine mantissa bits that a record's logs keep


def convergent_numerators_up_to(n_max: int) -> set[int]:
    """Numerators p of convergents of pi with p <= n_max.

    pi at bits = 128 + 4*clog2(n_max + 2) pins down the convergents up to
    about 2**(bits/2) > n_max**2, and its first `bits` quotients reach past
    n_max: p_k >= 2**(k/2), so p_bits > 2**(bits/2 - 1) > n_max.

    Stop rule.  The quotients are asked for on demand: _FIRST_TERMS of
    them, then twice as many each round, at most `bits`, until a numerator
    passes n_max.  A shorter request returns a prefix of the same certain
    quotients, so the set does not depend on the round it ends in.  If the
    expansion is exhausted, or `bits` quotients pass no numerator beyond
    n_max, PrecisionError.
    """
    if not _is_int(n_max):
        raise DomainError(f"convergent_numerators_up_to needs an integer n_max, got {n_max!r}")
    if n_max < 1:
        return set()
    bits = 128 + 4 * clog2(n_max + 2)
    pi = compute_pi(bits)
    count = _FIRST_TERMS
    while True:
        terms = cf_terms(pi, count).terms
        out: set[int] = set()
        p_prev, p = 0, 1
        for a in terms:
            p_prev, p = p, a * p + p_prev
            if p > n_max:
                return out
            out.add(p)
        if len(terms) < count or count == bits:
            raise PrecisionError(
                f"could not enumerate convergent numerators past {n_max}"
            )
        count = min(2 * count, bits)


def local_exponent(n: int, bits: int = 64) -> float:
    """lambda(n) = -ln|sin n| / ln n, as a float.

    The sine comes from _lambda_sine, to 2**-(v + 8) of its size with v =
    min(max(bits, 64), 128), however small |sin n| is; where |sin n| >=
    1/2 it is retaken until 1 - |sin n| is resolved, so that -ln|sin n|
    keeps 60 bits however close |sin n| comes to 1 (see _lambda).
    """
    _require_bits(bits)
    if not _is_int(n) or n < 2:
        raise DomainError(f"local_exponent requires an integer n >= 2, got {n!r}")
    return _lambda(n, *_lambda_sine(n, bits), bits)


def _lambda_sine(n: int, bits: int) -> tuple[int, int, int]:
    """sin_rel's ball (S, e, w) for lambda(n) at bits, to 2**-(v + 8) of
    its size with v = min(max(bits, 64), 128).  The first try is at
    sin_int(n, bits)'s working precision, so where that ball passes, it
    is the ball sin_int(n, bits) rounds."""
    return sin_rel(n, min(max(bits, 64), _LAMBDA_BITS) + 8, _sin_int_w(n, bits))


def _lambda(n: int, S: int, e: int, w: int, bits: int) -> float:
    """local_exponent(n) at bits from (S, e, w) = _lambda_sine(n, bits).

    With x = |S| * 2**-w the centre of the sine ball and v = min(max(bits,
    64), 128), |S| > e * 2**(v + 8), so |sin n| lies within a factor 1 +-
    2**-(v + 8) of x.  lambda = -ln x / ln n: both logs as integers at
    scale 2**-v, and their quotient, which Python rounds correctly to a
    float.

    Capped precision, x < 1/2 (every record p >= 3, as |sin p| <= sin 3 <
    0.15).  x is first cut to its top 192 bits: |S| = man' * 2**h + r with
    0 <= r < 2**h, h = max(L - 192, 0), L = |S|.bit_length(), and f = w -
    h.  Let t = -log2 x > 1.  In ulps of 2**-v:

    * ln|sin n| - ln x lies within 2**-(v+8) / (1 - 2**-(v+8)): below
      2**-7 ulps.  An absolute sine, within 2**-v of |sin n|, would move
      ln x by about 2**-v / x instead, unbounded as x nears 0.
    * ln x - ln(man' * 2**-f) = ln(1 + r / (man' * 2**h)) lies in
      [0, 2**-191): below 2**-63 ulps.
    * fx_ln_int(man', v) is within 2*e1 + 192 + 8 ulps, e1 = 4*i + 8
      with i its atanh loop count.  The atanh argument is below 1/3, so
      the powers in that loop fall by 9 a step from below 2**v/3 and
      vanish by the 40th: i <= 41, e1 <= 172, and the ln is within 544.
    * f copies of ln2_mantissa(v) add f/2 ulps.  x < 2**(L - w), which
      is 2**(192 - f) if h > 0 and at most 2**(192 - f) if h = 0; so f <
      t + 192.

    So the numerator -ln|sin n| = t ln 2 is within 642 + t/2 ulps, a
    relative error below (642 / (t ln 2) + 1 / (2 ln 2)) * 2**-v <
    2**(10-v).  The denominator ln n, with b = n.bit_length() >= 2, is
    within 352 + b ulps (the same atanh count) and at least (b - 1) ln 2,
    a relative error below 511 * 2**-v < 2**(10-v).  The quotient is
    within 2**(12-v) of -ln|sin n| / ln n, relatively, and a float's ulp
    is at least 2**-53 of its value.  At v = 128 (bits >= 128) the error
    is below 2**-63 ulps, so the float equals the one the full precision
    gives unless the exact quotient lies within about 2**-116 of a
    rounding boundary; at bits = 2048 the ball has L up to w = 2088 +
    clog2 n, so this replaces two logs at 2048 bits by two at 128.  Below
    128 bits the error can reach the float's last bit.

    Resolved precision, x >= 1/2.  There -ln x can be near 0 (n near an odd
    multiple of pi/2), and an absolute error near 2**-u a large relative
    one, u = max(bits, 64).  The loop starts from the ball in hand rounded
    to u bits as sin_int rounds its own: its centre is man * 2**-f with f
    = u + 8 (or f = w where w < u + 8), and its radius is below 2**-u, as
    the ball's own is at most about 2**-(u + 8) (for u <= 128 by |S| > e
    * 2**(u + 8); above, as sin_rel's balls have e <= n/6 + 8w + 52 ulps
    of 2**-w with 2**w >= n * 2**(bits + 40)).  The logs run at u, first
    raised, with the sine retaken as sin_int(n, u) at each u, until d = 1
    - x in units of 2**-f is at least u * 2**71: 1 - x >= u * 2**63 ulps
    of 2**-u.  In those ulps, the ball's radius moves ln x by at most 3
    (ln is 2.01-Lipschitz above 1/2 - 2**-64); fx_ln_int(man, u), with b
    <= u + 8 and i <= u/3 + 2 by the count above, is within 11u/3 + 48;
    and the u + 8 copies of ln2_mantissa(u) add (u + 8)/2.  The sum is
    below 6u, and -ln|sin n| >= 1 - |sin n| >= u * 2**63 - 1, so the
    numerator is within 2**-60 of its value, relatively.  d <= 2**(u + 7)
    makes the final u at least 71, where the denominator, as above, is
    within (8u/3 + 40 + b) / ((b - 1) ln 2) * 2**-u < 2**-62.  Each round
    raises u by the bits d lacks plus 8, so it usually ends after one;
    |sin n| = 1 for no integer n, so it ends.
    """
    man = abs(S)
    if man.bit_length() < w:    # x < 1/2
        h = max(man.bit_length() - _LAMBDA_MAN, 0)
        man, f, v = man >> h, w - h, min(max(bits, 64), _LAMBDA_BITS)
    else:
        v = max(bits, 64)
        s = _sin_to_bits(S, e, w, v)
        while True:
            man, f = abs(s.man), -s.exp
            d = (1 << f) - man
            if d >= v << 71:
                break
            v += max((v << 71).bit_length() - d.bit_length(), 1) + 8
            s = sin_int(n, v)
    # ln|sin n| = ln(man) - f*ln2, all at scale 2**-v
    ln_sin = fx_ln_int(man, v)[0] - f * ln2_mantissa(v)
    ln_n = fx_ln_int(n, v)[0]
    return -ln_sin / ln_n


class SpikeRecord(_Frozen):
    """One record of |sin n|: its index, |sin n| to bits, lambda(n) (None
    at n = 1) and whether n is a convergent numerator of pi."""

    __slots__ = ("n", "abs_sin", "lam", "is_convergent_numerator")
    n: int
    abs_sin: MpReal
    lam: float | None
    is_convergent_numerator: bool

    def __init__(self, n: int, abs_sin: MpReal, lam: float | None,
                 is_convergent_numerator: bool) -> None:
        init = object.__setattr__
        init(self, "n", n)
        init(self, "abs_sin", abs_sin)
        init(self, "lam", lam)
        init(self, "is_convergent_numerator", is_convergent_numerator)


def spike_indices(n_max: int, bits: int = 64) -> list[SpikeRecord]:
    """Running record minima of |sin n| for 1 <= n <= n_max, ascending.

    n is a record when |sin n| < |sin m| for every 1 <= m < n.  The records
    are 1 and the convergent numerators p_k <= n_max of pi, so they are
    read off convergent_numerators_up_to instead of searched for:

    * Write ||x|| for the distance from x to the nearest integer.  With k
      the integer nearest n/pi, n = k*pi + r with |r| = pi*||n/pi|| <= pi/2,
      so |sin n| = |sin r| = sin(pi*||n/pi||), which increases with
      ||n/pi|| on [0, 1/2].  So the records of |sin n| are the records of
      ||n/pi||: the n with ||n/pi|| < ||m/pi|| for all 1 <= m < n.  With p
      the integer nearest n/pi, these are the p/n that are best
      approximations of the second kind of 1/pi = [0; 3, 7, 15, 1, ...].
    * By Lagrange's theorem (see Khinchin, Continued Fractions) the best
      approximations of the second kind of an irrational number are
      exactly its convergents, save p_0/q_0 when a_1 = 1.  For
      1/pi, a_1 = 3, so the convergent denominators q_0 = 1 < q_1 = 3 <
      q_2 = 22 < ... strictly increase and every one is a record: the
      records are exactly 1, 3, 22, 333, 355, 103993, ....  The
      convergents of 1/pi are the reciprocals of pi's, so q_{k+1} = p_k:
      the records are 1 and pi's convergent numerators.
    * The records are strict: ||n/pi|| = ||m/pi|| for n != m would put
      n - m or n + m on a nonzero multiple of pi, which no integer is.

    Each record n >= 2 takes one sine, _lambda_sine(n, bits): its abs_sin
    is that ball rounded to bits as sin_int rounds its own (so it is
    sin_int(n, bits).abs_() where the first try holds), and its local
    exponent comes from the same ball.  That ball is relative, so no
    record's |sin n| is too small for bits: bits sets the precision of
    abs_sin and of lambda's logs (see _lambda), not how far the records
    reach.  ln 1 = 0 leaves lambda undefined at n = 1.
    """
    _require_bits(bits)
    if not _is_int(n_max) or n_max < 1:
        raise DomainError(f"spike_indices requires an integer n_max >= 1, got {n_max!r}")
    records = [SpikeRecord(1, sin_int(1, bits).abs_(), None, False)]
    for p in sorted(convergent_numerators_up_to(n_max)):
        S, e, w = _lambda_sine(p, bits)
        records.append(SpikeRecord(p, _sin_to_bits(S, e, w, bits).abs_(),
                                   _lambda(p, S, e, w, bits), True))
    return records
