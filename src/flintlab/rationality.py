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

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DomainError, PrecisionError
from .mpreal import (MpReal, _is_int, _require_bits, clog2, compute_pi, fx_ln_int,
                     ln2_mantissa, sin_int)

__all__ = [
    "CfExpansion",
    "SpikeRecord",
    "cf_terms",
    "convergent_numerators_up_to",
    "local_exponent",
    "spike_indices",
]


@dataclass(frozen=True)
class CfExpansion:
    """Stable partial quotients of a value.

    exhausted -- extraction stopped because the value's error bound no
    longer pins down the next quotient (fewer terms than asked for).
    complete -- the expansion terminated exactly (rational input).
    """

    terms: tuple[int, ...]
    exhausted: bool
    complete: bool

    def __len__(self) -> int:
        return len(self.terms)


_LEHMER_MIN_BITS = 320    # below this size cf_terms steps on the integers alone


def _cf_matrix(terms: Sequence[int], lo: int, hi: int) -> tuple[int, int, int, int]:
    """(p, p', q, q') = product of [[a, 1], [1, 0]] over terms[lo:hi], by halves.

    p/q and p'/q' are the last two convergents of [terms[lo]; ..., terms[hi-1]].
    """
    if hi - lo <= 16:
        p, p1, q, q1 = 1, 0, 0, 1
        for t in terms[lo:hi]:
            p, p1, q, q1 = t * p + p1, p, t * q + q1, q
        return p, p1, q, q1
    mid = (lo + hi) // 2
    a, b, c, d = _cf_matrix(terms, lo, mid)
    e, f, g, h = _cf_matrix(terms, mid, hi)
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def _cf_run(a: int, b: int, c: int, d: int, count: int) -> tuple[list[int], str | None]:
    """Partial quotients shared by every point of [a/b, c/d], at most `count`.

    a >= 0, b, c, d >= 1 and a/b <= c/d.  Returns (terms, stop) with stop
    None when `count` terms were taken, "split" when the end points'
    floors differ, and "edge" when the lower end reached an integer.  Each
    step takes the common floor t and maps x to 1/(x - t), which turns
    [a/b, c/d] into [d/(c - t*d), b/(a - t*b)]: each pair runs Euclid's
    step and the pairs trade places.

    Only the lower end can sit on the common floor t (c == t*d forces
    a/b = c/d = t), so a == 0 after the step is the one "edge" test.

    Lehmer batches.  When both denominators exceed _LEHMER_MIN_BITS, the
    run recurses on J = [(a>>s)/((b>>s)+1), ((c>>s)+1)/(d>>s)], the
    integers with their low s bits (about half) cut off.  J contains
    [a/b, c/d] strictly at both ends, and each step keeps that, being a
    decreasing bijection of (t, t+1).  So every quotient J takes is the
    common floor of every point of [a/b, c/d], and where J stops on an
    edge, its lower end is t but this run's lies above t: this run goes
    on wherever J goes on or stops, and every quotient of the batch is
    its own.  The batch t_1..t_k acts on both pairs at once: with p/q and
    p'/q' its last two convergents, (n, m) becomes (-1)**k * (q'n - p'm,
    pm - qn), and for odd k the pairs trade places.
    """
    terms: list[int] = []
    while len(terms) < count:
        size = min(b.bit_length(), d.bit_length())
        if size > _LEHMER_MIN_BITS:
            sh = size - size // 2
            batch, _ = _cf_run(a >> sh, (b >> sh) + 1, (c >> sh) + 1, d >> sh,
                               count - len(terms))
            if batch:
                p, p1, q, q1 = _cf_matrix(batch, 0, len(batch))
                a, b, c, d = q1 * a - p1 * b, p * b - q * a, q1 * c - p1 * d, p * d - q * c
                if len(batch) & 1:
                    a, b, c, d = -c, -d, -a, -b
                terms += batch
                continue
        t = a // b
        if c // d != t:
            return terms, "split"
        terms.append(t)
        a, c = a - t * b, c - t * d
        if a == 0:
            return terms, "edge"
        a, b, c, d = d, c, b, a
    return terms, None


def cf_terms(x: MpReal | Fraction, count: int) -> CfExpansion:
    """First `count` certain partial quotients of x > 0.

    The quotients are those shared by every point of [x - err, x + err],
    taken on the end points' integer numerators and denominators (see
    _cf_run).  Accepts an exact Fraction as well as a ball; an exact
    rational input yields its full (finite) expansion, flagged complete.
    """
    if not _is_int(count) or count < 1:
        raise DomainError(f"cf_terms needs an integer count >= 1, got {count!r}")
    if isinstance(x, Fraction):
        a = c = x.numerator
        b = x.denominator
    else:
        # x - err and x + err over one denominator b, without a gcd
        num, b = x.err.numerator, x.err.denominator
        if x.exp >= 0:
            center = (x.man << x.exp) * b
        else:
            center, num, b = x.man * b, num << -x.exp, b << -x.exp
        a, c = center - num, center + num
    if a <= 0:
        raise DomainError("cf_terms requires x > 0 beyond its error bound")
    low = a | b | c
    z = (low & -low).bit_length() - 1      # their common power of two
    terms, stop = _cf_run(a >> z, b >> z, c >> z, b >> z, count)
    if stop is None:
        return CfExpansion(tuple(terms), False, False)
    if stop == "split":
        return CfExpansion(tuple(terms), True, False)
    point = a == c
    return CfExpansion(tuple(terms), not point, point)


_FIRST_TERMS = 8     # convergent_numerators_up_to's first request to cf_terms
_LAMBDA_BITS = 128   # _lambda's working precision above it
_LAMBDA_MAN = 192    # sine mantissa bits that _lambda keeps above _LAMBDA_BITS


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

    The sine is taken at max(bits, 64) bits, and at more where |sin n| >=
    1/2 until 1 - |sin n| is resolved, so that -ln|sin n| keeps 60 bits
    however close |sin n| comes to 1 (see _lambda).
    """
    _require_bits(bits)
    if not _is_int(n) or n < 2:
        raise DomainError(f"local_exponent requires an integer n >= 2, got {n!r}")
    w = max(bits, 64)
    return _lambda(n, sin_int(n, w), w)


def _lambda(n: int, s: MpReal, w: int) -> float:
    """local_exponent(n) from s = sin_int(n, w), w >= 64.

    With x = man * 2**e the centre of s, lambda = -ln x / ln n: both logs
    as integers at scale 2**-v, and their quotient, which Python rounds
    correctly to a float.  sin_int puts e at -(w + 8) and the radius at
    most 2**-w.

    Capped precision, x < 1/2 (every record p >= 3, as |sin p| <= sin 3 <
    0.15).  v = min(w, 128) and x is first cut to its top 192 bits: man =
    man' * 2**h + r with 0 <= r < 2**h, h = max(L - 192, 0), L =
    man.bit_length(), and e' = e + h.  For w <= 128, L <= w + 7 < 192, so
    nothing changes.  For w > 128, let t = -log2 x > 1.  In ulps of
    2**-128:

    * ln x - ln(man' * 2**e') = ln(1 + r / (man' * 2**h)) lies in
      [0, 2**-191): below 2**-63 ulps.
    * fx_ln_int(man', 128) is within 2*e1 + 192 + 8 ulps, e1 = 4*i + 8
      with i its atanh loop count.  The atanh argument is below 1/3, so
      the powers in that loop fall by 9 a step from below 2**128/3 and
      vanish by the 40th: i <= 41, e1 <= 172, and the ln is within 544.
    * e' copies of ln2_mantissa(128) add |e'|/2 ulps.  x < 2**(L + e),
      which is 2**(192 + e') if h > 0 and at most 2**(192 + e) = 2**(192
      + e') if h = 0; so |e'| < t + 192.

    So the numerator -ln x = t ln 2 is within 641 + t/2 ulps, a relative
    error below (641 / (t ln 2) + 1 / (2 ln 2)) * 2**-128 < 2**-118.  The
    denominator ln n, with b = n.bit_length() >= 2, is within 352 + b ulps
    (the same atanh count) and at least (b - 1) ln 2, a relative error
    below 511 * 2**-128 < 2**-118.  The quotient is within 2**-116 of
    -ln x / ln n, relatively, and a float's ulp is at least 2**-53 of its
    value: the error is below 2**-63 ulps.  So the float equals the one
    the full precision gives unless the exact quotient lies within about
    2**-116 of a rounding boundary.  A ball at w = 2048 has L up to 2056,
    so this replaces two logs at 2048 bits by two at 128.

    Resolved precision, x >= 1/2.  There -ln x can be near 0 (n near an odd
    multiple of pi/2), and an absolute error near 2**-w a large relative
    one.  So v = w, first raised, with the sine retaken at each w, until d
    = 1 - x in units of 2**e is at least w * 2**71: 1 - x >= w * 2**63
    ulps of 2**-w.  In those ulps, the ball's radius moves ln x by at most
    3 (ln is 2.01-Lipschitz above 1/2 - 2**-64); fx_ln_int(man, w), with
    b = w + 8 and i <= w/3 + 2 by the count above, is within 11w/3 + 48;
    and the w + 8 copies of ln2_mantissa(w) add (w + 8)/2.  The sum is
    below 6w, and -ln|sin n| >= 1 - |sin n| >= w * 2**63 - 1, so the
    numerator is within 2**-60 of its value, relatively.  d <= 2**(w + 7)
    makes the final w at least 71, where the denominator, as above, is
    within (8w/3 + 40 + b) / ((b - 1) ln 2) * 2**-w < 2**-62.  Each round
    raises w by the bits d lacks plus 8, so it usually ends after one;
    |sin n| = 1 for no integer n, so it ends.
    """
    man, e = abs(s.man), s.exp
    if man == 0:
        raise PrecisionError(f"|sin {n}| indistinguishable from 0 at {w} bits")
    if man.bit_length() + e < 0:    # x < 1/2
        h = max(man.bit_length() - _LAMBDA_MAN, 0)
        man, e, w = man >> h, e + h, min(w, _LAMBDA_BITS)
    else:
        d = (1 << -e) - man
        while d < w << 71:
            w += max((w << 71).bit_length() - d.bit_length(), 1) + 8
            s = sin_int(n, w)
            man, e = abs(s.man), s.exp
            d = (1 << -e) - man
    # ln|sin n| = ln(man) + e*ln2, all at scale 2**-w
    ln_sin = fx_ln_int(man, w)[0] + e * ln2_mantissa(w)
    ln_n = fx_ln_int(n, w)[0]
    return -ln_sin / ln_n


@dataclass(frozen=True)
class SpikeRecord:
    n: int
    abs_sin: MpReal
    lam: float | None
    is_convergent_numerator: bool


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

    Each record carries sin_int(n, bits).abs_() and, for n >= 2, its local
    exponent, taken from the same sine ball when bits >= 64 (local_exponent
    takes its sine at max(bits, 64) bits, and its logs at that precision up
    to 128 bits and at 128 above, see _lambda); ln 1 = 0 leaves lambda
    undefined at n = 1.  |sin p_k| is about pi/(a_{k+1} p_k), so
    local_exponent raises PrecisionError once it falls below
    2**-max(bits, 64): bits must exceed about log2(n_max).
    """
    _require_bits(bits)
    if not _is_int(n_max) or n_max < 1:
        raise DomainError(f"spike_indices requires an integer n_max >= 1, got {n_max!r}")
    records = [SpikeRecord(1, sin_int(1, bits).abs_(), None, False)]
    for p in sorted(convergent_numerators_up_to(n_max)):
        s = sin_int(p, bits)
        lam = _lambda(p, s if bits >= 64 else sin_int(p, 64), max(bits, 64))
        records.append(SpikeRecord(p, s.abs_(), lam, True))
    return records
