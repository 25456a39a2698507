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
    "Convergent",
    "SpikeRecord",
    "cf_terms",
    "convergent_numerators_up_to",
    "convergents",
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


@dataclass(frozen=True)
class Convergent:
    p: int
    q: int
    index: int


def convergents(terms: Sequence[int]) -> list[Convergent]:
    """p_k/q_k from the standard recurrence p_k = a_k p_{k-1} + p_{k-2}."""
    if not terms:
        raise DomainError("convergents requires a non-empty quotient sequence")
    out: list[Convergent] = []
    p_prev, p_curr = 1, terms[0]
    q_prev, q_curr = 0, 1
    out.append(Convergent(p_curr, q_curr, 0))
    for i, a in enumerate(terms[1:], start=1):
        p_prev, p_curr = p_curr, a * p_curr + p_prev
        q_prev, q_curr = q_curr, a * q_curr + q_prev
        out.append(Convergent(p_curr, q_curr, i))
    return out


def convergent_numerators_up_to(n_max: int) -> set[int]:
    """Numerators p of convergents of pi with p <= n_max.

    pi at bits = 128 + 4*clog2(n_max + 2) pins down the convergents up to
    about 2**(bits/2) > n_max**2.  Asking for `bits` terms takes every
    certain one: p_k >= 2**(k/2), so `bits` terms would already pass
    2**(bits/2 - 1) > n_max.
    """
    if not _is_int(n_max):
        raise DomainError(f"convergent_numerators_up_to needs an integer n_max, got {n_max!r}")
    if n_max < 1:
        return set()
    bits = 128 + 4 * clog2(n_max + 2)
    exp = cf_terms(compute_pi(bits), bits)
    out: set[int] = set()
    for c in convergents(exp.terms):
        if c.p > n_max:
            break
        out.add(c.p)
    else:
        raise PrecisionError(
            f"could not enumerate convergent numerators past {n_max}"
        )
    return out


def local_exponent(n: int, bits: int = 64) -> float:
    """lambda(n) = -ln|sin n| / ln n, as a float."""
    _require_bits(bits)
    if not _is_int(n) or n < 2:
        raise DomainError(f"local_exponent requires an integer n >= 2, got {n!r}")
    w = max(bits, 64)
    return _lambda(n, sin_int(n, w), w)


def _lambda(n: int, s: MpReal, w: int) -> float:
    """local_exponent(n) from s = sin_int(n, w), w >= 64."""
    man = abs(s.man)
    if man == 0:
        raise PrecisionError(f"|sin {n}| indistinguishable from 0 at {w} bits")
    # ln|sin n| = ln(man) + exp*ln2, all at scale 2**-w
    ln_sin = fx_ln_int(man, w)[0] + s.exp * ln2_mantissa(w)
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
    works at max(bits, 64)); ln 1 = 0 leaves lambda undefined at n = 1.  |sin p_k| is
    about pi/(a_{k+1} p_k), so local_exponent raises PrecisionError once
    it falls below 2**-max(bits, 64): bits must exceed about log2(n_max).
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
