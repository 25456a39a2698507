"""Continued-fraction structure of pi and the sine spikes it produces.

Partial quotients are extracted from the *interval* [x - err, x + err]
rather than from the center: a term is emitted only while both
endpoints agree on it, so every returned quotient is stable against the
value's error bound by construction.  When the endpoints first
disagree, the expansion stops and the result is flagged
precision-exhausted.  (Quotients are discontinuous in the input; a
center-only extraction silently corrupts the tail.)

Spikes are the running record minima of |sin n| -- parameter-free, and
exactly the indices where the series term 1/(sin^2 n * n^3) jumps.  For
n >= 3 every record index is a numerator of a continued-fraction
convergent of pi; the local exponent

    lambda(n) = -ln|sin n| / ln n

quantifies how deep each record goes relative to n itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DomainError, PrecisionError
from .mpreal import MpReal, clog2, compute_pi, fx_ln_int, ln2_mantissa, sin_int

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


def cf_terms(x: MpReal | Fraction, count: int) -> CfExpansion:
    """First `count` certain partial quotients of x > 0.

    Accepts an exact Fraction as well as a ball; an exact rational input
    yields its full (finite) expansion, flagged complete.
    """
    if count < 1:
        raise DomainError(f"cf_terms needs count >= 1, got {count}")
    if isinstance(x, Fraction):
        lo = hi = x
    else:
        lo, hi = x.lower(), x.upper()
    if lo <= 0:
        raise DomainError("cf_terms requires x > 0 beyond its error bound")
    terms: list[int] = []
    while len(terms) < count:
        fl = lo.numerator // lo.denominator
        fh = hi.numerator // hi.denominator
        if fl != fh:
            return CfExpansion(tuple(terms), True, False)
        terms.append(fl)
        frac_lo, frac_hi = lo - fl, hi - fh
        if frac_hi == 0:
            # hi terminated; exact only if the interval is a point
            return CfExpansion(tuple(terms), lo != hi, lo == hi)
        if frac_lo == 0:
            return CfExpansion(tuple(terms), lo != hi, lo == hi)
        lo, hi = 1 / frac_hi, 1 / frac_lo
    return CfExpansion(tuple(terms), False, False)


@dataclass(frozen=True)
class Convergent:
    p: int
    q: int
    index: int

    def as_fraction(self) -> Fraction:
        return Fraction(self.p, self.q)


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
    """Numerators p of convergents of pi with p <= n_max."""
    if n_max < 1:
        return set()
    bits = 128 + 4 * clog2(n_max + 2)
    exp = cf_terms(compute_pi(bits), 64)
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
    if not isinstance(n, int) or n < 2:
        raise DomainError(f"local_exponent requires an integer n >= 2, got {n!r}")
    w = max(bits, 64)
    s = sin_int(n, w)
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


def _abs_sin_interval(n: int, bits: int) -> MpReal:
    return sin_int(n, bits).abs_()


def spike_indices(n_max: int, bits: int = 64) -> list[SpikeRecord]:
    """Running record minima of |sin n| for 1 <= n <= n_max, ascending.

    Each record's |sin| is *strictly* below every predecessor's; the
    strict comparison is decided on error intervals, doubling the
    working precision until the intervals separate.  (|sin a| = |sin b|
    would force a +- b to be a multiple of pi, impossible for distinct
    positive integers, so separation always exists.)
    """
    if not isinstance(n_max, int) or n_max < 1:
        raise DomainError(f"spike_indices requires an integer n_max >= 1, got {n_max!r}")
    numerators = convergent_numerators_up_to(n_max)
    records: list[SpikeRecord] = []
    best: MpReal | None = None
    best_n = 0
    for n in range(1, n_max + 1):
        cand = _abs_sin_interval(n, bits)
        if best is not None:
            w = bits
            current = best
            while not (cand.definitely_lt(current) or current.definitely_lt(cand)):
                w *= 2
                if w > 1 << 20:
                    raise PrecisionError(
                        f"|sin {n}| vs |sin {best_n}| undecided at {w} bits"
                    )
                cand = _abs_sin_interval(n, w)
                current = _abs_sin_interval(best_n, w)
            if not cand.definitely_lt(current):
                continue
        lam = local_exponent(n, bits) if n >= 2 else None
        records.append(SpikeRecord(n, cand, lam, n in numerators))
        best = cand
        best_n = n
    return records
