"""Scanner for the sufficient-condition inequality

    |G(n)|^(2s)  <=  sin^2(n) * n^(2s+2-eps),

whose failure at an index marks a term the convergence argument cannot
absorb.  The left side is an exact big integer (G(n) = n); the right
side is error-bounded.  A verdict is accepted only when the exact left
value falls strictly outside the right side's error interval; overlap
escalates the working precision (doubling, capped at 2**20 bits) rather
than returning a three-valued answer -- sin n is never zero at an
integer, so separation always exists.

n^(2s+2-eps) is evaluated as exp((2s+2-eps) * ln n) on fixed-point
integers, which handles the non-integer exponent uniformly; eps is
carried as an exact fraction end to end so that scans are
bit-reproducible regardless of chunking or process count.

With G(n) = n both sides scale by n^(2s), so the verdict is independent
of s; the parameter stays exposed and the invariance is asserted by the
test suite instead of being hard-coded.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

from .combinatorics import g_value
from .errors import DomainError, UndecidableError
from .mpreal import (
    MpReal,
    clog2,
    fx_exp_small,
    fx_ln_int,
    ln2_mantissa,
    round_div,
    sin_ball,
)

__all__ = [
    "CriterionReport",
    "ScanResult",
    "check_criterion",
    "scan_criterion",
]

_ESCALATION_CAP = 1 << 20
_CHUNK = 4096


@dataclass(frozen=True)
class CriterionReport:
    n: int
    s: int
    epsilon: float
    lhs: MpReal
    rhs: MpReal
    satisfied: bool
    margin: float      # ln(rhs) - ln(lhs)
    ln_lhs: float
    ln_rhs: float


def _epsilon_fraction(epsilon) -> Fraction:
    eps = Fraction(epsilon) if not isinstance(epsilon, Fraction) else epsilon
    if not 0 < eps < 2:
        raise DomainError(f"epsilon must lie in (0, 2), got {epsilon!r}")
    return eps


def _kernel(n: int, s: int, c_num: int, c_den: int, w: int):
    """One inequality evaluation at working precision w.

    Returns (verdict, ln_lhs, ln_rhs, rhs_interval) where verdict is
    True/False/None (None = error intervals overlap, caller escalates)
    and rhs_interval = (rhs_lo, rhs_hi, scale_bits) in exact integer
    units of 2**-scale_bits.
    """
    wr = w + clog2(max(n, 2)) + 8
    S, e_abs = sin_ball(n, wr)
    m = abs(S)
    if m <= e_abs:
        return None, 0.0, 0.0, None
    ln_n, e_ln = fx_ln_int(n, w)
    ceil_c = -(-c_num // c_den)
    arg = round_div(ln_n * c_num, c_den)
    arg_err = e_ln * ceil_c + 1
    l2 = ln2_mantissa(w)
    q = round_div(arg, l2)
    rem = arg - q * l2
    e_pow, e_exp = fx_exp_small(rem, w)
    e_tot = e_exp + 3 * (arg_err + (q >> 1) + 2)
    if e_pow <= e_tot:
        return None, 0.0, 0.0, None
    scale = 2 * wr + w - q
    rhs_lo = (m - e_abs) ** 2 * (e_pow - e_tot)
    rhs_hi = (m + e_abs) ** 2 * (e_pow + e_tot)
    lhs = g_value(n).value ** (2 * s)
    lhs_scaled = lhs << scale
    if lhs_scaled < rhs_lo:
        verdict = True
    elif lhs_scaled > rhs_hi:
        verdict = False
    else:
        verdict = None
    ln_sin2 = 2 * (fx_ln_int(m, w)[0] - wr * l2)
    ln_rhs = (ln_sin2 + arg) / (1 << w)
    ln_lhs = (2 * s * ln_n) / (1 << w)
    return verdict, ln_lhs, ln_rhs, (rhs_lo, rhs_hi, scale)


def _decided_kernel(n: int, s: int, c_num: int, c_den: int, bits: int):
    """Escalate _kernel until the verdict is strict; deterministic in inputs."""
    w = bits + 48
    while True:
        verdict, ln_lhs, ln_rhs, interval = _kernel(n, s, c_num, c_den, w)
        if verdict is not None:
            return verdict, ln_lhs, ln_rhs, interval
        if w >= _ESCALATION_CAP:
            raise UndecidableError(
                f"criterion at n={n} undecided at the {_ESCALATION_CAP}-bit cap"
            )
        w *= 2


def check_criterion(n: int, s: int, epsilon, bits: int = 64) -> CriterionReport:
    """Decide the inequality at one index, escalating precision as needed."""
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"check_criterion requires an integer n >= 1, got {n!r}")
    if not isinstance(s, int) or s < 1:
        raise DomainError(f"check_criterion requires an integer s >= 1, got {s!r}")
    eps = _epsilon_fraction(epsilon)
    c = Fraction(2 * s + 2) - eps
    verdict, ln_lhs, ln_rhs, (rhs_lo, rhs_hi, scale) = _decided_kernel(
        n, s, c.numerator, c.denominator, bits)
    lhs = MpReal.from_int(g_value(n).value ** (2 * s), bits)
    man = (rhs_lo + rhs_hi) // 2
    err = Fraction(rhs_hi - rhs_lo + 2, 1 << (scale + 1))
    rhs = MpReal(man, -scale, err, bits).round_to(bits)
    return CriterionReport(
        n=n, s=s, epsilon=float(eps), lhs=lhs, rhs=rhs, satisfied=verdict,
        margin=ln_rhs - ln_lhs, ln_lhs=ln_lhs, ln_rhs=ln_rhs,
    )


@dataclass(frozen=True)
class ScanResult:
    violations: list[CriterionReport]
    summary: dict


def _scan_chunk(args) -> tuple[list[int], int, tuple[float, int]]:
    lo, hi, s, c_num, c_den, bits = args
    violations: list[int] = []
    worst = (float("inf"), -1)
    for n in range(lo, hi + 1):
        verdict, ln_lhs, ln_rhs, _ = _decided_kernel(n, s, c_num, c_den, bits)
        margin = ln_rhs - ln_lhs
        if not verdict:
            violations.append(n)
        if margin < worst[0]:
            worst = (margin, n)
    return violations, hi - lo + 1, worst


def scan_criterion(n_range: tuple[int, int], s: int, epsilon,
                   bits: int = 64, threads: int = 1) -> ScanResult:
    """Check every n in the inclusive range; report violations ascending.

    The range is cut into fixed 4096-wide chunks which may be evaluated
    in worker processes (at most one per chunk and per CPU, whatever
    `threads` asks for); chunk results are merged in ascending order, so
    the output is independent of `threads`.
    """
    lo, hi = n_range
    if not (isinstance(lo, int) and isinstance(hi, int)) or lo < 1 or hi < lo:
        raise DomainError(f"bad scan range {n_range!r}; need 1 <= lo <= hi")
    if not isinstance(s, int) or s < 1:
        raise DomainError(f"scan_criterion requires an integer s >= 1, got {s!r}")
    eps = _epsilon_fraction(epsilon)
    c = Fraction(2 * s + 2) - eps
    chunks = [(a, min(a + _CHUNK - 1, hi), s, c.numerator, c.denominator, bits)
              for a in range(lo, hi + 1, _CHUNK)]
    workers = min(threads, len(chunks), os.cpu_count() or 1)
    if workers > 1:
        import concurrent.futures as cf
        with cf.ProcessPoolExecutor(max_workers=workers) as pool:
            pieces = list(pool.map(_scan_chunk, chunks))
    else:
        pieces = [_scan_chunk(chunk) for chunk in chunks]
    violation_ns: list[int] = []
    checked = 0
    worst = (float("inf"), -1)
    for vios, count, piece_worst in pieces:
        violation_ns.extend(vios)
        checked += count
        if piece_worst[1] >= 0 and piece_worst < worst:
            worst = piece_worst
    violations = [check_criterion(n, s, eps, bits) for n in violation_ns]
    summary = {
        "checked": checked,
        "violations": len(violations),
        "worst_margin_n": worst[1],
        "worst_margin": worst[0],
    }
    return ScanResult(violations, summary)
