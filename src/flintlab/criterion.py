"""Scanner for the sufficient-condition inequality

    |G(n)|^(2s)  <=  sin^2(n) * n^(2s+2-eps),

whose failure at an index marks a term the convergence argument cannot
absorb.  With G(n) = n both sides carry the exact factor n^(2s), so the
inequality is sin^2(n) * n^(2-eps) >= 1 for every s.  A verdict is
accepted only when 1 falls strictly outside the error interval of the
left side; overlap escalates the working precision (doubling, capped at
2**20 bits) -- sin n is never zero at an integer, so separation exists.

One index (check_criterion) takes n^(2-eps) from mpreal.fx_pow, fed with
the same ln n that gives ln_lhs and ln_rhs; the reported right side is
that interval times the exact n^(2s).  eps is an exact fraction end to
end, so scans are bit-reproducible regardless of chunking or processes.

A range scan (scan_criterion) decides most indices without ln or exp.
"Satisfied" means sin^2(n) * n^(2-eps) > 1.  The scan compares the
rounded sine of the rotation walk with certified bounds on n^-(2-eps)
that hold over short runs of n (see _scan_chunk); an index whose sine
falls between the two bounds goes to the escalating kernel.  Float
margins, which need ln, are computed (by the same kernel, so
bit-identical to check_criterion's) only for indices that a float
screen marks as candidates for the running worst margin.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction

from .combinatorics import g_value
from .errors import DomainError, UndecidableError
from .mpreal import (
    MpReal,
    abs_sin_walk,
    clog2,
    exact_fraction,
    fx_ln_int,
    fx_pow,
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
_WALK_BASE = 40           # the scan's sine is round(|sin n| * 2**(40 + clog2 n))
_SUBBLOCK_SHIFT = 5       # one pair of thresholds serves n .. n + (n >> 5)
_SCREEN_SLACK = 1e-6      # worst-margin screen tolerance, per unit of s
_SCREEN_MIN_M = 1 << 30   # a smaller m makes every n a worst-margin candidate


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
    eps = exact_fraction(epsilon, "epsilon")
    if not 0 < eps < 2:
        raise DomainError(f"epsilon must lie in (0, 2), got {epsilon!r}")
    return eps


def _kernel(n: int, s: int, c_num: int, c_den: int, w: int):
    """One evaluation of sin^2(n) * n^(2-eps) against 1 at working precision w.

    c = c_num/c_den = 2s + 2 - eps; the verdict uses c - 2s, the floats c.
    Returns (verdict, ln_lhs, ln_rhs, interval) where verdict is
    True/False/None (None = the interval holds 1, caller escalates) and
    interval = (lo, hi, scale_bits) brackets sin^2(n) * n^(2-eps) in exact
    integer units of 2**-scale_bits.
    """
    wr = w + clog2(max(n, 2)) + 8
    S, e_abs = sin_ball(n, wr)
    m = abs(S)
    if m <= e_abs:
        return None, 0.0, 0.0, None
    ln_n, e_ln = fx_ln_int(n, w)
    e_pow, e_tot, q = fx_pow(ln_n, e_ln, Fraction(c_num - 2 * s * c_den, c_den), w)
    if e_pow <= e_tot:
        return None, 0.0, 0.0, None
    scale = 2 * wr + w - q          # q <= 2 log2 n + 1 < 2wr + w
    lo = (m - e_abs) ** 2 * (e_pow - e_tot)
    hi = (m + e_abs) ** 2 * (e_pow + e_tot)
    one = 1 << scale
    if one < lo:
        verdict = True
    elif one > hi:
        verdict = False
    else:
        verdict = None
    # the float rounds c * ln n as fx_pow would at c = 2s + 2 - eps
    arg = round_div(ln_n * c_num, c_den)
    ln_sin2 = 2 * (fx_ln_int(m, w)[0] - wr * ln2_mantissa(w))
    ln_rhs = (ln_sin2 + arg) / (1 << w)
    ln_lhs = (2 * s * ln_n) / (1 << w)
    return verdict, ln_lhs, ln_rhs, (lo, hi, scale)


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
    """Decide the inequality at one index, escalating precision as needed.

    ``rhs`` contains n^(2s) * sin^2(n) * n^(2-eps), but its radius is
    relative to its size, not 2**-bits: it is the width of the interval
    that decided the verdict, at w >= bits + 48 working bits, times the
    exact n^(2s), then rounded by round_to(bits).  For n = 1000, s = 20,
    eps = 0.1 at 64 bits, rhs is near 3.4e125 with a radius near 6.8e94.
    ``lhs`` is exact.
    """
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"check_criterion requires an integer n >= 1, got {n!r}")
    if not isinstance(s, int) or s < 1:
        raise DomainError(f"check_criterion requires an integer s >= 1, got {s!r}")
    eps = _epsilon_fraction(epsilon)
    c = Fraction(2 * s + 2) - eps
    verdict, ln_lhs, ln_rhs, (lo, hi, scale) = _decided_kernel(
        n, s, c.numerator, c.denominator, bits)
    lhs = MpReal.from_int(g_value(n).value ** (2 * s))
    n2s = n ** (2 * s)                   # rhs = n^(2s) * sin^2(n) * n^(2-eps)
    man = (lo + hi) * n2s // 2
    err = Fraction((hi - lo) * n2s + 2, 1 << (scale + 1))
    rhs = MpReal(man, -scale, err).round_to(bits)
    return CriterionReport(
        n=n, s=s, epsilon=float(eps), lhs=lhs, rhs=rhs, satisfied=verdict,
        margin=ln_rhs - ln_lhs, ln_lhs=ln_lhs, ln_rhs=ln_rhs,
    )


@dataclass(frozen=True)
class ScanResult:
    violations: list[CriterionReport]
    summary: dict


def _sine_thresholds(n: int, c: Fraction, w: int) -> tuple[int, int]:
    """(t_sat, t_vio) with t_sat >= 2**(2w+2) / n^c >= t_vio, from one ball for n^c.

    For c > 0, sin^2(x) * x^c > 1 at every x >= n when (|sin x| *
    2**(w+1))^2 > t_sat, and sin^2(x) * x^c < 1 at every x <= n when it is
    below t_vio.  fx_pow at v = w + 8 bits gives (E - err) * 2**(q-v) <=
    n^c <= (E + err) * 2**(q-v), with q <= c*log2(n) + 1 <= 2w + 1.  A ball
    with E <= err carries no information, so it gives t_sat = 2**(2w+4),
    above every (2m - 1)^2 with m <= 2**w, and t_vio = 0, below every
    square.
    """
    v = w + 8
    E, err, q = fx_pow(*fx_ln_int(n, v), c, v)
    if E <= err:
        return 1 << (2 * w + 4), 0
    one = 1 << (2 * w + 2 + v - q)
    return -(-one // (E - err)), one // (E + err)


def _scan_chunk(args) -> tuple[list[int], int, tuple[float, int]]:
    """Violators, count and (worst margin, its n) for lo..hi, without ln or exp per n.

    Verdict.  m = round(|sin n| * 2**w) from abs_sin_walk with
    w = _WALK_BASE + c, c = clog2(n), so |sin n| * 2**(w+1) lies strictly
    inside (2m - 1, 2m + 1).  "Satisfied", sin^2(n) * n^(2-eps) > 1, is
    certain when (2m - 1)^2 exceeds the t_sat of _sine_thresholds, and
    "violated" is certain when (2m + 1)^2 is below its t_vio; equality is
    impossible, sin n being transcendental.  The indices of one w are cut
    into subblocks a..b, b = a + (a >> _SUBBLOCK_SHIFT) clipped at the
    power of two.  t_vio comes from the ball at b, and t_sat from the ball
    at a - 1, the previous subblock's b, which is sound since a - 1 < a;
    the first subblock of a w (or of the chunk) takes a fresh ball at a.
    So each subblock costs one ball.  n^(2-eps) varies by a factor below
    (1 + 2**-5)^2 over a - 1..b, so only an n whose sin^2 n lies in that
    narrow band is left open.  Whenever neither test is certain,
    _decided_kernel decides n as check_criterion does.

    Margin.  The reported margin of n is _decided_kernel's float, as in a
    per-n loop; the chunk keeps the least, and the first n among equals.
    The screen x = 2*(ln m - w*ln 2) + (2-eps)*ln n estimates the same
    quantity, ln(sin^2 n * n^(2-eps)).  The kernel evaluates n when m <
    min_m (below) or x < worst + s*_SCREEN_SLACK.  For n < 2**472 (so w
    and ln n are below 512) and m >= min_m, x and the kernel's float each
    lie within s * 5e-7 of the true value, so a skipped n has a kernel
    margin above worst, and a per-n loop would not have taken it either:
    (1) |ln m - ln(|sin n| * 2**w)| <= 1/(2m - 1) < 2**-30 for m >= 2**30,
    and the float operations in x add less than 2**-36.
    (2) The kernel's first attempt has wr = bits + 56 + c and a sine ball
    within e <= n/6 + 8*wr + 52 ulps (see mpreal.abs_sin_walk for the
    terms).  min_m > e * 2**(15 - bits) gives |sin n| * 2**wr > (m - 1/2)
    * 2**(bits + 16) >= e * 2**30, so its ln sin^2 n is within 2**-28;
    escalation only narrows the ball.  Its fixed-point ln n and ln 2 are
    within 2**-46, so ln_lhs = 2s*ln n and ln_rhs = ln sin^2 n +
    (2s+2-eps)*ln n gain at most (2s + 2) * 2**-46 more.  Rounding them and
    their difference to floats adds 2**-52 times magnitudes below
    (4s + 4) * ln n + 2w: less than s * 2**-39.
    """
    lo, hi, s, c_num, c_den, bits = args
    c_pow = Fraction(c_num, c_den) - 2 * s          # 2 - eps
    slope = float(c_pow)
    slack = s * _SCREEN_SLACK
    log = math.log
    violations: list[int] = []
    worst = (float("inf"), -1)
    top = sub_end = 0     # last n of the current w (a power of two), of the subblock
    for n, m in zip(range(lo, hi + 1), abs_sin_walk(lo, hi, _WALK_BASE)):
        if n > top:
            c = clog2(max(n, 2))
            top, w = 1 << c, _WALK_BASE + c
            ln_scale = 2 * w * math.log(2)
            e_max = (1 << c) // 6 + 8 * (bits + 56 + c) + 53
            min_m = max(_SCREEN_MIN_M, ((e_max << 15) >> bits) + 1)
            t_next = _sine_thresholds(n, c_pow, w)[0]
        if n > sub_end:
            sub_end = min(top, n + (n >> _SUBBLOCK_SHIFT))
            t_sat = t_next
            t_next, t_vio = _sine_thresholds(sub_end, c_pow, w)
        margin = None
        if max(2 * m - 1, 0) ** 2 > t_sat:
            verdict = True
        elif (2 * m + 1) ** 2 < t_vio:
            verdict = False
        else:
            verdict, ln_lhs, ln_rhs, _ = _decided_kernel(n, s, c_num, c_den, bits)
            margin = ln_rhs - ln_lhs
        if not verdict:
            violations.append(n)
        if margin is None and (m < min_m or
                               2 * log(m) - ln_scale + slope * log(n) < worst[0] + slack):
            _, ln_lhs, ln_rhs, _ = _decided_kernel(n, s, c_num, c_den, bits)
            margin = ln_rhs - ln_lhs
        if margin is not None and margin < worst[0]:
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
