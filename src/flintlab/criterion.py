"""Scanner for the sufficient-condition inequality

    |G(n)|^(2s)  <=  sin^2(n) * n^(2s+2-eps),

whose failure at an index marks a term the convergence argument cannot
absorb.  With G(n) = n both sides carry the exact factor n^(2s), so the
inequality is sin^2(n) * n^(2-eps) >= 1 for every s.  A verdict is
accepted only when 1 falls strictly outside the error interval of the
left side and the sine ball's radius is below 2**-24 of its centre;
otherwise the working precision doubles (capped at 2**20 bits) -- sin n
is never zero at an integer, so both are reached.

One index (check_criterion) takes n^(2-eps) from mpreal.fx_pow, fed with
the same ln n that gives ln_lhs and ln_rhs; the reported right side is
that interval times the exact n^(2s).  eps is an exact fraction end to
end, so scans are bit-reproducible regardless of chunking or processes.

A range scan (scan_criterion) reports the violators, the count of
indices and the least float margin with its n; "satisfied" means
sin^2(n) * n^(2-eps) > 1.  It cuts the range into blocks of equal
clog2 n and runs rounds t = 0, 1, ... (_scan).  Each index it does not
settle at once goes to the escalating kernel once, and a violator's
report is built from that call (_report), so reports equal
check_criterion's bit for bit.

Windows.  By Jordan's inequality a violator lies within (pi/2) *
n^-(1-eps/2) of some k*pi, so the n within a slightly wider window,
certified on integers, form a superset of the violators.  A Euclid-like
modular search (_near_multiples) lists them in O(log) big-integer steps
each; a block whose window spans every n takes them all.

The walk.  In round 0 a block from n = 64 on whose window holds
1/_SPARSE_COST of its n or more (_walks) is screened instead: the square
of the rounded sine of the rotation walk is compared with a certified
bound on n^-(2-eps) that holds over a short run of n (_screen), and only
the n it leaves open go to the kernel.  Walked pieces of _CHUNK indices
run on a process pool when a round walks two or more chunks' worth and
threads > 1; their workers build their violators' reports.

Worst margin.  Later rounds widen every window by doubling factors until
the least margin found provably beats every n outside them, skipping
the rounds that would decide nothing.  Every decided n's float margin is
within s * 5e-7 of ln(sin^2(n) * n^(2-eps)) (see _decided_kernel), and
that argument rests on it.  Ranges end below 2**1024 - 2**970.
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
    _is_int,
    _require_bits,
    abs_sin_walk,
    clog2,
    exact_fraction,
    fx_ln_int,
    fx_pow,
    ln2_mantissa,
    pi_mantissa,
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
_CHUNK = 4096             # most indices in one walked piece
_WALK_BASE = 40           # the scan's sine is round(|sin n| * 2**(40 + clog2 n))
_SUBBLOCK_SHIFT = 5       # one pair of thresholds serves n .. n + (n >> 5)
_SCREEN_SLACK = 1e-6      # worst-margin tolerance, per unit of s
_SCAN_LIMIT = (1 << 1024) - (1 << 970)   # _decided_kernel's float bound assumes n < 2**1024
_SPARSE_COST = 32         # walked indices that cost about as much as one kernel call
_LN2 = math.log(2)


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
    True/False/None (None = the sine ball's radius is 2**-24 of its centre
    or more, or the interval holds 1: the caller escalates) and interval =
    (lo, hi, scale_bits) brackets sin^2(n) * n^(2-eps) in exact integer
    units of 2**-scale_bits.
    """
    wr = w + clog2(max(n, 2)) + 8
    S, e_abs = sin_ball(n, wr)
    m = abs(S)
    if m <= e_abs << 24:
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
    """Escalate _kernel until the verdict is strict and the sine ball narrow;
    deterministic in inputs.

    Float margin.  For n < 2**1024 the returned ln_rhs - ln_lhs is within
    1.2e-7 + s * 1e-9 <= s * 5e-7 of ln(sin^2(n) * n^(2-eps)).
    * Sine.  _kernel decides only when its sine ball (S, e) at wr = w +
      clog2 n + 8 has m = |S| > e * 2**24.  Then |sin n| * 2**wr lies
      within a factor 1 +- 2**-24 of m, so 2 ln(m * 2**-wr) is within
      2**-23 * (1 + 2**-24) < 1.2e-7 of ln sin^2 n.
    * Fixed point.  With L = fx_ln_int(n, w), ln_rhs - ln_lhs is (ln_sin2
      + round((2-eps) * L)) * 2**-w, since 2s*L is an integer.  fx_ln_int
      is within 2.7w + b + 40 ulps at a b-bit argument (its atanh loop
      stops by i = w/3 + 2).  So ln_sin2 = 2 * (ln m - wr * ln 2) is off
      by at most 2 * (2.7w + 1.5wr + 41) ulps, and round((2-eps) * L) by
      2 * (2.7w + 1064) + 1/2; with w >= 56 both are below 1e-13.
    * Floats.  Rounding ln_rhs, ln_lhs and their difference adds at most
      2**-52 * (|ln_rhs| + |ln_lhs|), with ln n < 710 and |ln sin^2 n| <
      2 * wr * ln 2 (m > 2**24, w <= 2**20): below 3.3e-10 + s * 7e-13.
    """
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
    if not _is_int(n) or n < 1:
        raise DomainError(f"check_criterion requires an integer n >= 1, got {n!r}")
    if not _is_int(s) or s < 1:
        raise DomainError(f"check_criterion requires an integer s >= 1, got {s!r}")
    _require_bits(bits)
    eps = _epsilon_fraction(epsilon)
    c = Fraction(2 * s + 2) - eps
    return _report(n, s, eps, bits, _decided_kernel(n, s, c.numerator, c.denominator, bits))


def _report(n: int, s: int, eps: Fraction, bits: int, kernel_out) -> CriterionReport:
    """The report of index n, built from the _decided_kernel output that decided it."""
    verdict, ln_lhs, ln_rhs, (lo, hi, scale) = kernel_out
    lhs = MpReal(g_value(n).value ** (2 * s), 0)
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


def _sine_thresholds(n: int, c: Fraction, w: int) -> int:
    """t_sat >= 2**(2w+2) / n^c, from one ball for n^c.

    For c > 0, sin^2(x) * x^c > 1 at every x >= n when (|sin x| *
    2**(w+1))^2 > t_sat.  fx_pow at v = w + 8 bits gives (E - err) *
    2**(q-v) <= n^c, with q <= c*log2(n) + 1 <= 2w + 1.  A ball with E <=
    err carries no information, so it gives t_sat = 2**(2w+4), above
    every (2m - 1)^2 with m <= 2**w.
    """
    v = w + 8
    E, err, q = fx_pow(*fx_ln_int(n, v), c, v)
    if E <= err:
        return 1 << (2 * w + 4)
    return -(-(1 << (2 * w + 2 + v - q)) // (E - err))


def _screen(ns: range, c_pow: Fraction):
    """The n of ns, a run of one block, that the walk does not settle.

    m = round(|sin n| * 2**w) from abs_sin_walk with w = _WALK_BASE + c,
    c = clog2(n), so |sin n| * 2**(w+1) lies strictly inside (2m - 1,
    2m + 1).  "Satisfied", sin^2(n) * n^(2-eps) > 1, is certain when
    (2m - 1)^2 exceeds the t_sat of _sine_thresholds; equality is
    impossible, sin n being transcendental.  The run is cut into
    subblocks a..b, b = a + (a >> _SUBBLOCK_SHIFT), and t_sat comes from
    one ball at a.  n^(2-eps) varies by a factor below (1 + 2**-5)^2 over
    a..b, so only an n whose sin^2 n lies in that narrow band, or below
    it, is left open.
    """
    w = _WALK_BASE + clog2(max(ns.start, 2))
    sub_end = 0
    for n, m in zip(ns, abs_sin_walk(ns.start, ns[-1], _WALK_BASE)):
        if n > sub_end:
            sub_end = n + (n >> _SUBBLOCK_SHIFT)
            t_sat = _sine_thresholds(n, c_pow, w)
        if max(2 * m - 1, 0) ** 2 <= t_sat:
            yield n


def _decide(args) -> list[tuple[int, float, CriterionReport | None]]:
    """(n, kernel margin, report or None) for each n that _decided_kernel
    decides: every n of ns, or, when `walk` is set, those that _screen
    leaves open.  A violator's report is built from the call that decided
    it, in the process that ran it."""
    ns, walk, s, c_num, c_den, bits = args
    eps = Fraction(2 * s + 2) - Fraction(c_num, c_den)
    decided = []
    for n in _screen(ns, 2 - eps) if walk else ns:
        out = _decided_kernel(n, s, c_num, c_den, bits)
        decided.append((n, out[2] - out[1], None if out[0] else _report(n, s, eps, bits, out)))
    return decided


def _walks(a: int, D: int, M: int) -> bool:
    """Whether round 0 walks the block from a rather than search its window
    of D units (M is pi's mantissa in the same units).

    The window holds a share 2D/M of the block's n, each costing one
    kernel call, and a walked n costs about 1/_SPARSE_COST of one.  Below
    a = 64 a subblock of _screen holds at most two n, so its threshold
    ball makes a walked n cost about a fifth of a kernel call: those
    blocks are never walked.
    """
    return a >> (_SUBBLOCK_SHIFT + 1) > 0 and 2 * D * _SPARSE_COST >= M


def _first_hit(a: int, b: int, m: int, lo: int, hi: int) -> int | None:
    """Least x >= 0 with lo <= (a*x + b) mod m <= hi, or None if there is none.

    Needs 0 <= a, b < m and 0 <= lo <= hi < m.  Each round answers, or
    asks the same question at a modulus at most half as large, so there
    are at most log2(m) + 1 rounds (the Euclid-like recursion behind the
    three-distance theorem; Slater 1967):
    * v -> m - 1 - v maps residues to residues, so (a, b, lo, hi) ->
      (m - a, m - 1 - b, m - 1 - hi, m - 1 - lo) keeps every solution and
      makes 2a <= m.
    * Lap 0, before a*x + b first reaches m, rises from b in steps of a:
      if b < lo its first value >= lo is at x = ceil((lo - b)/a), a hit
      iff that value is <= hi; if b > hi it has no hit.
    * Lap j >= 1 hits where a*x lies in [j*m + lo - b, j*m + hi - b].  Its
      least x, x_j = ceil((j*m + lo - b)/a), is a hit iff (-(j*m + lo -
      b)) mod a <= hi - lo.  x_j grows with j, so the answer comes from
      the least such j; with j = y + 1 that is the least y with
      (((-m) mod a) * y + (b - lo - m) mod a) mod a in [0, hi - lo], the
      same question at modulus a.
    """
    rounds = []
    while True:
        if lo <= b <= hi:
            x = 0
            break
        if a == 0:
            return None
        if 2 * a > m:
            a, b, lo, hi = m - a, m - 1 - b, m - 1 - hi, m - 1 - lo
        if b < lo:
            x = -((b - lo) // a)
            if b + a * x <= hi:
                break
        rounds.append((m, lo - b, a))
        a, b, m, lo, hi = (-m) % a, (b - lo - m) % a, a, 0, min(hi - lo, a - 1)
    for m, gap, a in reversed(rounds):
        x = -(-((x + 1) * m + gap) // a)
    return x


def _near_multiples(M: int, W: int, k0: int, k1: int, D: int):
    """round(k*M / 2**W), ascending, for each k in k0..k1 such that k*M
    lies within D of a multiple of 2**W.

    Needs 0 <= D and 2D < 2**W.  Then k qualifies iff (k*M + D) mod 2**W
    <= 2D, and that multiple is the nearest one, so the rounding gives it.
    """
    mod = 1 << W
    step = M % mod
    k = k0
    while True:
        x = _first_hit(step, (k * M + D) % mod, mod, 0, 2 * D)
        if x is None or k + x > k1:
            return
        k += x
        yield (k * M + (mod >> 1)) >> W
        k += 1


def _scan(lo: int, hi: int, s: int, c_num: int, c_den: int, bits: int,
          threads: int) -> tuple[list[CriterionReport], tuple[float, int]]:
    """Violators' reports, ascending, and (worst margin, its n) for lo..hi.

    Superset.  Let T = 2**t and D_T(n) = (pi/2) * T * n^-(1-eps/2).  By
    Jordan's inequality, |sin x| >= (2/pi)|x| for |x| <= pi/2, an n with
    |sin n| < T * n^-(1-eps/2) lies within D_T(n) of some k*pi.  A
    violator has sin^2(n) * n^(2-eps) < 1, so it lies within D_1(n).  Each
    n in a window goes to _decided_kernel once, and a violator's report is
    built from that call; every other n is satisfied.

    Window.  lo..hi splits into blocks a..b of equal c = clog2(max(n, 2)),
    and D_T(a) >= D_T(n) serves a whole block.  M = pi_mantissa(W) with W
    = 2*bitlen(hi) + 64 has |pi * 2**W - M| <= 1/2, and fx_pow gives
    a^(eps/2) <= (E + err) * 2**(q-v), so, in units of 2**-W,
        D_T(a) * 2**W <= (M + 1) * T * (E + err) * 2**(q-v) / (2a).
    The block's window is the ceiling of that.  The k with k*pi within 1/2
    of a..b lie in k0..k1, k0 = floor((a-1) * 2**W / (M+1)) and k1 =
    ceil((b+1) * 2**W / (M-1)).  If |k*pi - n| is below
    the window, |k*M - n * 2**W| is below the window plus k/2 units, so
    with D = window + k1 + 1 units _near_multiples lists k and n.  All of
    this is integer arithmetic.

    Small n.  A block where 2D >= 2**W, a window of 1/2 or more, is whole:
    it takes every n, so no rounding to the nearest integer is needed
    there.  At eps = 0.1 and T = 1 that is n <= 4: D_1(5) < 0.34.

    Round 0.  A block where _walks(a, D, M) holds at t = 0 is walked
    instead: _screen leaves open every n that is not certainly satisfied,
    so it keeps every violator, and an n it settles has sin^2(n) *
    n^(2-eps) > 1, which is all that lying outside the window of t = 0
    says.  Walked pieces of at most _CHUNK indices go to worker processes
    when the round walks at least 2 * _CHUNK indices and threads > 1.

    Worst margin.  The scan reports the least kernel margin over lo..hi,
    first n among equals.  An n outside the windows of T has sin^2(n) *
    n^(2-eps) >= T^2, so by _decided_kernel's bound its kernel margin is
    at least 2t ln 2 - s * 5e-7.  So from t = 0 up, the least margin over
    the decided n is final once it lies below 2t ln 2 - s * _SCREEN_SLACK
    (the float rounding of that bound is below 1e-12), or once every block
    is whole.  Otherwise the next round is the least t' > t that decides
    an n not yet decided, is whole, or has that bound above the least
    margin: the rounds between would decide nothing and end nothing.
    Each of these three grows with t, as the windows do, so t' is found by
    doubling t' - t, then bisecting, with probes that stop at the first
    new n.
    """
    eps = Fraction(2 * s + 2) - Fraction(c_num, c_den)
    W = 2 * hi.bit_length() + 64
    M = pi_mantissa(W)
    blocks = []
    a = lo
    while a <= hi:
        b = min(hi, 1 << clog2(max(a, 2)))
        v = 64
        while True:
            E, err, q = fx_pow(*fx_ln_int(a, v), eps / 2, v)
            if E > err:
                break
            v *= 2
        num, den = (M + 1) * (E + err) << max(q - v, 0), 2 * a << max(v - q, 0)
        k0 = ((a - 1) << W) // (M + 1)
        k1 = -(-((b + 1) << W) // (M - 1))
        blocks.append((a, b, num, den, k0, k1))
        a = b + 1

    def windows(t):
        """(a, b, D, whole, the n of the window) for each block at round t."""
        for a, b, num, den, k0, k1 in blocks:
            D = -(-(num << t) // den) + k1 + 1
            whole = 2 * D >= 1 << W
            yield a, b, D, whole, (range(a, b + 1) if whole else (
                n for n in _near_multiples(M, W, k0, k1, D) if a <= n <= b))

    def ends(t):
        return worst[0] < 2 * t * _LN2 - s * _SCREEN_SLACK

    def opens(t):
        """Whether round t ends the scan or decides an n not yet decided."""
        if ends(t):
            return True
        rows = list(windows(t))
        return all(row[3] for row in rows) or any(
            n not in decided for row in rows for n in row[4])

    decided: set[int] = set()
    violations: list[CriterionReport] = []
    worst = (math.inf, -1)
    t = 0
    while True:
        walked, candidates, whole = [], [], True
        for a, b, D, full, ns in windows(t):
            if t == 0 and _walks(a, D, M):
                walked += [(range(x, min(x + _CHUNK, b + 1)), True, s, c_num, c_den, bits)
                           for x in range(a, b + 1, _CHUNK)]
                whole = False
            else:
                whole &= full
                candidates += [n for n in ns if n not in decided]
        here = (candidates, False, s, c_num, c_den, bits)
        workers = min(threads, len(walked), os.cpu_count() or 1)
        if workers > 1 and sum(len(piece[0]) for piece in walked) >= 2 * _CHUNK:
            import concurrent.futures as cf
            with cf.ProcessPoolExecutor(max_workers=workers) as pool:
                pooled = pool.map(_decide, walked)
                out = [*_decide(here), *(x for part in pooled for x in part)]
        else:
            out = [x for piece in [*walked, here] for x in _decide(piece)]
        decided.update(n for n, _, _ in out)
        worst = min([worst, *((margin, n) for n, margin, _ in out)])
        violations += [report for _, _, report in out if report is not None]
        if whole or ends(t):
            break
        below, step = t, 1          # round t + 1, t + 3, t + 7, ... until one opens
        while not opens(below + step):
            below, step = below + step, 2 * step
        while step > 1:             # then bisect
            step //= 2
            if not opens(below + step):
                below += step
        t = below + 1
    violations.sort(key=lambda r: r.n)
    return violations, worst


def scan_criterion(n_range: tuple[int, int], s: int, epsilon,
                   bits: int = 64, threads: int = 1) -> ScanResult:
    """Check every n in the inclusive range; report violations ascending.

    The range must end below 2**1024 - 2**970.  Each index is decided at
    most once, and each violator's report comes from the _decided_kernel
    call that decided it, so it equals check_criterion's.  The worst
    margin is the least (margin, n), first n among equals.  Walked pieces
    may run in worker processes (at most one per piece and per CPU,
    whatever `threads` asks for) when a scan walks 8192 indices or more;
    the output does not depend on `threads`.
    """
    lo, hi = n_range
    if not (_is_int(lo) and _is_int(hi)) or lo < 1 or hi < lo:
        raise DomainError(f"bad scan range {n_range!r}; need 1 <= lo <= hi")
    if not _is_int(s) or s < 1:
        raise DomainError(f"scan_criterion requires an integer s >= 1, got {s!r}")
    if hi >= _SCAN_LIMIT:
        raise DomainError(f"scan ranges must end below 2**1024 - 2**970, got {hi}")
    _require_bits(bits)
    c = Fraction(2 * s + 2) - _epsilon_fraction(epsilon)
    violations, worst = _scan(lo, hi, s, c.numerator, c.denominator, bits, threads)
    summary = {
        "checked": hi - lo + 1,
        "violations": len(violations),
        "worst_margin_n": worst[1],
        "worst_margin": worst[0],
    }
    return ScanResult(violations, summary)
