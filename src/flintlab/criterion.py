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
indices and the least float margin with its n, and it takes one of two
paths to the same output.  "Satisfied" means sin^2(n) * n^(2-eps) > 1.

The sparse path (_sparse_scan) visits only the n near multiples of pi.
By Jordan's inequality a violator lies within (pi/2) * n^-(1-eps/2) of
some k*pi, so the n within a slightly wider window form a superset of
the violators; every other n is satisfied.  The window D is certified
on integers, from the upper end of an fx_pow ball and the mantissa M of
pi at W = 2*bitlen(hi) + 64 bits, plus k1 + 1 units for |k*(pi -
M/2**W)|, and the k with k*M within D of a multiple of 2**W are found by
a Euclid-like modular search in O(log) big-integer steps each.  The
worst margin widens the window by doubling factors until the least
margin found provably beats every n outside it.

The walk (_scan_chunk) compares the square of the rounded sine of the
rotation walk with a certified upper bound on n^-(2-eps) that holds
over a short run of n; an index whose square is not above it goes to
the escalating kernel.  scan_criterion takes its worst margin from the
violators' reports, or from the sparse path if none is deep.

Both paths decide every index they do not settle at once by the same
escalating kernel as check_criterion, once per index, and build each
violator's report with _report, as check_criterion does, from the call
that decided it, so reports are bit-identical to check_criterion's.
_use_sparse picks the path from (lo, hi, eps) alone: the sparse one
where few n are candidates, the walk for dense eps (at eps = 1.5 the
walk is faster) and for short ranges.  Only the walk runs a process
pool, whose workers build their violators' reports; the sparse path runs
in-process.  Every decided n's float margin is within s * 5e-7 of
ln(sin^2(n) * n^(2-eps)) (see _decided_kernel), and both paths' worst
margins rest on that bound.  Ranges end below 2**1024 - 2**970, where
_use_sparse's floats overflow.
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
_CHUNK = 4096
_WALK_BASE = 40           # the scan's sine is round(|sin n| * 2**(40 + clog2 n))
_SUBBLOCK_SHIFT = 5       # one pair of thresholds serves n .. n + (n >> 5)
_SCREEN_SLACK = 1e-6      # worst-margin tolerance, per unit of s
_SCAN_LIMIT = (1 << 1024) - (1 << 970)   # float(n) in _use_sparse overflows from here
_SPARSE_COST = 32         # walked indices that cost about as much as one kernel call
_SPARSE_BASE = 4096       # walked indices that cost about the sparse path's fixed work
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


def _scan_chunk(args) -> tuple[list[CriterionReport], dict[int, float]]:
    """The violators' reports in lo..hi, ascending, and the kernel margin of
    every n the chunk decided by _decided_kernel.

    m = round(|sin n| * 2**w) from abs_sin_walk with w = _WALK_BASE + c,
    c = clog2(n), so |sin n| * 2**(w+1) lies strictly inside (2m - 1,
    2m + 1).  "Satisfied", sin^2(n) * n^(2-eps) > 1, is certain when
    (2m - 1)^2 exceeds the t_sat of _sine_thresholds; equality is
    impossible, sin n being transcendental.  The indices of one w are cut
    into subblocks a..b, b = a + (a >> _SUBBLOCK_SHIFT) clipped at the
    power of two, and t_sat comes from one ball at a.  n^(2-eps) varies
    by a factor below (1 + 2**-5)^2 over a..b, so only an n whose sin^2 n
    lies in that narrow band, or below it, is left open.  _decided_kernel
    decides each such n once, as check_criterion does, and a violator's
    report is built here from that call, in the worker that found it.
    """
    lo, hi, s, c_num, c_den, bits = args
    eps = Fraction(2 * s + 2) - Fraction(c_num, c_den)
    c_pow = 2 - eps
    violations: list[CriterionReport] = []
    margins: dict[int, float] = {}
    top = sub_end = 0     # last n of the current w (a power of two), of the subblock
    for n, m in zip(range(lo, hi + 1), abs_sin_walk(lo, hi, _WALK_BASE)):
        if n > top:
            c = clog2(max(n, 2))
            top, w = 1 << c, _WALK_BASE + c
        if n > sub_end:
            sub_end = min(top, n + (n >> _SUBBLOCK_SHIFT))
            t_sat = _sine_thresholds(n, c_pow, w)
        if max(2 * m - 1, 0) ** 2 > t_sat:
            continue
        out = _decided_kernel(n, s, c_num, c_den, bits)
        margins[n] = out[2] - out[1]
        if not out[0]:
            violations.append(_report(n, s, eps, bits, out))
    return violations, margins


def _blocks(lo: int, hi: int):
    """(a, b) for each run a..b of lo..hi with equal clog2(max(n, 2))."""
    a = lo
    while a <= hi:
        b = min(hi, 1 << clog2(max(a, 2)))
        yield a, b
        a = b + 1


def _use_sparse(lo: int, hi: int, eps: Fraction) -> bool:
    """Whether scan_criterion takes _sparse_scan rather than the walk.

    Decided from (lo, hi, eps) alone, never from threads or chunking: both
    paths give the same output, so this only picks the faster one.  About
    n^-(1-eps/2) of the indices near n are sparse candidates (all of them
    where that exceeds 1), each costing one kernel call, some
    _SPARSE_COST walked indices; _SPARSE_BASE stands for the sparse
    path's fixed work, mostly the rounds that look for the worst margin.
    """
    expo = float(eps) / 2 - 1
    estimate = sum((b - a + 1) * min(1.0, float(a) ** expo) for a, b in _blocks(lo, hi))
    return _SPARSE_COST * estimate + _SPARSE_BASE < hi - lo + 1


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


def _sparse_scan(lo: int, hi: int, s: int, c_num: int, c_den: int, bits: int,
                 known: dict[int, float] | None = None,
                 ) -> tuple[list[CriterionReport], tuple[float, int]]:
    """Violators' reports and (worst margin, its n) for lo..hi, from the n near
    multiples of pi.

    Superset.  Let T = 2**t and D_T(n) = (pi/2) * T * n^-(1-eps/2).  By
    Jordan's inequality, |sin x| >= (2/pi)|x| for |x| <= pi/2, an n with
    |sin n| < T * n^-(1-eps/2) lies within D_T(n) of some k*pi.  A
    violator has sin^2(n) * n^(2-eps) < 1, so it lies within D_1(n).  Each
    n in a window goes to _decided_kernel once, which decides it exactly as
    the walk does, and a violator's report is built from that call; every
    other n is satisfied.

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

    Small n.  A block where 2D >= 2**W, a window of 1/2 or more, is handed
    to the kernel whole, so no rounding to the nearest integer is needed
    there.  At eps = 0.1 and T = 1 that is n <= 4: D_1(5) < 0.34.

    Worst margin.  The scan reports the least kernel margin over lo..hi,
    first n among equals.  An n outside the windows of T has sin^2(n) *
    n^(2-eps) >= T^2, so by _decided_kernel's bound its kernel margin is
    at least 2t ln 2 - s * 5e-7.  So from t = 0 up, the least margin over
    the windows' n is final once it lies below 2t ln 2 - s * _SCREEN_SLACK
    (the float rounding of that bound is below 1e-12), or once every block
    is whole; otherwise t grows by one.  The windows grow with t, and
    every n in them is decided once.

    Known margins.  `known` maps n in lo..hi that a caller has already
    decided to their kernel margins; those n are not decided again, and
    their margins count towards the worst.  That keeps the argument above:
    once every n in the windows is decided, the least margin over a larger
    set of n in lo..hi is still final when it lies below the bound, and an
    n outside the windows lies strictly above that bound.  Reports are
    returned only for the violators decided here.
    """
    eps = Fraction(2 * s + 2) - Fraction(c_num, c_den)
    half_eps = eps / 2
    W = 2 * hi.bit_length() + 64
    M = pi_mantissa(W)
    blocks = []
    for a, b in _blocks(lo, hi):
        v = 64
        while True:
            E, err, q = fx_pow(*fx_ln_int(a, v), half_eps, v)
            if E > err:
                break
            v *= 2
        num, den = (M + 1) * (E + err), 2 * a
        if q >= v:
            num <<= q - v
        else:
            den <<= v - q
        k0 = ((a - 1) << W) // (M + 1)
        k1 = -(-((b + 1) << W) // (M - 1))
        blocks.append((a, b, num, den, k0, k1))
    decided = dict(known or {})         # n -> kernel margin
    violations: dict[int, CriterionReport] = {}
    t = 0
    while True:
        whole = True
        for a, b, num, den, k0, k1 in blocks:
            D = -(-(num << t) // den) + k1 + 1
            if 2 * D >= 1 << W:
                ns = range(a, b + 1)
            else:
                whole = False
                ns = (n for n in _near_multiples(M, W, k0, k1, D) if a <= n <= b)
            for n in ns:
                if n not in decided:
                    out = _decided_kernel(n, s, c_num, c_den, bits)
                    decided[n] = out[2] - out[1]
                    if not out[0]:
                        violations[n] = _report(n, s, eps, bits, out)
        worst = min(((margin, n) for n, margin in decided.items()), default=(math.inf, -1))
        if whole or worst[0] < 2 * t * _LN2 - s * _SCREEN_SLACK:
            break
        t += 1
    return [violations[n] for n in sorted(violations)], worst


def scan_criterion(n_range: tuple[int, int], s: int, epsilon,
                   bits: int = 64, threads: int = 1) -> ScanResult:
    """Check every n in the inclusive range; report violations ascending.

    The range must end below 2**1024 - 2**970.  On the walk, the range is
    cut into fixed 4096-wide chunks which may be evaluated in worker
    processes (at most one per chunk and per CPU, whatever `threads` asks
    for); chunk results are merged in ascending order, so the output is
    independent of `threads`.  The sparse path ignores `threads` and starts no pool.

    Each index is decided at most once per call, and each violator's
    report comes from the _decided_kernel call that decided it, built
    where that call ran: in _sparse_scan, or in the worker that ran the
    walk's chunk.  scan_criterion only merges them.

    Worst margin: the least (margin, n), first n among equals.  On the
    walk it is the least over the violators' reports if that lies below
    -s * _SCREEN_SLACK, else _sparse_scan's, which is handed the margins
    of every n the chunks decided, so that none is decided again.  A
    satisfied n has sin^2(n) * n^(2-eps) > 1, so by _decided_kernel's
    bound its kernel float exceeds -s * 5e-7, and such a violator beats
    every satisfied n.  The walk runs where many n are candidates, so
    only short ranges fall back.
    """
    lo, hi = n_range
    if not (_is_int(lo) and _is_int(hi)) or lo < 1 or hi < lo:
        raise DomainError(f"bad scan range {n_range!r}; need 1 <= lo <= hi")
    if not _is_int(s) or s < 1:
        raise DomainError(f"scan_criterion requires an integer s >= 1, got {s!r}")
    if hi >= _SCAN_LIMIT:
        raise DomainError(f"scan ranges must end below 2**1024 - 2**970, got {hi}")
    _require_bits(bits)
    eps = _epsilon_fraction(epsilon)
    c = Fraction(2 * s + 2) - eps
    kernel_args = s, c.numerator, c.denominator, bits
    if _use_sparse(lo, hi, eps):
        violations, worst = _sparse_scan(lo, hi, *kernel_args)
    else:
        chunks = [(a, min(a + _CHUNK - 1, hi), *kernel_args)
                  for a in range(lo, hi + 1, _CHUNK)]
        workers = min(threads, len(chunks), os.cpu_count() or 1)
        if workers > 1:
            import concurrent.futures as cf
            with cf.ProcessPoolExecutor(max_workers=workers) as pool:
                pieces = list(pool.map(_scan_chunk, chunks))
        else:
            pieces = [_scan_chunk(chunk) for chunk in chunks]
        violations = [r for reports, _ in pieces for r in reports]
        worst = min(((r.margin, r.n) for r in violations), default=(math.inf, -1))
        if not worst[0] < -s * _SCREEN_SLACK:
            known = {n: margin for _, margins in pieces for n, margin in margins.items()}
            worst = _sparse_scan(lo, hi, *kernel_args, known)[1]
    summary = {
        "checked": hi - lo + 1,
        "violations": len(violations),
        "worst_margin_n": worst[1],
        "worst_margin": worst[0],
    }
    return ScanResult(violations, summary)
