"""Scanner for the sufficient-condition inequality

    |G(n)|^(2s)  <=  sin^2(n) * n^(2s+2-eps),

whose failure at an index marks a term the convergence argument cannot
absorb.  With G(n) = n both sides carry the exact factor n^(2s), so the
inequality is sin^2(n) * n^(2-eps) >= 1 for every s.  The sine comes
from mpreal.sin_rel with its radius below 2**-24 of its centre, which
raises the sine's own precision as far as that takes (sin n is never
zero at an integer).  A verdict is accepted only when 1 falls strictly
outside the error interval of the left side; otherwise the working
precision of the logs and the power doubles (capped at 2**20 bits).

One index (check_criterion) takes n^(2-eps) from mpreal.fx_pow, fed with
the same ln n that gives ln_lhs and ln_rhs; the reported right side is
that interval times the exact n^(2s).  eps is an exact fraction end to
end, so scans are bit-reproducible regardless of chunking or processes.

A range scan (scan_criterion) reports the violators, the count of
indices and the least float margin with its n; "satisfied" means
sin^2(n) * n^(2-eps) > 1.  Only an n close to a multiple of pi can
violate: |sin n| < n^-(1-eps/2) puts n within arcsin n^-(1-eps/2) of
some k*pi.  The scan cuts the range into blocks of equal clog2 n, bounds
that distance per block on integers, and lists the n within it by a
Euclid-like modular search (_near_multiples), or takes every n of a
block whose windows cover it (_scan).  Each listed n goes to the
escalating kernel once, in pieces that may run on a process pool, and a
violator's report is built from that call (_report), so reports equal
check_criterion's bit for bit.

Worst margin.  Later rounds widen every window by doubling factors until
the least margin found provably beats every n outside them, skipping
the rounds that would decide nothing.  Every decided n's float margin is
within s * 5e-7 of ln(sin^2(n) * n^(2-eps)) (see _decided_kernel), and
that argument rests on it.  Ranges end below 2**1024 - 2**970.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction

from .errors import DomainError, UndecidableError
from .mpreal import (
    MpReal,
    _Frozen,
    _ball,
    _is_int,
    _require_bits,
    clog2,
    exact_fraction,
    fx_ln_int,
    fx_pow,
    ln2_mantissa,
    pi_mantissa,
    round_div,
    sin_rel,
)

__all__ = [
    "CriterionReport",
    "ScanResult",
    "check_criterion",
    "scan_criterion",
]

_ESCALATION_CAP = 1 << 20
_CHUNK = 1024             # most candidates in one piece of a round
_SCREEN_SLACK = 1e-6      # worst-margin tolerance, per unit of s
_SCAN_LIMIT = (1 << 1024) - (1 << 970)   # _decided_kernel's float bound assumes n < 2**1024
_LN2 = math.log(2)


class CriterionReport(_Frozen):
    """The verdict at index n, and the kernel interval that decided it.

    ``interval`` = (lo, hi, scale) brackets sin^2(n) * n^(2-eps) in units
    of 2**-scale (see _kernel); ``lhs`` and ``rhs`` are built from it and
    ``bits`` on first read and cached in two slots outside the fields.
    Equality, hashing, pickling and repr use the fields alone, which are
    ints, floats and a bool.
    """

    _fields = ("n", "s", "epsilon", "satisfied", "margin", "ln_lhs", "ln_rhs", "interval",
               "bits")
    __slots__ = _fields + ("_lhs", "_rhs")
    n: int
    s: int
    epsilon: float
    satisfied: bool
    margin: float      # ln(rhs) - ln(lhs)
    ln_lhs: float
    ln_rhs: float
    interval: tuple[int, int, int]
    bits: int

    @property
    def lhs(self) -> MpReal:
        """|G(n)|^(2s) = n^(2s), exact."""
        try:
            return self._lhs
        except AttributeError:
            lhs = _ball(self.n ** (2 * self.s), 0, 0, 1)
            object.__setattr__(self, "_lhs", lhs)
            return lhs

    @property
    def rhs(self) -> MpReal:
        """n^(2s) * sin^2(n) * n^(2-eps): the interval times the exact
        n^(2s), centred, then rounded by round_to(bits)."""
        try:
            return self._rhs
        except AttributeError:
            lo, hi, scale = self.interval
            n2s = self.lhs.man
            rhs = _ball((lo + hi) * n2s // 2, -scale, (hi - lo) * n2s + 2,
                        1 << (scale + 1)).round_to(self.bits)
            object.__setattr__(self, "_rhs", rhs)
            return rhs


def _epsilon_fraction(epsilon) -> Fraction:
    eps = exact_fraction(epsilon, "epsilon")
    if not 0 < eps < 2:
        raise DomainError(f"epsilon must lie in (0, 2), got {epsilon!r}")
    return eps


def _kernel(n: int, s: int, p: Fraction, w: int):
    """One evaluation of sin^2(n) * n^p against 1 at working precision w.

    p = 2 - eps.  The verdict uses p; ln_rhs rounds (2s + p) * ln n at
    scale 2**-w, with L = fx_ln_int(n, w) standing for ln n.  2s + p has
    the lowest-terms denominator d of p, so round_div(L * (2s*d + p_num),
    d) = 2s*L + round_div(L * p_num, d) exactly, and the floats are those
    of c = 2s + p bit for bit without forming c.  The sine ball (S,
    e_abs) at 2**-wr comes from sin_rel, first tried at wr = w + clog2 n
    + 8, so |S| > e_abs * 2**24 whatever the verdict.
    Returns (verdict, ln_lhs, ln_rhs, interval) where verdict is
    True/False/None (None = the power n^(2-eps) is unresolved or the
    interval holds 1: the caller escalates) and interval = (lo, hi,
    scale_bits) brackets sin^2(n) * n^(2-eps) in exact integer units of
    2**-scale_bits.
    """
    S, e_abs, wr = sin_rel(n, 24, w + clog2(max(n, 2)) + 8)
    m = abs(S)
    ln_n, e_ln = fx_ln_int(n, w)
    e_pow, e_tot, q = fx_pow(ln_n, e_ln, p, w)
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
    lhs_units = 2 * s * ln_n
    ln_sin2 = 2 * (fx_ln_int(m, w)[0] - wr * ln2_mantissa(w))
    ln_rhs = (ln_sin2 + lhs_units + round_div(ln_n * p.numerator, p.denominator)) / (1 << w)
    ln_lhs = lhs_units / (1 << w)
    return verdict, ln_lhs, ln_rhs, (lo, hi, scale)


def _decided_kernel(n: int, s: int, p: Fraction, bits: int):
    """Escalate _kernel until the verdict is strict; deterministic in inputs.

    Only an unresolved power or an interval that holds 1 doubles w:
    sin_rel already gives the sine to 2**-24 of its size at every w.

    Float margin.  For n < 2**1024 the returned ln_rhs - ln_lhs is within
    1.3e-7 + s * 1e-12 <= s * 5e-7 of ln(sin^2(n) * n^(2-eps)).  Below,
    wr is the sine's precision, w + clog2 n + 8 <= wr <= MAX_BITS, and w
    >= 56.
    * Sine.  sin_rel gives m = |S| > e * 2**24, so |sin n| * 2**wr lies
      within a factor 1 +- 2**-24 of m, and 2 ln(m * 2**-wr) is within
      2**-23 * (1 + 2**-24) < 1.2e-7 of ln sin^2 n.
    * Fixed point.  With L = fx_ln_int(n, w), ln_rhs - ln_lhs is (ln_sin2
      + round((2-eps) * L)) * 2**-w, since 2s*L is an integer.  fx_ln_int
      is within 2.7w + b + 40 ulps at a b-bit argument (its atanh loop
      stops by i = w/3 + 2).  So ln_sin2 = 2 * (ln m - wr * ln 2), with m
      below 2**(wr+1), is off by at most 2 * (2.7w + 1.5wr + 41) ulps,
      and round((2-eps) * L) by 2 * (2.7w + 1064) + 1/2; with wr <= 10**7
      their sum is below 3.1e7 * 2**-56 < 5e-10.
    * Floats.  Rounding ln_rhs, ln_lhs and their difference adds at most
      2**-52 * (|ln_rhs| + |ln_lhs|), with ln n < 710 and |ln sin^2 n| <
      2 * wr * ln 2 (m > 2**24): below 3.2e-9 + s * 7e-13.
    """
    w = bits + 48
    while True:
        verdict, ln_lhs, ln_rhs, interval = _kernel(n, s, p, w)
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
    ``lhs`` is exact.  The report keeps the interval; both balls are
    built on first read.
    """
    if not _is_int(n) or n < 1:
        raise DomainError(f"check_criterion requires an integer n >= 1, got {n!r}")
    if not _is_int(s) or s < 1:
        raise DomainError(f"check_criterion requires an integer s >= 1, got {s!r}")
    _require_bits(bits)
    eps = _epsilon_fraction(epsilon)
    return _report(n, s, float(eps), bits, _decided_kernel(n, s, 2 - eps, bits))


def _report(n: int, s: int, epsilon: float, bits: int, kernel_out) -> CriterionReport:
    """The report of index n, built from the _decided_kernel output that decided it."""
    verdict, ln_lhs, ln_rhs, interval = kernel_out
    return CriterionReport(n, s, epsilon, verdict, ln_rhs - ln_lhs, ln_lhs, ln_rhs,
                           interval, bits)


class ScanResult(_Frozen):
    __slots__ = _fields = ("violations", "summary")
    violations: list[CriterionReport]
    summary: dict


def _decide(args) -> list[tuple[int, float, tuple | None]]:
    """(n, kernel margin, kernel output or None) for each n of a piece, as
    _decided_kernel decides it; the output is kept for a violator only,
    and holds ints, floats and a bool, so a pool returns it cheaply."""
    ns, s, p, bits = args
    decided = []
    for n in ns:
        out = _decided_kernel(n, s, p, bits)
        decided.append((n, out[2] - out[1], None if out[0] else out))
    return decided


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
    """Ascending, the n with |k*M - n * 2**W| <= D for some k in k0..k1.

    Needs 0 <= D and 2D < M, so the n of distinct k are distinct and
    ascend with k.  If 2D < 2**W, a k has at most one such n, the nearest
    round(k*M / 2**W), and has it iff (k*M + D) mod 2**W <= 2D: _first_hit
    jumps to the next such k.  Otherwise every k has the n from
    ceil((k*M - D) / 2**W) to floor((k*M + D) / 2**W), listed directly.
    """
    mod = 1 << W
    if 2 * D >= mod:
        for k in range(k0, k1 + 1):
            yield from range(-((D - k * M) >> W), ((k * M + D) >> W) + 1)
        return
    step = M % mod
    k = k0
    while True:
        x = _first_hit(step, (k * M + D) % mod, mod, 0, 2 * D)
        if x is None or k + x > k1:
            return
        k += x
        yield (k * M + (mod >> 1)) >> W
        k += 1


def _arcsin_units(Z: int, W: int, M: int) -> int:
    """An integer at least arcsin(Z * 2**-W) * 2**W, for 0 <= Z < 2**W,
    with M = pi_mantissa(W).

    With z = Z * 2**-W and F = 4**W it is the lesser of two bounds:
    * Z + ceil(Z^3 / (6F)) + ceil(3 Z^5 / (40F (F - Z^2))): arcsin z is
      the sum of c_j z^(2j+1) with c_0 = 1, c_1 = 1/6, c_2 = 3/40, and
      c_(j+1) / c_j = (2j+1)^2 / ((2j+2)(2j+3)) < 1, so the terms from
      j = 2 on are below 3/40 * z^5 / (1 - z^2).  It is tight for small z.
    * ceil((M+1)/2) - isqrt(F - Z^2): arcsin z = pi/2 - arccos z, and
      arccos z >= sin(arccos z) = sqrt(1 - z^2), while M + 1 >= pi * 2**W.
      It is tight as z nears 1, where the series converges slowly.
    """
    F = 1 << 2 * W
    Z2 = Z * Z
    series = Z - (-Z2 * Z // (6 * F)) - (-3 * Z2 * Z2 * Z // (40 * F * (F - Z2)))
    return min(series, -(-(M + 1) // 2) - math.isqrt(F - Z2))


def _scan(lo: int, hi: int, s: int, p: Fraction, bits: int,
          threads: int) -> tuple[list[CriterionReport], tuple[float, int]]:
    """Violators' reports, ascending, and (worst margin, its n) for lo..hi.

    Superset.  Let T = 2**t and z_T(n) = T * n^-(1-eps/2).  Write n = k*pi
    + r with k the nearest integer to n/pi, so |r| <= pi/2 and |sin n| =
    sin |r|.  If |sin n| < z_T(n) < 1 then |r| < arcsin z_T(n).  A violator
    has sin^2(n) * n^(2-eps) < 1, that is |sin n| < z_1(n).  Each n in a
    window goes to _decided_kernel once, and a violator's report is built
    from that call; every other n is satisfied.

    Window.  lo..hi splits into blocks a..b of equal c = clog2(max(n, 2)),
    and z_T(a) >= z_T(n) serves a whole block.  M = pi_mantissa(W) with W
    = 2*bitlen(hi) + 64 has |pi * 2**W - M| <= 1/2, and fx_pow gives
    a^(eps/2) <= (E + err) * 2**(q-v), so z_T(a) <= Z * 2**-W with
        Z = ceil((E + err) * 2**(q-v+W+t) / a).
    If Z >= 2**W the block is whole: it takes every n.  Otherwise A =
    _arcsin_units(Z, W, M) >= arcsin(z_T(a)) * 2**W.  The k with k*pi
    within pi/2 of a..b lie in k0..k1, k0 = floor((a-1) * 2**W / (M+1))
    and k1 = ceil((b+1) * 2**W / (M-1)): k0*pi <= a - 1 and k1*pi >= b +
    1, so any other k has k*pi at least pi - 1 > pi/2 beyond a..b.  If
    |k*pi - n| < arcsin z_T(n), then |k*M - n * 2**W| < A + k/2, so with D
    = A + k1 + 1 _near_multiples lists n.  If 2D >= M the windows of
    neighbouring k overlap, every n lies in one, and the block is whole.
    All of this is integer arithmetic.

    Pieces.  Each round cuts its candidates, ascending, into pieces of at
    most _CHUNK.  They go to worker processes when threads > 1 and there
    are two pieces or more (min(threads, pieces, CPUs) workers).  Which n
    are decided, their least (margin, n) and the reports do not depend on
    the pieces, so the output does not depend on threads.

    Order.  The reports come out ascending in n without a sort.  Every
    violator lies in a window of round 0 (t = 0), since |sin n| < z_1(n)
    <= z_1(a), and round 0 decides every n of its windows.  Its candidates
    ascend, because the blocks ascend and each block's window list
    ascends; the pieces keep that order, and pool.map returns them in it.
    Later rounds decide only n outside round 0's windows, so no violator.

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
    half_eps, epsilon = 1 - p / 2, float(2 - p)
    W = 2 * hi.bit_length() + 64
    M = pi_mantissa(W)
    blocks = []
    a = lo
    while a <= hi:
        b = min(hi, 1 << clog2(max(a, 2)))
        v = 64
        while True:
            E, err, q = fx_pow(*fx_ln_int(a, v), half_eps, v)
            if E > err:
                break
            v *= 2
        shift = q - v + W
        num, den = (E + err) << max(shift, 0), a << max(-shift, 0)
        k0 = ((a - 1) << W) // (M + 1)
        k1 = -(-((b + 1) << W) // (M - 1))
        blocks.append((a, b, num, den, k0, k1))
        a = b + 1

    def windows(t):
        """(whole, the n of the window) for each block at round t."""
        for a, b, num, den, k0, k1 in blocks:
            Z = -(-(num << t) // den)
            whole = Z >= 1 << W
            if not whole:
                D = _arcsin_units(Z, W, M) + k1 + 1
                whole = 2 * D >= M
            block = range(a, b + 1)
            yield whole, block if whole else filter(
                block.__contains__, _near_multiples(M, W, k0, k1, D))

    def ends(t):
        return worst[0] < 2 * t * _LN2 - s * _SCREEN_SLACK

    def opens(t):
        """Whether round t ends the scan or decides an n not yet decided."""
        if ends(t):
            return True
        rows = list(windows(t))
        return all(whole for whole, _ in rows) or any(
            n not in decided for _, ns in rows for n in ns)

    decided: set[int] = set()
    violations: list[CriterionReport] = []
    worst = (math.inf, -1)
    t = 0
    while True:
        rows = list(windows(t))
        candidates = [n for _, ns in rows for n in ns if n not in decided]
        pieces = [(candidates[i:i + _CHUNK], s, p, bits)
                  for i in range(0, len(candidates), _CHUNK)]
        workers = min(threads, len(pieces), os.cpu_count() or 1)
        if workers > 1:
            import concurrent.futures as cf
            with cf.ProcessPoolExecutor(max_workers=workers) as pool:
                out = [x for part in pool.map(_decide, pieces) for x in part]
        else:
            out = [x for piece in pieces for x in _decide(piece)]
        decided.update(n for n, _, _ in out)
        worst = min([worst, *((margin, n) for n, margin, _ in out)])
        violations += [_report(n, s, epsilon, bits, kernel_out)
                       for n, _, kernel_out in out if kernel_out is not None]
        if all(whole for whole, _ in rows) or ends(t):
            break
        below, step = t, 1          # round t + 1, t + 3, t + 7, ... until one opens
        while not opens(below + step):
            below, step = below + step, 2 * step
        while step > 1:             # then bisect
            step //= 2
            if not opens(below + step):
                below += step
        t = below + 1
    return violations, worst


def scan_criterion(n_range: tuple[int, int], s: int, epsilon,
                   bits: int = 64, threads: int = 1) -> ScanResult:
    """Check every n in the inclusive range; report violations ascending.

    The range must end below 2**1024 - 2**970.  Only the n near multiples
    of pi can violate; each of them is decided at most once, and each
    violator's report comes from the _decided_kernel call that decided it,
    so it equals check_criterion's.  The worst margin is the least
    (margin, n), first n among equals.  A round with more than _CHUNK
    candidates may run its pieces in worker processes (at most one per
    piece and per CPU, whatever `threads` asks for); the output does not
    depend on `threads`.
    """
    lo, hi = n_range
    if not (_is_int(lo) and _is_int(hi)) or lo < 1 or hi < lo:
        raise DomainError(f"bad scan range {n_range!r}; need 1 <= lo <= hi")
    if not _is_int(s) or s < 1:
        raise DomainError(f"scan_criterion requires an integer s >= 1, got {s!r}")
    if not _is_int(threads) or threads < 1:
        raise DomainError(f"scan_criterion requires an integer threads >= 1, got {threads!r}")
    if hi >= _SCAN_LIMIT:
        raise DomainError(f"scan ranges must end below 2**1024 - 2**970, got {hi}")
    _require_bits(bits)
    p = 2 - _epsilon_fraction(epsilon)
    violations, worst = _scan(lo, hi, s, p, bits, threads)
    summary = {
        "checked": hi - lo + 1,
        "violations": len(violations),
        "worst_margin_n": worst[1],
        "worst_margin": worst[0],
    }
    return ScanResult(violations, summary)
