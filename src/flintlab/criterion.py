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
the same ln n that gives ln_lhs = 2s ln n.  The product is evaluated once,
as an integer interval: it decides the verdict, the margin is the log of
its centre, and the reported right side is that interval times the exact
n^(2s), so s enters the report alone (ln_rhs = ln_lhs + margin).  eps is
an exact fraction end to end, so scans are bit-reproducible regardless of
chunking or processes.

A range scan (scan_criterion) reports the violators, the count of
indices and the least float margin with its n; "satisfied" means
sin^2(n) * n^(2-eps) > 1.  Only an n close to a multiple of pi can
violate: |sin n| < n^-(1-eps/2) puts n within arcsin n^-(1-eps/2) of
some k*pi.  The scan cuts the range into blocks of equal clog2 n, bounds
that distance per block on integers (_blocks), and lists the n within it
by one walk per round across the blocks: three-gap steps, with their gaps
from one record list per scan (_Records), and one Euclid-like descent
where the walk starts (_near_multiples); or it takes every n of a block
whose windows cover it (_scan).  Each listed n
goes to the escalating kernel once, in pieces that may run on a process
pool, and a violator's report is built from that call (_report), so
reports equal check_criterion's bit for bit.

Worst margin.  Later rounds widen every window by doubling factors until
the least margin found provably beats every n outside them, skipping
the rounds that would decide nothing.  Every decided n's float margin is
within 5e-7 of ln(sin^2(n) * n^(2-eps)) whatever s is (see
_decided_kernel), and that argument rests on it, so a scan's summary does
not depend on s.
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
_SCREEN_SLACK = 1e-6      # worst-margin tolerance, twice the margin's 5e-7 bound
_LN2 = math.log(2)


class CriterionReport(_Frozen):
    """The verdict at index n, and the kernel interval that decided it.

    ``interval`` = (lo, hi, scale) brackets sin^2(n) * n^(2-eps) in units
    of 2**-scale (see _kernel); ``lhs`` and ``rhs`` are built from it,
    ``n``, ``s`` and ``bits`` on each read.  The fields are ints, floats
    and a bool, and a report holds nothing else.
    """

    __slots__ = _fields = ("n", "s", "epsilon", "satisfied", "margin", "ln_lhs", "ln_rhs",
                           "interval", "bits")
    n: int
    s: int
    epsilon: float
    satisfied: bool
    margin: float      # ln(sin^2(n) * n^(2-eps)) to within 5e-7, the same for every s
    ln_lhs: float
    ln_rhs: float
    interval: tuple[int, int, int]
    bits: int

    @property
    def lhs(self) -> MpReal:
        """|G(n)|^(2s) = n^(2s), exact."""
        return _ball(self.n ** (2 * self.s), 0, 0, 1)

    @property
    def rhs(self) -> MpReal:
        """n^(2s) * sin^2(n) * n^(2-eps): the interval times the exact
        n^(2s), centred, then rounded by round_to(bits)."""
        lo, hi, scale = self.interval
        n2s = self.n ** (2 * self.s)
        return _ball((lo + hi) * n2s // 2, -scale, (hi - lo) * n2s + 2,
                     1 << (scale + 1)).round_to(self.bits)


def _epsilon_fraction(epsilon) -> Fraction:
    eps = exact_fraction(epsilon, "epsilon")
    if not 0 < eps < 2:
        raise DomainError(f"epsilon must lie in (0, 2), got {epsilon!r}")
    return eps


def _kernel(n: int, p: Fraction, w: int):
    """One evaluation of sin^2(n) * n^p against 1 at working precision w.

    p = 2 - eps.  The sine ball (S, e_abs) at 2**-wr comes from sin_rel,
    first tried at wr = w + clog2 n + 8, so |S| > e_abs * 2**24 whatever
    the verdict; n^p comes from fx_pow on L = fx_ln_int(n, w).
    Returns (verdict, margin, L, w, interval) where verdict is
    True/False/None (None = the interval holds 1: the caller escalates)
    and interval = (lo, hi, scale_bits) brackets sin^2(n) * n^(2-eps) in
    exact integer units of 2**-scale_bits.  margin is the log of the
    interval's centre (lo + hi) * 2**-(scale_bits+1): a 64-bit fx_ln_int of
    the top 64 bits of mid = lo + hi, plus one ln 2 for each bit cut off or
    scaled away, divided by 2**64 once.  L and w give the report's ln_lhs.
    fx_pow's d <= 2**(w-5) holds, so e_pow > e_tot: w >= 56, and sin_rel
    raises first for an n of more than MAX_BITS bits, so b = bitlen(n) <=
    10**7.  With e_ln <= 2.7w + b + 40 (see _decided_kernel), c < 2 and q
    <= 2b + 1, d < 5.4w + 3b + 81, below 2**51 at w = 56, and the gap only
    widens as w doubles.
    """
    S, e_abs, wr = sin_rel(n, 24, w + clog2(max(n, 2)) + 8)
    m = abs(S)
    ln_n, e_ln = fx_ln_int(n, w)
    e_pow, e_tot, q = fx_pow(ln_n, e_ln, p, w)
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
    mid = lo + hi
    t = max(mid.bit_length() - 64, 0)
    margin = (fx_ln_int(mid >> t, 64)[0] + (t - scale - 1) * ln2_mantissa(64)) / (1 << 64)
    return verdict, margin, ln_n, w, (lo, hi, scale)


def _decided_kernel(n: int, p: Fraction, bits: int):
    """Escalate _kernel until the verdict is strict; deterministic in inputs.

    Only an interval that holds 1 doubles w: sin_rel already gives the
    sine to 2**-24 of its size at every w.

    Margin.  The returned margin is within 5e-7 of ln(sin^2(n) *
    n^(2-eps)), for every n and s.  Below, wr is the sine's precision, w +
    clog2 n + 8 <= wr <= MAX_BITS, w >= 56, and b = bitlen(n) <= 10**7.
    fx_ln_int is within 2.7w + b + 40 ulps at a b-bit argument (its atanh
    loop stops by i = w/3 + 2).
    * The interval is narrow.  It holds X = sin^2(n) * n^(2-eps) *
      2**scale and its centre c = mid/2, so |ln c - ln X| <= ln(hi/lo).
      sin_rel gives m = |S| > e * 2**24, so 2 ln((m + e)/(m - e)) <= 4
      atanh(2**-24) < 2.39e-7.  fx_pow's err is at most e_exp + 3d/2 + 1
      with e_exp <= 4w + 12 and d as in _kernel, under 2**26 at w = 56,
      while E > 0.69 * 2**w; so err/E < 2**-29, and it falls as w grows.
      Then ln((E + err)/(E - err)) < 7.5e-9, and ln(hi/lo) < 2.5e-7.
    * The rest is tiny.  margin stands for ln c - scale * ln 2 = ln mid -
      (scale + 1) * ln 2.  mid >> t is at least 2**63 when t > 0, so the
      cut moves the log by less than 2**-62; fx_ln_int(mid >> t, 64) is
      within 280 ulps of 2**-64; each of the |t - scale - 1| copies of
      ln2_mantissa(64) is within 1/2 ulp, and t <= bitlen(mid) <= scale +
      2b + 2 with scale = 2wr + w - q < 2.2e7, so they add below 6e-13.
      The one division rounds to the nearest float: 2**-53 * |margin| <
      1.6e-9, as |margin| < 2 * MAX_BITS * ln 2 + 2 (m > 2**24 gives
      |sin n| > 2**-wr, and n^(2-eps) < n^2 < 4**MAX_BITS).
    So the margin is off by less than 2.5e-7 + 1e-12 + 1.6e-9 < 5e-7.
    """
    w = bits + 48
    while True:
        kernel_out = _kernel(n, p, w)
        if kernel_out[0] is not None:
            return kernel_out
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
    built on each read.
    """
    if not _is_int(n) or n < 1:
        raise DomainError(f"check_criterion requires an integer n >= 1, got {n!r}")
    if not _is_int(s) or s < 1:
        raise DomainError(f"check_criterion requires an integer s >= 1, got {s!r}")
    _require_bits(bits)
    eps = _epsilon_fraction(epsilon)
    return _report(n, s, float(eps), bits, _decided_kernel(n, 2 - eps, bits))


def _report(n: int, s: int, epsilon: float, bits: int, kernel_out) -> CriterionReport:
    """The report of index n, built from the _decided_kernel output that
    decided it: ln_lhs = 2s * ln n, and ln_rhs = ln_lhs + margin."""
    verdict, margin, ln_n, w, interval = kernel_out
    ln_lhs = 2 * s * ln_n / (1 << w)
    return CriterionReport(n, s, epsilon, verdict, margin, ln_lhs, ln_lhs + margin,
                           interval, bits)


class ScanResult(_Frozen):
    __slots__ = _fields = ("violations", "summary")
    violations: list[CriterionReport]
    summary: dict


def _decide(args) -> list[tuple[int, float, tuple | None]]:
    """(n, kernel margin, kernel output or None) for each n of a piece, as
    _decided_kernel decides it; the output is kept for a violator only,
    and holds ints, floats and a bool, so a pool returns it cheaply."""
    ns, p, bits = args
    decided = []
    for n in ns:
        out = _decided_kernel(n, p, bits)
        decided.append((n, out[1], None if out[0] else out))
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


class _Records:
    """u(E) and v(E) of step/2**W for every E >= 0, from one mediant pass.

    u(E) is the least x >= 1 with step*x mod 2**W <= E (side 0), v(E) the
    least x >= 1 with -step*x mod 2**W <= E (side 1); x = 2**W serves both.
    The pass keeps a pair (xa, ra), (xb, rb) with step*xa = ra and -step*xb
    = rb (mod 2**W), from (1, step) and (1, -step mod 2**W), and while both
    residues are positive replaces the side with the larger one (side 0 on
    a tie) by (xa + xb, ra - rb) or (xb + xa, rb - ra) (Stern-Brocot
    mediants; Alessandri and Berthe 1998).  step = 0 starts both at residue
    0, so u = v = 1; otherwise:
    * xa*rb + xb*ra = 2**W throughout, so (xa, ra) and (xb, -rb) are a
      basis of the lattice of (x, y) with y = step*x (mod 2**W).  A point
      i*(xa, ra) + j*(xb, -rb) with x >= 1 and 0 <= y < ra has i, j >= 1
      (j <= 0 < i gives y >= ra, i <= 0 < j gives y <= -rb, i, j <= 0
      gives x <= 0), so x >= xa + xb; so does one with -rb < y <= 0.
    * So each new xa is the least x >= 1 whose residue lies below the old
      ra, and the pairs that side 0 takes in turn (its records) ascend in x
      and fall strictly in residue: u(E) is the first record with residue
      <= E, as every x before it has a residue at least the previous
      record's.  The same holds for v on side 1.
    * Once ra = 0 the lattice is spanned by (xa, 0) and (xb, -rb), so the x
      >= 1 with -rb < y <= 0 are the multiples of xa: xa is the last record
      of both sides (likewise for rb = 0).
    The q = ra // rb steps that side 0 takes in a row are one run, kept
    whole as (x, r, dx, dr, end): records x + j*dx with residue r - j*dr
    for j = 0..q, down to end.  The list grows by a run per partial
    quotient of step/2**W, and only as far as the least E asked for.
    """

    __slots__ = ("runs", "ends")

    def __init__(self, step: int, mod: int):
        self.ends = [(1, step), (1, -step % mod)]
        self.runs = tuple([(x, r, 0, 0, r)] for x, r in self.ends)

    def least(self, side: int, E: int, i: int) -> tuple[int, int, int]:
        """(x, its residue, run index) of u(E) (side 0) or v(E) (side 1),
        searching the runs from index i on: 0, or the index returned for an
        E at least this one, so a pointer only moves forward as E falls."""
        runs = self.runs[side]
        while True:
            while i == len(runs):
                self._extend()
            x, r, dx, dr, end = runs[i]
            if end <= E:
                j = 0 if r <= E else -((E - r) // dr)
                return x + j * dx, r - j * dr, i
            i += 1

    def _extend(self) -> None:
        """One run, on the side with the larger residue; both are positive."""
        s = 0 if self.ends[0][1] >= self.ends[1][1] else 1
        (x, r), (dx, dr) = self.ends[s], self.ends[1 - s]
        q, end = divmod(r, dr)
        self.runs[s].append((x, r, dx, dr, end))
        self.ends[s] = x + q * dx, end
        if end == 0:                    # the last record of both sides
            self.runs[1 - s].append((x + q * dx, 0, 0, 0, 0))


def _near_multiples(M: int, W: int, records: _Records, rows):
    """Ascending, for each row (a, b, k0, k1, D) in turn, the n in a..b with
    |k*M - n * 2**W| <= D for some k in k0..k1.

    records are the _Records of step = M mod 2**W.  Needs 0 <= D and rows
    ascending in a and in k0.  If 2D >= M the windows of neighbouring k
    overlap, and the row lists a..b whole (the caller's k0..k1 cover a..b).
    Otherwise the n of distinct k are distinct and ascend with k.  If 2D >=
    2**W, every k has the n from ceil((k*M - D) / 2**W) to floor((k*M + D)
    / 2**W), listed directly.  Otherwise a k has at most one such n, the
    nearest round(k*M / 2**W), and has it iff its residue y = (k*M + D) mod
    2**W is <= 2D: k is a hit.  The three-gap rule steps from hit to hit
    (Slater 1967; Alessandri and Berthe 1998) with u and v of E = 2D from
    the records, and one walk crosses the rows.

    Three gaps.  With m = 2**W, u is the least x >= 1 with du = step*x mod
    m <= 2D, and v the least x >= 1 with dv = -step*x mod m <= 2D.  From a
    hit k with residue y to a hit k + x with residue y', the displacement e
    = y' - y lies in [-2D, 2D], and 2D < m: if e >= 0 then step*x mod m =
    e, so x >= u; if e <= 0 then -step*x mod m = -e, so x >= v.  A
    displacement of 0 counts on both sides.  The next hit after k is
    * k + u if y + du <= 2D.  A hit k + x with x < u has e < 0 with -e
      <= y, so step*(u - x) mod m = du - e <= 2D, against u's minimality;
    * else k + v if y >= dv.  A hit k + x with x < v has 0 < e <= 2D - y,
      so -step*(v - x) mod m = dv + e <= 2D, against v's;
    * else k + u + v, whose residue y + du - dv lies in (2D - dv, du),
      inside [0, 2D].  A hit k + x with x < u + v has x >= u, x != u
      if e >= 0, and then -step*(x - u) mod m = du - e lies in (0, 2D]
      (as e <= 2D - y < du), so x - u >= v; or x >= v, x != v if e < 0,
      and then step*(x - v) mod m = dv + e lies in (0, 2D] (as -e <= y <
      dv), so x - v >= u.

    One walk.  A hit at D' <= D is a hit at D: its centred residue y - D =
    k*M - n * 2**W keeps its value, and only its bound grows.  A row's walk
    starts at its least hit from k0 on and visits its hits in turn, up to
    the first past k1, and if the next row has D' <= D, on to the first hit
    k >= k0' (the next row's k0, at least k0) whose centred residue is
    within D'.  Every hit at D' from k0' on is a hit at D that the walk
    visits, so that one is the least: the next row starts there, with the u
    and v of D'.  _first_hit descends only at a row that starts no walk
    this way: the round's first, one after a row listed otherwise, or one
    whose D' > D.  A k with k*M mod 2**W = 0 (k = 2**W is one) is a hit at
    every D, so a descent or a walk always finds a hit.
    """
    mod = 1 << W
    step, entry, ia, ib = M % mod, None, 0, 0
    for i, (a, b, k0, k1, D) in enumerate(rows):
        if 2 * D >= mod:
            if 2 * D >= M:
                yield from range(a, b + 1)
                continue
            for k in range(k0, k1 + 1):
                yield from range(max(a, -((D - k * M) >> W)), min(b, (k * M + D) >> W) + 1)
            continue
        if entry is None:
            k, ia, ib = k0 + _first_hit(step, (k0 * M + D) % mod, mod, 0, 2 * D), 0, 0
            y = (k * M + D) % mod
        else:
            k, y = entry
        u, du, ia = records.least(0, 2 * D, ia)
        v, dv, ib = records.least(1, 2 * D, ib)
        _, _, k0_next, _, D_next = rows[i + 1] if i + 1 < len(rows) else (0, 0, 0, 0, -1)
        if D_next > D:
            D_next = -1                 # the next row starts no walk
        entry = None
        while True:
            if entry is None and k >= k0_next and abs(y - D) <= D_next:
                entry = k, y - D + D_next
            if k <= k1:
                n = (k * M + (mod >> 1)) >> W
                if a <= n <= b:
                    yield n
            elif entry or D_next < 0:
                break
            if y + du <= 2 * D:         # the next hit, by three gaps
                k, y = k + u, y + du
            elif y >= dv:
                k, y = k + v, y - dv
            else:
                k, y = k + u + v, y + du - dv


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
    For 2Z <= 2**W and W >= 7 (a scan has W >= 66) the first is the lesser,
    so it is returned without the square root: z <= 1/2 puts it below (z +
    z^3/6 + 3z^5/(40(1 - z^2))) * 2**W + 2 < 0.53 * 2**W + 3, while the
    second is at least (pi/2 - 1) * 2**W > 0.57 * 2**W, and 0.04 * 2**W > 3.
    """
    F = 1 << 2 * W
    Z2 = Z * Z
    series = Z - (-Z2 * Z // (6 * F)) - (-3 * Z2 * Z2 * Z // (40 * F * (F - Z2)))
    if 2 * Z <= 1 << W:
        return series
    return min(series, -(-(M + 1) // 2) - math.isqrt(F - Z2))


def _blocks(lo: int, hi: int, h: Fraction, W: int):
    """(a, b, num, den) for the blocks a..b of lo..hi with equal
    clog2(max(n, 2)), ascending, where num/den >= a^-(1-h) * 2**W and h =
    eps/2 = hn/hd lies in (0, 1).

    One certified power serves every block.  fx_pow at V = 64 on
    ln2_mantissa(V), within 1/2 ulp of ln 2 (e_ln = 1, c = h < 1, q <= 1,
    so d < 2 and E > err; err was at most 79 over 800 random eps), gives
    R = (E + err) * 2**q >= 2**h * 2**V, so
    G_0 = 2**V and G_(j+1) = ceil(G_j * R / 2**V) have G_j >= 2**(jh) *
    2**V, by induction: G_j * R / 2**V >= 2**(jh) * 2**h * 2**V.  A block
    with 2**j < a <= 2**(j+1) (a = 1: j = 0) has x = a/2**j - 1 in [0,
    1], and (1 + x)^h <= 1 + hx for 0 < h < 1 (Bernoulli), so a^h =
    2**(jh) * (1 + x)^h <= G_j * 2**-V * (2**j * hd + hn * (a - 2**j)) /
    (2**j * hd), and
        num / den = G_j * (2**j * hd + hn * (a - 2**j)) * 2**W
                    / (2**j * hd * 2**V * a)
    is at least a^h / a * 2**W.  The bound exceeds a^(h-1) * 2**W by the
    factor (1 + hx) / (1 + x)^h, at most 1.0142 at eps = 0.1 (x = 1), and
    at most 1.0045 past a first block (x = 2**-j, j >= 1).
    """
    hn, hd = h.numerator, h.denominator
    V = 64
    E, err, q = fx_pow(ln2_mantissa(V), 1, h, V)
    R, G, j = (E + err) << q, 1 << V, 0
    a = lo
    while a <= hi:
        b = min(hi, 1 << clog2(max(a, 2)))
        while a > 2 << j:
            G, j = -(-G * R >> V), j + 1
        shift = W - V - j
        yield (a, b, G * ((hd << j) + hn * (a - (1 << j))) << max(shift, 0),
               hd * a << max(-shift, 0))
        a = b + 1


def _scan(lo: int, hi: int, p: Fraction, bits: int,
          threads: int) -> tuple[list[tuple[int, tuple]], tuple[float, int]]:
    """(n, kernel output) of each violator, ascending, and (worst margin,
    its n) for lo..hi.

    Superset.  Let T = 2**t and z_T(n) = T * n^-(1-eps/2).  Write n = k*pi
    + r with k the nearest integer to n/pi, so |r| <= pi/2 and |sin n| =
    sin |r|.  If |sin n| < z_T(n) < 1 then |r| < arcsin z_T(n).  A violator
    has sin^2(n) * n^(2-eps) < 1, that is |sin n| < z_1(n).  Each n in a
    window goes to _decided_kernel once, and a violator's output is kept
    from that call; every other n is satisfied.

    Window.  lo..hi splits into blocks a..b of equal c = clog2(max(n, 2)),
    and z_T(a) >= z_T(n) serves a whole block.  With W = 2*bitlen(hi) +
    64, _blocks gives num/den >= a^-(1-eps/2) * 2**W, so z_T(a) <= Z *
    2**-W with Z = ceil(T * num / den), and M = pi_mantissa(W) has |pi *
    2**W - M| <= 1/2.  If Z >= 2**W the block is whole: it takes every n.
    Otherwise A = _arcsin_units(Z, W, M) >= arcsin(z_T(a)) * 2**W.  The k
    with k*pi within pi/2 of a..b lie in k0..k1, k0 = floor((a-1) * 2**W
    / (M+1)) and k1 = ceil((b+1) * 2**W / (M-1)): k0*pi <= a - 1 and
    k1*pi >= b + 1, so any other k has k*pi at least pi - 1 > pi/2 beyond
    a..b.  If |k*pi - n| < arcsin z_T(n), then |k*M - n * 2**W| < A +
    k/2, so with D = A + k1 + 1 _near_multiples lists n.  If 2D >= M the
    windows of neighbouring k overlap, every n lies in one, and the block
    is whole.  All of this is integer arithmetic.  One walk lists a round's
    blocks in turn, with one _first_hit descent at its first block listed
    by steps and again only where D rises (_near_multiples), and the gaps
    of every block come from records made once per scan (_Records).

    Pieces.  Each round cuts its candidates, ascending, into pieces of at
    most _CHUNK.  They go to worker processes when threads > 1 and there
    are two pieces or more (min(threads, pieces, CPUs) workers).  Which n
    are decided, their least (margin, n) and the reports do not depend on
    the pieces, so the output does not depend on threads.

    Order.  The violators come out ascending in n without a sort.  Every
    violator lies in a window of round 0 (t = 0), since |sin n| < z_1(n)
    <= z_1(a), and round 0 decides every n of its windows.  Its candidates
    ascend, because the blocks ascend and each block's listing
    ascends; the pieces keep that order, and pool.map returns them in it.
    Later rounds decide only n outside round 0's windows, so no violator.

    Worst margin.  The scan reports the least kernel margin over lo..hi,
    first n among equals.  An n outside the windows of T has sin^2(n) *
    n^(2-eps) >= T^2, so by _decided_kernel's bound its kernel margin is
    at least 2t ln 2 - 5e-7.  So from t = 0 up, the least margin over
    the decided n is final once it lies below 2t ln 2 - _SCREEN_SLACK
    (the float rounding of that bound is below 1e-12), or once every block
    is whole.  Otherwise the next round is the least t' > t that decides
    an n not yet decided, is whole, or has that bound above the least
    margin: the rounds between would decide nothing and end nothing.
    Each of these three grows with t, as the windows do, so t' is found by
    doubling t' - t, then bisecting, with probes that stop at the first
    new n.
    """
    W = 2 * hi.bit_length() + 64
    M = pi_mantissa(W)
    blocks = [(a, b, num, den, ((a - 1) << W) // (M + 1), -(-((b + 1) << W) // (M - 1)))
              for a, b, num, den in _blocks(lo, hi, 1 - p / 2, W)]
    records = _Records(M % (1 << W), 1 << W)

    def windows(t):
        """(whether every block is whole, the n of the windows ascending) at
        round t; the n come lazily, from one walk."""
        rows = []
        for a, b, num, den, k0, k1 in blocks:
            Z = -(-(num << t) // den)
            D = _arcsin_units(Z, W, M) + k1 + 1 if Z < 1 << W else M
            rows.append((a, b, k0, k1, D))
        return all(2 * D >= M for *_, D in rows), _near_multiples(M, W, records, rows)

    def ends(t):
        return worst[0] < 2 * t * _LN2 - _SCREEN_SLACK

    def opens(t):
        """Whether round t ends the scan or decides an n not yet decided."""
        if ends(t):
            return True
        whole, ns = windows(t)
        return whole or any(n not in decided for n in ns)

    decided: set[int] = set()
    violators: list[tuple[int, tuple]] = []
    worst = (math.inf, -1)
    t = 0
    while True:
        whole, ns = windows(t)
        candidates = [n for n in ns if n not in decided]
        pieces = [(candidates[i:i + _CHUNK], p, bits)
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
        violators += [(n, kernel_out) for n, _, kernel_out in out if kernel_out is not None]
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
    return violators, worst


def scan_criterion(n_range: tuple[int, int], s: int, epsilon,
                   bits: int = 64, threads: int = 1) -> ScanResult:
    """Check every n in the inclusive range; report violations ascending.

    Only the n near multiples of pi can violate; each of them is decided at
    most once, and each violator's report comes from the _decided_kernel
    call that decided it, so it equals check_criterion's.  The worst margin
    is the least (margin, n), first n among equals.  Which n are decided,
    and so the summary, do not depend on s: it enters only the reports'
    ln_lhs, ln_rhs, lhs and rhs.  A round with more than _CHUNK candidates
    may run its pieces in worker processes (at most one per piece and per
    CPU, whatever `threads` asks for); the output does not depend on
    `threads`.
    """
    lo, hi = n_range
    if not (_is_int(lo) and _is_int(hi)) or lo < 1 or hi < lo:
        raise DomainError(f"bad scan range {n_range!r}; need 1 <= lo <= hi")
    if not _is_int(s) or s < 1:
        raise DomainError(f"scan_criterion requires an integer s >= 1, got {s!r}")
    if not _is_int(threads) or threads < 1:
        raise DomainError(f"scan_criterion requires an integer threads >= 1, got {threads!r}")
    _require_bits(bits)
    eps = _epsilon_fraction(epsilon)
    violators, worst = _scan(lo, hi, 2 - eps, bits, threads)
    eps_float = float(eps)
    violations = [_report(n, s, eps_float, bits, kernel_out) for n, kernel_out in violators]
    summary = {
        "checked": hi - lo + 1,
        "violations": len(violations),
        "worst_margin_n": worst[1],
        "worst_margin": worst[0],
    }
    return ScanResult(violations, summary)
