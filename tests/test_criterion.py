import concurrent.futures
import functools
import io
import math
import os
import pickle
import random
from fractions import Fraction

import pytest

import flintlab.criterion as criterion
from flintlab import (
    MAX_BITS,
    DomainError,
    ResourceLimitError,
    UndecidableError,
    check_criterion,
    scan_criterion,
)
from flintlab.mpreal import MpReal, pi_mantissa, sin_reduced
from flintlab.rationality import convergent_numerators_up_to
from scan_paths import per_n_scan, scan_key


def test_check_satisfied_case():
    report = check_criterion(2, 1, "0.1")
    assert report.satisfied
    assert report.rhs.decimal(6).startswith("12.3432")
    assert abs(report.ln_lhs - math.log(4)) < 1e-12
    assert report.margin > 1.12


def test_check_violated_cases():
    r3 = check_criterion(3, 1, "0.1")
    assert not r3.satisfied
    assert r3.rhs.decimal(6).startswith("1.44527")

    r1 = check_criterion(1, 1, "0.1")
    assert not r1.satisfied
    # at n=1 the right side degenerates to sin^2(1)
    assert r1.rhs.decimal(6).startswith("0.70807")


def test_margin_sign_matches_verdict():
    for n in (1, 2, 3, 5, 22, 355, 356):
        report = check_criterion(n, 1, "0.1")
        assert report.satisfied == (report.margin > 0)


def test_log_sides_match_float_reference():
    for n in (2, 5, 17, 1000):
        report = check_criterion(n, 1, "0.1")
        want_lhs = 2 * math.log(n)
        want_rhs = 2 * math.log(abs(math.sin(n))) + (4 - 0.1) * math.log(n)
        assert abs(report.ln_lhs - want_lhs) < 1e-9
        assert abs(report.ln_rhs - want_rhs) < 1e-9


def test_epsilon_validation():
    for bad in ("0", "2", "-0.5", "2.5"):
        with pytest.raises(DomainError):
            check_criterion(5, 1, bad)


def test_epsilon_accepts_string_fraction_float():
    a = check_criterion(7, 1, "0.1")
    b = check_criterion(7, 1, Fraction(1, 10))
    assert a.satisfied == b.satisfied
    assert a.margin == b.margin


def test_scan_first_thirty():
    result = scan_criterion((1, 30), 1, "0.1")
    assert [r.n for r in result.violations] == [1, 3, 22]
    assert result.summary["checked"] == 30
    assert result.summary["violations"] == 3


def test_scan_finds_spike_at_355():
    result = scan_criterion((300, 400), 1, "0.1")
    assert [r.n for r in result.violations] == [355]


def test_scan_clean_stretch():
    result = scan_criterion((4, 6), 1, "0.1")
    assert result.violations == []
    assert result.summary["violations"] == 0
    assert result.summary["worst_margin_n"] in (4, 5, 6)


def test_scan_threads_do_not_change_output():
    # at eps = 1.5 round 0 has two pieces, which run on the pool
    for eps in ("0.1", "1.5"):
        single = scan_key(scan_criterion((1, 9000), 1, eps, threads=1))
        for threads in (2, 4):
            assert scan_key(scan_criterion((1, 9000), 1, eps, threads=threads)) == single


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, starts nothing."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, chunks):
        return [fn(chunk) for chunk in chunks]


def _record_real_pools(monkeypatch):
    """The max_workers of every real ProcessPoolExecutor the scan starts."""
    sizes = []
    real = concurrent.futures.ProcessPoolExecutor

    class Recording(real):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    return sizes


@pytest.mark.parametrize("threads, hi, cpus, workers", [
    (64, 8 * 4096, 3, [3]),      # capped by the CPUs
    (64, 5000, 16, [3]),         # capped by the pieces
    (2, 8 * 4096, 2, [2]),
    (8, 4096, 8, [3]),
    (1, 8 * 4096, 8, []),
    (64, 8 * 4096, 16, [15]),    # capped by the pieces
    (64, 1024, 16, []),          # one piece: no pool
])
def test_scan_threads_are_clamped(monkeypatch, threads, hi, cpus, workers):
    # at eps = 1.9 round 0 has 14503 candidates on 1..32768, 2492 on
    # 1..5000, 2078 on 1..4096 and 573 on 1..1024; a _decide that finds
    # every n violated ends the scan after round 0
    pieces = []

    def violated(args):
        pieces.append(args[0])
        return [(n, -1.0, None) for n in args[0]]

    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(criterion, "_decide", violated)
    result = scan_criterion((1, hi), 1, "1.9", threads=threads)
    assert result.summary["checked"] == hi
    assert _RecordingPool.sizes == workers
    assert all(len(piece) == criterion._CHUNK for piece in pieces[:-1])
    assert 0 < len(pieces[-1]) <= criterion._CHUNK
    candidates = [n for piece in pieces for n in piece]
    assert candidates == sorted(set(candidates))


@pytest.mark.parametrize("threads", [1, 2, 64])
def test_sparse_scan_starts_no_pool(monkeypatch, threads):
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    result = scan_criterion((1, 8 * 4096), 1, "0.1", threads=threads)
    assert [r.n for r in result.violations][:5] == [1, 3, 22, 44, 355]
    assert _RecordingPool.sizes == []


def test_scan_verdicts_invariant_in_s():
    violators = [r.n for r in scan_criterion((1, 2000), 1, "0.1").violations]
    near = sorted({m for n in violators for m in (n - 1, n, n + 1) if m >= 1})
    low = [check_criterion(n, 1, "0.1").satisfied for n in near]
    # at s = 40, n^(2s+2-eps) exceeds 2**(2wr + w), the kernel's scale, from n = 22 on
    for s in (5, 40):
        assert [check_criterion(n, s, "0.1").satisfied for n in near] == low
    assert [n for n, ok in zip(near, low) if not ok] == violators


# the last is a convergent numerator of pi near 1e36
@pytest.mark.parametrize("n", [2, 3, 22, 355, 1000, 103993,
                               1139633139961839625160418214775137593])
def test_margin_is_invariant_in_s(n):
    # the margin is read off the interval that decided the verdict, which s does not enter
    margins = {check_criterion(n, s, "0.1").margin for s in (1, 2, 5, 20)}
    assert len(margins) == 1


def test_scan_summary_is_invariant_in_s():
    # the worst margin's float, too
    low, high = (scan_criterion((1, 32768), s, "0.1") for s in (1, 3))
    assert low.summary == high.summary


# 18953/9970 is just above 1.9; near 199/100 the radii a^-(1-eps/2) of
# neighbouring blocks differ little
_EPSILONS = ["0.1", Fraction(1, 3), "1.9", "0.001", Fraction(1, 997), Fraction(18953, 9970),
             Fraction(199, 100)]


@pytest.mark.parametrize("eps", _EPSILONS)
@pytest.mark.parametrize("s", [1, 3])
@pytest.mark.parametrize("window", [(1, 400), (1492, 1691), (4000, 4200), (8100, 8300),
                                    (4, 6), (20_000, 20_100)])
def test_scan_matches_per_n_loop(window, s, eps):
    # The windows cross the powers of two 256, 4096 and 8192, the blocks'
    # edges.  At eps = 1.9 the worst margin of 1492..1691 beats the
    # window's previous record by only 0.004.  4..6 and 20000..20100 hold
    # no violator at small eps, so the worst margin takes rounds past 0.
    # From eps = 1.9 on, the windows of 1..400 span 1/2 or more, and
    # _near_multiples lists several n per multiple of pi.
    want = scan_key(per_n_scan(window, s, eps))
    assert scan_key(scan_criterion(window, s, eps)) == want


@pytest.mark.parametrize("s, eps", [(1, "0.1"), (1, Fraction(1, 997)), (3, "1.9"), (1, "1"),
                                    (1, "1.5")])
def test_scan_on_two_processes_matches_per_n_loop(monkeypatch, s, eps):
    # pieces of a third of the violators' count make every round 0 run
    # about four pieces on a real pool of two processes
    window = (1, 8300)
    want = scan_key(per_n_scan(window, s, eps))
    monkeypatch.setattr(criterion, "_CHUNK", max(4, want[0]["violations"] // 3))
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    sizes = _record_real_pools(monkeypatch)
    assert scan_key(scan_criterion(window, s, eps, threads=2)) == want
    assert sizes and sizes[0] == 2


@pytest.mark.parametrize("eps", ["0.1", "1.9"])
@pytest.mark.parametrize("s", [1, 3])
@pytest.mark.parametrize("window", [(4, 6), (20_000, 20_100)])
def test_worst_margin_past_round_0_matches_per_n_loop(monkeypatch, window, s, eps):
    # at eps = 0.1 neither window holds a violator, so round 0 does not
    # settle the worst margin, and the rounds after it must not decide
    # again what round 0 decided
    want = scan_key(per_n_scan(window, s, eps))
    calls = _count_kernel_calls(monkeypatch)
    assert scan_key(scan_criterion(window, s, eps)) == want
    assert len(calls) == len(set(calls))


@pytest.mark.parametrize("bits, error", [
    (-60, DomainError), (2.5, DomainError), (4, DomainError), ("64", DomainError),
    (MAX_BITS + 1, ResourceLimitError),
])
def test_bits_are_checked_before_any_work(monkeypatch, bits, error):
    def no_work(*args):
        raise AssertionError("the kernel ran before bits were checked")

    monkeypatch.setattr(criterion, "_decided_kernel", no_work)
    with pytest.raises(error):
        check_criterion(5, 1, "0.1", bits=bits)
    with pytest.raises(error):
        scan_criterion((1, 400), 1, "0.1", bits=bits)


def _count_kernel_calls(monkeypatch):
    calls = []
    kernel = criterion._decided_kernel

    def counting(n, *rest):
        calls.append(n)
        return kernel(n, *rest)

    monkeypatch.setattr(criterion, "_decided_kernel", counting)
    return calls


def _report_fields(r):
    return (r.n, r.s, r.epsilon, r.satisfied, r.margin, r.ln_lhs, r.ln_rhs,
            r.lhs.man, r.lhs.exp, r.lhs.err, r.rhs.man, r.rhs.exp, r.rhs.err)


@pytest.mark.parametrize("s", [1, 3])
@pytest.mark.parametrize("window, eps, threads", [
    ((1, 32768), "0.1", 1),
    ((1, 8300), "1.5", 1),
    ((1, 8300), "1.9", 2),                  # four pieces on two processes
])
def test_scan_reports_equal_check_criterion(window, eps, threads, s):
    result = scan_criterion(window, s, eps, threads=threads)
    assert len(result.violations) > 3
    for r in result.violations:
        assert _report_fields(r) == _report_fields(check_criterion(r.n, s, eps))


class _NamingUnpickler(pickle.Unpickler):
    """Unpickles, and lists the classes and functions the pickle names."""

    def __init__(self, data: bytes):
        super().__init__(io.BytesIO(data))
        self.named = []

    def find_class(self, module, name):
        self.named.append((module, name))
        return super().find_class(module, name)


def _eager_balls(r):
    """lhs and rhs as _report built them before reports kept the interval."""
    lo, hi, scale = r.interval
    n2s = r.n ** (2 * r.s)
    rhs = MpReal((lo + hi) * n2s // 2, -scale, Fraction((hi - lo) * n2s + 2, 1 << (scale + 1)))
    return MpReal(n2s, 0), rhs.round_to(r.bits)


def _ball_fields(x):
    return x.man, x.exp, x.err


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("window, eps", [((1, 32768), "0.1"), ((1, 8300), "1.5"),
                                         ((1, 8300), "1.9")])
def test_scan_reports_are_lean(window, eps, threads):
    result = scan_criterion(window, 1, eps, threads=threads)
    assert len(result.violations) > 3
    for r in result.violations:
        fresh = pickle.dumps(r)
        lhs, rhs = r.lhs, r.rhs
        assert _ball_fields(r.rhs) == _ball_fields(rhs)       # read twice: equal balls
        assert tuple(map(_ball_fields, _eager_balls(r))) == (_ball_fields(lhs), _ball_fields(rhs))
        for name in ("n", "margin", "rhs", "lhs", "interval"):
            with pytest.raises(AttributeError):
                setattr(r, name, None)
        twin = check_criterion(r.n, 1, eps)
        assert twin == r and hash(twin) == hash(r)
        # reading the balls leaves the pickle as it was
        data = pickle.dumps(r)
        assert data == fresh
        unpickler = _NamingUnpickler(data)
        back = unpickler.load()
        assert back == r
        assert unpickler.named == [("flintlab.criterion", "CriterionReport")]
        assert _ball_fields(back.rhs) == _ball_fields(rhs)


def test_pool_pieces_return_ints_and_floats():
    out = criterion._decide((list(range(1, 400)), 2 - Fraction("1.9"), 64))
    assert any(kernel_out is not None for _, _, kernel_out in out)

    def leaves(x):
        if isinstance(x, tuple):
            return [leaf for item in x for leaf in leaves(item)]
        return [x]

    assert {type(leaf) for row in out for leaf in leaves(row)} <= {int, float, bool, type(None)}


@pytest.mark.parametrize("window, s, eps, slack", [
    ((1, 32768), 1, "0.1", criterion._SCREEN_SLACK),
    ((1, 32768), 3, "0.1", criterion._SCREEN_SLACK),
    ((1, 8300), 1, "1.5", criterion._SCREEN_SLACK),
    ((1, 8300), 3, "1.5", criterion._SCREEN_SLACK),
    # with no bound to end them, the rounds run until every window is
    # whole, and none may decide again what an earlier round decided
    ((1, 400), 1, "0.1", math.inf),
    ((1, 8300), 1, "1.9", criterion._SCREEN_SLACK),   # four pieces on the pool
])
def test_scan_decides_each_index_once(monkeypatch, window, s, eps, slack):
    # the pool stand-in runs the pieces in this process, where calls are counted
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(criterion, "_SCREEN_SLACK", slack)
    want = scan_key(scan_criterion(window, s, eps))
    calls = _count_kernel_calls(monkeypatch)
    assert scan_key(scan_criterion(window, s, eps, threads=2)) == want
    assert len(calls) == len(set(calls)) >= len(want[1])


@pytest.mark.parametrize("eps", ["0.1", "0.001", Fraction(1, 997), "1.95", "1.99"])
def test_scan_calls_the_kernel_rarely(monkeypatch, eps):
    # measured on 1..8192: 17 calls for 15 violators at eps = 0.1, 5237
    # for 5010 at 1.95 and 6776 for 6727 at 1.99
    calls = _count_kernel_calls(monkeypatch)
    result = scan_criterion((1, 8192), 1, eps)
    violators = len(result.violations)
    assert len(calls) - violators <= 16 + violators // 20


def test_scan_range_validation():
    with pytest.raises(DomainError):
        scan_criterion((0, 10), 1, "0.1")
    with pytest.raises(DomainError):
        scan_criterion((10, 5), 1, "0.1")
    with pytest.raises(DomainError):
        scan_criterion((1, 10), 0, "0.1")


@pytest.mark.parametrize("threads", [0, -3, 2.5, True, "2"])
def test_scan_refuses_bad_threads(monkeypatch, threads):
    def no_work(*args):
        raise AssertionError("the kernel ran before threads were checked")

    monkeypatch.setattr(criterion, "_decided_kernel", no_work)
    with pytest.raises(DomainError, match="threads"):
        scan_criterion((1, 400), 1, "0.1", threads=threads)


@pytest.mark.parametrize("call", [
    lambda: check_criterion(True, 1, "0.1"),
    lambda: check_criterion(5, True, "0.1"),
    lambda: scan_criterion((True, 5), 1, "0.1"),
    lambda: scan_criterion((1, True), 1, "0.1"),
    lambda: scan_criterion((1, 5), True, "0.1"),
], ids=["check-n", "check-s", "scan-lo", "scan-hi", "scan-s"])
def test_bools_are_not_integers(call):
    with pytest.raises(DomainError):
        call()


def test_scan_summary_json():
    result = scan_criterion((1, 30), 1, "0.1")
    doc = result.summary
    assert set(doc) == {"checked", "violations", "worst_margin_n", "worst_margin"}
    assert doc["worst_margin_n"] == 22


@pytest.mark.parametrize("eps", ["0.1", "0.5", "1", "1.5", "1.9"])
@pytest.mark.parametrize("s", [1, 3])
def test_scan_from_one_equals_its_two_parts(s, eps):
    # a scan from n = 1 equals the scans of its two parts, whose block
    # edges, working precision W and so windows differ from its own
    hi = 10_000 if eps == "1.9" else 100_000
    cut = hi * 3 // 7
    whole = scan_criterion((1, hi), s, eps)
    left, right = scan_criterion((1, cut), s, eps), scan_criterion((cut + 1, hi), s, eps)
    worst = min((part.summary["worst_margin"], part.summary["worst_margin_n"])
                for part in (left, right))
    assert whole.summary == {
        "checked": hi,
        "violations": left.summary["violations"] + right.summary["violations"],
        "worst_margin_n": worst[1],
        "worst_margin": worst[0],
    }
    assert ([_report_fields(r) for r in whole.violations]
            == [_report_fields(r) for r in left.violations + right.violations])


@functools.cache
def _pi_convergents(lo, hi):
    """The convergent numerators of pi in [lo, hi], ascending."""
    return sorted(p for p in convergent_numerators_up_to(hi) if p >= lo)


@pytest.mark.parametrize("window, s, eps", [
    ((1_040_000, 1_048_000), 1, "0.5"),        # violators 1042060 and 1042415
    ((99_944_000, 99_947_000), 3, "1"),        # six violators from 99944417 on
    ((245_847_922, 245_853_922), 1, "0.1"),    # the convergent numerator 245850922
    ((1_000_000, 1_004_000), 1, "0.1"),        # no violator: only the worst margin
    ((2**60 + 12345, 2**60 + 14345), 1, "0.1"),
    ((1_000_000, 1_004_000), 3, "0.1"),
    # up to the last n that rounds to a finite float
    (((1 << 1024) - (1 << 970) - 41, (1 << 1024) - (1 << 970) - 1), 1, "1.9"),
    (((1 << 1024) - 5, (1 << 1024) + 35), 1, "1.9"),   # past the float range
    (((1 << 1100), (1 << 1100) + 40), 1, "1.9"),
    ((10**400, 10**400 + 60), 1, "1.5"),
    # the first and the last convergent numerator in [2**1024, 2**1100]
    # (its one violator) with 20 n on either side
    *(((p - 20, p + 20), 1, "0.1")
      for p in (_pi_convergents(1 << 1024, 1 << 1100)[i] for i in (0, -1))),
])
def test_scan_matches_per_n_loop_far_out(window, s, eps):
    want = scan_key(per_n_scan(window, s, eps))
    assert scan_key(scan_criterion(window, s, eps)) == want


def test_scan_on_two_processes_matches_one_far_out(monkeypatch):
    # six candidates in pieces of two run on a real pool of two processes
    window = (99_940_000, 99_950_000)
    want = scan_key(scan_criterion(window, 1, "1", threads=1))
    assert [n for n, *_ in want[1]][:2] == [99944417, 99944772]
    monkeypatch.setattr(criterion, "_CHUNK", 2)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    sizes = _record_real_pools(monkeypatch)
    assert scan_key(scan_criterion(window, 1, "1", threads=2)) == want
    assert sizes == [2]


@pytest.mark.parametrize("eps", ["0.1", "0.001", Fraction(1, 997)])
def test_sparse_scan_calls_the_kernel_rarely(monkeypatch, eps):
    calls = _count_kernel_calls(monkeypatch)
    result = scan_criterion((1, 10**6), 1, eps)
    assert len(calls) - len(result.violations) <= 64


def test_rounds_that_decide_nothing_are_skipped(monkeypatch):
    # the least margin, near 1341.6, needs the bound of round 968: probes
    # find it without enumerating the windows of every round in between
    window = ((1 << 1024) - (1 << 970) - 5, (1 << 1024) - (1 << 970) - 1)
    want = scan_key(per_n_scan(window, 1, "0.1"))
    searches = []
    near_multiples = criterion._near_multiples

    def counting(M, W, records, rows):
        # one search per block that is not whole, as each had its own listing
        searches.extend(D for *_, D in rows if 2 * D < M)
        return near_multiples(M, W, records, rows)

    monkeypatch.setattr(criterion, "_near_multiples", counting)
    calls = _count_kernel_calls(monkeypatch)
    assert scan_key(scan_criterion(window, 1, "0.1")) == want
    assert len(searches) <= 40
    assert len(calls) == 1


def test_first_hit_is_the_least_solution():
    rng = random.Random(1967)
    for _ in range(3000):
        m = rng.choice([rng.randrange(1, 200), 1 << rng.randrange(1, 9)])
        a, b = rng.randrange(m), rng.randrange(m)
        lo = rng.randrange(m)
        hi = rng.randrange(lo, m)
        want = next((x for x in range(m) if lo <= (a * x + b) % m <= hi), None)
        assert criterion._first_hit(a, b, m, lo, hi) == want, (a, b, m, lo, hi)


def test_arcsin_units_bound_arcsin():
    # certified: sin of the bound, as a ball, is at least z, so the bound
    # is at least arcsin z (it stays below pi - arcsin z)
    rng = random.Random(1729)
    for W in (8, 20, 64, 130):
        M = pi_mantissa(W)
        for _ in range(200):
            Z = rng.randrange(1 << rng.randrange(1, W + 1))
            A = criterion._arcsin_units(Z, W, M)
            ball = sin_reduced(MpReal(A, -W), W + 16)
            assert ball.center() - ball.err >= Fraction(Z, 1 << W), (W, Z, A)
            z = Z / 2**W
            if W >= 20 and z <= 0.99:
                assert A <= 1.04 * math.asin(z) * 2**W + 3, (W, Z, A)
            # the lesser of the series and the arccos bound, with no shortcut
            F, Z2 = 1 << 2 * W, Z * Z
            series = Z - (-Z2 * Z // (6 * F)) - (-3 * Z2 * Z2 * Z // (40 * F * (F - Z2)))
            assert A == min(series, -(-(M + 1) // 2) - math.isqrt(F - Z2)), (W, Z)


@pytest.mark.parametrize("W", [6, 9, 12])
def test_near_multiples_lists_every_n_within_D(W):
    # both sides of 2D = 2**W: one n per multiple of pi, or several
    rng = random.Random(W)
    M, mod = pi_mantissa(W), 1 << W
    for _ in range(60):
        D = rng.randrange(M // 2)
        k0 = rng.randrange(200)
        k1 = k0 + rng.randrange(40)
        want = [n for n in range(-2 - D // mod, (k1 * M + D) // mod + 2)
                if any(abs(k * M - n * mod) <= D for k in range(k0, k1 + 1))]
        assert _listing(M, W, k0, k1, D) == want, (D, k0, k1)


def _listing(M, W, k0, k1, D):
    """_near_multiples on the one row k0..k1, D, with no n left out by a..b."""
    mod = 1 << W
    row = ((k0 * M - D) >> W, (k1 * M + D) >> W, k0, k1, D)
    return list(criterion._near_multiples(M, W, criterion._Records(M % mod, mod), [row]))


def _per_hit_listing(M, W, k0, k1, D):
    """The listing without three gaps: one _first_hit descent per hit."""
    mod = 1 << W
    step, k = M % mod, k0
    while True:
        x = criterion._first_hit(step, (k * M + D) % mod, mod, 0, 2 * D)
        if x is None or k + x > k1:
            return
        k += x
        yield (k * M + (mod >> 1)) >> W
        k += 1


def test_three_gap_listing_equals_brute_force_and_per_hit_search():
    rng = random.Random(1998)
    seen = {}
    for _ in range(3000):
        W = rng.randrange(1, 15)
        mod = 1 << W
        D = rng.choice([0, (mod - 1) // 2, max(0, mod // 2 - 2), rng.randrange(mod // 2),
                        rng.randrange(mod // 8 + 1)])
        if rng.randrange(8):
            M = rng.randrange(2 * D + 1, 8 * mod)
        else:                                   # step = 0
            M = mod * rng.randrange(-(-(2 * D + 1) // mod), 9)
        k0 = rng.randrange(200)
        k1 = k0 + rng.choice([0, 1, 3, rng.randrange(300)])
        want = [n for k in range(k0, k1 + 1)
                for n in range((k * M - D) // mod, (k * M + D) // mod + 1)
                if abs(k * M - n * mod) <= D]
        case = (M, W, k0, k1, D)
        assert _listing(*case) == want, case
        assert list(_per_hit_listing(*case)) == want, case
        step = M % mod
        u = next(x for x in range(1, mod + 1) if step * x % mod <= 2 * D)
        v = next(x for x in range(1, mod + 1) if -step * x % mod <= 2 * D)
        for tag in ("u < v" if u < v else "v < u" if v < u else "u = v",
                    "D = 0" if D == 0 else "2D near 2**W" if 2 * D >= mod - 3 else "",
                    "step = 0" if step == 0 else "",
                    ("no hit", "one hit", "two hits", "many hits")[min(len(want), 3)]):
            seen[tag] = seen.get(tag, 0) + 1
    for tag in ("u < v", "v < u", "u = v", "D = 0", "2D near 2**W", "step = 0",
                "no hit", "one hit", "two hits", "many hits"):
        assert seen.get(tag, 0) >= 30, (tag, seen)


def test_records_give_the_least_u_and_v():
    # u(E) and v(E) as the per-window descents found them, for E falling
    # from near 2**W to 0, from a fresh search and from the moving pointers
    rng = random.Random(1967)
    seen = {}
    for W in (8, 20, 96, 300):
        mod = 1 << W
        for case in range(60):
            kind = ("odd", "even", "zero", "pi")[case % 4]
            if kind == "even":          # a residue 0 at x = 2**(W - j) < 2**W
                step = rng.randrange(1, mod >> (j := rng.randrange(1, W)), 2) << j
            else:
                step = {"odd": rng.randrange(1, mod, 2), "zero": 0,
                        "pi": pi_mantissa(W) % mod}[kind]
            records = criterion._Records(step, mod)
            Es = {mod - 2, mod - 3, mod // 2 + 1, mod // 2, mod // 2 - 1, 1, 0,
                  *(rng.randrange(mod >> rng.randrange(W)) for _ in range(12))}
            ia = ib = 0
            for E in sorted(Es, reverse=True):
                u = 1 + criterion._first_hit(step, step, mod, 0, E)
                v = 1 + criterion._first_hit(-step % mod, -step % mod, mod, 0, E)
                want = (u, step * u % mod, v, -step * v % mod)
                u_, du, ia = records.least(0, E, ia)
                v_, dv, ib = records.least(1, E, ib)
                assert (u_, du, v_, dv) == want, (W, step, E)
                fresh = records.least(0, E, 0)[:2] + records.least(1, E, 0)[:2]
                assert fresh == want, (W, step, E)
                seen[kind] = seen.get(kind, 0) + 1
                if E == 0 and kind == "even":
                    assert u == v == mod >> j < mod
    assert all(seen[kind] >= 100 for kind in ("odd", "even", "zero", "pi")), seen


def _rows_listing(M, W, rows):
    """Brute force: for each row (a, b, k0, k1, D) in turn, the n in a..b
    within D of some k*M / 2**W with k in k0..k1; all of a..b if 2D >= M."""
    mod = 1 << W
    out = []
    for a, b, k0, k1, D in rows:
        out += range(a, b + 1) if 2 * D >= M else [
            n for k in range(k0, k1 + 1) for n in range((k * M - D) // mod, (k * M + D) // mod + 1)
            if abs(k * M - n * mod) <= D and a <= n <= b]
    return out


def test_round_walk_equals_brute_force_with_descents_only_where_needed(monkeypatch):
    # consecutive blocks a..b with the k ranges _scan gives them, which
    # overlap, and D falling, level, rising, 0, dense (2**W <= 2D < M) or
    # whole (2D >= M); a block listed by steps after another descends only
    # where its D rises
    descents = []
    first_hit = criterion._first_hit
    monkeypatch.setattr(criterion, "_first_hit",
                        lambda *args: descents.append(args) or first_hit(*args))
    rng = random.Random(1998)
    seen = {}
    for _ in range(500):
        W = rng.randrange(6, 14)
        mod = 1 << W
        M = rng.choice([pi_mantissa(W), rng.randrange(mod + 2, 4 * mod),
                        2 * rng.randrange(mod // 2 + 1, 2 * mod), mod * rng.randrange(2, 4)])
        rows, walked, want_descents = [], None, 0
        a, D = rng.randrange(1, 400), rng.randrange(mod // 2)
        for _ in range(rng.randrange(1, 9)):
            b = a + rng.randrange(80)
            k0, k1 = (a - 1) * mod // (M + 1), -(-(b + 1) * mod // (M - 1))
            rows.append((a, b, k0, k1, D))
            if 2 * D < mod:
                want_descents += walked is None or D > walked
                tag = "first" if walked is None else "rising" if D > walked else "falling"
                seen[tag] = seen.get(tag, 0) + 1
                if not _rows_listing(M, W, rows[-1:]):
                    seen["no hit"] = seen.get("no hit", 0) + 1
                if walked is not None and any(  # a hit at D in the last row's k range
                        abs((k * M + mod // 2) % mod - mod // 2) <= D
                        for k in range(k0, rows[-2][3] + 1)):
                    seen["shared k"] = seen.get("shared k", 0) + 1
                walked = D
            else:
                tag = "dense" if 2 * D < M else "whole"
                seen[tag] = seen.get(tag, 0) + 1
                walked = None
            a = b + 1
            D = rng.choice([D * rng.randrange(1, 11) // 10, D, 0, D + rng.randrange(1, 9),
                            rng.randrange(mod // 2), rng.randrange(mod // 2, M), M])
        descents.clear()
        records = criterion._Records(M % mod, mod)
        assert list(criterion._near_multiples(M, W, records, rows)) == _rows_listing(M, W, rows), (
            M, W, rows)
        assert len(descents) == want_descents, (M, W, rows)
    for tag in ("first", "falling", "rising", "no hit", "shared k", "dense", "whole"):
        assert seen.get(tag, 0) >= 100, (tag, seen)


def test_benchmark_scan_descends_once(monkeypatch):
    # the benchmark's scan operation: one walk in round 0 over 14 blocks
    descents = []
    first_hit = criterion._first_hit
    monkeypatch.setattr(criterion, "_first_hit",
                        lambda *args: descents.append(args) or first_hit(*args))
    calls = _count_kernel_calls(monkeypatch)
    scan_criterion((1, 32768), 1, "0.1")
    assert len(descents) == 1
    assert len(calls) == 17


@pytest.mark.parametrize("eps", [Fraction(1, 10), Fraction(1, 2), Fraction(1),
                                 Fraction(19, 10), Fraction(1, 3), Fraction(7, 4)])
@pytest.mark.parametrize("lo", [1, 2**70 - 1])
def test_block_radii_are_certified_and_close(eps, lo):
    # num/den >= a^-(1-eps/2) * 2**W in exact integers, and above it by at
    # most the Bernoulli factor (1 + hx)/(1 + x)^h, h = eps/2, x = a/2**j - 1
    hi = 10**40
    W = 2 * hi.bit_length() + 64
    p, q = eps.numerator, eps.denominator
    h = float(eps) / 2
    blocks = list(criterion._blocks(lo, hi, eps / 2, W))
    assert blocks[0][0] == lo and blocks[-1][1] == hi
    assert all(b + 1 == c for (_, b, *_), (c, *_) in zip(blocks, blocks[1:]))
    for a, b, num, den in blocks:
        assert num ** (2 * q) * a ** (2 * q - p) >= (den << W) ** (2 * q), (a, eps)
        ratio = num / den / 2**W * a ** (1 - h)
        x = a / 2 ** max((a - 1).bit_length() - 1, 0) - 1
        assert ratio <= (1 + h * x) / (1 + x) ** h * (1 + 1e-12), (a, eps, ratio)
        if lo == 1:
            assert ratio < 1.021, (a, eps, ratio)


def test_benchmark_scan_calls_the_kernel_17_times(monkeypatch):
    # the benchmark's scan operation: 15 violators and two more candidates
    calls = _count_kernel_calls(monkeypatch)
    result = scan_criterion((1, 32768), 1, "0.1", threads=2)
    assert len(result.violations) == 15
    assert len(calls) <= 17


def test_scan_past_the_constant_limit_is_a_resource_error(monkeypatch):
    # W = 2 * bitlen(hi) + 64 passes MAX_BITS + 256: pi_mantissa refuses
    # the working precision before any n is decided
    calls = _count_kernel_calls(monkeypatch)
    lo = 1 << (MAX_BITS // 2 + 200)
    with pytest.raises(ResourceLimitError):
        scan_criterion((lo, lo + 10), 1, "0.1")
    assert calls == []


@pytest.mark.parametrize("bits", [8, 64])
@pytest.mark.parametrize("s", [1, 3])
def test_margin_matches_512_bits_at_pi_convergents(s, bits):
    # near multiples of pi the sine ball's relative radius, not the
    # verdict, decides how far the kernel escalates
    for n in _pi_convergents(10**28, 10**40) + _pi_convergents(1 << 1024, 1 << 1100):
        want = check_criterion(n, s, "0.1", 512)
        got = check_criterion(n, s, "0.1", bits)
        assert got.satisfied == want.satisfied, n
        assert abs(got.margin - want.margin) <= s * 1e-6, n


def test_sparse_scan_to_1e32_calls_the_kernel_per_violator(monkeypatch):
    calls = _count_kernel_calls(monkeypatch)
    result = scan_criterion((1, 10**32), 1, "0.1")
    assert result.summary["violations"] == len(result.violations) == 500
    assert len(calls) <= 3 * 500


# p = 2 - eps is a convergent of 2 * lambda(1000) = -2 ln|sin 1000| / ln 1000,
# taken from 600-bit logs, so sin^2(1000) * 1000^p is within about 2**-107
# of 1: the interval at the first w holds 1
NEAR_ONE_EPS = Fraction(43888708850394570, 22565335563579539)


def test_an_interval_that_holds_one_doubles_w(monkeypatch):
    steps = []
    kernel = criterion._kernel

    def recording(n, p, w):
        out = kernel(n, p, w)
        steps.append((w, out[0]))
        return out

    monkeypatch.setattr(criterion, "_kernel", recording)
    report = check_criterion(1000, 1, NEAR_ONE_EPS)
    assert steps == [(112, None), (224, True)]
    assert report.satisfied == check_criterion(1000, 1, NEAR_ONE_EPS, 512).satisfied


def test_the_escalation_cap_raises_undecidable(monkeypatch):
    monkeypatch.setattr(criterion, "_ESCALATION_CAP", 112)
    with pytest.raises(UndecidableError, match="112-bit cap"):
        check_criterion(1000, 1, NEAR_ONE_EPS)
