import concurrent.futures
import functools
import io
import math
import os
import pickle
import random
import sys
from fractions import Fraction

import pytest

import flintlab.criterion as criterion
from flintlab import (
    MAX_BITS,
    DomainError,
    ResourceLimitError,
    check_criterion,
    scan_criterion,
)
from flintlab.mpreal import MpReal, pi_mantissa, sin_reduced
from flintlab.rationality import spike_indices
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


# 18953/9970 is just above 1.9; near 199/100 the thresholds of neighbouring
# subblocks differ little
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
def test_walk_worst_margin_fallback_matches_per_n_loop(monkeypatch, window, s, eps):
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
        assert r.lhs is lhs and r.rhs is rhs                  # read twice: cached
        assert tuple(map(_ball_fields, _eager_balls(r))) == (_ball_fields(lhs), _ball_fields(rhs))
        for name in ("n", "margin", "rhs", "lhs", "interval"):
            with pytest.raises(AttributeError):
                setattr(r, name, None)
        twin = check_criterion(r.n, 1, eps)
        assert twin == r and hash(twin) == hash(r)
        # the cached balls stay out of the pickle
        data = pickle.dumps(r)
        assert data == fresh
        unpickler = _NamingUnpickler(data)
        back = unpickler.load()
        assert back == r
        assert unpickler.named == [("flintlab.criterion", "CriterionReport")]
        assert _ball_fields(back.rhs) == _ball_fields(rhs)


def test_pool_pieces_return_ints_and_floats():
    out = criterion._decide((list(range(1, 400)), 1, 2 - Fraction("1.9"), 64))
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
def test_scan_paths_agree_from_one(s, eps):
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


@pytest.mark.parametrize("window, s, eps", [
    ((1_040_000, 1_048_000), 1, "0.5"),        # violators 1042060 and 1042415
    ((99_944_000, 99_947_000), 3, "1"),        # six violators from 99944417 on
    ((245_847_922, 245_853_922), 1, "0.1"),    # the convergent numerator 245850922
    ((1_000_000, 1_004_000), 1, "0.1"),        # no violator: only the worst margin
    ((2**60 + 12345, 2**60 + 14345), 1, "0.1"),
    ((1_000_000, 1_004_000), 3, "0.1"),
    ((criterion._SCAN_LIMIT - 41, criterion._SCAN_LIMIT - 1), 1, "1.9"),  # the last n
])
def test_scan_paths_match_per_n_loop_far_out(window, s, eps):
    want = scan_key(per_n_scan(window, s, eps))
    assert scan_key(scan_criterion(window, s, eps)) == want


def test_scan_paths_match_on_two_processes_far_out(monkeypatch):
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
    window = (criterion._SCAN_LIMIT - 5, criterion._SCAN_LIMIT - 1)
    want = scan_key(per_n_scan(window, 1, "0.1"))
    searches = []
    near_multiples = criterion._near_multiples

    def counting(*args):
        searches.append(args[-1])
        return near_multiples(*args)

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
        assert list(criterion._near_multiples(M, W, k0, k1, D)) == want, (D, k0, k1)


def test_benchmark_scan_calls_the_kernel_17_times(monkeypatch):
    # the benchmark's scan operation: 15 violators and two more candidates
    calls = _count_kernel_calls(monkeypatch)
    result = scan_criterion((1, 32768), 1, "0.1", threads=2)
    assert len(result.violations) == 15
    assert len(calls) <= 17


def test_scan_refuses_ranges_past_the_margin_argument():
    for hi in (criterion._SCAN_LIMIT, 1 << 1024, 10**1000):
        with pytest.raises(DomainError):
            scan_criterion((1, hi), 1, "0.1")
    top = criterion._SCAN_LIMIT - 1
    assert float(top) == sys.float_info.max
    assert scan_criterion((top - 4, top), 1, "0.1").summary["checked"] == 5


@functools.cache
def _pi_convergents_1e28_1e40():
    return [r.n for r in spike_indices(10**40, 512) if r.n >= 10**28]


@pytest.mark.parametrize("bits", [8, 64])
@pytest.mark.parametrize("s", [1, 3])
def test_margin_matches_512_bits_at_pi_convergents(s, bits):
    # near multiples of pi the sine ball's relative radius, not the
    # verdict, decides how far the kernel escalates
    for n in _pi_convergents_1e28_1e40():
        want = check_criterion(n, s, "0.1", 512)
        got = check_criterion(n, s, "0.1", bits)
        assert got.satisfied == want.satisfied, n
        assert abs(got.margin - want.margin) <= s * 1e-6, n


def test_sparse_scan_to_1e32_calls_the_kernel_per_violator(monkeypatch):
    calls = _count_kernel_calls(monkeypatch)
    result = scan_criterion((1, 10**32), 1, "0.1")
    assert result.summary["violations"] == len(result.violations) == 500
    assert len(calls) <= 3 * 500
