"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line with its headline numbers (visible
with `pytest -s`); a failing assertion is the FAIL line.  Every check is
against an oracle computed by an independent route (spigot pi, Pascal
addition, Chebyshev recurrence, Fraction Taylor) or against an exact
invariant.
"""

import json
import random
import time
from fractions import Fraction

from flintlab import (
    MpReal,
    SeriesSpec,
    compute_pi,
    cf_terms,
    convergent_numerators_up_to,
    g_value,
    local_exponent,
    partial_sum,
    scan_criterion,
    sin_int,
    spike_indices,
    term,
    verify_multiple_angle_sweep,
    verify_sinc_limit,
)
from flintlab.cli import main
from flintlab.mpreal import clog2, reduce_fixed
from oracles import chebyshev_u_at_one, load_pi_fixture, sin_by_reduction

PI_CF_20 = [3, 7, 15, 1, 292, 1, 1, 1, 2, 1, 3, 1, 14, 2, 1, 1, 2, 2, 2, 2]


def test_1_exact_g_identity():
    t0 = time.monotonic()
    for n in range(1, 2001):
        assert g_value(n).value == n
        assert g_value(n).value == chebyshev_u_at_one(n - 1)
    elapsed = time.monotonic() - t0
    assert elapsed < 30
    print(f"\n[1/9] exact G identity on [1, 2000] vs recurrence oracle: "
          f"PASS ({elapsed:.2f}s)")


def test_2_multiple_angle_residuals():
    t0 = time.monotonic()
    reports = verify_multiple_angle_sweep(60, 50, bits=192, seed=7041)
    bound = Fraction(1, 1 << 160)
    assert len(reports) == 3000
    assert all(r.passed for r in reports)
    worst = max(r.residual.upper() for r in reports)
    assert worst <= bound
    elapsed = time.monotonic() - t0
    print(f"[2/9] multiple-angle residuals, 60x50 angles at 192 bits, "
          f"worst {float(worst):.2e} <= 2^-160: PASS ({elapsed:.2f}s)")


def test_3_pi_digits_and_partial_quotients():
    t0 = time.monotonic()
    fixture = load_pi_fixture()
    ours = compute_pi(3400).decimal()
    assert ours[:1002] == fixture[:1002]  # "3." + 1000 digits
    expansion = cf_terms(compute_pi(256), 20)
    assert list(expansion.terms) == PI_CF_20
    assert expansion.terms[4] == 292
    elapsed = time.monotonic() - t0
    assert elapsed < 10
    print(f"[3/9] pi to 1000 digits vs spigot + first 20 partial quotients: "
          f"PASS ({elapsed:.2f}s)")


def test_4_spike_detection():
    records = spike_indices(400)
    assert [r.n for r in records] == [1, 3, 22, 333, 355]
    found = records[-1].abs_sin.center()
    oracle, oracle_err = sin_by_reduction(355)
    assert abs(found - abs(oracle)) <= Fraction(1, 10**9) + oracle_err
    assert f"{float(found):.4e}" == "3.0144e-05"
    print(f"[4/9] spikes on [1, 400] = {{1, 3, 22, 333, 355}}, "
          f"|sin 355| = {float(found):.4e} within 1e-9 of oracle: PASS")


def test_5_series_equivalence_across_s():
    t0 = time.monotonic()
    worst_gap = Fraction(0)
    for k in (10, 100, 1000, 10000):
        base = partial_sum(k, SeriesSpec(s=0, bits=128))
        for s in (1, 2, 3):
            other = partial_sum(k, SeriesSpec(s=s, bits=128))
            gap = abs(other.value.center() - base.value.center())
            budget = other.err + base.err
            assert gap <= budget
            assert budget <= Fraction(1, 1 << 96)
            worst_gap = max(worst_gap, gap)
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    print(f"[5/9] S_s(k) = S_0(k) within error for k <= 10^4, s <= 3, "
          f"worst gap {float(worst_gap):.1e}: PASS ({elapsed:.2f}s)")


def test_6_criterion_scan_to_100k():
    t0 = time.monotonic()
    result = scan_criterion((1, 100_000), 1, "0.1", bits=64, threads=4)
    members = [r.n for r in result.violations]
    assert {1, 3, 22, 355}.issubset(members)
    numerators = convergent_numerators_up_to(100_000)
    for n in members:
        if n >= 3:
            assert n in numerators or local_exponent(n) > 0.95
    high = scan_criterion((1, 100_000), 5, "0.1", bits=64, threads=4)
    assert [r.n for r in high.violations] == members
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    print(f"[6/9] criterion scan to 10^5: {len(members)} violations, all "
          f"convergent-numerator or lambda > 0.95, s=1 == s=5: "
          f"PASS ({elapsed:.2f}s)")


def test_7_sinc_limit():
    ms = [Fraction(1, 10**j) for j in range(1, 9)]
    gaps = []
    for m, ratio in verify_sinc_limit(ms, 128):
        gap = abs(ratio.center() - 1)
        assert gap <= m.center() ** 2 / 5
        gaps.append(gap)
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    print(f"[7/9] |sin(m)/m - 1| <= m^2/5 down to m = 1e-8, strictly "
          f"decreasing: PASS")


def test_8_determinism_and_checkpointing(capsys, tmp_path):
    argv = ["scan", "--from", "1", "--to", "20000", "--s", "1", "--eps", "0.1",
            "--format", "csv"]
    assert main(argv + ["--threads", "8"]) == 0
    out8 = capsys.readouterr().out
    assert main(argv + ["--threads", "1"]) == 0
    out1 = capsys.readouterr().out
    assert out8 == out1

    path = str(tmp_path / "c.json")
    assert main(["sum", "--k", "500", "--s", "1", "--checkpoint", path]) == 0
    capsys.readouterr()
    assert main(["sum", "--k", "1000", "--s", "1", "--resume", path,
                 "--format", "json"]) == 0
    resumed = capsys.readouterr().out
    assert main(["sum", "--k", "1000", "--s", "1", "--format", "json"]) == 0
    fresh = capsys.readouterr().out
    assert resumed == fresh
    assert json.loads(fresh)["k"] == 1000
    print("[8/9] 8-thread scan == 1-thread scan, resume == fresh, "
          "byte-for-byte: PASS")


def _remainder(n, bits):
    """r = n - k*pi with error <= 2**-bits, from reduce_fixed at log2 n + 32 guard bits."""
    w = bits + clog2(n) + 32
    _, R, e = reduce_fixed(n, w)
    return MpReal(R, -w, Fraction(e, 1 << w)).round_to(bits)


def test_9_precision_contract_under_doubling():
    rng = random.Random(20260823)
    checked = 0
    for _ in range(200):
        kind = rng.randrange(5)
        bits = rng.randrange(32, 200)
        if kind == 0:
            n = rng.randrange(1, 1_000_000)
            coarse, fine = sin_int(n, bits), sin_int(n, 2 * bits)
        elif kind == 1:
            coarse, fine = compute_pi(bits), compute_pi(2 * bits)
        elif kind == 2:
            n = rng.randrange(2, 100_000)
            coarse, fine = _remainder(n, bits), _remainder(n, 2 * bits)
        elif kind == 3:
            n = rng.randrange(1, 5000)
            spec = SeriesSpec(s=rng.randrange(4), bits=max(bits, 8))
            double = SeriesSpec(s=spec.s, bits=2 * spec.bits)
            coarse, fine = term(n, spec), term(n, double)
        else:
            k = rng.randrange(1, 40)
            spec = SeriesSpec(s=rng.randrange(4), bits=max(bits, 8))
            double = SeriesSpec(s=spec.s, bits=2 * spec.bits)
            coarse = partial_sum(k, spec).value
            fine = partial_sum(k, double).value
        assert coarse.err > 0
        assert abs(coarse.center() - fine.center()) < coarse.err
        checked += 1
    assert checked == 200
    print("[9/9] 200 random operations: doubling precision stays inside "
          "the coarse error bound: PASS")
