import json
from fractions import Fraction

import pytest

import flintlab.identities as identities
from flintlab import (
    MAX_BITS,
    DegenerateInputError,
    DomainError,
    MpReal,
    ResourceLimitError,
    compute_pi,
    seeded_thetas,
    verify_angle_difference,
    verify_multiple_angle,
    verify_multiple_angle_sweep,
    verify_sinc_limit,
)


def test_multiple_angle_passes_at_assorted_orders():
    thetas = seeded_thetas(4, 99, 192)
    for n in (1, 2, 5, 17, 41, 60):
        for theta in thetas:
            report = verify_multiple_angle(n, theta, 192)
            assert report.passed
            assert report.residual.upper() <= Fraction(1, 1 << 160)


def test_multiple_angle_at_zero_angle():
    report = verify_multiple_angle(9, MpReal(0, 0), 128)
    assert report.passed
    assert report.residual.center() == 0


def test_multiple_angle_ignores_input_ball_radius():
    # verification happens at the exact center; a wide ball with the
    # same center must give the same residual
    tight = MpReal(355, -8)
    wide = MpReal(355, -8, Fraction(1, 1000))
    a = verify_multiple_angle(12, tight, 128)
    b = verify_multiple_angle(12, wide, 128)
    assert a.residual.center() == b.residual.center()
    assert b.passed


def test_multiple_angle_records_parameters():
    report = verify_multiple_angle(5, seeded_thetas(1, 7, 160)[0], 160)
    assert report.parameters["n"] == 5
    assert report.parameters["bits"] == 160
    assert report.parameters["guard_bits"] == 32
    assert report.parameters["work_bits"] > 160


def test_multiple_angle_rejects_bad_order():
    with pytest.raises(DomainError):
        verify_multiple_angle(0, MpReal(1, 0), 64)
    with pytest.raises(DomainError):
        verify_multiple_angle(True, MpReal(1, 0), 64)


def test_sweep_shape_and_seed_recording():
    reports = verify_multiple_angle_sweep(6, 3, 128, seed=11)
    assert len(reports) == 18
    assert all(r.passed for r in reports)
    assert {r.parameters["seed"] for r in reports} == {11}
    assert {r.parameters["theta_index"] for r in reports} == {0, 1, 2}


def test_seeded_thetas_deterministic_and_in_range():
    pi_upper = compute_pi(96).upper()
    a = seeded_thetas(10, 42, 128)
    b = seeded_thetas(10, 42, 128)
    c = seeded_thetas(10, 43, 128)
    assert [t.man for t in a] == [t.man for t in b]
    assert [t.man for t in a] != [t.man for t in c]
    for t in a:
        assert abs(t.center()) < pi_upper


def test_sinc_ratio_bound_and_monotonicity():
    ms = [Fraction(1, 10**j) for j in range(1, 9)]
    rows = verify_sinc_limit(ms, 128)
    gaps = []
    for m, ratio in rows:
        gap = abs(ratio.center() - 1)
        assert gap <= m.center() ** 2 / 5
        gaps.append(gap)
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_sinc_sequence_validation():
    with pytest.raises(DomainError):
        verify_sinc_limit([])
    with pytest.raises(DomainError):
        verify_sinc_limit([Fraction(1, 10), Fraction(1, 5)])
    with pytest.raises(DomainError):
        verify_sinc_limit([Fraction(1, 10), Fraction(-1, 100)])


def test_angle_difference_passes():
    n = MpReal(7, 0)
    a = MpReal.from_fraction(Fraction(5, 7), 160)
    report = verify_angle_difference(n, a, 128)
    assert report.passed
    assert report.tolerance.center() == Fraction(4, 1 << 128)
    assert report.residual.upper() <= Fraction(4, 1 << 128)


def test_angle_difference_degenerate_near_sine_zero():
    # sin(pi) is zero to working precision: the decomposition must refuse
    with pytest.raises(DegenerateInputError):
        verify_angle_difference(compute_pi(128), MpReal(1, 0), 96)


def test_multiple_angle_sweep_needs_an_index():
    with pytest.raises(DomainError):
        verify_multiple_angle_sweep(0, 3)


def test_report_json_layout():
    report = verify_angle_difference(MpReal.from_decimal("2.75", 112),
                                     MpReal.from_decimal("1.5", 112), 96)
    doc = report.to_json()
    assert set(doc) == {"description", "parameters", "residual", "tolerance", "pass"}
    assert doc["pass"] is True


def test_reports_jsonl_round_trip():
    reports = verify_multiple_angle_sweep(3, 2, 96, seed=5)
    assert len(reports) == 6
    for r in reports:
        doc = json.loads(json.dumps(r.to_json()))
        assert doc["pass"] is True


def _count_work(monkeypatch) -> list:
    """Replace the names through which the identity checks do their work
    with wrappers; return the list of the names called."""
    calls = []
    for name in ("pi_mantissa", "sin_reduced", "cos_reduced", "seeded_thetas",
                 "verify_multiple_angle"):
        real = getattr(identities, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(identities, name, counted)
    monkeypatch.setattr(MpReal, "from_fraction", lambda *args: calls.append("from_fraction"))
    return calls


@pytest.mark.parametrize("bits, error", [(4, DomainError), (MAX_BITS + 1, ResourceLimitError)])
@pytest.mark.parametrize("call", [
    lambda bits: verify_multiple_angle(5, MpReal(3, -2), bits),
    lambda bits: verify_multiple_angle_sweep(2, 1, bits),
    lambda bits: seeded_thetas(1, 7, bits),
    lambda bits: verify_sinc_limit([Fraction(1, 10)], bits),
    lambda bits: verify_angle_difference(MpReal(3, 0), MpReal(1, -1), bits),
], ids=["multiple-angle", "sweep", "thetas", "sinc", "angle-diff"])
def test_identity_checks_refuse_bits_before_any_work(monkeypatch, call, bits, error):
    calls = _count_work(monkeypatch)
    with pytest.raises(error):
        call(bits)
    assert calls == []


def test_sweep_refuses_its_largest_working_precision_before_seeding(monkeypatch):
    # bits = MAX_BITS - 1 is allowed, but the working precision at n_max
    # adds log2(sum |c_p|) + clog2(n_max + 2) + 24 bits
    calls = _count_work(monkeypatch)
    bits = MAX_BITS - 1
    with pytest.raises(ResourceLimitError) as info:
        verify_multiple_angle_sweep(2, 1, bits)
    assert calls == []
    assert str(info.value).startswith(f"requested {identities._work_bits(2, bits)[1]} bits")
