import json
import math
import random
import time
from fractions import Fraction

import pytest

from flintlab import (
    CheckpointMismatchError,
    DomainError,
    ResourceLimitError,
    SeriesSpec,
    UsageError,
    equivalence_experiment,
    load_checkpoint,
    partial_sum,
    save_checkpoint,
    term,
)
import flintlab.series as series
from flintlab.mpreal import MAX_BITS, WALK_BLOCK, abs_sin_canonical, clog2, fx_ln_int, fx_pow
from oracles import sin_by_reduction, term_units_ref


def oracle_term(n: int, s: int = 0) -> tuple[Fraction, Fraction]:
    """1/(sin^2 n * n^3) scaled for depth s, with an error bound, fully
    outside the package."""
    sin_apx, sin_err = sin_by_reduction(n)
    lo, hi = abs(sin_apx) - sin_err, abs(sin_apx) + sin_err
    num = Fraction(n) ** (2 * s)
    den = n ** (3 + 2 * s)
    mid = num / (sin_apx ** 2 * den)
    spread = num / (lo ** 2 * den) - num / (hi ** 2 * den)
    return mid, spread


def test_spec_defaults_and_validation():
    spec = SeriesSpec()
    assert (spec.s, spec.u, spec.v, spec.bits) == (0, 2, 3, 128)
    with pytest.raises(DomainError):
        SeriesSpec(s=-1)
    with pytest.raises(DomainError):
        SeriesSpec(u=0)
    with pytest.raises(DomainError):
        SeriesSpec(v=0)
    with pytest.raises(DomainError):
        SeriesSpec(bits=4)


@pytest.mark.parametrize("field", ["s", "u", "bits"])
@pytest.mark.parametrize("value", [True, False])
def test_spec_rejects_booleans(field, value):
    with pytest.raises(DomainError):
        SeriesSpec(**{field: value})


def test_spec_canonicalizes_integral_float_power():
    assert SeriesSpec(v=3.0).v == 3
    assert isinstance(SeriesSpec(v=3.0).v, int)
    assert SeriesSpec(v=3.5).v == 3.5


def test_spec_power_is_exact():
    assert SeriesSpec(v="2.1").v == Fraction(21, 10)
    assert SeriesSpec(v="21/10") == SeriesSpec(v=Fraction(21, 10))
    assert SeriesSpec(v=2.1).v == Fraction(2.1) != Fraction(21, 10)
    assert SeriesSpec(v="3.0").v == 3 and isinstance(SeriesSpec(v="3.0").v, int)


@pytest.mark.parametrize("v", ["inf", "1e400", "nan", "abc", "1/0", "-1", "0",
                               float("inf"), 10**400, True, None])
def test_spec_rejects_bad_power(v):
    with pytest.raises(DomainError):
        SeriesSpec(v=v)


def test_first_term_value():
    t = term(1, SeriesSpec())
    assert t.decimal(12).startswith("1.41228292743")
    want = Fraction(1) / Fraction(math.sin(1)) ** 2
    assert abs(t.center() - want) < Fraction(1, 10**9)


def test_term_spike_value():
    t = term(355, SeriesSpec())
    assert t.decimal(10).startswith("24.59818122")


@pytest.mark.parametrize("n", [1, 2, 3, 22, 355, 1000])
def test_term_matches_independent_oracle(n):
    t = term(n, SeriesSpec())
    want, want_err = oracle_term(n)
    assert abs(t.center() - want) <= t.err + want_err


def test_term_is_positive_and_error_bounded():
    for n in (1, 7, 355):
        t = term(n, SeriesSpec(bits=128))
        assert t.lower() > 0
        assert t.err <= Fraction(1, 1 << 180)


def test_term_units_identical_across_s():
    # with G(n) = n the summand is the same rational for every s
    for n in (1, 3, 355):
        base = term(n, SeriesSpec(s=0))
        for s in (1, 2, 3):
            assert term(n, SeriesSpec(s=s)).man == base.man


def _power(n, frac, w):
    return fx_pow(*fx_ln_int(n, w), frac, w)


GRID_N = (1, 2, 3, 22, 355, 103993, 104348, 833719)


def _record_sines(monkeypatch) -> list:
    """Replace series.abs_sin_canonical with a wrapper; return the list of
    its (n, w).  A term calls it once per attempt that the walk did not
    supply, so a term of _term_units escalated iff its n is listed twice."""
    calls = []
    sine = series.abs_sin_canonical

    def recording(n, w):
        calls.append((n, w))
        return sine(n, w)

    monkeypatch.setattr(series, "abs_sin_canonical", recording)
    return calls


# The width test is the only acceptance rule.  The two tests named after
# the exact width, and test_inline_width_test_falls_back_to_units, check T
# against the oracle's loop, an error of 3 units and which terms escalate.

@pytest.mark.parametrize("u", [1, 2, 3, 4])
@pytest.mark.parametrize("v", [2, 3, Fraction(5, 2), Fraction(1, 10)])
def test_term_units_match_the_exact_width(u, v, monkeypatch):
    # T is the oracle's, every ball has 3 units, and only a tiny sine
    # makes a term escalate
    sines = _record_sines(monkeypatch)
    escalated = []
    for bits in (8, 128, 1024):
        spec = SeriesSpec(u=u, v=v, bits=bits)
        ns = GRID_N + tuple(range(1000, 1040)) if bits == 128 else GRID_N
        for n in ns:
            want = term_units_ref(n, u, v, spec.acc_scale, abs_sin_canonical, _power)
            sines.clear()
            assert series._term_units(n, spec) == want, (bits, n)
            escalated += [n] * (len(sines) - 1)
            t = term(n, spec)
            assert (t.man, t.err) == (want, Fraction(3, 1 << spec.acc_scale)), (bits, n)
    if (u, v) == (4, 2):
        # 355 fails the width test once at every bits
        assert escalated == [355, 355, 355]
    if v == 3 or u < 3:
        assert escalated == []


def test_sum_over_a_run_matches_the_exact_width(monkeypatch):
    spec = SeriesSpec(u=3, v=Fraction(1, 10), bits=64)
    want = [term_units_ref(n, 3, spec.v, spec.acc_scale, abs_sin_canonical, _power)
            for n in range(300, 421)]
    first = partial_sum(299, spec)
    sines = _record_sines(monkeypatch)
    r = partial_sum(420, spec, checkpoint=first)
    assert r.units - first.units == sum(want)
    assert r.err_units - first.err_units == 3 * len(want)
    assert 355 in [n for n, _ in sines]              # the walk's sine of 355 escalates


SUM_WINDOWS = ((1, 9000), (2**14 - 2, 2**14 + 1), (10**12, 10**12 + 4096))


def _window_units(lo: int, hi: int, spec: SeriesSpec) -> tuple[int, int]:
    """partial_sum's (units, err_units) over n = lo..hi alone."""
    start = None if lo == 1 else series.PartialSumResult(spec, lo - 1, 0, 0)
    r = partial_sum(hi, spec, checkpoint=start)
    return r.units, r.err_units


def _per_term_units(lo: int, hi: int, spec: SeriesSpec) -> tuple[int, int]:
    return sum(series._term_units(n, spec) for n in range(lo, hi + 1)), 3 * (hi - lo + 1)


def _record_units(monkeypatch) -> list:
    """Replace series._units with a wrapper; return the list of its n."""
    calls = []
    units = series._units

    def recording(n, *args):
        calls.append(n)
        return units(n, *args)

    monkeypatch.setattr(series, "_units", recording)
    return calls


def test_walk_blocks_cross_no_power_of_two_or_walk_block():
    # partial_sum forms c, w and N << 1 once per block of the walk
    base = SeriesSpec().acc_scale + series._SIN_MARGIN
    for lo, hi in SUM_WINDOWS:
        blocks = list(series.abs_sin_walk(lo, hi, base))
        assert [n for n0, ms in blocks for n in range(n0, n0 + len(ms))] == list(range(lo, hi + 1))
        # a block starts at lo, after a power of two and after a multiple
        # of WALK_BLOCK, and nowhere else
        assert [n0 for n0, _ in blocks] == [
            n for n in range(lo, hi + 1)
            if n == lo or clog2(max(n, 2)) != clog2(max(n - 1, 2)) or (n - 1) % WALK_BLOCK == 0]


@pytest.mark.parametrize("bits", [8, 128])
@pytest.mark.parametrize("v", [1, 2, 3])
@pytest.mark.parametrize("u", [1, 2, 3, 4])
def test_inline_first_attempt_matches_term_units(u, v, bits):
    # for integer v partial_sum forms the first attempt's T inline at and
    # above each block's floor; the windows cross the walk's blocks at
    # 4096, 8192 and 2**14
    spec = SeriesSpec(u=u, v=v, bits=bits)
    for lo, hi in SUM_WINDOWS:
        assert _window_units(lo, hi, spec) == _per_term_units(lo, hi, spec), (lo, hi)


def _fails_first_test(n: int, m: int, u: int, v: int, acc: int) -> bool:
    """Whether the first attempt of a term of integer v, with sine m at w =
    acc + _SIN_MARGIN + clog2 n, fails the width test 4u(T + 1) <= m."""
    w = acc + series._SIN_MARGIN + clog2(max(n, 2))
    if m <= 1:
        return True
    den = m ** u * n ** v
    T = ((2 << (acc + u * w)) + den) // (den << 1)
    return 4 * u * (T + 1) > m


@pytest.mark.parametrize("seed", range(4))
def test_width_floor_passes_the_first_width_test(seed):
    # every m in [m_lo, 2**w] passes the first attempt's width test at the
    # block's first n, and so does every walked m >= m_lo of the block
    rng = random.Random(seed)
    for _ in range(12):
        u, iv, acc = rng.randint(1, 8), rng.randint(0, 6), rng.randint(8, 256) + 80
        base = acc + series._SIN_MARGIN
        for lo in (1, (1 << rng.randint(1, 50)) + 1, 10**12):
            for n0, ms in series.abs_sin_walk(lo, lo + 40, base):
                w = base + clog2(max(n0, 2))
                m_lo = series._width_floor(n0, w, u, iv, acc)
                assert m_lo >= 16
                for m in {m_lo, m_lo + 1, rng.randint(m_lo, max(m_lo, 1 << w)), 1 << w}:
                    if m <= 1 << w:
                        assert not _fails_first_test(n0, m, u, iv, acc), (u, iv, acc, n0, m)
                for n, m in enumerate(ms, n0):
                    assert m < m_lo or not _fails_first_test(n, m, u, iv, acc), (u, iv, acc, n)


@pytest.mark.parametrize("v, windows", [
    (100, SUM_WINDOWS),                                  # iv > acc = 88
    (Fraction(5, 2), ((4000, 4200), (2**14 - 2, 2**14 + 1), (10**12, 10**12 + 64))),
    (Fraction(201, 2), SUM_WINDOWS),                     # fractional, and iv = 100 > acc
])
def test_per_term_path_matches_term_units(v, windows, monkeypatch):
    # a fractional v and iv > acc call _units for every term
    spec = SeriesSpec(v=v, bits=8)
    calls = _record_units(monkeypatch)
    for lo, hi in windows:
        got = _window_units(lo, hi, spec)
        assert calls == list(range(lo, hi + 1))
        assert got == _per_term_units(lo, hi, spec), (lo, hi)
        calls.clear()


# the n of (u, v) = (4, 1) below their block's floor m_lo in FALLBACK_WINDOWS;
# each has a tiny sine, and all but 1420 and 1775 fail the first attempt's
# width test
FALLBACKS_4_1 = [355, 710, 1065, 1420, 1775, 103993, 104348]
FALLBACK_WINDOWS = ((1, 9000), (103_900, 104_400))


@pytest.mark.parametrize("u, v, fallbacks, widths", [
    (2, 3, [], []),
    (4, 2, [355, 710], [3, 3]),
    (4, 1, FALLBACKS_4_1, [3] * 7),
])
def test_inline_width_test_falls_back_to_units(u, v, fallbacks, widths, monkeypatch):
    # an n below its block's floor m_lo calls _units, which escalates where
    # the width test fails, so the term's width is 3 units.  Every n whose
    # sine fails the first attempt's test is among them; at (4, 1), 103993
    # misses it by a factor below 2
    spec = SeriesSpec(u=u, v=v)
    calls = _record_units(monkeypatch)
    for lo, hi in FALLBACK_WINDOWS:
        assert _window_units(lo, hi, spec)[1] == 3 * (hi - lo + 1)
    monkeypatch.undo()
    seen = [term(n, spec).err * (1 << spec.acc_scale) for n in calls]
    assert (calls, seen) == (fallbacks, widths)
    base = spec.acc_scale + series._SIN_MARGIN
    failed = [n for lo, hi in FALLBACK_WINDOWS for n0, ms in series.abs_sin_walk(lo, hi, base)
              for n, m in enumerate(ms, n0) if _fails_first_test(n, m, u, v, spec.acc_scale)]
    assert set(failed) <= set(calls)
    assert failed == {(2, 3): [], (4, 2): [355], (4, 1): [355, 710, 1065, 103993, 104348]}[u, v]


def _term_ball_holds(n: int, spec: SeriesSpec) -> bool:
    """Whether T +- 3 units holds 1/(|sin n|^u * n^v), for integer v, with
    |sin n| from the package-independent sin_by_reduction."""
    T, acc = series._term_units(n, spec), spec.acc_scale
    # relative error u * sin_err / |sin n| well below 1/T, and a Taylor
    # remainder (pi/2)**(2j+1)/(2j+1)! below 10**-digits at j terms
    digits = 20 + (T.bit_length() + spec.u.bit_length()) * 3 // 10
    sin_apx, sin_err = sin_by_reduction(n, digits, digits // 3 + 10)
    lo = Fraction(1 << acc) / ((abs(sin_apx) + sin_err) ** spec.u * n ** spec.v)
    hi = Fraction(1 << acc) / ((abs(sin_apx) - sin_err) ** spec.u * n ** spec.v)
    return T - 3 <= lo and hi <= T + 3


@pytest.mark.parametrize("u, v, fallbacks, windows", [
    (4, 1, FALLBACKS_4_1, FALLBACK_WINDOWS),
    (4, 2, [355, 710], ((1, 9000),)),
    (20, 1, None, ((1, 100),)),
])
def test_escalated_terms_hold_the_true_value(u, v, fallbacks, windows, monkeypatch):
    # a term below its block's floor is accepted by _units' width test
    # alone; its ball must hold the term computed outside the package
    spec = SeriesSpec(u=u, v=v)
    calls = _record_units(monkeypatch)
    for lo, hi in windows:
        _window_units(lo, hi, spec)
    monkeypatch.undo()
    if fallbacks is not None:
        assert calls == fallbacks
    assert len(calls) >= (10 if fallbacks is None else 1)
    for n in calls:
        assert _term_ball_holds(n, spec), n


@pytest.mark.parametrize("bits", [8, 128])
@pytest.mark.parametrize("u, v", [(2, 3), (4, 1), (20, 1), (3, Fraction(1, 10)), (2, 100)])
def test_sum_error_is_three_units_per_term(u, v, bits):
    spec = SeriesSpec(u=u, v=v, bits=bits)
    straight = partial_sum(1200, spec)
    resumed = partial_sum(1200, spec, checkpoint=partial_sum(400, spec))
    assert straight == resumed
    assert straight.err_units == 3 * 1200


def test_resume_carries_a_stored_error_over(tmp_path):
    # a checkpoint written when a tiny sine's term took its exact width
    # (355's was 6285 units at (4, 1)) keeps that err; each new term adds 3
    spec = SeriesSpec(u=4, v=1)
    fresh = partial_sum(400, spec)
    path = str(tmp_path / "c.json")
    save_checkpoint(series.PartialSumResult(spec, 400, fresh.units, 3 * 399 + 6285), path)
    assert json.loads(open(path).read())["version"] == 2
    loaded = load_checkpoint(path)
    r = partial_sum(1200, spec, checkpoint=loaded)
    assert r.err_units == 3 * 399 + 6285 + 3 * 800
    assert r.units == partial_sum(1200, spec).units


@pytest.mark.parametrize("u, v, k, failed", [
    (4, 1, 1100, [355, 710, 1065]),
    (5000, 3, 1, [1]),
    (20000, 3, 3, [1]),          # the escalated w needs too large a sine power
])
def test_failed_inline_attempt_reaches_units_escalated(u, v, k, failed, monkeypatch):
    # a term below its block's floor reaches _units with the walk's sine,
    # and _units' first attempt uses it: _units takes no second sine at
    # the first precision, so its sines are term's after the first
    spec = SeriesSpec(u=u, v=v)
    args = []
    units = series._units

    def recording(n, c, m, *rest):
        args.append((n, m))
        return units(n, c, m, *rest)

    monkeypatch.setattr(series, "_units", recording)
    sines = _record_sines(monkeypatch)
    try:
        partial_sum(k, spec)
    except ResourceLimitError:
        assert u == 20000
    first = {n: spec.acc_scale + series._SIN_MARGIN + clog2(max(n, 2)) for n in failed}
    assert args == [(n, abs_sin_canonical(n, first[n])) for n in failed]
    summed, want = list(sines), []
    for n in failed:
        sines.clear()
        try:
            series._term_units(n, spec)
        except ResourceLimitError:
            assert u == 20000
        assert sines[0] == (n, first[n])
        want += sines[1:]
    assert summed == want
    if u >= 5000:
        # with the walk's, one sine before the term raises at u = 20000,
        # and two at u = 5000
        assert len(summed) == {5000: 1, 20000: 0}[u]


def test_walk_value_at_most_one_goes_to_units(monkeypatch):
    # m <= 1 is never divided by inline: _units escalates past it
    spec = SeriesSpec()
    bad = {7: 0, 8: 1}
    walk = series.abs_sin_walk

    def spoiled(lo, hi, base):
        for n0, ms in walk(lo, hi, base):
            yield n0, [bad.get(n, m) for n, m in enumerate(ms, n0)]

    monkeypatch.setattr(series, "abs_sin_walk", spoiled)
    calls = _record_units(monkeypatch)
    r = partial_sum(10, spec)
    assert calls == [7, 8]
    want = [series._units(n, 3, bad[n], 2, 3, 0, spec.acc_scale) if n in bad
            else series._term_units(n, spec) for n in range(1, 11)]
    assert (r.units, r.err_units) == (sum(want), 30)


def test_term_rejects_bad_index():
    with pytest.raises(DomainError):
        term(0, SeriesSpec())
    with pytest.raises(DomainError):
        term(2.5, SeriesSpec())
    with pytest.raises(DomainError):
        term(True, SeriesSpec())


def test_partial_sum_small_and_frozen():
    r = partial_sum(2, SeriesSpec())
    assert r.value.decimal(10).startswith("1.5634642321")
    r = partial_sum(1000, SeriesSpec())
    assert r.value.decimal(22) == "30.1747901658768020709872"
    assert r.err <= Fraction(1, 1 << 196)


def test_value_fraction_is_the_units_at_the_scale():
    r = partial_sum(1000, SeriesSpec(bits=64))
    assert r.value_fraction() == Fraction(r.units, 2 ** r.spec.acc_scale)
    assert r.value_fraction() == r.value.center()


def test_partial_sum_matches_oracle_sum():
    want = Fraction(0)
    want_err = Fraction(0)
    for n in range(1, 11):
        mid, spread = oracle_term(n)
        want += mid
        want_err += spread
    r = partial_sum(10, SeriesSpec())
    assert abs(r.value.center() - want) <= r.err + want_err


def test_partial_sum_requires_positive_k():
    with pytest.raises(DomainError):
        partial_sum(0, SeriesSpec())
    with pytest.raises(DomainError):
        partial_sum(True, SeriesSpec())


def test_resume_is_bit_identical():
    spec = SeriesSpec(s=1)
    fresh = partial_sum(800, spec)
    half = partial_sum(400, spec)
    resumed = partial_sum(800, spec, checkpoint=half)
    assert resumed.units == fresh.units
    assert resumed.err_units == fresh.err_units


def test_sum_equals_the_per_term_units():
    # partial_sum takes |sin n| from the walk, term() from the direct path
    spec = SeriesSpec()
    terms = [term(n, spec) for n in range(1, 5001)]
    r = partial_sum(5000, spec)
    assert sum(t.man for t in terms) == r.units
    assert sum(t.err for t in terms) == r.err


@pytest.mark.parametrize("spec", [SeriesSpec(), SeriesSpec(s=1, v=2.5, bits=96)])
def test_resume_inside_walk_blocks_is_bit_identical(spec):
    straight = partial_sum(5000, spec)
    state = None
    for k in (1, 1000, 1588, 2049, 4095, 4100, 5000):
        state = partial_sum(k, spec, checkpoint=state)
    assert (state.units, state.err_units) == (straight.units, straight.err_units)


def test_checkpoint_file_round_trip(tmp_path):
    path = str(tmp_path / "c.json")
    spec = SeriesSpec(s=2, bits=96)
    result = partial_sum(250, spec)
    save_checkpoint(result, path)
    loaded = load_checkpoint(path)
    assert loaded.units == result.units
    assert loaded.err_units == result.err_units
    assert loaded.spec == spec
    resumed = partial_sum(500, spec, checkpoint=loaded)
    assert resumed.units == partial_sum(500, spec).units


def test_checkpoint_rejects_spec_mismatch():
    half = partial_sum(100, SeriesSpec(s=1))
    with pytest.raises(CheckpointMismatchError):
        partial_sum(200, SeriesSpec(s=2), checkpoint=half)


def test_checkpoint_rejects_backwards_resume():
    half = partial_sum(100, SeriesSpec())
    with pytest.raises(CheckpointMismatchError):
        partial_sum(50, SeriesSpec(), checkpoint=half)


def test_checkpoint_file_errors(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(UsageError):
        load_checkpoint(str(broken))

    wrong_version = tmp_path / "wrong.json"
    good = json.loads(_checkpoint_text(tmp_path))
    good["version"] = 99
    wrong_version.write_text(json.dumps(good))
    with pytest.raises(CheckpointMismatchError):
        load_checkpoint(str(wrong_version))


def test_checkpoint_writes_the_exact_power(tmp_path):
    path = tmp_path / "c.json"
    spec = SeriesSpec(v="2.1", bits=64)
    save_checkpoint(partial_sum(30, spec), str(path))
    doc = json.loads(path.read_text())
    assert (doc["version"], doc["spec"]["v"]) == (2, "21/10")
    loaded = load_checkpoint(str(path))
    assert loaded.spec == spec
    assert partial_sum(60, spec, checkpoint=loaded) == partial_sum(60, spec)


def test_checkpoint_reads_version_1_float_power(tmp_path):
    # version 1 stored v as a JSON number: a float v is its binary value
    path = tmp_path / "c.json"
    spec = SeriesSpec(v=2.1, bits=64)
    save_checkpoint(partial_sum(30, spec), str(path))
    doc = json.loads(path.read_text())
    doc["version"], doc["spec"]["v"] = 1, 2.1
    path.write_text(json.dumps(doc))
    loaded = load_checkpoint(str(path))
    assert loaded.spec.v == Fraction(2.1)
    assert partial_sum(60, spec, checkpoint=loaded) == partial_sum(60, spec)
    with pytest.raises(CheckpointMismatchError):
        partial_sum(60, SeriesSpec(v="2.1", bits=64), checkpoint=loaded)


@pytest.mark.parametrize("version, v", [(1, "3"), (2, 3), (2, 2.5)])
def test_checkpoint_power_must_match_its_version(tmp_path, version, v):
    path = tmp_path / "c.json"
    doc = json.loads(_checkpoint_text(tmp_path))
    doc["version"], doc["spec"]["v"] = version, v
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointMismatchError):
        load_checkpoint(str(path))


@pytest.mark.parametrize("field, value", [
    ("k", True), ("s", False), ("u", True), ("bits", True), ("version", True),
])
def test_checkpoint_rejects_booleans(tmp_path, field, value):
    # JSON true and false load as Python bools, which are ints
    path = tmp_path / "c.json"
    doc = json.loads(_checkpoint_text(tmp_path))
    (doc if field in ("k", "version") else doc["spec"])[field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointMismatchError):
        load_checkpoint(str(path))


def test_failed_save_keeps_the_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "c.json"
    first = partial_sum(20, SeriesSpec())
    save_checkpoint(first, str(path))
    before = path.read_text()

    def dump_then_fail(doc, fh):
        fh.write(json.dumps(doc)[:25])
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", dump_then_fail)
    with pytest.raises(OSError):
        save_checkpoint(partial_sum(40, SeriesSpec()), str(path))
    monkeypatch.undo()
    assert path.read_text() == before
    assert load_checkpoint(str(path)) == first
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


def _checkpoint_text(tmp_path) -> str:
    path = tmp_path / "ok.json"
    save_checkpoint(partial_sum(10, SeriesSpec()), str(path))
    return path.read_text()


def test_equivalence_deltas_vanish():
    rows = equivalence_experiment(500, 3, bits=128)
    assert [row.s for row in rows] == [0, 1, 2, 3]
    for row in rows:
        assert row.delta_vs_s0 == 0
        assert row.err <= Fraction(1, 1 << 96)


@pytest.mark.parametrize("u", [2, 3])
@pytest.mark.parametrize("v", [3, 2.5, 3.5])
def test_term_does_not_depend_on_s(u, v):
    """G(n)^(2s) / n^(2s) = 1 exactly, so every s gives the s = 0 term bit for bit."""
    for n in list(range(1, 41)) + [355, 1588, 103993]:
        base = term(n, SeriesSpec(0, u, v, 128))
        for s in (1, 4):
            t = term(n, SeriesSpec(s, u, v, 128))
            assert (t.man, t.err) == (base.man, base.err), (n, s)


def test_fractional_power_follows_float_reference():
    t = term(7, SeriesSpec(v=3.5, bits=96))
    want = 1 / (math.sin(7) ** 2 * 7 ** 3.5)
    assert abs(float(t.center()) - want) < 1e-12


def test_higher_sine_power():
    t = term(3, SeriesSpec(u=3, bits=96))
    want = 1 / (abs(math.sin(3)) ** 3 * 27)
    assert abs(float(t.center()) - want) < 1e-12


@pytest.mark.parametrize("v", [300, 100_000, Fraction(200_001, 2)])
def test_large_power_terms_round_to_zero(v):
    spec = SeriesSpec(v=v, bits=128)                 # units of 2**-208
    for n in (2, 3, 22, 355):
        t = term(n, spec)
        assert (t.man, t.err) == (0, Fraction(3, 1 << 208)), n
        sin_apx, sin_err = sin_by_reduction(n)
        top = 1 / ((abs(sin_apx) - sin_err) ** 2 * Fraction(n) ** math.floor(v))
        assert top < Fraction(1, 1 << 209)
    one = term(1, spec)
    total = partial_sum(300, spec)
    assert total.units == one.man
    assert total.err == one.err + 299 * Fraction(3, 1 << 208)


def test_huge_sine_power_raises_at_once():
    # m**u would have about 2.6e11 bits at the first attempt
    t0 = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        term(1, SeriesSpec(u=10**9))
    assert time.perf_counter() - t0 < 1


def _refusal(call) -> str:
    with pytest.raises(ResourceLimitError) as info:
        call()
    return str(info.value)


def test_sums_at_max_bits_refuse_at_once():
    # every term needs more than MAX_BITS working bits, so the sum refuses
    # for n = 1 with term's own message, before it walks
    want = _refusal(lambda: term(1, SeriesSpec(bits=MAX_BITS)))
    for call in (lambda: partial_sum(3, SeriesSpec(bits=MAX_BITS)),
                 lambda: equivalence_experiment(3, 1, MAX_BITS)):
        t0 = time.perf_counter()
        assert _refusal(call) == want
        assert time.perf_counter() - t0 < 1


@pytest.mark.parametrize("spec, first", [
    (SeriesSpec(u=77220), 9),             # u*w > _POWER_BITS from w = 256 + 4 on
    (SeriesSpec(bits=MAX_BITS - 130), 5),  # w > MAX_BITS from w = MAX_BITS - 2 + 3 on
])
def test_sum_names_the_first_term_over_a_ceiling(spec, first, monkeypatch):
    def passes(n):
        w = spec.acc_scale + series._SIN_MARGIN + clog2(max(n, 2))
        return w <= MAX_BITS and spec.u * w <= series._POWER_BITS

    assert passes(first - 1) and not passes(first)
    walks = []
    monkeypatch.setattr(series, "abs_sin_walk", lambda *args: walks.append(args) or iter(()))
    message = {n: _refusal(lambda: term(n, spec)) for n in (first, first + 4)}
    assert message[first] != message[first + 4]
    for k0, n in ((None, first), (first - 2, first), (first + 3, first + 4)):
        checkpoint = None if k0 is None else series.PartialSumResult(spec, k0, 0, 0)
        assert _refusal(lambda: partial_sum(20, spec, checkpoint)) == message[n], k0
    assert walks == []


def test_large_sine_power_keeps_its_value():
    # n = 1 escalates to w = 2049, where m**u has 5000 * 2049 bits, below
    # the bound; the value is the one computed before the bound existed
    units = series._term_units(1, SeriesSpec(u=5000))
    assert (units.bit_length(), units % 10**20, units >> 1420) == (
        1454, 60275183898547975274, 9034789900)


def test_huge_sine_powers_escalate_by_the_shortfall(monkeypatch):
    # the failed test's shortfall takes n = 1 at u = 5000 from w = 257
    # straight to the w that passes; at u = 20000 that w needs a sine
    # power above the bound, so the term raises after one sine
    sines = _record_sines(monkeypatch)
    term(1, SeriesSpec(u=5000))
    assert len(sines) == 2 and sines[0] == (1, 257)
    sines.clear()
    with pytest.raises(ResourceLimitError):
        term(1, SeriesSpec(u=20000))
    assert sines == [(1, 257)]
