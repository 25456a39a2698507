import json
import math
import random
from fractions import Fraction

import pytest

import flintlab.rationality as rationality
import oracles
from flintlab import (
    DomainError,
    MpReal,
    PrecisionError,
    ResourceLimitError,
    cf_terms,
    compute_pi,
    convergent_numerators_up_to,
    local_exponent,
    sin_int,
    spike_indices,
)
from flintlab.mpreal import MAX_BITS, abs_sin_canonical, fx_ln_int, ln2_mantissa
from oracles import (DATA_DIR, cf_terms_ref, convergent_numerators, pi_fraction,
                     sin_by_reduction, spike_records_ref)

PI_CF_20 = [3, 7, 15, 1, 292, 1, 1, 1, 2, 1, 3, 1, 14, 2, 1, 1, 2, 2, 2, 2]


def test_cf_of_pi_first_20_terms():
    expansion = cf_terms(compute_pi(256), 20)
    assert list(expansion.terms) == PI_CF_20
    assert expansion.terms[4] == 292
    assert not expansion.exhausted
    assert not expansion.complete


def test_cf_matches_independent_rational_expansion():
    # the same partial quotients must fall out of the spigot approximation
    apx, _ = pi_fraction(120)
    expansion = cf_terms(apx, 20)
    assert list(expansion.terms) == PI_CF_20


def test_cf_exhausts_at_low_precision():
    expansion = cf_terms(compute_pi(16), 20)
    assert expansion.exhausted
    assert not expansion.complete
    assert len(expansion) < 20
    assert list(expansion.terms) == PI_CF_20[: len(expansion)]


def test_cf_exact_rational_terminates():
    expansion = cf_terms(Fraction(22, 7), 10)
    assert list(expansion.terms) == [3, 7]
    assert expansion.complete
    assert not expansion.exhausted

    expansion = cf_terms(Fraction(355, 113), 10)
    assert list(expansion.terms) == [3, 7, 16]
    assert expansion.complete


def test_cf_rejects_bad_count():
    with pytest.raises(DomainError):
        cf_terms(Fraction(1, 2), 0)


def _cf_key(expansion):
    return expansion.terms, expansion.exhausted, expansion.complete


def _cf_ref(x, count):
    lo, hi = (x, x) if isinstance(x, Fraction) else (x.lower(), x.upper())
    return cf_terms_ref(lo, hi, count)


def _random_cf_input(rng):
    """A Fraction or a ball, some with an end point on an integer or a rational."""
    bits = rng.choice((8, 40, 200, 400, 1500, 4000))
    scale = bits + rng.randrange(0, 64)
    kind = rng.randrange(5)
    if kind == 0:                                   # a point
        return Fraction(rng.randrange(1, 1 << bits), rng.randrange(1, 1 << rng.choice((8, bits))))
    e = rng.randrange(1, 1 << 30)
    if kind == 1:                                   # a ball, any radius
        man = rng.randrange(1, 1 << scale)
        return MpReal(man, rng.randrange(-scale - 8, 4), Fraction(e, rng.randrange(1, 1 << scale)))
    if kind == 2:                                   # lower end on an integer
        k = rng.randrange(1, 1000)
        return MpReal((k << scale) + e, -scale, Fraction(e, 1 << scale))
    if kind == 3:                                   # upper end on an integer
        k = rng.randrange(1, 1000)
        return MpReal((k << scale) - e, -scale, Fraction(e, 1 << scale))
    # one end on a rational p/q, reached after a few quotients
    r = Fraction(rng.randrange(1, 1 << 40), rng.randrange(1, 1 << 40))
    man = round(r * (1 << scale)) + rng.choice((-e, e))
    return MpReal(man, -scale, abs(Fraction(man, 1 << scale) - r))


def test_cf_terms_matches_the_fraction_loop():
    rng = random.Random(4711)
    for _ in range(800):
        x = _random_cf_input(rng)
        if (x if isinstance(x, Fraction) else x.lower()) <= 0:
            continue
        for count in (1, 2, 7, 60, 10**6):
            assert _cf_key(cf_terms(x, count)) == _cf_ref(x, count), (x, count)


def _deep_cf_input(rng, kind):
    """A point, a ball, or a ball whose lower end is a rational, of 16000 to
    24000 bits: deep enough for six nested Lehmer batches."""
    bits = rng.randrange(16000, 24001)
    if kind == 0:                                   # a point: "edge", complete
        return Fraction(rng.getrandbits(bits) | 1, rng.getrandbits(bits) | 1)
    if kind == 1:                                   # a ball: "split"
        man = rng.getrandbits(bits) | 1 << bits
        return MpReal(man, -bits, Fraction(rng.randrange(1, 1 << 30), 1 << bits))
    # lower end on r = p/q, q near 2**(bits/2 - 32): "edge" after r's terms
    half = bits // 2 - 32
    r = Fraction(rng.getrandbits(half) | 1 << half, rng.getrandbits(half) | 1)
    man = round(r * (1 << bits)) + rng.randrange(1, 1 << 8)
    return MpReal(man, -bits, Fraction(man, 1 << bits) - r)


def test_cf_terms_matches_the_fraction_loop_through_deep_batches(monkeypatch):
    # every _cf_run call as (depth, terms taken, stop), the top level at depth 0
    real, calls, depth = rationality._cf_run, [], [0]

    def traced(a, b, c, d, count):
        depth[0] += 1
        try:
            out = real(a, b, c, d, count)
        finally:
            depth[0] -= 1
        calls.append((depth[0], len(out[0]), out[1]))
        return out

    monkeypatch.setattr(rationality, "_cf_run", traced)
    rng = random.Random(2718)
    for i in range(21):
        x = _deep_cf_input(rng, i % 3)
        full = cf_terms(x, 10**6)
        assert _cf_key(full) == _cf_ref(x, 10**6), i
        count = rng.randrange(1, len(full))          # ends inside some batch
        assert _cf_key(cf_terms(x, count)) == _cf_ref(x, count), (i, count)
    nested = [call for call in calls if call[0] > 0]
    assert max(call[0] for call in nested) >= 6
    assert {"split", "edge", None} <= {stop for level, _, stop in calls if level == 0}
    assert {k & 1 for _, k, _ in nested if k} == {0, 1}
    assert any(stop is None for _, _, stop in nested)     # a batch the count cut


def test_cf_terms_count_at_the_end_of_a_rational():
    rng = random.Random(113)
    for _ in range(20):
        x = Fraction(rng.randrange(1, 1 << 1200), rng.randrange(1, 1 << 1200))
        full = cf_terms(x, 10**6)
        assert full.complete and not full.exhausted
        n = len(full)
        for count in (n - 1, n, n + 1):
            assert _cf_key(cf_terms(x, count)) == _cf_ref(x, count)


def test_cf_terms_of_pi_to_exhaustion():
    x = compute_pi(60000)
    got = cf_terms(x, 10**6)
    assert got.exhausted and len(got) == 17545
    assert _cf_key(got) == _cf_ref(x, 10**6)


@pytest.mark.parametrize("n_max", [10**40, 10**100])
def test_convergent_numerators_past_64_terms(n_max):
    apx, err = pi_fraction(300)
    terms, _, _ = cf_terms_ref(apx - err, apx + err, 10**6)
    numerators = convergent_numerators(terms)
    assert numerators[-1] > n_max
    assert convergent_numerators_up_to(n_max) == {p for p in numerators if p <= n_max}


NUMERATOR_GRID = (1, 2, 3, 21, 22, 23, 332, 333, 354, 355, 356, 103992, 103993,
                  104347, 104348, 10**12, 10**40, 10**100)


def test_convergent_numerators_match_the_spigot_on_a_grid():
    # each n_max on, just below or just above a numerator, and far ones
    # that take several rounds of the doubling
    apx, err = pi_fraction(300)
    terms, _, _ = cf_terms_ref(apx - err, apx + err, 10**6)
    numerators = convergent_numerators(terms)
    assert numerators[-1] > NUMERATOR_GRID[-1]
    for n_max in NUMERATOR_GRID:
        want = {p for p in numerators if p <= n_max}
        assert convergent_numerators_up_to(n_max) == want, n_max


def test_convergent_numerators_ask_for_few_quotients(monkeypatch):
    counts = []
    real = rationality.cf_terms

    def recording(x, count):
        counts.append(count)
        return real(x, count)

    monkeypatch.setattr(rationality, "cf_terms", recording)
    assert convergent_numerators_up_to(12000) == {3, 22, 333, 355}
    assert sum(counts) <= 16
    # 1e300 needs about 600 quotients, well short of bits = 128 + 4*997
    counts.clear()
    assert len(convergent_numerators_up_to(10**300)) == 598
    assert sum(counts) <= 2 * 1024


def test_convergent_numerators_of_an_exhausted_expansion(monkeypatch):
    # pi at 16 bits pins down a few quotients only: the expansion ends
    # before a numerator passes 1e12
    real = rationality.compute_pi
    monkeypatch.setattr(rationality, "compute_pi", lambda bits: real(16))
    with pytest.raises(PrecisionError, match="could not enumerate"):
        convergent_numerators_up_to(10**12)


def test_convergent_numerators_below_100k():
    assert convergent_numerators_up_to(100_000) == {3, 22, 333, 355}
    assert convergent_numerators_up_to(110_000) == {3, 22, 333, 355, 103993, 104348}


# frozen at bits=64; stable under doubling (checked below)
LAMBDA_TABLE = {
    2: 0.13717582464715455,
    3: 1.7823800532797796,
    22: 1.52931897889343,
    333: 0.8144774707928947,
    355: 1.7727016572988021,
}


def test_local_exponent_frozen_values():
    for n, want in LAMBDA_TABLE.items():
        assert local_exponent(n) == want


def test_local_exponent_stable_under_precision_doubling():
    for n in LAMBDA_TABLE:
        assert local_exponent(n, 64) == local_exponent(n, 128)


def test_local_exponent_tracks_float_reference():
    for n in (2, 5, 113, 52163):
        want = -math.log(abs(math.sin(n))) / math.log(n)
        assert abs(local_exponent(n) - want) < 1e-12


def _lambda_full(n, bits):
    """lambda(n) with both logs at the sine's own precision, bits >= 64."""
    s = sin_int(n, bits)
    ln_sin = fx_ln_int(abs(s.man), bits)[0] + s.exp * ln2_mantissa(bits)
    return -ln_sin / fx_ln_int(n, bits)[0]


@pytest.mark.parametrize("n_max, bits", [(10**40, 192), (10**100, 512)])
def test_lambda_above_128_bits_equals_full_precision(monkeypatch, n_max, bits):
    records = spike_indices(n_max, bits)
    assert len(records) > 70
    for r in records[1:]:
        assert r.lam == _lambda_full(r.n, bits), r.n
    # the records' logs run at 128 bits, whatever the sine's precision
    widths = []
    real = rationality.fx_ln_int

    def recording(n, w):
        widths.append(w)
        return real(n, w)

    monkeypatch.setattr(rationality, "fx_ln_int", recording)
    spike_indices(n_max, bits)
    assert set(widths) == {128} and len(widths) == 2 * (len(records) - 1)


def test_lambda_to_1e300_at_2048_bits_is_frozen():
    # frozen from the full-precision formula (both logs at 2048 bits)
    frozen = json.loads((DATA_DIR / "spikes_lambda_1e300_2048.json").read_text())
    records = spike_indices(10**300, 2048)
    assert str(records[-1].n) == frozen["last_n"]
    assert [r.lam for r in records[1:]] == frozen["lambda"]


def test_local_exponent_at_256_bits_is_frozen():
    # sin 2 > 1/2 keeps the logs at 256 bits, the others take 128
    want = {2: 0.13717582464715455, 3: 1.7823800532797796, 22: 1.52931897889343,
            355: 1.7727016572988021, 52163: 0.49912614933809785}
    assert {n: local_exponent(n, 256) for n in want} == want


def test_local_exponent_near_sin_one_keeps_full_precision():
    # n near odd multiples of pi/2 (numerators of convergents of pi/2):
    # 1 - |sin n| falls to about 3e-32, and -ln|sin n| with it, so 128-bit
    # logs would leave it few correct bits.  At the default 64 bits the
    # sine's precision rises until 1 - |sin n| is resolved.
    for n in (11, 52174, 3083975227, 214112296674652):
        assert local_exponent(n, 256) == _lambda_full(n, 256), n
        assert local_exponent(n) == _lambda_full(n, 512), n


def test_local_exponent_rejects_n_one():
    with pytest.raises(DomainError):
        local_exponent(1)


@pytest.mark.parametrize("bits, error", [
    (-60, DomainError), (2.5, DomainError), (4, DomainError), ("64", DomainError),
    (MAX_BITS + 1, ResourceLimitError),
])
def test_bits_are_checked_on_entry(bits, error):
    with pytest.raises(error):
        spike_indices(100, bits)
    with pytest.raises(error):
        local_exponent(355, bits)


@pytest.mark.parametrize("bits", [8, 64, 128])
def test_spike_records_take_lambda_from_their_sine(monkeypatch, bits):
    # the records equal sin_int plus local_exponent, lambda floats
    # included, and each record n >= 2 takes one relative sine
    want = [(1, sin_int(1, bits).abs_(), None)] + [
        (p, sin_int(p, bits).abs_(), local_exponent(p, bits))
        for p in (3, 22, 333, 355, 103993, 104348)]
    calls = []
    real = rationality.sin_rel

    def counting(n, rel, w):
        calls.append(n)
        return real(n, rel, w)

    monkeypatch.setattr(rationality, "sin_rel", counting)
    records = spike_indices(200_000, bits)
    got = [(r.n, r.abs_sin, r.lam) for r in records]
    assert [(n, a.man, a.exp, a.err, lam) for n, a, lam in got] == [
        (n, a.man, a.exp, a.err, lam) for n, a, lam in want]
    assert calls == [r.n for r in records[1:]]


def test_spike_indices_400():
    records = spike_indices(400)
    assert [r.n for r in records] == [1, 3, 22, 333, 355]
    flags = {r.n: r.is_convergent_numerator for r in records}
    assert flags == {1: False, 3: True, 22: True, 333: True, 355: True}
    assert records[0].lam is None  # ln 1 = 0: exponent undefined at n=1
    for rec in records[1:]:
        assert rec.lam == LAMBDA_TABLE[rec.n]


def test_spike_values_strictly_decrease():
    records = spike_indices(400)
    sins = [r.abs_sin.center() for r in records]
    assert all(a > b for a, b in zip(sins, sins[1:]))


def test_spike_355_sine_magnitude():
    rec = spike_indices(400)[-1]
    assert rec.n == 355
    assert abs(float(rec.abs_sin.center()) - 3.0144353359488449e-05) < 1e-9


def test_spike_minimal_range():
    records = spike_indices(1)
    assert [r.n for r in records] == [1]
    assert records[0].lam is None


def test_spike_rejects_nonpositive_range():
    with pytest.raises(DomainError):
        spike_indices(0)
    with pytest.raises(DomainError):
        spike_indices(True)


def test_spike_records_are_the_convergent_numerators():
    apx, err = pi_fraction(40)
    terms, _, _ = cf_terms_ref(apx - err, apx + err, 30)
    numerators = convergent_numerators(terms)
    assert numerators[-1] > 110_000
    records = spike_indices(110_000)
    assert [r.n for r in records] == [1] + [p for p in numerators if p <= 110_000]
    assert [r.n for r in records] == [1, 3, 22, 333, 355, 103993, 104348]


def _spike_key(records):
    return [(r.n, r.abs_sin.man, r.abs_sin.exp, r.abs_sin.err, repr(r.lam),
             r.is_convergent_numerator) for r in records]


SPIKE_GRID_N = (1, 2, 3, 4, 21, 22, 23, 332, 333, 354, 355, 356,
                12000, 103992, 103993, 110000)


@pytest.mark.parametrize("bits", [8, 64, 200])
def test_spike_indices_equal_the_record_loop(bits):
    # The loop's records up to n_max are a prefix of its records up to
    # 110000, so one run covers the grid.  Each record gets the ball, the
    # exponent and the flag the loop gave it.
    numerators = convergent_numerators_up_to(110_000)
    want = []
    for n in spike_records_ref(110_000, bits, abs_sin_canonical):
        s = sin_int(n, bits).abs_()
        lam = local_exponent(n, bits) if n >= 2 else None
        want.append((n, s.man, s.exp, s.err, repr(lam), n in numerators))
    for n_max in SPIKE_GRID_N:
        got = _spike_key(spike_indices(n_max, bits))
        assert got == [key for key in want if key[0] <= n_max], n_max


def test_spike_ties_escalate_without_changing_the_records(monkeypatch):
    # At the first guard bits, n = 355 gets a genuine but 4-bit bracket,
    # |sin 355| < 2**-5, which ties with the record 333 and then with every
    # later n with |sin n| < 2**-5: 377 and 399 (near multiples of 7*pi).
    real = oracles._canonical_sine
    escalated = []

    def coarse_355(n, bits, guard, sine):
        if guard > oracles._SPIKE_GUARD:
            escalated.append(n)
        elif n == 355:
            return sine(355, 4), 4
        return real(n, bits, guard, sine)

    want = spike_records_ref(400, 64, abs_sin_canonical)
    assert want == [r.n for r in spike_indices(400)]
    monkeypatch.setattr(oracles, "_canonical_sine", coarse_355)
    assert spike_records_ref(400, 64, abs_sin_canonical) == want
    assert set(escalated) == {333, 355, 377, 399}    # one win, two losses


def test_spike_tie_at_the_precision_cap(monkeypatch):
    # m = 0 brackets never separate: the doubling stops at 2**20 bits
    monkeypatch.setattr(oracles, "_canonical_sine",
                        lambda n, bits, guard, sine: (0, bits + guard))
    with pytest.raises(PrecisionError, match="undecided"):
        spike_records_ref(5, 64, abs_sin_canonical, PrecisionError)


def test_spikes_to_1e30_are_the_convergent_numerators():
    n_max = 10**30
    apx, err = pi_fraction(120)
    terms, _, _ = cf_terms_ref(apx - err, apx + err, 10**6)
    numerators = convergent_numerators(terms)
    assert numerators[-1] > n_max
    records = spike_indices(n_max, 128)
    assert [r.n for r in records] == [1] + [p for p in numerators if p <= n_max]
    assert all(r.is_convergent_numerator and r.lam > 0 for r in records[1:])
    for r in records:
        # 100 digits of pi leave a reduction error of about 1e-70 at 1e30
        approx, rad = sin_by_reduction(r.n, 100)
        assert rad < Fraction(1, 1 << 200)
        assert abs(abs(approx) - r.abs_sin.center()) <= rad + r.abs_sin.err, r.n


def test_spikes_to_1e300_at_64_bits():
    # |sin p| falls to about 1e-300, far below 2**-64: the sine behind
    # lambda is relative, so the default bits reach every record, and
    # the floats are the 2048-bit ones
    frozen = json.loads((DATA_DIR / "spikes_lambda_1e300_2048.json").read_text())
    records = spike_indices(10**300, 64)
    assert len(records) == 599
    assert str(records[-1].n) == frozen["last_n"]
    assert [r.lam for r in records[1:]] == frozen["lambda"]


@pytest.mark.parametrize("n_max, bits", [(10**17, 64), (10**38, 128)])
def test_lambda_of_deep_records_equals_full_precision(n_max, bits):
    # lambda's sine is relative, so even records whose |sin n| lies far
    # below 2**-bits get the full-precision float
    records = spike_indices(n_max, bits)
    assert len(records) > 30
    for r in records[1:]:
        assert r.lam == _lambda_full(r.n, 512), r.n
