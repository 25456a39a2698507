import math
from fractions import Fraction

import pytest

from flintlab import (
    DomainError,
    cf_terms,
    compute_pi,
    convergent_numerators_up_to,
    convergents,
    local_exponent,
    spike_indices,
)
from oracles import pi_fraction

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


def test_convergents_classical_values():
    cs = convergents(PI_CF_20[:5])
    assert [(c.p, c.q) for c in cs] == [
        (3, 1), (22, 7), (333, 106), (355, 113), (103993, 33102)]
    assert cs[3].as_fraction() == Fraction(355, 113)


def test_convergents_reconstruct_the_rational():
    terms = [3, 7, 16]
    assert convergents(terms)[-1].as_fraction() == Fraction(355, 113)


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


def test_local_exponent_rejects_n_one():
    with pytest.raises(DomainError):
        local_exponent(1)


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
