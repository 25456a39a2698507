import pytest

from flintlab import (
    DomainError,
    binomial,
    cf_terms,
    compute_pi,
    convergent_numerators_up_to,
    equivalence_experiment,
    g_value,
    g_value_double_sum,
    multiple_angle_coefficients,
    seeded_thetas,
    verify_multiple_angle_sweep,
)
from oracles import chebyshev_u_at_one, chebyshev_u_coeffs, pascal_triangle


def test_binomial_matches_pascal_triangle():
    for n, row in enumerate(pascal_triangle(40)):
        for k, want in enumerate(row):
            assert binomial(n, k) == want


def test_binomial_above_row_is_zero():
    assert binomial(5, 6) == 0
    assert binomial(0, 1) == 0
    assert binomial(0, 0) == 1


@pytest.mark.parametrize("n,k", [(-1, 0), (3, -2), (-4, -4)])
def test_binomial_rejects_negative_arguments(n, k):
    with pytest.raises(DomainError):
        binomial(n, k)


@pytest.mark.parametrize("call", [
    lambda: g_value(2.5),
    lambda: g_value(True),
    lambda: g_value_double_sum(2.5),
    lambda: g_value_double_sum(True),
    lambda: binomial(2.5, 1),
    lambda: binomial(5, True),
    lambda: multiple_angle_coefficients(2.5),
    lambda: multiple_angle_coefficients(True),
    lambda: cf_terms(compute_pi(64), 2.5),
    lambda: cf_terms(compute_pi(64), True),
    lambda: convergent_numerators_up_to(2.5),
    lambda: convergent_numerators_up_to(True),
    lambda: seeded_thetas(2.5, 1),
    lambda: seeded_thetas(True, 1),
    lambda: verify_multiple_angle_sweep(2.5, 1),
    lambda: verify_multiple_angle_sweep(2, 2.5),
    lambda: verify_multiple_angle_sweep(True, 1),
    lambda: equivalence_experiment(2.5, 1),
    lambda: equivalence_experiment(3, True),
], ids=["g-float", "g-bool", "double-float", "double-bool", "binomial-n", "binomial-k",
        "coeffs-float", "coeffs-bool", "cf-float", "cf-bool", "numerators-float",
        "numerators-bool", "thetas-float", "thetas-bool", "sweep-n", "sweep-count",
        "sweep-bool", "equiv-k", "equiv-s"])
def test_integer_arguments_refuse_floats_and_bools(call):
    # each entry point takes its integers through mpreal._is_int
    with pytest.raises(DomainError):
        call()


def test_g_value_equals_its_index():
    for n in (1, 2, 3, 4, 7, 50, 1234):
        result = g_value(n)
        assert result.n == n
        assert result.value == n


def test_g_value_hand_example():
    assert g_value(4).value == 4


def test_g_value_rejects_nonpositive():
    with pytest.raises(DomainError):
        g_value(0)
    with pytest.raises(DomainError):
        g_value(-3)


def test_g_value_matches_chebyshev_recurrence_oracle():
    for n in range(1, 300):
        assert g_value(n).value == chebyshev_u_at_one(n - 1)


def test_double_sum_collapses_to_index():
    for n in range(1, 45):
        assert g_value_double_sum(n) == n


def test_coefficients_known_expansion():
    # sin(5t) = sin(t) * (16 cos^4 t - 12 cos^2 t + 1)
    assert multiple_angle_coefficients(5) == [(0, 1), (2, -12), (4, 16)]
    assert multiple_angle_coefficients(1) == [(0, 1)]
    assert multiple_angle_coefficients(2) == [(1, 2)]


def test_coefficients_match_chebyshev_coefficient_oracle():
    for n in range(1, 26):
        dense = [0] * n
        for p, c in multiple_angle_coefficients(n):
            dense[p] = c
        oracle = chebyshev_u_coeffs(n - 1)
        oracle += [0] * (n - len(oracle))
        assert dense == oracle


def test_coefficients_have_single_parity_and_ascending_powers():
    for n in (6, 9, 24):
        coeffs = multiple_angle_coefficients(n)
        powers = [p for p, _ in coeffs]
        assert powers == sorted(powers)
        assert all(p % 2 == (n - 1) % 2 for p in powers)


def test_coefficient_sum_recovers_g():
    for n in (1, 2, 5, 31, 60):
        assert sum(c for _, c in multiple_angle_coefficients(n)) == g_value(n).value
