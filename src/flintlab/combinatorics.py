"""Exact integer combinatorics.

Everything in this module is pure big-integer arithmetic: binomial
coefficients, the alternating double binomial sum

    G(n) = sum_{i=0}^{floor((n+1)/2)} sum_{j=0}^{i}
           (-1)^(i-j) * C(n, 2i+1) * C(i, j),

and the cosine-power coefficients of the multiple-angle expansion

    sin(n*theta) = sin(theta) * sum_p c_p * cos(theta)^p.

The inner alternating sum of G(n) telescopes through the binomial
theorem: sum_j (-1)^(i-j) C(i,j) = (1-1)^i, which is 1 for i = 0 and 0
for every i >= 1.  The double sum therefore collapses to the single
i = 0 term C(n, 1) = n, exactly.  ``g_value`` exploits that collapse;
``g_value_double_sum`` keeps the literal two-index accumulation around
so the collapse itself stays testable.
"""

from __future__ import annotations

from math import comb

from .errors import DomainError
from .mpreal import _Frozen, _is_int

__all__ = [
    "GValue",
    "binomial",
    "g_value",
    "g_value_double_sum",
    "multiple_angle_coefficients",
]


def binomial(n: int, k: int) -> int:
    """Exact C(n, k) with the convention C(n, k) = 0 for k > n."""
    if not (_is_int(n) and _is_int(k)) or n < 0 or k < 0:
        raise DomainError(f"binomial requires non-negative integers, got ({n!r}, {k!r})")
    return comb(n, k)


class GValue(_Frozen):
    """The exact value of the double binomial sum at index n."""

    __slots__ = _fields = ("n", "value")
    n: int
    value: int


def g_value(n: int) -> GValue:
    """Exact value of the double sum G(n).

    Because the inner sum vanishes for i >= 1 (binomial theorem), the
    whole sum equals C(n, 1) = n.  This is an identity, not an
    approximation; the literal accumulation is available as
    ``g_value_double_sum`` and the two are compared in the test suite.
    """
    if not _is_int(n) or n < 1:
        raise DomainError(f"g_value requires an integer n >= 1, got {n!r}")
    return GValue(n, n)


def g_value_double_sum(n: int, order: str = "row") -> int:
    """Literal two-index accumulation of G(n).

    order="row" sums j inside i; order="column" sums i inside j.  Both
    must agree with each other and with ``g_value`` -- the summation
    order must not matter for an exact finite sum.
    """
    if not _is_int(n) or n < 1:
        raise DomainError(f"g_value_double_sum requires an integer n >= 1, got {n!r}")
    imax = (n + 1) // 2
    total = 0
    if order == "row":
        for i in range(imax + 1):
            outer = binomial(n, 2 * i + 1)
            if outer == 0:
                continue
            for j in range(i + 1):
                term = outer * binomial(i, j)
                total += -term if (i - j) & 1 else term
    elif order == "column":
        for j in range(imax + 1):
            for i in range(j, imax + 1):
                outer = binomial(n, 2 * i + 1)
                if outer == 0:
                    continue
                term = outer * binomial(i, j)
                total += -term if (i - j) & 1 else term
    else:
        raise DomainError(f"order must be 'row' or 'column', got {order!r}")
    return total


def multiple_angle_coefficients(n: int) -> list[tuple[int, int]]:
    """Cosine-power coefficients c_p with sin(n*t) = sin(t) * sum c_p cos(t)^p.

    Collects (-1)^(i-j) C(n, 2i+1) C(i, j) onto the power
    p = n - 2(i-j) - 1.  Returned as (power, coefficient) pairs in
    ascending power; every power has parity (n-1) mod 2 and any power of
    that parity in [0, n-1] appears even when its net coefficient is
    zero.  Summing the coefficients recovers G(n) (set theta -> 0).
    """
    if not _is_int(n) or n < 1:
        raise DomainError(f"multiple_angle_coefficients requires an integer n >= 1, got {n!r}")
    dense: dict[int, int] = {p: 0 for p in range((n - 1) % 2, n, 2)}
    for i in range((n + 1) // 2 + 1):
        outer = binomial(n, 2 * i + 1)
        if outer == 0:
            continue
        for j in range(i + 1):
            p = n - 2 * (i - j) - 1
            term = outer * binomial(i, j)
            dense[p] += -term if (i - j) & 1 else term
    return sorted(dense.items())
