"""Numerical verification of the identities behind the series analysis.

Three checks, each reporting a residual against an explicit tolerance:

* multiple-angle:  sin(n*t) = sin(t) * sum_p c_p cos(t)^p with the exact
  integer coefficients from :mod:`.combinatorics`.  The polynomial's
  coefficients cancel massively (their absolute sum grows like 2^(1.39 n)
  while the value stays below 1), so the working precision budgets
  log2(sum|c_p|) extra bits before rounding back to the target.
* sinc limit:      sin(m)/m -> 1 along a decreasing positive sequence.
* angle difference: sin(n - a) = sin n cos a - cos n sin a, evaluated in
  subtraction form on purpose -- the equivalent form with a division by
  sin n manufactures a singularity near the zeros of sin and is refused
  here via a degenerate-input error when |sin n| drowns in its own
  error bound.

Reports serialize to JSON (``to_json``); random angles come from a seeded
generator and the seed travels inside every report they produce.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .combinatorics import multiple_angle_coefficients
from .errors import DegenerateInputError, DomainError
from .mpreal import (
    MpReal,
    _Frozen,
    _is_int,
    _require_bits,
    clog2,
    cos_reduced,
    pi_mantissa,
    round_div,
    sin_reduced,
)

__all__ = [
    "ResidualReport",
    "seeded_thetas",
    "verify_angle_difference",
    "verify_multiple_angle",
    "verify_multiple_angle_sweep",
    "verify_sinc_limit",
]

_GUARD_BITS = 32


class ResidualReport(_Frozen):
    __slots__ = _fields = ("description", "parameters", "residual", "tolerance", "passed")
    description: str
    parameters: dict
    residual: MpReal
    tolerance: MpReal
    passed: bool

    def to_json(self) -> dict:
        return {
            "description": self.description,
            "parameters": self.parameters,
            "residual": self.residual.decimal(60),
            "tolerance": self.tolerance.decimal(60),
            "pass": self.passed,
        }


@lru_cache(maxsize=512)
def _coeffs(n: int) -> tuple[tuple[int, int], ...]:
    return tuple(multiple_angle_coefficients(n))


def _work_bits(n: int, bits: int) -> tuple[int, int]:
    """(S, wp) at n: S = sum |c_p| is the Pell number P_n; both grow with n."""
    abs_sum = sum(abs(c) for _, c in _coeffs(n))
    return abs_sum, bits + abs_sum.bit_length() + clog2(n + 2) + 24


def verify_multiple_angle(n: int, theta: MpReal, bits: int = 192) -> ResidualReport:
    """Residual of sin(n*theta) - sin(theta) * sum c_p cos(theta)^p.

    Tolerance is 2**-(bits - 32); the 32 guard bits are recorded in the
    report.  Working precision additionally absorbs log2(sum |c_p|).

    The polynomial's bound, with x = cos(theta) at the exact centre, u =
    2**-wp and S = abs_sum.  cos_reduced's radius is at most u, so X is
    within e_x <= 2 units of x/u (1/2 for the grid, ceil(radius/u) for
    the radius), and Y = floor(X**2 * u), off by e_x * (2 + e_x*u) + 1 at
    most, is within e_y = 2*e_x + 2 units of x**2/u.  Horner starts exact
    at q_K/u; if acc is within E units of h/u, where h = sum_(j>k) q_j *
    x**(2(j-k-1)) has |h| <= S, then round_div(acc * Y, 1/u) + q_k/u is
    within E * (1 + e_y*u) + S*e_y + 1/2 units of its value.  E < n *
    (S*e_y + 2) and 1/u >= 2**24 * S * (n + 2), so E * e_y * u < 1, and
    the step's S*e_y + 2 covers it.  The odd-parity step acc * X * u adds
    S*e_x + 2 the same way.  So e_acc bounds acc's error; the final + 1
    is a spare unit (at n = 1, acc is the exact 1 and e_acc = 0).
    """
    _require_bits(bits)
    if not _is_int(n) or n < 1:
        raise DomainError(f"verify_multiple_angle requires an integer n >= 1, got {n!r}")
    abs_sum, wp = _work_bits(n, bits)
    # The identity holds pointwise, so evaluate both sides at the exact
    # dyadic center of the input ball; its radius would otherwise be
    # amplified by the coefficient sum and swamp the certified residual.
    theta = MpReal(theta.man, theta.exp)
    cos_t = cos_reduced(theta, wp)
    X, e_x = _fixed_units(cos_t, wp)
    parity = (n - 1) % 2
    # P(x) = x^parity * Q(x^2), Horner on the even-index coefficient list
    qc = [c for _, c in _coeffs(n)]      # ascending powers parity, parity+2, ...
    Y = (X * X) >> wp
    e_y = 2 * e_x + 2
    acc = qc[-1] << wp
    e_acc = 0
    for c in reversed(qc[:-1]):
        acc = round_div(acc * Y, 1 << wp) + (c << wp)
        e_acc += abs_sum * e_y + 2
    if parity:
        acc = round_div(acc * X, 1 << wp)
        e_acc += abs_sum * e_x + 2
    poly = MpReal(acc, -wp, Fraction(e_acc + 1, 1 << wp))
    sin_t = sin_reduced(theta, wp)
    sin_nt = sin_reduced(theta.mul_int(n), wp)
    residual = sin_nt.sub(sin_t.mul(poly)).abs_()
    tolerance = MpReal(1, -(bits - _GUARD_BITS))
    passed = residual.upper() <= tolerance.center()
    parameters = {
        "n": n,
        "theta": theta.decimal(30),
        "bits": bits,
        "guard_bits": _GUARD_BITS,
        "work_bits": wp,
    }
    return ResidualReport(
        description="multiple-angle expansion of sin(n*theta) over cos powers",
        parameters=parameters,
        residual=residual.round_to(bits),
        tolerance=tolerance,
        passed=passed,
    )


def _fixed_units(x: MpReal, w: int) -> tuple[int, int]:
    """(units at 2**-w, err ulps) for a ball."""
    shift = w + x.exp
    units = x.man << shift if shift >= 0 else round_div(x.man, 1 << -shift)
    err_frac = x.err * (1 << w)
    e = -(-err_frac.numerator // err_frac.denominator) + 1
    return units, e


def seeded_thetas(count: int, seed: int, bits: int = 192) -> list[MpReal]:
    """Deterministic angles uniform over (-pi, pi), as tight balls."""
    _require_bits(bits)
    if not _is_int(count) or count < 1:
        raise DomainError(f"seeded_thetas needs an integer count >= 1, got {count!r}")
    rng = random.Random(seed)
    w = bits + 16
    pi_man = pi_mantissa(w)
    out = []
    for _ in range(count):
        u = rng.getrandbits(64)
        frac_num = 2 * u + 1 - (1 << 64)      # odd numerator in (-2^64, 2^64)
        man = round_div(frac_num * pi_man, 1 << 64)
        out.append(MpReal(man, -w, Fraction(2, 1 << w)))
    return out


def verify_multiple_angle_sweep(n_max: int, thetas_per_n: int,
                                bits: int = 192, seed: int = 7041) -> list[ResidualReport]:
    """The multiple-angle check over n in [1, n_max] x seeded angles."""
    _require_bits(bits)
    if not _is_int(n_max) or n_max < 1:
        raise DomainError(
            f"verify_multiple_angle_sweep needs an integer n_max >= 1, got {n_max!r}")
    _require_bits(_work_bits(n_max, bits)[1])     # the largest wp, before any angle
    thetas = seeded_thetas(thetas_per_n, seed, bits)
    reports = []
    for n in range(1, n_max + 1):
        for i, theta in enumerate(thetas):
            r = verify_multiple_angle(n, theta, bits)
            parameters = {**r.parameters, "seed": seed, "theta_index": i}
            reports.append(ResidualReport(r.description, parameters, r.residual,
                                          r.tolerance, r.passed))
    return reports


def verify_sinc_limit(m_sequence: Sequence[MpReal | Fraction],
                      bits: int = 128) -> list[tuple[MpReal, MpReal]]:
    """Ratios sin(m)/m along a strictly decreasing positive sequence."""
    _require_bits(bits)
    ms = [m if isinstance(m, MpReal) else MpReal.from_fraction(m, bits + 16)
          for m in m_sequence]
    if not ms:
        raise DomainError("verify_sinc_limit needs a non-empty sequence")
    prev = None
    for m in ms:
        if m.lower() <= 0:
            raise DomainError("sinc sequence must be positive beyond error bounds")
        if prev is not None and not m.center() < prev.center():
            raise DomainError("sinc sequence must be strictly decreasing")
        prev = m
    out = []
    for m in ms:
        ratio = sin_reduced(m, bits + 8).div(m, bits)
        out.append((m, ratio))
    return out


def verify_angle_difference(n: MpReal, a: MpReal, bits: int = 128) -> ResidualReport:
    """Residual of sin(n - a) - (sin n cos a - cos n sin a).

    Degenerate-input error when |sin n| does not clear its own error
    bound; everything else is plain ball arithmetic.
    """
    _require_bits(bits)
    wb = bits + 16
    sin_n = sin_reduced(n, wb)
    if abs(sin_n.center()) <= sin_n.err:
        raise DegenerateInputError(
            "sin(n) is indistinguishable from zero at this precision; "
            "the decomposition is undefined there"
        )
    cos_n = cos_reduced(n, wb)
    sin_a = sin_reduced(a, wb)
    cos_a = cos_reduced(a, wb)
    lhs = sin_reduced(n.sub(a), wb)
    rhs = sin_n.mul(cos_a).sub(cos_n.mul(sin_a))
    residual = lhs.sub(rhs).abs_()
    tolerance = MpReal(4, -bits)
    passed = residual.upper() <= tolerance.center()
    return ResidualReport(
        description="angle-difference decomposition in subtraction form",
        parameters={"n": n.decimal(30), "a": a.decimal(30), "bits": bits},
        residual=residual.round_to(bits),
        tolerance=tolerance,
        passed=passed,
    )
