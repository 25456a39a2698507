import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from flintlab import (
    MAX_BITS,
    DomainError,
    MpReal,
    ResourceLimitError,
    compute_pi,
    cos_reduced,
    exact_decimal,
    guaranteed_decimal,
    sin_int,
    sin_reduced,
)
import flintlab.mpreal as mpreal
from flintlab.mpreal import (
    abs_sin_canonical,
    abs_sin_walk,
    clog2,
    fx_atanh,
    fx_cos,
    fx_exp_small,
    fx_ln_int,
    fx_pow,
    fx_sin,
    ln2_mantissa,
    pi_mantissa,
    reduce_fixed,
    round_div,
    sin_ball,
    sin_rel,
)
from oracles import (
    atanh_ln,
    fx_cos_ref,
    fx_exp_small_ref,
    fx_sin_ref,
    linear_decimal_count,
    load_pi_fixture,
    machin_pi_rational,
    pi_fraction,
    round_to_ref,
    sin_by_reduction,
    taylor_cos,
    taylor_sin,
)


# ------------------------------------------------------------------ ball basics

def test_ball_contains_value_after_arithmetic():
    rng = random.Random(4310)
    for _ in range(60):
        a = Fraction(rng.randrange(-10**9, 10**9), rng.randrange(1, 10**9))
        b = Fraction(rng.randrange(-10**9, 10**9), rng.randrange(1, 10**9))
        x = MpReal.from_fraction(a, 96)
        y = MpReal.from_fraction(b, 96)
        for got, want in [
            (x.add(y), a + b),
            (x.sub(y), a - b),
            (x.mul(y), a * b),
            (x.mul_int(7), a * 7),
        ]:
            assert got.lower() <= want <= got.upper()


def test_division_tracks_interval_endpoints():
    a, b = Fraction(355, 113), Fraction(113, 355)
    x = MpReal.from_fraction(a, 128)
    y = MpReal.from_fraction(b, 128)
    q = x.div(y, 128)
    assert q.lower() <= a / b <= q.upper()
    assert q.err <= Fraction(1, 1 << 120)


def test_ball_is_three_fields():
    x = MpReal.from_fraction(Fraction(1, 3), 64)
    assert MpReal.__slots__ == ("man", "exp", "err")
    assert (x.man, x.exp) == (round(Fraction(1 << 72, 3)), -72)
    assert x.add(x).sub(x).mul(MpReal(3, 0)).err == 9 * x.err


def test_division_by_zero_ball_raises():
    zero_ish = MpReal(1, -200, Fraction(1, 1 << 100))
    with pytest.raises(DomainError):
        MpReal(1, 0).div(zero_ish, 64)


def test_round_to_keeps_containment():
    x = MpReal.from_fraction(Fraction(22, 7), 256)
    coarse = x.round_to(32)
    assert coarse.lower() <= Fraction(22, 7) <= coarse.upper()
    assert coarse.err <= Fraction(1, 1 << 30)


@pytest.mark.parametrize("man, exp, err, bits", [
    (12345, -40, Fraction(0), 8),                  # err = 0, a shift to make
    (5, -3, Fraction(0), 8),                       # exp >= -(bits+8): no shift, err stays 0
    (7, -16, Fraction(1, 3), 8),                   # exp = -(bits+8), non-dyadic err
    (-(3 << 200), -300, Fraction(2, 7), 64),       # negative man
    (3 << 5, -78, Fraction(0), 64),                # a round_div tie: halves go up
    (-(3 << 5), -78, Fraction(0), 64),             # a negative tie
    (1, 40, Fraction(10**30 + 1, 10**9), 53),      # exp > 0
    (-1, -(1 << 10), Fraction(1, 1 << 2000), 9),   # 2**-k far below the err grid
])
def test_round_to_matches_fraction_oracle_on_edges(man, exp, err, bits):
    got = MpReal(man, exp, err).round_to(bits)
    assert (got.man, got.exp, got.err) == round_to_ref(man, exp, err, bits)


def test_round_to_matches_fraction_oracle():
    rng = random.Random(2024)
    for _ in range(3000):
        man = rng.randrange(-(1 << rng.randrange(1, 400)), 1 << rng.randrange(1, 400))
        exp = rng.randrange(-500, 50)
        err = rng.choice([
            Fraction(0),
            Fraction(rng.randrange(1, 1 << 60), rng.randrange(1, 1 << 60)),   # mostly non-dyadic
            Fraction(rng.randrange(1 << 80), 1 << rng.randrange(300)),
        ])
        bits = rng.choice([8, 9, 16, 53, 64, 100, 200])
        got = MpReal(man, exp, err).round_to(bits)
        assert (got.man, got.exp, got.err) == round_to_ref(man, exp, err, bits), \
            (man, exp, err, bits)


def test_from_decimal_round_trip():
    x = MpReal.from_decimal("3.14159", 96)
    assert x.lower() <= Fraction("3.14159") <= x.upper()
    with pytest.raises(DomainError):
        MpReal.from_decimal("not-a-number", 96)


def test_negative_error_bound_rejected():
    with pytest.raises(DomainError):
        MpReal(1, 0, Fraction(-1, 2))


def test_exact_decimal_requires_dyadic():
    assert exact_decimal(Fraction(3, 8)) == "0.375"
    assert exact_decimal(Fraction(-5, 4)) == "-1.25"
    with pytest.raises(DomainError):
        exact_decimal(Fraction(1, 3))


def _exact_decimal_by_division(value: Fraction) -> str:
    """exact_decimal with the factors of two counted one division at a time."""
    den = value.denominator
    two = five = 0
    while den % 2 == 0:
        den //= 2
        two += 1
    while den % 5 == 0:
        den //= 5
        five += 1
    if den != 1:
        raise DomainError("value has no finite decimal expansion")
    d = max(two, five)
    return mpreal._format_units(value.numerator * 10 ** d // value.denominator, d)


def test_exact_decimal_matches_counting_twos_by_division():
    rng = random.Random(11)
    values = [Fraction(rng.randrange(-2**300, 2**300), 1 << rng.randrange(0, 400))
              for _ in range(200)]
    values += [Fraction(rng.randrange(-10**9, 10**9), 2**a * 5**b)
               for a in range(0, 70, 7) for b in range(0, 70, 9)]
    values += [Fraction(0), Fraction(7), Fraction(1, 5**40)]
    for value in values:
        assert exact_decimal(value) == _exact_decimal_by_division(value), value
    for value in (Fraction(1, 3), Fraction(1, 2**208 * 3), Fraction(7, 2**5 * 5**3 * 11)):
        with pytest.raises(DomainError, match="no finite decimal expansion"):
            exact_decimal(value)


def test_exact_decimal_beyond_the_int_str_digit_limit():
    # CPython refuses int -> str conversions above 4300 digits by default;
    # the decimal module has no such limit and serves as the reference
    with localcontext() as ctx:
        ctx.prec = 20000
        for value in (Fraction(1, 2**20000), Fraction(-3**12000, 2**9)):
            want = format(Decimal(value.numerator) / value.denominator, "f")
            assert exact_decimal(value) == want


def test_guaranteed_decimal_stops_at_error_bound():
    # 1/3 known to +-1e-7 must not print more than ~7 digits
    text = guaranteed_decimal(Fraction(1, 3), Fraction(1, 10**7))
    assert text.startswith("0.333333")
    assert len(text.split(".")[1]) <= 8


def test_guaranteed_decimal_prints_coarse_units_for_wide_balls():
    # err >= 1/2 leaves no digit at 10**0 guaranteed: the unit grows to 10**K
    assert MpReal(123456789, 0, Fraction(1000)).decimal() == "12346e+4"
    assert guaranteed_decimal(Fraction(5), Fraction(7)) == "0e+2"
    assert guaranteed_decimal(Fraction(-5), Fraction(7)) == "0e+2"
    rng = random.Random(5071)
    for _ in range(600):
        err = Fraction(rng.randrange(1, 1 << 30), 1 << 30) * 10 ** rng.randrange(13)
        err = min(max(err, Fraction(1, 2)), Fraction(10 ** 12))
        value = Fraction(rng.getrandbits(rng.randint(1, 80)), rng.randint(1, 1000))
        value *= rng.choice((1, -1))
        text = guaranteed_decimal(value, err, rng.choice((None, 0, 12)))
        shown = Decimal(text)
        half_unit = Fraction(10) ** shown.as_tuple().exponent / 2
        for end in (value - err, value + err):
            assert abs(Fraction(shown) - end) <= half_unit, (value, err, text)


def test_decimal_count_matches_the_linear_search():
    # seeded widths from 2**64 down to about 2**-1200, then exact powers of
    # ten and their neighbours (the boundary cases) up to d = 3000
    rng = random.Random(1105)
    wides = [Fraction(rng.getrandbits(rng.randint(1, 64)) | 1,
                      rng.getrandbits(rng.randint(1, 1200)) | 1) for _ in range(200)]
    for d in rng.sample(range(2, 800), 30) + [0, 1, 3000]:
        p = 10 ** (d + 1)
        wides += [Fraction(1, p), Fraction(1, p - 1), Fraction(1, p + 1), Fraction(3, p)]
    for wide in wides:
        assert max(0, -mpreal.floor_log10(wide) - 1) == linear_decimal_count(wide), wide


# ------------------------------------------------------------------ pi engine

def test_pi_against_spigot_fixture_1000_digits():
    fixture = load_pi_fixture()
    ours = compute_pi(3400).decimal()
    shared = min(len(ours), len(fixture))
    assert shared >= 1002  # "3." + 1000 digits
    assert ours[:1002] == fixture[:1002]


def test_pi_low_precision_prefix():
    assert compute_pi(64).decimal().startswith("3.14159265358979323846")


def test_pi_mantissa_matches_independent_digits():
    apx, err = pi_fraction(120)
    for w in (40, 100, 150, 333):
        want = round_div(apx.numerator << w, apx.denominator)
        # err < 1e-119 << 2^-w ulp at these scales, so rounding can't move
        assert pi_mantissa(w) == want


def test_pi_mantissa_insensitive_to_request_order():
    # asking coarse after fine must return the same canonical rounding
    fine = pi_mantissa(500)
    coarse = pi_mantissa(77)
    apx, _ = pi_fraction(200)
    assert coarse == round_div(apx.numerator << 77, apx.denominator)
    assert fine >> (500 - 77) in (coarse, coarse - 1, coarse + 1)


def test_chudnovsky_rational_is_within_its_bound():
    # |pi - M| <= 2**-(w+64) for Machin's M, so |num/den - M| <= 2**-w -
    # 2**-(w+64) puts num/den within 2**-w of pi; checked on integers
    for w in (8, 9, 16, 64, 1000, 20024):
        num, den = mpreal._chudnovsky_pi_rational(w)
        mn, md = machin_pi_rational(w + 64)
        assert abs(num * md - mn * den) << (w + 64) <= ((1 << 64) - 1) * den * md, w


def test_constant_rationals_are_cut_to_w_plus_8_bits():
    # the cut that keeps _ConstSource's division at w + 8 bits of den
    for w in (1000, 20024):
        for refine in (mpreal._chudnovsky_pi_rational, mpreal._atanh_ln2_rational):
            num, den = refine(w)
            assert den.bit_length() == w + 8, (refine.__name__, w)


def test_pi_mantissa_sweep_matches_machin():
    # round(pi * 2**w) from Machin at w + 64 bits, where the whole
    # interval of that rational rounds the same way
    for w in list(range(8, 300)) + [511, 512, 1000, 4096, 20008, 20024]:
        mn, md = machin_pi_rational(w + 64)
        lo = round_div((mn << 64 << w) - md, md << 64)
        hi = round_div((mn << 64 << w) + md, md << 64)
        assert lo == hi, w
        assert pi_mantissa(w) == lo, w


def test_ln2_mantissa_matches_series_oracle():
    # round(ln2 * 2**w) where the oracle's whole interval rounds the same way
    apx, err = atanh_ln(2, 400)
    assert err < Fraction(1, 1 << 1200)
    top = apx + err
    for w in range(8, 401):
        lo = round_div(apx.numerator << w, apx.denominator)
        assert lo == round_div(top.numerator << w, top.denominator), w
        assert ln2_mantissa(w) == lo, w


def test_pi_bits_limit():
    with pytest.raises(ResourceLimitError):
        compute_pi(MAX_BITS + 1)
    with pytest.raises(DomainError):
        compute_pi(4)


# ------------------------------------------------------------------ reduction / sin

@pytest.mark.parametrize("n", [1, 2, 3, 22, 355, 103993, 999983])
def test_sin_int_matches_reduction_oracle(n):
    got = sin_int(n, 128)
    want, want_err = sin_by_reduction(n)
    assert abs(got.center() - want) <= got.err + want_err
    assert got.err <= Fraction(1, 1 << 120)


def test_sin_int_spike_value():
    value = sin_int(355, 96).abs_()
    assert abs(value.center() - Fraction("3.014435335948845e-5")) < Fraction(1, 10**15)


def test_sin_int_rejects_bad_input():
    with pytest.raises(DomainError):
        sin_int(0, 64)
    with pytest.raises(DomainError):
        sin_int(2.5, 64)
    with pytest.raises(DomainError):
        sin_int(True, 64)


def _remainder_ball(n: int, bits: int) -> tuple[int, MpReal]:
    """n = k*pi + r from reduce_fixed with log2 n + 32 guard bits, r as a ball."""
    w = bits + clog2(max(n, 2)) + 32
    k, R, e = reduce_fixed(n, w)
    return k, MpReal(R, -w, Fraction(e, 1 << w))


def test_reduce_mod_pi_leaves_small_remainder():
    for n in (3, 355, 75403):
        k, r = _remainder_ball(n, 128)
        apx, _ = pi_fraction(200)
        assert abs(r.center() - (n - k * apx)) < Fraction(1, 1 << 100)
        assert abs(r.center()) <= apx / 2 + Fraction(1, 1 << 60)


def test_sin_parity_through_reduction():
    # |sin n| must equal |sin r| for the reduced remainder r
    for n in (7, 113, 52163):
        _, r = _remainder_ball(n, 128)
        direct = sin_int(n, 120).abs_()
        via_r = sin_reduced(r, 120).abs_()
        assert abs(direct.center() - via_r.center()) <= direct.err + via_r.err


def test_sin_reduced_matches_taylor_oracle():
    for num, den in ((1, 2), (-3, 4), (1, 1), (3, 2)):
        x = Fraction(num, den)
        got = sin_reduced(MpReal.from_fraction(x, 160), 128)
        want, want_err = taylor_sin(x, 40)
        assert abs(got.center() - want) <= got.err + want_err


def test_sin_cos_pythagorean_identity():
    x = MpReal.from_fraction(Fraction(7, 5), 160)
    s = sin_reduced(x, 128)
    c = cos_reduced(x, 128)
    residual = s.mul(s).add(c.mul(c)).sub(MpReal(1, 0))
    assert abs(residual.center()) <= residual.err + Fraction(1, 1 << 120)


def test_reduced_variants_accept_large_arguments():
    big = MpReal.from_fraction(Fraction(10**6) + Fraction(1, 3), 160)
    s = sin_reduced(big, 128)
    c = cos_reduced(big, 128)
    assert s.err <= Fraction(1, 1 << 110)
    assert abs(s.center()) <= 1 + s.err
    assert abs(c.center()) <= 1 + c.err


def test_reduce_fixed_integer_triple():
    # integers get k = round(n/pi), R = n*2**w - k*pi_mantissa(w) exactly
    apx, _ = pi_fraction(120)
    for w in (40, 64, 200):
        P = pi_mantissa(w)
        for n in list(range(1, 1500)) + [103993, 833719, 10**30 + 7]:
            k = round(n / apx)
            assert reduce_fixed(n, w) == (k, (n << w) - k * P, (k >> 1) + 2)


def test_reduce_fixed_dyadic_forms_of_an_integer():
    for n in (1, 2, 22, 355, 103993):
        k, R, e = reduce_fixed(n, 96)
        for d in (1, 7, 64):
            assert reduce_fixed(n << d, 96, d) == (k, R, e)
        assert reduce_fixed(-n, 96) == (-k, -R, e)


def test_reduce_fixed_dyadic_error_bound():
    rng = random.Random(7300)
    apx, apx_err = pi_fraction(200)
    for _ in range(300):
        d = rng.choice((1, 5, 30, 64, 200))
        m = rng.randrange(-(1 << (d + 24)), 1 << (d + 24))
        w = rng.choice((8, 40, 64, 200))
        k, R, e = reduce_fixed(m, w, d)
        x = Fraction(m, 1 << d)
        assert k == round(x / apx)
        r = x - k * apx
        assert abs(Fraction(R, 1 << w) - r) + abs(k) * apx_err <= Fraction(e, 1 << w)


def _sin_cos_oracle(x: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """(sin x, cos x, common error bound): spigot-pi reduction and Fraction
    Taylor sums on the remainder, rounded to 2**-200 first."""
    apx, apx_err = pi_fraction(100)
    k = round(x / apx)
    r = Fraction(round((x - k * apx) * (1 << 200)), 1 << 200)
    s, s_err = taylor_sin(r, 26)
    c, c_err = taylor_cos(r, 26)
    sign = -1 if k % 2 else 1
    return sign * s, sign * c, abs(k) * apx_err + Fraction(1, 1 << 200) + max(s_err, c_err)


def _reduction_sweep_balls(rng):
    """Seeded (ball, bits) pairs where the reduction is hardest."""
    apx, _ = pi_fraction(100)
    for _ in range(30):                     # |x| near pi/2 and pi, where k flips
        half_turns = rng.choice((1, 2, -1, -2, 3, 4))
        offset = Fraction(rng.randrange(-1000, 1001), 1 << rng.randrange(10, 70))
        yield half_turns * apx / 2 + offset, rng.choice((8, 24, 64, 128))
    for _ in range(30):                     # within 1e-6 of k*pi, k up to 1e6
        k = rng.choice((10**6, rng.randrange(1, 10**6)))
        offset = Fraction(rng.randrange(-10**6, 10**6 + 1), 10**12)
        yield rng.choice((1, -1)) * (k * apx + offset), rng.choice((8, 32, 96))
    for _ in range(20):                     # plain arguments of either sign
        yield Fraction(rng.randrange(-10**9, 10**9), 10**7), rng.choice((8, 16, 53, 128))


def test_sin_cos_reduced_containment_sweep():
    rng = random.Random(7400)
    balls = []
    for x, bits in _reduction_sweep_balls(rng):
        b = MpReal.from_fraction(x, bits + 20)
        widen = Fraction(rng.randrange(0, 8), 1 << (bits + 12))
        balls.append((MpReal(b.man, b.exp, b.err + widen), bits))
    for _ in range(15):                     # centers with exp > 0: large even integers
        bits = rng.choice((8, 64))
        err = Fraction(rng.randrange(0, 4), 1 << (bits + 4))
        balls.append((MpReal(rng.randrange(-1 << 20, 1 << 20), rng.randrange(1, 16), err), bits))
    for b, bits in balls:
        s, c = sin_reduced(b, bits), cos_reduced(b, bits)
        for got in (s, c):
            assert got.err <= b.err + Fraction(1, 1 << bits)
        for point in (b.lower(), b.upper()):
            want_s, want_c, want_err = _sin_cos_oracle(point)
            assert abs(s.center() - want_s) <= s.err + want_err
            assert abs(c.center() - want_c) <= c.err + want_err


def test_sin_cos_reduced_of_exact_zero_are_exact():
    for zero in (MpReal(0, 0), MpReal(0, -40), MpReal(0, 9)):
        s, c = sin_reduced(zero, 8), cos_reduced(zero, 64)
        assert (s.center(), s.err) == (0, 0)
        assert (c.center(), c.err) == (1, 0)


def test_sin_int_precision_scales_with_bits():
    coarse = sin_int(355, 64)
    fine = sin_int(355, 256)
    assert abs(coarse.center() - fine.center()) <= coarse.err
    assert fine.err < coarse.err


# ------------------------------------------------------------------ fixed-point kernels

def _sweep_args(rng, w, limit, count):
    """Seeded fixed-point arguments up to |limit|, dense near the edge."""
    top = int(limit * (1 << w))
    picks = [0, 1, -1, top, -top, top - 1]
    picks += [rng.randrange(-top, top + 1) for _ in range(count)]
    picks += [rng.choice((1, -1)) * (top - rng.randrange(top // 50 + 1))
              for _ in range(count)]
    return picks


@pytest.mark.parametrize("w", [8, 64, 269, 1000])
def test_shift_first_kernels_are_bit_identical(w):
    rng = random.Random(7100 + w)
    for X in _sweep_args(rng, w, Fraction(33, 10), 60):
        assert fx_sin(X, w)[0] == fx_sin_ref(X, w)
        assert fx_cos(X, w)[0] == fx_cos_ref(X, w)
    for R in _sweep_args(rng, w, Fraction(2, 5), 60):
        assert fx_exp_small(R, w)[0] == fx_exp_small_ref(R, w)


@pytest.mark.parametrize("w", [8, 9, 16, 64, 128])
def test_sin_cos_kernel_bounds_contain_taylor_oracle(w):
    rng = random.Random(7200 + w)
    for X in _sweep_args(rng, w, Fraction(33, 10), 25):
        x = Fraction(X, 1 << w)
        for kernel, oracle in ((fx_sin, taylor_sin), (fx_cos, taylor_cos)):
            got, err = kernel(X, w)
            want, want_err = oracle(x, 24 + w // 4)
            assert want_err < Fraction(1, 1 << (w + 8))
            assert abs(Fraction(got, 1 << w) - want) + want_err <= Fraction(err, 1 << w)


def _pow_contains(n: int, a: int, b: int, w: int, power: int, ball) -> bool:
    """Exactly: is n**(a/b) inside the fx_pow ball (E, err, q), i.e.
    (E - err)**b <= n**a * 2**(b*(w-q)) <= (E + err)**b, with power = n**a?"""
    E, err, q = ball
    shift = b * (w - q)
    mid = power << shift if shift >= 0 else power
    lo, hi = (E - err) ** b, (E + err) ** b
    if shift < 0:
        lo, hi = lo << -shift, hi << -shift
    return lo <= mid <= hi


@pytest.mark.parametrize("b", [1, 2, 3, 16, 97, 997])
def test_fx_pow_containment_sweep(b):
    """n**c for c = a/b up to 12 (the criterion at s = 5) lies in the ball.

    Each case runs on four log balls: the one of fx_ln_int; the worst ones
    its bound allows, round(ln n * 2**w) -/+ e_ln declared with e_ln + 1
    ulps, which make the propagated log error nearly as large as the bound
    says it may be; and round(ln n * 2**w) within 1 ulp, which leaves the
    q rounded copies of ln 2 as the main error.
    """
    rng = random.Random(7400 + b)
    ns = [1, 2]
    for k in (2, 3, 8, 20, 40):
        ns += [(1 << k) - 1, 1 << k, (1 << k) + 1]
    ns += [rng.randrange(3, 1 << 40) for _ in range(6)]
    informative = 0
    for n in ns:
        for a in sorted({1, rng.randrange(1, b + 1), rng.randrange(b, 12 * b + 1), 12 * b}):
            c, power = Fraction(a, b), n ** a
            for w in (8, 9, 16, 40, 64, 100):
                L, e_ln = fx_ln_int(n, w)
                L_near = round_div(fx_ln_int(n, w + 64)[0], 1 << 64)
                for L_in, e_in in ((L, e_ln), (L_near - e_ln, e_ln + 1),
                                   (L_near + e_ln, e_ln + 1), (L_near, 1)):
                    E, err, q = ball = fx_pow(max(L_in, 0), e_in, c, w)
                    if E <= err:
                        assert w < 40, (n, a, b, w)
                        continue
                    informative += 1
                    assert _pow_contains(n, a, b, w, power, ball), (n, a, b, w, L_in)
    assert informative > len(ns) * 6


@pytest.mark.parametrize("w", [8, 9, 16, 40, 64, 200])
def test_fx_ln_int_containment_sweep(w):
    """ln n lies within fx_ln_int's e_ln ulps, and atanh within fx_atanh's.

    The reference is exact: atanh_ln sums ln x = 2 atanh((x-1)/(x+1)) with
    Fractions, and its partial sums are lower bounds within the returned
    remainder.  ln n = (b-1) ln 2 + ln(n / 2**(b-1)) keeps its argument in
    [1, 2), and atanh(t) = ln((1+t)/(1-t)) / 2.
    """
    rng = random.Random(4900 + w)
    ns = [2, 3] + [(1 << k) + d for k in (2, 3, 5, 8, 13, 20, 31, 39) for d in (-1, 1)]
    ns += [rng.randrange(4, 1 << 40) for _ in range(8)]
    terms = (w + 24) // 3 + 1              # (1/3)**(2*terms) < 2**-(w+20)
    ln2, ln2_rem = atanh_ln(2, terms)
    scale = 1 << w
    for n in ns:
        b = n.bit_length()
        ln_m, rem = atanh_ln(Fraction(n, 1 << (b - 1)), terms)
        lo = ln_m + (b - 1) * ln2
        hi = lo + rem + (b - 1) * ln2_rem
        L, e = fx_ln_int(n, w)
        assert L - e <= lo * scale and hi * scale <= L + e, (n, w)
    atanh_terms = (w + 24) * 3 // 7 + 1    # t <= 0.4 and 0.16**(3/7) < 1/2
    for T in [0, 1, 2, 3, (2 << w) // 5] + [rng.randrange((2 << w) // 5) for _ in range(8)]:
        t = Fraction(T, scale)
        lo, rem = atanh_ln((1 + t) / (1 - t), atanh_terms)
        A, e = fx_atanh(T, w)
        assert A - e <= lo / 2 * scale and (lo + rem) / 2 * scale <= A + e, (T, w)


# ------------------------------------------------------------------ one sine, canonical and walked

def test_sin_int_is_the_ball_primitive():
    for n, bits in ((355, 96), (103993, 200), (7, 64)):
        w = bits + clog2(max(n, 2)) + 40
        S, e = sin_ball(n, w)
        want = MpReal(S, -w, Fraction(e, 1 << w)).round_to(bits)
        got = sin_int(n, bits)
        assert (got.man, got.exp, got.err) == (want.man, want.exp, want.err)


def test_sin_rel_is_relative_and_holds_the_sine():
    from flintlab.rationality import convergent_numerators_up_to
    deep = sorted(convergent_numerators_up_to(10**300))[-3:]     # |sin n| near 1e-300
    for n in (1, 2, 3, 11, 22, 355, 103993, 3083975227, *deep):
        want, want_err = sin_by_reduction(n, 700 if n > 10**299 else 80)
        for rel, guard in ((24, 8), (72, 104), (136, 40)):
            w = clog2(max(n, 2)) + guard
            S, e, w2 = sin_rel(n, rel, w)
            assert abs(S) > e << rel and w2 >= w, (n, rel)
            assert sin_rel(n, rel, w) == (S, e, w2)
            assert abs(Fraction(S, 1 << w2) - want) <= Fraction(e, 1 << w2) + want_err, n


def test_sin_ball_needs_w_of_at_least_log2_n(monkeypatch):
    # below max(8, clog2 n) the reduction could take R off fx_sin's domain
    # and the Taylor loop would run on huge terms: the call raises first
    from flintlab.rationality import convergent_numerators_up_to
    p = max(convergent_numerators_up_to(10**300))       # about 6e299
    least = [(1, 8), (0, 8), (p, clog2(p))]             # n and the least w it takes
    for n, w in least:
        S, e = sin_ball(n, w)
        want, want_err = sin_by_reduction(n, 700 if n > 10**299 else 80)
        assert abs(Fraction(S, 1 << w) - want) <= Fraction(e, 1 << w) + want_err, n

    def unreached(*args):
        raise AssertionError("reduce_fixed reached below the bound")

    monkeypatch.setattr(mpreal, "reduce_fixed", unreached)
    for n, w in least:
        with pytest.raises(DomainError):
            sin_ball(n, w - 1)
    with pytest.raises(DomainError):
        sin_rel(p, 24, 40)


def test_sin_rel_first_try_is_the_ball_itself():
    # a ball that passes the test at once is returned as sin_ball gives it
    S, e = sin_ball(355, 200)
    assert sin_rel(355, 24, 200) == (S, e, 200)


def test_sin_rel_stops_at_max_bits(monkeypatch):
    # a ball that never resolves raises w by its shortfall until MAX_BITS
    widths = []

    def unresolved(n, w):
        widths.append(w)
        return 0, 1

    monkeypatch.setattr(mpreal, "sin_ball", unresolved)
    with pytest.raises(ResourceLimitError):
        sin_rel(355, 100_000, 64)
    assert widths[0] == 64 and widths[-1] <= MAX_BITS
    assert all(b - a == 100_009 for a, b in zip(widths, widths[1:]))


# At w = 64 the first ball (32 guard bits) of this n straddles a rounding
# boundary and its center rounds the wrong way; found by search.
ZIV_HARD_N = 1071952


def test_ziv_hard_case_needs_more_guard_bits():
    S, e = sin_ball(ZIV_HARD_N, 64 + 32)
    half = 1 << 31
    assert (abs(S) - e + half) >> 32 != (abs(S) + e + half) >> 32
    assert (abs(S) + half) >> 32 != abs_sin_canonical(ZIV_HARD_N, 64)


@pytest.mark.parametrize("n", [1, 2, 3, 22, 355, 1588, 103993, 999983, ZIV_HARD_N])
def test_abs_sin_canonical_is_the_correct_rounding(n):
    want, want_err = sin_by_reduction(n)
    for w in (16, 64, 150, 230):
        lo = (abs(want) - want_err) * (1 << w)
        hi = (abs(want) + want_err) * (1 << w)
        nearest = {round_div(v.numerator, v.denominator) for v in (lo, hi)}
        assert nearest == {abs_sin_canonical(n, w)}


# A walk rounding that the drift bound leaves ambiguous, found by search
# at base 256 (the default sum's precision): the walk must hand it to the
# direct path.  On 1..20000 the walk decides every n itself.
AMBIGUOUS_WALK_N = 999206


def test_walk_equals_direct_canonical_path(monkeypatch):
    base = 256
    direct = mpreal.abs_sin_canonical
    fallbacks = []

    def recording(n, w):
        fallbacks.append(n)
        return direct(n, w)

    monkeypatch.setattr(mpreal, "abs_sin_canonical", recording)
    for lo, hi in ((1, 20000), (990000, 1010000)):
        fallbacks.clear()
        walked = list(abs_sin_walk(lo, hi, base))
        assert len(fallbacks) < 40
        assert walked == [direct(n, base + clog2(max(n, 2))) for n in range(lo, hi + 1)]
    assert AMBIGUOUS_WALK_N in fallbacks


@pytest.mark.parametrize("lo, hi, points", [
    # block starts 1, 2, 3, 5, 4097, 8193 and the last steps of blocks at
    # 4095, 4096, 8191, 8192; 2**14 ends the last block with clog2 n = 14
    (1, 8200, (1, 2, 3, 5, 4095, 4096, 4097, 8191, 8192, 8193)),
    (2**14 - 2, 2**14 + 1, (2**14 - 1, 2**14, 2**14 + 1)),
    # 10**12 is a multiple of WALK_BLOCK: a block of one n, then a full one
    (10**12, 10**12 + 4096, (10**12, 10**12 + 1, 10**12 + 4095, 10**12 + 4096)),
])
def test_walk_radius_holds_the_sine(monkeypatch, lo, hi, points):
    # every (S, D, g) the walk hands to the rounding test is a ball for
    # sin n at 2**-W, W = w + g
    base = 256
    round_abs = mpreal._round_abs
    balls = []

    def recording(S, e, g):
        balls.append((S, e, g))
        return round_abs(S, e, g)

    monkeypatch.setattr(mpreal, "_round_abs", recording)
    walk = abs_sin_walk(lo, hi, base)
    for n in range(lo, hi + 1):
        balls.clear()
        next(walk)
        if n in points:
            S, D, g = balls[0]
            W = base + clog2(max(n, 2)) + g
            want, want_err = sin_by_reduction(n, 130, 60)
            assert abs(Fraction(S, 1 << W) - want) <= Fraction(D, 1 << W) + want_err, n
            assert want_err < Fraction(1, 1 << W)


@pytest.mark.parametrize("W", [40, 300, 4000])
def test_walk_rotation_is_within_kappa_of_twice_cos_one(W):
    # the walk's K = C1 >> (h - 1) and kappa = (e1 >> (h - 1)) + 2
    h = mpreal._ROTATION_GUARD
    C1, e1 = mpreal._rotation(W)
    K = C1 >> (h - 1)
    kappa = (e1 >> (h - 1)) + 2
    cos1, rem = taylor_cos(Fraction(1), W // 4 + 20)
    assert rem < Fraction(1, 1 << (W + 8))
    assert abs(K - 2 * cos1 * (1 << W)) + 2 * rem * (1 << W) <= kappa


def test_walk_does_not_depend_on_its_start():
    base = 176
    full = list(abs_sin_walk(1, 9000, base))
    for lo, hi in ((3, 3), (1500, 1600), (4000, 4200), (4095, 4098), (8191, 9000)):
        assert list(abs_sin_walk(lo, hi, base)) == full[lo - 1:hi]
    assert list(abs_sin_walk(5, 4, base)) == []
    with pytest.raises(DomainError):
        list(abs_sin_walk(1, 5, 7))


def test_walk_far_out_needs_few_sine_balls(monkeypatch):
    # past n near 2.6e10 a fixed 32 guard bits no longer cover the reduction
    # error of about n/6 ulps: every n needed two sin_ball calls (8192 here)
    calls = []
    ball = mpreal.sin_ball

    def counting(n, w):
        calls.append((n, w))
        return ball(n, w)

    monkeypatch.setattr(mpreal, "sin_ball", counting)
    # the first guard stays at 32 bits up to n = 2**24
    for n, guard in ((1 << 24, 32), ((1 << 24) + 1, 33)):
        calls.clear()
        abs_sin_canonical(n, 64)
        assert calls[0] == (n, 64 + guard)
    calls.clear()
    lo, base = 10**12, 40
    walked = list(abs_sin_walk(lo, lo + 4095, base))
    assert len(calls) <= 64
    monkeypatch.undo()
    w = base + clog2(lo)
    assert walked == [abs_sin_canonical(n, w) for n in range(lo, lo + 4096)]
    for n in (lo, lo + 1, lo + 4095):
        want, want_err = sin_by_reduction(n)
        ends = {round_div(v.numerator, v.denominator)
                for v in ((abs(want) - want_err) * (1 << w), (abs(want) + want_err) * (1 << w))}
        assert ends == {walked[n - lo]}
