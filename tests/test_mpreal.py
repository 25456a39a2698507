import concurrent.futures
import hashlib
import math
import random
import sys
import threading
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
from flintlab.rationality import cf_terms
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
    fx_atanh_pair_ref,
    fx_cos_pair_ref,
    fx_cos_ref,
    fx_exp_small_pair_ref,
    fx_exp_small_ref,
    fx_sin_pair_ref,
    fx_sin_ref,
    guaranteed_decimal_ref,
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


def test_division_by_negative_balls_holds_the_end_quotients():
    # a negative divisor flips both mantissas; a divisor of large exponent
    # makes the shift negative, so the divisor is scaled up instead
    rng = random.Random(523)
    for _ in range(2000):
        x = MpReal(rng.randrange(-1 << 80, 1 << 80), rng.randrange(-120, 40),
                   Fraction(rng.randrange(1 << 20), 1 << rng.randrange(60, 140)))
        y = MpReal(-rng.randrange(1 << 40, 1 << 80), rng.randrange(-40, 200),
                   Fraction(rng.randrange(1 << 20), 1 << rng.randrange(60, 140)))
        if rng.random() < 0.5:
            y = y.neg()
        q = x.div(y, rng.choice([8, 64, 128]))
        for a in (x.lower(), x.upper()):
            for b in (y.lower(), y.upper()):
                assert q.lower() <= a / b <= q.upper()


def test_ball_is_a_center_and_an_integer_radius_pair():
    x = MpReal.from_fraction(Fraction(1, 3), 64)
    assert MpReal.__slots__ == ("man", "exp", "_rnum", "_rden")
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


def _ends(value: Fraction, err: Fraction) -> tuple[int, int, int]:
    """value -+ err as guaranteed_decimal's (lo, hi, den)."""
    lo, hi = value - err, value + err
    return (lo.numerator * hi.denominator, hi.numerator * lo.denominator,
            lo.denominator * hi.denominator)


def test_guaranteed_decimal_stops_at_error_bound():
    # 1/3 known to +-1e-7 must not print more than ~7 digits
    text = guaranteed_decimal(*_ends(Fraction(1, 3), Fraction(1, 10**7)))
    assert text.startswith("0.333333")
    assert len(text.split(".")[1]) <= 8


def test_guaranteed_decimal_prints_coarse_units_for_wide_balls():
    # err >= 1/2 leaves no digit at 10**0 guaranteed: the unit grows to 10**K
    assert MpReal(123456789, 0, Fraction(1000)).decimal() == "12346e+4"
    assert guaranteed_decimal(*_ends(Fraction(5), Fraction(7))) == "0e+2"
    assert guaranteed_decimal(*_ends(Fraction(-5), Fraction(7))) == "0e+2"
    rng = random.Random(5071)
    for _ in range(600):
        err = Fraction(rng.randrange(1, 1 << 30), 1 << 30) * 10 ** rng.randrange(13)
        err = min(max(err, Fraction(1, 2)), Fraction(10 ** 12))
        value = Fraction(rng.getrandbits(rng.randint(1, 80)), rng.randint(1, 1000))
        value *= rng.choice((1, -1))
        text = guaranteed_decimal(*_ends(value, err), rng.choice((None, 0, 12)))
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
        assert max(0, -mpreal.floor_log10(wide.numerator, wide.denominator) - 1) \
            == linear_decimal_count(wide), wide


def _oracle_balls(rng):
    """(ball, label) pairs for the rendering oracle: dyadic radii (also
    the unreduced ones round_to makes), other radii, err = 0, wide balls
    that print ``e+K``, and ends exactly on a rounding boundary."""
    for _ in range(300):
        man = rng.getrandbits(rng.randint(0, 120)) * rng.choice((1, -1))
        exp = rng.randint(-150, 12)
        kind = rng.randrange(5)
        if kind == 0:
            err = Fraction(rng.getrandbits(rng.randint(1, 40)), 1 << rng.randint(0, 160))
        elif kind == 1:
            err = Fraction(rng.getrandbits(40) + 1, rng.getrandbits(40) | 1) / 2 ** rng.randint(0, 140)
        elif kind == 2:
            err = 0
        else:
            err = Fraction(rng.randint(1, 10 ** 6)) * 10 ** rng.randint(0, 8) / rng.randint(1, 9)
        x = MpReal(man, exp, err)
        yield x, "random"
        if kind != 3:
            yield x.round_to(rng.randint(8, 130)), "round_to"
    for _ in range(150):
        d = rng.randint(-3, 6)
        k = rng.randint(-10 ** 6, 10 ** 6)
        edge = Fraction(2 * k + 1, 2) * Fraction(10) ** -d       # a rounding boundary at d
        exp = -rng.randint(0, 60)
        man = math.floor(edge * 2 ** -exp) + rng.randint(-5, 5)
        center = Fraction(man) * Fraction(2) ** exp
        yield MpReal(man, exp, abs(center - edge)), "boundary"


def test_decimal_matches_the_fraction_oracle():
    rng = random.Random(2029)
    for x, label in _oracle_balls(rng):
        for cap in (None, 0, 3, 12, 40):
            want = guaranteed_decimal_ref(x.center(), x.err, cap)
            assert x.decimal(cap) == want, (label, x.man, x.exp, x.err, cap)


def test_guaranteed_decimal_matches_the_fraction_oracle_on_any_denominator():
    # integer ends over power-of-two and other denominators; lo = hi with
    # a den of 3 or 7 has no finite expansion
    rng = random.Random(2030)
    for _ in range(800):
        den = rng.choice((1, 3, 7, 10, 20, 2 * 10 ** rng.randint(1, 5))) << rng.randint(0, 90)
        lo = rng.randint(-(1 << 100), 1 << 100) >> rng.randint(0, 100)
        hi = lo + rng.choice((0, 0, 1, rng.getrandbits(rng.randint(1, 120))))
        cap = rng.choice((None, 0, 5, 30))
        want = guaranteed_decimal_ref(Fraction(lo + hi, 2 * den), Fraction(hi - lo, 2 * den), cap)
        assert guaranteed_decimal(lo, hi, den, cap) == want, (lo, hi, den, cap)


def test_decimal_forms_on_fixed_balls():
    assert MpReal(-3, 4).decimal() == "-48"
    assert MpReal(5, -3).decimal() == "0.625"
    assert MpReal(5, -3).decimal(2) == "0.63"
    assert MpReal(-5, -3).decimal(2) == "-0.62"                   # halves toward +inf
    assert MpReal(7, 0, Fraction(1, 2)).decimal() == "1e+1"        # 6.5 and 7.5 part at 10**0
    assert guaranteed_decimal(1, 1, 3) == "0." + "3" * 64
    assert guaranteed_decimal(-2, -2, 3, 4) == "-0.6667"


def test_constructor_takes_fraction_and_int_radii():
    third = MpReal(5, -2, Fraction(1, 3))
    assert third.err == Fraction(1, 3) and type(third.err) is Fraction
    assert MpReal(5, -2, 3).err == 3
    assert MpReal(5, -2).err == 0
    for bad in (-1, Fraction(-1, 3)):
        with pytest.raises(DomainError):
            MpReal(5, -2, bad)


def test_pi_renderings_and_cf_are_frozen():
    # sha256 of compute_pi(b).decimal() and of repr(cf_terms(...).terms),
    # taken before the radius became an integer pair
    for b, want in ((20000, "f3349ffda8de5292700dac34426ce2665a80062cf28a6f53ec3da3a98d673f46"),
                    (300000, "7a33ce25b4ab572f47dd1f8bbf7ac31c8a0999b73f3412802948547c7adf495b")):
        assert hashlib.sha256(compute_pi(b).decimal().encode()).hexdigest() == want, b
    terms = cf_terms(compute_pi(20000), 4800).terms
    assert hashlib.sha256(repr(terms).encode()).hexdigest() \
        == "9ae7e2a3dcf870016d0e1c4a56a79f9205d0476c4205869671fb7b83ac5a4d51"


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


def test_ln2_rational_before_the_cut_has_n_log_n_bits(monkeypatch):
    # the split keeps the 9s as one power, so the denominator that reaches
    # the cut is 3 * prod_{i<n} (2i+1) * 9**(n-1) < 3 * (2n)**n * 9**(n-1)
    cut, dens = mpreal._cut_rational, []
    monkeypatch.setattr(mpreal, "_cut_rational",
                        lambda num, den, w: dens.append(den) or cut(num, den, w))
    for w in (1000, 20000):
        mpreal._atanh_ln2_rational(w)
        n = int((w + 16) / 3.169925) + 2
        assert dens.pop().bit_length() <= n * (2 * n).bit_length() + 4 * n, w


def test_ln2_mantissa_sweep_is_frozen():
    # sha256 over round(ln2 * 2**w), each as (w + 16) // 8 big-endian
    # bytes, taken before the ln 2 split kept its 9s as a power
    h = hashlib.sha256()
    for w in list(range(8, 1200)) + [4096, 20008]:
        h.update(ln2_mantissa(w).to_bytes((w + 16) // 8, "big"))
    assert h.hexdigest() == "892ca769b64914985ca2f3461eb26e66f7e9037654690e5c1824483b7e297472"


def _pi_round(w: int) -> int:
    """round(pi * 2**w) from Machin at w + 64 bits, where the whole
    interval of that rational rounds the same way."""
    mn, md = machin_pi_rational(w + 64)
    lo = round_div((mn << 64 << w) - md, md << 64)
    hi = round_div((mn << 64 << w) + md, md << 64)
    assert lo == hi, w
    return lo


def test_pi_mantissa_sweep_matches_machin():
    for w in list(range(8, 300)) + [511, 512, 1000, 4096, 11789, 11790, 20008, 20024]:
        assert pi_mantissa(w) == _pi_round(w), w


def test_ln2_mantissa_matches_series_oracle():
    # round(ln2 * 2**w) where the oracle's whole interval rounds the same way
    apx, err = atanh_ln(2, 400)
    assert err < Fraction(1, 1 << 1200)
    top = apx + err
    for w in range(8, 401):
        lo = round_div(apx.numerator << w, apx.denominator)
        assert lo == round_div(top.numerator << w, top.denominator), w
        assert ln2_mantissa(w) == lo, w


@pytest.mark.parametrize("mantissa", [pi_mantissa, ln2_mantissa])
def test_constant_mantissa_refuses_negative_w(mantissa):
    with pytest.raises(DomainError):
        mantissa(-3)


@pytest.mark.parametrize("mantissa", [pi_mantissa, ln2_mantissa])
def test_constant_mantissa_refuses_float_w(mantissa):
    mantissa(2)
    for w in (2.5, 2.0):            # 2.0 is below the top that 2 left: only the type test refuses it
        with pytest.raises(DomainError):
            mantissa(w)


@pytest.mark.parametrize("mantissa", [pi_mantissa, ln2_mantissa])
def test_constant_mantissa_refuses_bool_w(mantissa):
    mantissa(1)                     # True and False are below the top it leaves:
                                    # only the type test refuses them
    for w in (True, False):
        with pytest.raises(DomainError):
            mantissa(w)


def test_const_source_beyond_max_bits_always_raises():
    source = mpreal._ConstSource("pi", mpreal._chudnovsky_pi_rational)
    for _ in range(3):
        with pytest.raises(ResourceLimitError):
            source.mantissa(MAX_BITS + 257)
    assert source.refinements == 0


def test_const_source_hits_skip_the_lock():
    source = mpreal._ConstSource("ln2", mpreal._atanh_ln2_rational)
    want = source.mantissa(300)

    class NoLock:
        def __enter__(self):
            raise AssertionError("a hit took the lock")

    source._lock = NoLock()
    assert source.mantissa(300) == want
    # every lower w, none asked before, is a shift of the one stored floor
    for w in range(300):
        fresh = mpreal._ConstSource("ln2", mpreal._atanh_ln2_rational)
        assert source.mantissa(w) == fresh.mantissa(w), w


def test_const_source_threads_agree_with_serial():
    # four threads ask the same ascending list at once, so their requests
    # interleave, yet each w is first asked after every smaller one, as in
    # the serial run, and the source refines as often
    ws = sorted(w for i in range(60) for w in (64 + 37 * i, 2000 + 101 * i))
    serial = mpreal._ConstSource("pi", mpreal._chudnovsky_pi_rational)
    want = [serial.mantissa(w) for w in ws]
    source = mpreal._ConstSource("pi", mpreal._chudnovsky_pi_rational)
    start = threading.Barrier(4, timeout=60)

    def ask(_):
        start.wait()
        return [source.mantissa(w) for w in ws]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)     # force the threads to interleave
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            answers = list(pool.map(ask, range(4), timeout=120))
    finally:
        sys.setswitchinterval(switch)
    assert answers == [want] * 4
    assert source.refinements == serial.refinements


@pytest.mark.parametrize("name, refine", [("pi", mpreal._chudnovsky_pi_rational),
                                          ("ln2", mpreal._atanh_ln2_rational)])
def test_const_source_ascending_sweep_refines_rarely(name, refine):
    # each refine at least doubles src_w: about log2(4092 / 8) refines, and
    # the mantissas equal those of fresh sources, asked once each
    ws = range(8, 4093, 4)
    source = mpreal._ConstSource(name, refine)
    got = [source.mantissa(w) for w in ws]
    assert source.refinements <= 12
    fresh = [mpreal._ConstSource(name, refine).mantissa(w) for w in ws[::97]]
    assert got[::97] == fresh


def _ln2_round(w: int) -> int:
    """round(ln 2 * 2**w) from ln 2 = sum 1/(k * 2**k), in integers with
    64 guard bits: the K = G terms kept lose under one unit each, and the
    tail is below one unit, so ln 2 * 2**G lies in [S, S + K + 1]."""
    G = w + 64
    S = sum((1 << (G - k)) // k for k in range(1, G + 1))
    lo, hi = (S + (1 << 63)) >> 64, (S + G + 1 + (1 << 63)) >> 64
    assert lo == hi
    return lo


def test_const_source_retries_until_the_rounding_is_certain():
    # at these w the first refine's rational lies too near a rounding
    # boundary, so the source doubles src_w and refines once more
    pi = mpreal._ConstSource("pi", mpreal._chudnovsky_pi_rational)
    num, den = machin_pi_rational(8373 + 64)
    assert pi.mantissa(8373) == round_div(num << 8373, den)
    assert pi.refinements == 2
    ln2 = mpreal._ConstSource("ln2", mpreal._atanh_ln2_rational)
    assert ln2.mantissa(26248) == _ln2_round(26248)
    assert ln2.refinements == 2


def test_const_source_shifts_near_the_rounding_boundary():
    # of the w <= 20024, pi * 2**11789 has the fraction nearest 1/2 (within
    # 2**-17), and 8373 is next; the floor certified at w = 20024 serves
    # them, their neighbours and the bottom w without another refine
    pi = mpreal._ConstSource("pi", mpreal._chudnovsky_pi_rational)
    assert pi.mantissa(20024) == _pi_round(20024)
    for w in (11789, 11790, 8373, 8374, 20023, 1, 0):
        assert pi.mantissa(w) == _pi_round(w), w
    assert pi.refinements == 1


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


def _check_reduction(x: Fraction, w: int, k: int, R: int, e: int) -> None:
    """reduce_fixed's (k, R, e) for x at w against the spigot pi: R is r = x
    - k*pi within e ulps, |x/pi - k| <= 1/2 + |x| * 2**-(w+4), and k =
    round(x/pi) where 2**w >= |x| and x/pi lies farther than |x| *
    2**-(w+3) from a half-integer."""
    apx, apx_err = pi_fraction(200)
    assert abs(Fraction(R, 1 << w) - (x - k * apx)) + abs(k) * apx_err <= Fraction(e, 1 << w)
    q = x / apx
    slack = abs(x) * apx_err                # |q - x/pi| is below it
    assert abs(q - k) <= Fraction(1, 2) + abs(x) / (1 << (w + 4)) + slack
    to_half = abs(q - math.floor(q) - Fraction(1, 2))
    if abs(x) <= 1 << w and to_half > abs(x) / (1 << (w + 3)) + slack:
        assert k == round(q)


def test_reduce_fixed_integer_triple():
    # integers get the divmod's k and R = n*2**w - k*pi_mantissa(w) exactly
    for w in (40, 64, 200):
        P = pi_mantissa(w)
        for n in list(range(1, 1500)) + [103993, 833719, 10**30 + 7]:
            k, R, e = reduce_fixed(n, w)
            assert (k, R, e) == (round_div(n << w, P), (n << w) - k * P, (k >> 1) + 2)
            _check_reduction(Fraction(n), w, k, R, e)


def test_reduce_fixed_dyadic_forms_of_an_integer():
    for n in (1, 2, 22, 355, 103993):
        k, R, e = reduce_fixed(n, 96)
        for d in (1, 7, 64):
            assert reduce_fixed(n << d, 96, d) == (k, R, e)
        assert reduce_fixed(-n, 96) == (-k, -R, e)


def test_reduce_fixed_dyadic_error_bound():
    rng = random.Random(7300)
    for _ in range(300):
        d = rng.choice((1, 5, 30, 64, 200))
        m = rng.randrange(-(1 << (d + 24)), 1 << (d + 24))
        w = rng.choice((8, 40, 64, 200))
        _check_reduction(Fraction(m, 1 << d), w, *reduce_fixed(m, w, d))


def test_reduce_fixed_takes_the_far_neighbour_near_a_half_integer():
    # 3083975227/pi lies 2.4e-11 below a half-integer, closer than the
    # n * 2**-65 by which the divmod's quotient can miss it at w = 61
    n, w = 3083975227, 61
    apx, _ = pi_fraction(100)
    q = n / apx
    assert Fraction(23, 10**12) < math.floor(q) + Fraction(1, 2) - q < Fraction(25, 10**12)
    k, R, e = reduce_fixed(n, w)
    assert k == round(q) + 1
    _check_reduction(Fraction(n), w, k, R, e)


def test_sines_of_half_pi_numerators_contain_the_oracle():
    apx, _ = pi_fraction(100)
    far = 0
    # numerators of pi/2's convergents: n/pi lies near a half-integer, where
    # the divmod's k can be the farther of the two nearest integers
    for n in (11, 52174, 3083975227, 214112296674652):
        want_s, want_c, want_err = _sin_cos_oracle(Fraction(n))
        for w in range(max(8, clog2(n)), clog2(n) + 81):
            far += reduce_fixed(n, w)[0] != round(n / apx)
            S, e = sin_ball(n, w)
            assert abs(Fraction(S, 1 << w) - want_s) <= Fraction(e, 1 << w) + want_err, (n, w)
            s = sin_int(n, w)
            assert abs(s.center() - want_s) <= s.err + want_err, (n, w)
            c = cos_reduced(MpReal(n, 0), w)
            assert abs(c.center() - want_c) <= c.err + want_err, (n, w)
    assert far >= 30                        # the far neighbour is taken often


def test_sin_ball_at_its_least_w_contains_the_oracle():
    rng = random.Random(4100)
    for _ in range(200):
        n = rng.randrange(1, 1 << rng.randrange(1, 200))
        w = max(8, clog2(n))
        k, R, e = reduce_fixed(n, w)
        _check_reduction(Fraction(n), w, k, R, e)
        assert abs(R) < Fraction(194, 100) * (1 << w)
        S, e = sin_ball(n, w)
        want, _, want_err = _sin_cos_oracle(Fraction(n))
        assert abs(Fraction(S, 1 << w) - want) <= Fraction(e, 1 << w) + want_err, n


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


@pytest.mark.parametrize("w", [8, 64, 112, 135, 300, 1000])
def test_strength_reduced_kernels_keep_value_and_error(w):
    # (value, err_ulps) equal to the one-term-a-pass loops, at both parities
    # of the last term, at zero and at the domain edges
    rng = random.Random(7150 + w)
    for X in _sweep_args(rng, w, Fraction(33, 10), 150):
        assert fx_sin(X, w) == fx_sin_pair_ref(X, w), X
        assert fx_cos(X, w) == fx_cos_pair_ref(X, w), X
    for R in _sweep_args(rng, w, Fraction(2, 5), 150):
        assert fx_exp_small(R, w) == fx_exp_small_pair_ref(R, w), R
        assert fx_atanh(abs(R), w) == fx_atanh_pair_ref(abs(R), w), R
    for X in (1 << e for e in range(w + 2)):    # every loop length
        assert fx_sin(X, w) == fx_sin_pair_ref(X, w), X
        assert fx_cos(X, w) == fx_cos_pair_ref(X, w), X


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
                    try:
                        E, err, q = ball = fx_pow(max(L_in, 0), e_in, c, w)
                    except DomainError:
                        assert w < 40, (n, a, b, w)
                        continue
                    assert E > err, (n, a, b, w, L_in)
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


def test_round_abs_refuses_a_ball_that_holds_zero():
    # a ball whose radius reaches |S| leaves the sign unknown
    for S, e in ((0, 0), (0, 1), (5, 5), (-5, 5), (-3, 7)):
        assert mpreal._round_abs(S, e, 8) is None
    assert mpreal._round_abs(-(3 << 8), 5, 8) == 3


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


def walked(lo: int, hi: int, base: int) -> list:
    """abs_sin_walk's values for n = lo..hi, its blocks joined."""
    return [m for _, ms in abs_sin_walk(lo, hi, base) for m in ms]


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
        got = walked(lo, hi, base)
        assert len(fallbacks) < 40
        assert got == [direct(n, base + clog2(max(n, 2))) for n in range(lo, hi + 1)]
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
    # the ball (S, D) that the walk's block loop rounds at n is a ball for
    # sin n at 2**-W, W = w + g; the loop run from the block's anchor to
    # n - 1 hands it back, and the walk's value at n is its rounding
    base = 256
    fill = mpreal._walk_block
    blocks = []

    def recording(n0, end, w, g):
        blocks.append((n0, end, w, g))
        return fill(n0, end, w, g)

    monkeypatch.setattr(mpreal, "_walk_block", recording)
    walk = list(abs_sin_walk(lo, hi, base))
    assert [(n0, n0 + len(ms) - 1) for n0, ms in walk] == [(n0, end) for n0, end, *_ in blocks]
    got = [m for _, ms in walk for m in ms]
    for n in points:
        n0, end, w, g = next(block for block in blocks if block[0] <= n <= block[1])
        assert w == base + clog2(max(n, 2))
        _, S, D = fill(n0, n - 1, w, g)
        W = w + g
        want, want_err = sin_by_reduction(n, 130, 60)
        assert abs(Fraction(S, 1 << W) - want) <= Fraction(D, 1 << W) + want_err, n
        assert want_err < Fraction(1, 1 << W)
        assert mpreal._round_abs(S, D, g) in (None, got[n - lo])


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
    full = walked(1, 9000, base)
    for lo, hi in ((3, 3), (1500, 1600), (4000, 4200), (4095, 4098), (8191, 9000)):
        assert walked(lo, hi, base) == full[lo - 1:hi]
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
    got = walked(lo, lo + 4095, base)
    assert len(calls) <= 64
    monkeypatch.undo()
    w = base + clog2(lo)
    assert got == [abs_sin_canonical(n, w) for n in range(lo, lo + 4096)]
    for n in (lo, lo + 1, lo + 4095):
        want, want_err = sin_by_reduction(n)
        ends = {round_div(v.numerator, v.denominator)
                for v in ((abs(want) - want_err) * (1 << w), (abs(want) + want_err) * (1 << w))}
        assert ends == {got[n - lo]}
