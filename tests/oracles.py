"""Independent oracles used to check the package from the outside.

Everything here is deliberately primitive: digit-by-digit spigot for pi,
Pascal's triangle by addition, polynomial recurrences, and Fraction
Taylor sums with explicit remainder bounds.  Nothing imports flintlab:
where an oracle needs one of its primitives, the caller passes it in.
"""

import math
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

DATA_DIR = Path(__file__).parent / "data"


@lru_cache(maxsize=8)
def spigot_pi_digits(count: int) -> str:
    """First `count` decimal digits of pi as "3.1415..." via the
    unbounded streaming spigot."""
    q, r, t, k, m, x = 1, 0, 1, 1, 3, 3
    digits = []
    while len(digits) < count:
        if 4 * q + r - t < m * t:
            digits.append(m)
            q, r, m = 10 * q, 10 * (r - m * t), (10 * (3 * q + r)) // t - 10 * m
        else:
            q, r, t, k, m, x = (q * k, (2 * q + r) * x, t * x, k + 1,
                                (q * (7 * k + 2) + r * x) // (t * x), x + 2)
    return f"{digits[0]}." + "".join(map(str, digits[1:]))


def load_pi_fixture() -> str:
    return (DATA_DIR / "pi_1000.txt").read_text().strip()


@lru_cache(maxsize=8)
def pi_fraction(digit_count: int = 1000) -> tuple[Fraction, Fraction]:
    """(approximation, absolute error bound) from the spigot digits."""
    text = spigot_pi_digits(digit_count)
    approx = Fraction(text.replace(".", "")) / 10 ** (digit_count - 1)
    return approx, Fraction(1, 10 ** (digit_count - 1))


def _atan_sum_split(q2: int, lo: int, hi: int) -> tuple[int, int]:
    """(N, D) with N/D = sum_{i=lo}^{hi-1} (-1)^i / ((2i+1) * q2^(i-lo))."""
    if hi - lo == 1:
        return (-1 if lo & 1 else 1), 2 * lo + 1
    mid = (lo + hi) // 2
    nl, dl = _atan_sum_split(q2, lo, mid)
    nr, dr = _atan_sum_split(q2, mid, hi)
    p = q2 ** (mid - lo)
    return nl * dr * p + nr * dl, dl * dr * p


def machin_pi_rational(w: int) -> tuple[int, int]:
    """Exact rational (num, den) with |pi - num/den| <= 2**-w.

    pi = 16*atan(1/5) - 4*atan(1/239), each atan an alternating series
    whose tail is below its first omitted term; the term counts leave
    more than 20 bits of slack below the advertised bound.
    """
    n5 = int((w + 16) / 4.643856) + 2        # log2(25) = 4.6438...
    n239 = int((w + 16) / 15.801595) + 2     # log2(239^2) = 15.8015...
    na, da = _atan_sum_split(25, 0, n5)
    nb, db = _atan_sum_split(239 * 239, 0, n239)
    return 16 * na * db * 239 - 4 * nb * da * 5, 5 * da * 239 * db


def cf_terms_ref(lo: Fraction, hi: Fraction, count: int) -> tuple[tuple[int, ...], bool, bool]:
    """(terms, exhausted, complete): the first `count` partial quotients
    shared by every point of [lo, hi], 0 < lo <= hi, by one Fraction
    inversion per term -- the loop the package's cf_terms once ran."""
    terms: list[int] = []
    while len(terms) < count:
        fl = lo.numerator // lo.denominator
        fh = hi.numerator // hi.denominator
        if fl != fh:
            return tuple(terms), True, False
        terms.append(fl)
        frac_lo, frac_hi = lo - fl, hi - fh
        if frac_hi == 0 or frac_lo == 0:
            return tuple(terms), lo != hi, lo == hi
        lo, hi = 1 / frac_hi, 1 / frac_lo
    return tuple(terms), False, False


def convergent_numerators(terms) -> list[int]:
    """Numerators p_0, p_1, ... of the convergents of [a_0; a_1, ...], by
    p_k = a_k * p_(k-1) + p_(k-2) from p_(-2) = 0 and p_(-1) = 1."""
    p = [0, 1]
    for a in terms:
        p.append(a * p[-1] + p[-2])
    return p[2:]


def pascal_triangle(rows: int) -> list[list[int]]:
    """Rows 0..rows-1 of Pascal's triangle, built by addition only."""
    triangle = [[1]]
    for _ in range(rows - 1):
        prev = triangle[-1]
        triangle.append([1] + [prev[i] + prev[i + 1] for i in range(len(prev) - 1)] + [1])
    return triangle


def chebyshev_u_at_one(m: int) -> int:
    """U_m(1) by the three-term recurrence (no closed form used)."""
    if m == 0:
        return 1
    prev, cur = 1, 2
    for _ in range(m - 1):
        prev, cur = cur, 2 * cur - prev
    return cur


def chebyshev_u_coeffs(m: int) -> list[int]:
    """Dense coefficient list of U_m, ascending powers, via the
    recurrence U_{j+1}(x) = 2x U_j(x) - U_{j-1}(x)."""
    prev = [1]
    if m == 0:
        return prev
    cur = [0, 2]
    for _ in range(m - 1):
        shifted = [0] + [2 * c for c in cur]
        nxt = [shifted[i] - (prev[i] if i < len(prev) else 0)
               for i in range(len(shifted))]
        prev, cur = cur, nxt
    return cur


def taylor_sin(x: Fraction, terms: int) -> tuple[Fraction, Fraction]:
    """(partial Taylor sum of sin x, remainder bound).  The bound is the
    absolute value of the first omitted term times 2, valid whenever that
    term already decreases geometrically (|x|^2 < (2*terms)(2*terms+1))."""
    total = Fraction(0)
    term = x
    for i in range(terms):
        total += term
        term *= -x * x / ((2 * i + 2) * (2 * i + 3))
    return total, 2 * abs(term)


def taylor_cos(x: Fraction, terms: int) -> tuple[Fraction, Fraction]:
    total = Fraction(0)
    term = Fraction(1)
    for i in range(terms):
        total += term
        term *= -x * x / ((2 * i + 1) * (2 * i + 2))
    return total, 2 * abs(term)


def atanh_ln(n: int, terms: int) -> tuple[Fraction, Fraction]:
    """(partial sum for ln n, remainder bound) via
    ln n = 2 atanh((n-1)/(n+1)) summed with Fractions."""
    y = Fraction(n - 1, n + 1)
    total = Fraction(0)
    power = y
    for i in range(terms):
        total += power / (2 * i + 1)
        power *= y * y
    # Geometric tail: remaining terms < power/(1 - y^2)
    bound = power / (1 - y * y)
    return 2 * total, 2 * bound


def sin_by_reduction(n: int, digit_count: int = 80,
                     taylor_terms: int = 40) -> tuple[Fraction, Fraction]:
    """(approximation, error bound) for sin of an integer via spigot-pi
    argument reduction and a Fraction Taylor sum; fully independent of
    the package."""
    pi_apx, pi_err = pi_fraction(digit_count)
    k = round(n / pi_apx)
    r = n - k * pi_apx
    reduction_err = abs(k) * pi_err
    approx, taylor_err = taylor_sin(r, taylor_terms)
    # |sin| is 1-Lipschitz, so the pi error passes through linearly.
    if k % 2:
        approx = -approx
    return approx, taylor_err + reduction_err


def term_units_ref(n: int, u: int, v: Fraction, acc: int, sine, power) -> int:
    """T of one series term 1/(|sin n|^u * n^v) at the scale 2**-acc,
    within 3 units: the package's escalating loop in Fractions.  An
    attempt is accepted when 4(T + 1)(u/m + P_err/P) <= 1, and otherwise
    the next adds the bit length of that product's floor, plus 2, to w.
    sine(n, w) = round(|sin n| * 2**w), and power(n, f, w) = (P, P_err, q)
    with |P - n**f * 2**(w-q)| <= P_err; the package supplies both, so
    only the arithmetic on them is checked here."""
    iv, frac = divmod(Fraction(v), 1)
    w1 = acc + 48                       # the package's first sine margin
    while True:
        w = w1 + (max(n, 2) - 1).bit_length()
        m = sine(n, w)
        p, p_err, q = power(n, frac, w) if frac else (1, 0, w)
        if m <= 1 or p <= p_err:
            w1 *= 2
            continue
        a = Fraction(2) ** (acc + u * w + w - q) / (m ** u * n ** iv * p)
        T = math.floor(a + Fraction(1, 2))
        shortfall = 4 * (T + 1) * (Fraction(u, m) + Fraction(p_err, p))
        if shortfall <= 1:
            return T
        w1 += math.floor(shortfall).bit_length() + 2


_SPIKE_GUARD = 8          # spike_records_ref's first guard bits, beyond bits + clog2 n


def _canonical_sine(n: int, bits: int, guard: int, sine) -> tuple[int, int]:
    """(m, w) with m = sine(n, w) = round(|sin n| * 2**w), w = bits + guard + clog2 n."""
    w = bits + guard + (n - 1).bit_length()
    return sine(n, w), w


def spike_records_ref(n_max: int, bits: int, canonical_sine,
                      undecided=ArithmeticError) -> list[int]:
    """Running record minima of |sin n| for 1 <= n <= n_max, ascending, by
    the integer record loop the package's spike_indices once ran.

    canonical_sine(n, w) = round(|sin n| * 2**w); the package supplies it.
    Each record's |sin| is *strictly* below every predecessor's, decided
    on integers: (m, w) from _canonical_sine puts |sin n| * 2**(w+1)
    strictly inside (2m - 1, 2m + 1), as |sin n| * 2**w is never a
    half-integer.  n beats the last record b when (2m + 1) * 2**w_b <=
    (2m_b - 1) * 2**w, and loses when (2m - 1) * 2**w_b >= (2m_b + 1) *
    2**w; otherwise both are recomputed with the guard bits doubled, and a
    tie still open past 2**20 bits raises `undecided`.
    """
    records: list[int] = []
    best = (0, 0)          # the last record's (m, w) at _SPIKE_GUARD
    for n in range(1, n_max + 1):
        first = m, w = _canonical_sine(n, bits, _SPIKE_GUARD, canonical_sine)
        (mb, wb), guard = best, _SPIKE_GUARD
        while records and (2 * m + 1) << wb > (2 * mb - 1) << w:
            if (2 * m - 1) << wb >= (2 * mb + 1) << w:
                break                                   # n loses
            guard *= 2
            b = records[-1]
            if bits + guard > 1 << 20:
                raise undecided(f"|sin {n}| vs |sin {b}| undecided at {bits + guard} bits")
            m, w = _canonical_sine(n, bits, guard, canonical_sine)
            mb, wb = _canonical_sine(b, bits, guard, canonical_sine)
        else:                                           # n is a record
            records.append(n)
            best = first
    return records


# The fixed-point Taylor kernels in their first form: every step divides
# the full product by (divisor << w).  flintlab's kernels shift first and
# divide by the small divisor after, which must give identical integers.

def fx_sin_ref(X: int, w: int) -> int:
    sign = -1 if X < 0 else 1
    X = abs(X)
    xx = (X * X) >> w
    term = total = X
    i = 1
    while term:
        term = (term * xx) // (((2 * i) * (2 * i + 1)) << w)
        total += -term if (i & 1) else term
        i += 1
    return sign * total


def fx_cos_ref(X: int, w: int) -> int:
    X = abs(X)
    xx = (X * X) >> w
    term = total = 1 << w
    i = 1
    while term:
        term = (term * xx) // (((2 * i - 1) * (2 * i)) << w)
        total += -term if (i & 1) else term
        i += 1
    return total


def fx_exp_small_ref(R: int, w: int) -> int:
    term = R
    total = (1 << w) + R
    i = 2
    while term:
        d = i << w
        term = (2 * term * R + d) // (2 * d)     # nearest, halves toward +inf
        total += term
        i += 1
    return total


def linear_decimal_count(wide: Fraction, cap: int = 20000) -> int:
    """Least d >= 0 with 10**-(d+1) <= wide, by the linear search (capped
    at `cap` digits) that the package's decimal rendering once used."""
    d = 0
    while d < cap and Fraction(1, 10 ** (d + 1)) > wide:
        d += 1
    return d


def sci_ref(x: Fraction, digits: int = 3) -> str:
    """Short scientific rendering by the per-digit exponent search that the
    package once used: divide or multiply by 10 until 1 <= y < 10.  A
    mantissa that rounds up to 10 carries into the exponent."""
    if x == 0:
        return "0"
    e10 = 0
    y = x
    while y >= 10:
        y /= 10
        e10 += 1
    while y < 1:
        y *= 10
        e10 -= 1
    scale = 10 ** (digits - 1)
    scaled = (2 * y.numerator * scale + y.denominator) // (2 * y.denominator)
    if scaled == 10 * scale:
        scaled = scale
        e10 += 1
    mant = f"{scaled / scale:.{digits - 1}f}"
    return f"{mant}e{e10:+03d}"


def round_to_ref(man: int, exp: int, err: Fraction, bits: int) -> tuple[int, int, Fraction]:
    """MpReal(man, exp, err).round_to(bits) as (man, exp, err), by Fraction arithmetic.

    The center moves to the nearest multiple of 2**-(bits+8) (halves up)
    when exp lies below that scale; err grows by the distance moved and
    is then rounded up to a multiple of 2**-(bits+24).
    """
    center = Fraction(man) * Fraction(2) ** exp
    if exp >= -(bits + 8):
        new_man, new_exp = man, exp
    else:
        new_exp = -(bits + 8)
        new_man = math.floor(center * 2 ** (bits + 8) + Fraction(1, 2))
    moved = abs(center - Fraction(new_man) * Fraction(2) ** new_exp)
    unit = Fraction(1, 1 << (bits + 24))
    return new_man, new_exp, math.ceil((err + moved) / unit) * unit
