"""Error-bounded partial sums of the sine-power series family.

The family under study is

    S_s(k) = sum_{n=1}^{k}  G(n)^(2s) / (|sin n|^u * n^(v + 2s)),

with the classical series at s = 0, u = 2, v = 3.  G(n)^(2s) = n^(2s)
cancels exactly; only sin n, and n^v for fractional v, is approximate.

Determinism is structural, not incidental: every term is rounded to a
*fixed* scale 2**-(bits + 80) chosen independently of the summation
range, and the accumulator is the exact integer sum of those rounded
units.  Integer addition is associative, so any chunking, threading or
checkpoint split reproduces identical bits; the error budget is likewise
an exact integer count of the same units.  (A per-term precision that
grew with the target k would silently break resume-versus-fresh
bit-identity, which is why the scale must not depend on k.)

|sin n|^u uses the absolute value so that every member of the family,
including odd u, has positive terms and monotone partial sums.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from .errors import CheckpointMismatchError, DomainError, ResourceLimitError, UsageError
from .mpreal import (
    MAX_BITS,
    MpReal,
    _is_int,
    abs_sin_canonical,
    abs_sin_walk,
    clog2,
    exact_decimal,
    exact_fraction,
    fx_ln_int,
    fx_pow,
)

__all__ = [
    "EquivalenceRow",
    "PartialSumResult",
    "SeriesSpec",
    "equivalence_experiment",
    "load_checkpoint",
    "partial_sum",
    "save_checkpoint",
    "term",
]


@dataclass(frozen=True)
class SeriesSpec:
    """Parameters of one family member: depth s, sine power u, n-power v.

    v is exact: it may be given as anything exact_fraction accepts (so
    "2.1" is 21/10, and a float is its binary value) and is stored as an
    int when integral, else as a Fraction.  It must be positive and no
    larger than a float can hold, since outputs report it as a float.
    """

    s: int = 0
    u: int = 2
    v: int | Fraction = 3
    bits: int = 128

    def __post_init__(self) -> None:
        if not _is_int(self.s) or self.s < 0:
            raise DomainError(f"s must be an integer >= 0, got {self.s!r}")
        if not _is_int(self.u) or self.u < 1:
            raise DomainError(f"u must be an integer >= 1, got {self.u!r}")
        v = exact_fraction(self.v, "v")
        if not v > 0:
            raise DomainError(f"v must be positive, got {self.v!r}")
        try:
            float(v)
        except OverflowError:
            raise DomainError(f"v must be below 2**1024, got {self.v!r}") from None
        object.__setattr__(self, "v", v.numerator if v.denominator == 1 else v)
        if not _is_int(self.bits) or self.bits < 8:
            raise DomainError(f"bits must be an integer >= 8, got {self.bits!r}")
        if self.bits > MAX_BITS:
            raise ResourceLimitError(f"bits={self.bits} exceeds maximum {MAX_BITS}")

    @property
    def acc_scale(self) -> int:
        """Accumulator scale: units of 2**-(bits + 80)."""
        return self.bits + 80


# bits of |sin n| beyond the accumulator scale (plus ceil(log2 n) for
# the cancellation in the reduction) at a term's first attempt
_SIN_MARGIN = 48
# most bits of m**u, the sine power a term forms at one attempt
_POWER_BITS = 2 * MAX_BITS


def _term_units(n: int, spec: SeriesSpec) -> tuple[int, int]:
    """(T, e): term(n) = T * 2**-A with |error| <= e * 2**-A, A = acc_scale.

    Deterministic in (n, spec) alone: _units with the spec's values and
    n's block formed for this one term.
    """
    iv, frac = divmod(spec.v, 1)
    return _units(n, clog2(max(n, 2)), None, spec.u, iv, frac, spec.acc_scale)


def _units(n: int, c: int, m: int | None, u: int, iv: int, frac: Fraction | int,
           acc: int) -> tuple[int, int]:
    """(T, e) of _term_units, from values that are fixed per spec or per block.

    u is the sine power, v = iv + frac with frac in [0, 1), acc the
    accumulator scale and c = clog2(max(n, 2)), which is the same for
    every n of a power-of-two block (2**(c-1), 2**c]; partial_sum forms
    them once per spec and per block.  The first working precision is
    w = acc + _SIN_MARGIN + c.

    m = round(|sin n| * 2**w) is exact, so its error is at most half an
    ulp and a radius of 1 covers it.  A caller may pass m for the first
    w (partial_sum takes it from abs_sin_walk); otherwise, and at every
    escalation, it comes from abs_sin_canonical.  The working precision
    starts high enough that the escalation loop is idle in practice, but
    it is there, and it never consults the surrounding summation context.

    For integer v (frac = 0) with iv <= acc, the first attempt has
    p_units, p_err, q = 1, 0, w, and partial_sum runs it inline: per block
    N << 1 = 2 << (acc + u*w), per term T from den_c = m**u * n**iv and the
    width test (T + 1)*u << 2 <= m.  A term calls _units only when m <= 1
    or that test fails, and then _units repeats the same attempt and goes
    on to _width_units or an escalation.  Any change to the first attempt
    here must be made there too.

    G(n)^(2s) and n^(2s) are not computed: G(n) = n, so they cancel, and
    T and e_units, a rounding and a ceiling of integer ratios, are the same
    without the common factor.  So s does not enter the work.

    A large integer part iv of v can make n**iv huge while the term rounds
    to 0.  So when iv > acc (a term of n >= 2 is then below 2**-acc
    unless sin n is tiny) n**iv is formed only after a test on bit
    lengths.  With bl(x) = x.bit_length(), x >= 2**(bl(x) - 1) for x >= 1,
    and m - 1 >= 1, p_units - p_err >= 1 past the escalation test,
    den_lo >= 2**(u*(bl(m-1) - 1) + iv*(bl(n) - 1) + bl(p_units - p_err) - 1).
    If that exponent is at least shift + 1, then den_c > den_lo >= 2N, so
    T = round_div(N, den_c) = 0, and 0 < N/den_lo - N/den_hi <= 1/2, so
    e_units = 3: the values the full formulas give.  Below the gate the
    test costs one comparison per attempt.

    The error width is 3 for nearly every term, and one test on T, m and
    the power ball proves it without den_lo, den_hi and a second
    division.  With a = N/den_c, T = round(a) gives a <= T + 1/2, and
    N/den_lo - N/den_hi = a * (A - B), where A = (1 - 1/m)**-u / (1 - k)
    and B = (1 + 1/m)**-u / (1 + k), k = p_err/p_units.  Let t = u/m + k.
    Bernoulli's inequality gives (1 - 1/m)**u >= 1 - u/m and
    (1 + 1/m)**-u >= 1 - u/m, so A <= 1/(1 - t) and B >= (1 - u/m)(1 - k)
    >= 1 - t.  The test 4(T + 1)(u*p_units + p_err*m) <= m*p_units says
    t <= 1/(4(T + 1)) <= 1/4, so A - B <= t/(1 - t) + t <= 7t/3, and
    0 < a * (A - B) <= (T + 1/2) * 7/(12(T + 1)) < 1: the ceiling is 1 and
    e_units = 3, what the exact formula gives.  Only terms with a tiny
    sin n fail the test and take the exact formula.

    A term far too large for its w skips the exact formula too.  A >= (1 -
    1/m)**-u >= 1 + u/m and B <= 1, so the width is at least (T - 1/2) *
    u/m, and (2T - 1) * u > m * 2**15 makes it exceed 2**14, which the
    exact formula would reject.  The next w is then taken at once.  The
    sine power m**u has u*w bits, so an attempt whose u*w exceeds
    _POWER_BITS raises ResourceLimitError before forming it.
    """
    w1 = acc + _SIN_MARGIN
    while True:
        w = w1 + c
        if w > MAX_BITS:
            raise ResourceLimitError(
                f"term(n={n}) escalated past the {MAX_BITS}-bit ceiling"
            )
        if u * w > _POWER_BITS:
            raise ResourceLimitError(
                f"term(n={n}) needs a sine power of {u * w} bits (max {_POWER_BITS})"
            )
        if m is None:
            m = abs_sin_canonical(n, w)
        # n**frac at 2**(q-w); n**0 = 1 is exact at q = w
        p_units, p_err, q = fx_pow(*fx_ln_int(n, w), frac, w) if frac else (1, 0, w)
        if m <= 1 or p_units <= p_err:
            w1, m = 2 * w1, None
            continue
        shift = acc + u * w + w - q
        if iv > acc and (u * ((m - 1).bit_length() - 1) + iv * (n.bit_length() - 1)
                         + (p_units - p_err).bit_length() > shift + 1):
            return 0, 3
        n_pow = n ** iv
        N = 1 << shift
        den_c = (m ** u) * n_pow * p_units
        T = ((N << 1) + den_c) // (den_c << 1)            # round_div(N, den_c)
        if (T + 1) * (u * p_units + p_err * m) << 2 <= m * p_units:
            return T, 3
        if (2 * T - 1) * u <= m << 15:
            e_units = _width_units(N, m, u, n_pow, p_units, p_err)
            if e_units <= 1 << 14:
                return T, e_units
        w1, m = 2 * w1, None


def _width_units(N: int, m: int, u: int, n_pow: int, p_units: int, p_err: int) -> int:
    """ceil(N/den_lo - N/den_hi) + 2 on integers: the exact error width of a
    term whose sine and power balls are m +- 1 and p_units +- p_err."""
    den_lo = ((m - 1) ** u) * n_pow * (p_units - p_err)
    den_hi = ((m + 1) ** u) * n_pow * (p_units + p_err)
    return -(-(N * (den_hi - den_lo)) // (den_lo * den_hi)) + 2


def term(n: int, spec: SeriesSpec) -> MpReal:
    """One positive term G(n)^(2s) / (|sin n|^u * n^(v+2s)), error-bounded."""
    if not _is_int(n) or n < 1:
        raise DomainError(f"term requires an integer n >= 1, got {n!r}")
    units, err = _term_units(n, spec)
    acc = spec.acc_scale
    return MpReal(units, -acc, Fraction(err, 1 << acc))


@dataclass(frozen=True)
class PartialSumResult:
    """Sum over n in [1, k] held as exact integer units of 2**-acc_scale."""

    spec: SeriesSpec
    k: int
    units: int
    err_units: int

    @property
    def value(self) -> MpReal:
        acc = self.spec.acc_scale
        return MpReal(self.units, -acc, self.err)

    @property
    def err(self) -> Fraction:
        return Fraction(self.err_units, 1 << self.spec.acc_scale)

    def value_fraction(self) -> Fraction:
        return Fraction(self.units, 1 << self.spec.acc_scale)


def partial_sum(k: int, spec: SeriesSpec,
                checkpoint: PartialSumResult | None = None) -> PartialSumResult:
    """Sum of term(n, spec) for n in (checkpoint.k, k], ascending.

    Resuming from a checkpoint is bit-identical to a fresh run: the
    accumulator is an exact integer and per-term units are independent
    of where the range was split.

    The sines come from abs_sin_walk, one power-of-two block of n at a
    time, and each term's (T, e) is _units' with that block's values.
    For integer v with iv <= acc (and w <= MAX_BITS, u*w <= _POWER_BITS)
    the loop body is _units' first attempt, inline and line for line: if
    m > 1, it forms T and takes e = 3 when the width test proves it.
    Every other term, and every term of a fractional v or of iv > acc,
    calls _units, which owns the exact width and every escalation.
    """
    if not _is_int(k) or k < 1:
        raise DomainError(f"partial_sum requires an integer k >= 1, got {k!r}")
    start = 1
    units = 0
    err_units = 0
    if checkpoint is not None:
        if checkpoint.spec != spec:
            raise CheckpointMismatchError(
                f"checkpoint parameters {checkpoint.spec} do not match requested {spec}"
            )
        if checkpoint.k >= k:
            raise CheckpointMismatchError(
                f"checkpoint already covers k={checkpoint.k}, requested k={k}"
            )
        start = checkpoint.k + 1
        units = checkpoint.units
        err_units = checkpoint.err_units
    acc, u = spec.acc_scale, spec.u
    iv, frac = divmod(spec.v, 1)
    walk = abs_sin_walk(start, k, acc + _SIN_MARGIN)
    lo = start
    while lo <= k:
        c = clog2(max(lo, 2))
        hi = min(k, 1 << c)                 # the block of n with clog2(max(n, 2)) = c
        w = acc + _SIN_MARGIN + c
        inline = not frac and iv <= acc and w <= MAX_BITS and u * w <= _POWER_BITS
        if inline:
            N2 = 2 << (acc + u * w)         # _units' N << 1 at p_units, p_err, q = 1, 0, w
        for n, m in zip(range(lo, hi + 1), walk):
            if inline and m > 1:
                den = m ** u * n ** iv
                T = (N2 + den) // (den << 1)
                if (T + 1) * u << 2 <= m:
                    units += T
                    err_units += 3
                    continue
            t, e = _units(n, c, m, u, iv, frac, acc)
            units += t
            err_units += e
        lo = hi + 1
    return PartialSumResult(spec, k, units, err_units)


# --------------------------------------------------------------------------
# checkpoint files
# --------------------------------------------------------------------------

def save_checkpoint(result: PartialSumResult, path: str) -> None:
    """Write result as JSON, version 2: v is an exact string such as "21/10"."""
    acc = result.spec.acc_scale
    doc = {
        "version": 2,
        "spec": {
            "s": result.spec.s,
            "u": result.spec.u,
            "v": str(result.spec.v),
            "bits": result.spec.bits,
        },
        "k": result.k,
        "value": exact_decimal(Fraction(result.units, 1 << acc)),
        "err": exact_decimal(Fraction(result.err_units, 1 << acc)),
    }
    # write beside the target, then rename over it: a failed or
    # interrupted save leaves the previous checkpoint intact
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _decimal_to_units(text: str, acc: int, what: str) -> int:
    try:
        frac = Fraction(Decimal(text))
    except Exception as exc:
        raise CheckpointMismatchError(f"checkpoint {what} is not a decimal: {text!r}") from exc
    scaled = frac * (1 << acc)
    if scaled.denominator != 1:
        raise CheckpointMismatchError(
            f"checkpoint {what} does not sit on the 2**-{acc} grid"
        )
    return scaled.numerator


def load_checkpoint(path: str) -> PartialSumResult:
    """Read a save_checkpoint file.

    Version 1 files stored v as a JSON number; a float v is read at its
    exact binary value, the v those runs summed with.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read checkpoint {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    version = doc.get("version") if isinstance(doc, dict) else None
    if isinstance(version, bool) or version not in (1, 2):
        raise CheckpointMismatchError(f"checkpoint {path}: unsupported version {version!r}")
    try:
        raw = doc["spec"]
        for name in ("s", "u", "bits"):
            if isinstance(raw[name], bool):
                raise CheckpointMismatchError(f"checkpoint {path}: bad {name}={raw[name]!r}")
        v = raw["v"]
        if isinstance(v, str) != (version == 2):
            raise CheckpointMismatchError(
                f"checkpoint {path}: v={v!r} is not a version {version} value"
            )
        spec = SeriesSpec(s=raw["s"], u=raw["u"], v=v, bits=raw["bits"])
        k = doc["k"]
        value_text = doc["value"]
        err_text = doc["err"]
    except (KeyError, TypeError) as exc:
        raise UsageError(f"checkpoint {path} is missing fields: {exc}") from exc
    if not _is_int(k) or k < 1:
        raise CheckpointMismatchError(f"checkpoint {path}: bad k={k!r}")
    acc = spec.acc_scale
    units = _decimal_to_units(value_text, acc, "value")
    err_units = _decimal_to_units(err_text, acc, "err")
    if units < 0 or err_units < 0:
        raise CheckpointMismatchError(f"checkpoint {path}: negative accumulator")
    return PartialSumResult(spec, k, units, err_units)


# --------------------------------------------------------------------------
# the s-family comparison
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class EquivalenceRow:
    s: int
    value: MpReal
    err: Fraction
    delta_vs_s0: Fraction


def equivalence_experiment(k: int, s_max: int, bits: int = 128) -> list[EquivalenceRow]:
    """Partial sums S_s(k) for s = 0..s_max with exact |S_s - S_0| deltas.

    With G(n) = n the summands are algebraically identical for every s,
    so the deltas measure pure rounding; they are bounded by
    err_s + err_0 whenever both error budgets are honest.
    """
    if not (_is_int(k) and _is_int(s_max)) or k < 1 or s_max < 1:
        raise DomainError(f"need integers k >= 1 and s_max >= 1, got k={k!r}, s_max={s_max!r}")
    results = [partial_sum(k, SeriesSpec(s=s, u=2, v=3, bits=bits))
               for s in range(s_max + 1)]
    base = results[0]
    rows = []
    for r in results:
        delta = Fraction(abs(r.units - base.units), 1 << r.spec.acc_scale)
        rows.append(EquivalenceRow(r.spec.s, r.value, r.err, delta))
    return rows
