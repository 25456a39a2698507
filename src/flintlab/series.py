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
from decimal import Decimal
from fractions import Fraction

from .errors import CheckpointMismatchError, DomainError, ResourceLimitError, UsageError
from .mpreal import (
    MAX_BITS,
    MpReal,
    _Frozen,
    _ball,
    _is_int,
    _require_bits,
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


class SeriesSpec(_Frozen):
    """Parameters of one family member: depth s, sine power u, n-power v.

    v is exact: it may be given as anything exact_fraction accepts (so
    "2.1" is 21/10, and a float is its binary value) and is stored as an
    int when integral, else as a Fraction.  It must be positive and no
    larger than a float can hold, since outputs report it as a float.
    """

    __slots__ = _fields = ("s", "u", "v", "bits")
    s: int
    u: int
    v: int | Fraction
    bits: int

    def __init__(self, s: int = 0, u: int = 2, v: int | Fraction = 3, bits: int = 128) -> None:
        if not _is_int(s) or s < 0:
            raise DomainError(f"s must be an integer >= 0, got {s!r}")
        if not _is_int(u) or u < 1:
            raise DomainError(f"u must be an integer >= 1, got {u!r}")
        exact = exact_fraction(v, "v")
        if not exact > 0:
            raise DomainError(f"v must be positive, got {v!r}")
        try:
            float(exact)
        except OverflowError:
            raise DomainError(f"v must be below 2**1024, got {v!r}") from None
        _require_bits(bits)
        self._init(s, u, exact.numerator if exact.denominator == 1 else exact, bits)

    @property
    def acc_scale(self) -> int:
        """Accumulator scale: units of 2**-(bits + 80)."""
        return self.bits + 80


# bits of |sin n| beyond the accumulator scale (plus ceil(log2 n) for
# the cancellation in the reduction) at a term's first attempt
_SIN_MARGIN = 48
# most bits of m**u, the sine power a term forms at one attempt
_POWER_BITS = 2 * MAX_BITS


def _term_units(n: int, spec: SeriesSpec) -> int:
    """T: term(n) = T * 2**-A within 3 * 2**-A, A = acc_scale.

    Deterministic in (n, spec) alone: _units with the spec's values and
    n's block formed for this one term.
    """
    iv, frac = divmod(spec.v, 1)
    return _units(n, clog2(max(n, 2)), None, spec.u, iv, frac, spec.acc_scale, 0)


def _units(n: int, c: int, m: int | None, u: int, iv: int, frac: Fraction | int,
           acc: int, short: int) -> int:
    """T of _term_units, from values that are fixed per spec or per block.

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
    or that test fails.  When it fails, partial_sum passes its shortfall
    R >= 1 (defined below) as short, with m = None: _units skips the
    attempt already made and starts at the w that R escalates to, so the
    attempts, and T, are those of a call with short = 0.  Any change to
    the first attempt here must be made there too.

    G(n)^(2s) and n^(2s) are not computed: G(n) = n, so they cancel, and
    T, a rounding of an integer ratio, is the same without the common
    factor.  So s does not enter the work.

    The error is 3 units, and the width test proves it.  With the sine
    and power balls m +- 1 and p_units +- p_err, the term times 2**acc
    lies between N/den_hi and N/den_lo, where den_lo and den_hi are den_c
    with m - 1, p_units - p_err and m + 1, p_units + p_err; so does a =
    N/den_c, and T = round(a) gives |a - T| <= 1/2.  N/den_lo - N/den_hi
    = a * (A - B), where A = (1 - 1/m)**-u / (1 - k) and B = (1 + 1/m)**-u
    / (1 + k), k = p_err/p_units.  Let t = u/m + k.  Bernoulli's
    inequality gives (1 - 1/m)**u >= 1 - u/m and (1 + 1/m)**-u >= 1 -
    u/m, so A <= 1/(1 - t) and B >= (1 - u/m)(1 - k) >= 1 - t.  The test
    4(T + 1)(u*p_units + p_err*m) <= m*p_units says t <= 1/(4(T + 1)) <=
    1/4, so A - B <= t/(1 - t) + t <= 7t/3, and N/den_lo - N/den_hi <= (T
    + 1/2) * 7/(12(T + 1)) < 1.  So |term * 2**acc - T| < 3/2 <= 3.

    A term that fails the test is retried at a higher w, and every
    attempt runs the test again, so the next w affects only how many
    attempts a term takes, never its bound.  Raising w by d multiplies m
    and p_units by about 2**d and leaves T and p_err about the same, so t
    shrinks by about 2**d.  With R = floor(4(T + 1)(u*p_units + p_err*m)
    / (m*p_units)) >= 1, the shortfall of the failed test, the next
    attempt adds R.bit_length() + 2 to w.  Where there is no T to measure
    (m <= 1, or p_units <= p_err) w - c doubles instead.  The sine power
    m**u has u*w bits, so an attempt whose u*w exceeds _POWER_BITS raises
    ResourceLimitError before it takes the sine.

    A large integer part iv of v can make n**iv huge while the term rounds
    to 0.  So when iv > acc (a term of n >= 2 is then below 2**-acc
    unless sin n is tiny) n**iv is formed only after a test on bit
    lengths.  With bl(x) = x.bit_length(), x >= 2**(bl(x) - 1) for x >= 1,
    and m - 1 >= 1, p_units - p_err >= 1 past the escalation test,
    den_lo >= 2**(u*(bl(m-1) - 1) + iv*(bl(n) - 1) + bl(p_units - p_err) - 1).
    If that exponent is at least shift + 1, then den_c > den_lo >= 2N, so
    T = round_div(N, den_c) = 0 and the term times 2**acc lies in [0,
    N/den_lo] with N/den_lo <= 1/2: within 3 units of T.  Below the gate
    the test costs one comparison per attempt.
    """
    w1 = acc + _SIN_MARGIN
    while True:
        if short:
            w1, m, short = w1 + short.bit_length() + 2, None, 0
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
            return 0
        N = 1 << shift
        den_c = (m ** u) * n ** iv * p_units
        T = ((N << 1) + den_c) // (den_c << 1)            # round_div(N, den_c)
        need, have = (T + 1) * (u * p_units + p_err * m) << 2, m * p_units
        if need <= have:
            return T
        short = need // have


def term(n: int, spec: SeriesSpec) -> MpReal:
    """One positive term G(n)^(2s) / (|sin n|^u * n^(v+2s)), within 3 units
    of 2**-acc_scale (_units proves the bound)."""
    if not _is_int(n) or n < 1:
        raise DomainError(f"term requires an integer n >= 1, got {n!r}")
    acc = spec.acc_scale
    return _ball(_term_units(n, spec), -acc, 3, 1 << acc)


class PartialSumResult(_Frozen):
    """Sum over n in [1, k] held as exact integer units of 2**-acc_scale."""

    __slots__ = _fields = ("spec", "k", "units", "err_units")
    spec: SeriesSpec
    k: int
    units: int
    err_units: int

    @property
    def value(self) -> MpReal:
        acc = self.spec.acc_scale
        return _ball(self.units, -acc, self.err_units, 1 << acc)

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

    The sines come from abs_sin_walk, one block (n0, ms) at a time.  A
    block crosses no power of two, so c, w, N << 1 and whether the first
    attempt runs inline are formed once per block, and each term's T is
    _units' with those values.  For integer v with iv <= acc (and w <=
    MAX_BITS, u*w <= _POWER_BITS) the loop over ms is _units' first
    attempt, inline and line for line: if m > 1, it forms T and keeps it
    when the width test passes, and when the test fails it hands _units
    the shortfall, so _units goes on from the next w.  Every other term
    (m <= 1), and every term of a fractional v or of iv > acc, calls
    _units with m, and _units owns every escalation.

    Every term is within 3 units, so the run adds 3 * (k - checkpoint.k)
    units to the checkpoint's err_units, which is carried over as stored.
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
    for n0, ms in abs_sin_walk(start, k, acc + _SIN_MARGIN):
        c = clog2(max(n0, 2))               # the same for every n of the block
        w = acc + _SIN_MARGIN + c
        if frac or iv > acc or w > MAX_BITS or u * w > _POWER_BITS:
            for n, m in enumerate(ms, n0):
                units += _units(n, c, m, u, iv, frac, acc, 0)
            continue
        N2 = 2 << (acc + u * w)             # _units' N << 1 at p_units, p_err, q = 1, 0, w
        for n, m in enumerate(ms, n0):
            if m > 1:
                den = m ** u * n ** iv
                T = (N2 + den) // (den << 1)
                need = (T + 1) * u << 2
                if need <= m:
                    units += T
                else:
                    units += _units(n, c, None, u, iv, frac, acc, need // m)
            else:
                units += _units(n, c, m, u, iv, frac, acc, 0)
    return PartialSumResult(spec, k, units, err_units + 3 * (k - start + 1))


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

class EquivalenceRow(_Frozen):
    __slots__ = _fields = ("s", "value", "err", "delta_vs_s0")
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
