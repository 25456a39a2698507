"""The four benchmark workloads, their inputs and their output checks.

Every workload is a closed loop: one operation runs to completion before
the next starts.  ``op`` is the timed part.  ``verify`` checks one
output against a reference that shares no code with flintlab; later
outputs only have to equal the verified one, because every operation
of a run does identical work.

Sizes are cut down from the whole-range figures (n up to 1e5, 50 000
bits) so that one operation takes 0.4-1.3 s on a 2-CPU machine and a
20 s run holds 15-40 of them; each workload keeps the property it is
there for (see README.md).
"""

from __future__ import annotations

import importlib
import json
import math
import os
import random
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
OUT = HERE / "out"
SUM_REFERENCE = HERE / "data" / "sum_reference.json"
PI_FIXTURE = TESTS / "data" / "pi_1000.txt"

SUM_SPEC = (0, 2, 3, 128)           # s, u, v, bits: the classical series
SUM_TERMS = 8192
SUM_BLOCKS = 8

SCAN_CHUNK = 4096                   # criterion's fixed chunk width
SCAN_SPAN = 8 * SCAN_CHUNK
SCAN_S, SCAN_EPS, SCAN_THREADS = 1, "0.1", 2
# The seeded shift stays below 355, so every window holds the same
# violators 355, 710, ..., 3905 (multiples of a convergent numerator)
# and the same cost per index.
SCAN_MAX_SHIFT = 300
SCAN_SEED0_PREFIX = [1, 3, 22, 44, 355, 710]

SPIKES_N_MAX, SPIKES_BITS = 12_000, 64

# Below 4300 printed digits: longer output crashes at the seed commit.
PI_BITS, PI_DIGITS, CF_COUNT = 20_000, 4000, 4800
PI_ARGS = ["pi", "--bits", str(PI_BITS), "--digits", str(PI_DIGITS), "--format", "json"]
CF_ARGS = ["cf", "--bits", str(PI_BITS), "--count", str(CF_COUNT), "--format", "json"]
CF_PREFIX = [3, 7, 15, 1, 292]
CLI_TIMEOUT_S = 120

fl = None   # namespace of flintlab modules, filled by load_flintlab()


def load_flintlab():
    """Import flintlab from the checkout's src/ (not from site-packages)."""
    global fl
    if fl is None:
        sys.path.insert(0, str(SRC))
        fl = SimpleNamespace(**{short: importlib.import_module(f"flintlab.{short}")
                                for short in ("mpreal", "series", "criterion", "rationality")})
    return fl


def flintlab_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def width_classes(lo: int, hi: int) -> list[int]:
    """One n per value of ceil(log2 n) in [lo, hi].

    Working precisions in flintlab depend on n only through ceil(log2 n),
    so touching one n per class fills the constant caches a whole range
    needs.
    """
    picks = {lo, hi}
    for c in range((lo - 1).bit_length(), (hi - 1).bit_length() + 1):
        for n in (1 << c, (1 << c) + 1):
            if lo <= n <= hi:
                picks.add(n)
    return sorted(picks)


def oracles():
    """tests/oracles.py, imported read-only; it does not import flintlab."""
    if str(TESTS) not in sys.path:
        sys.path.insert(0, str(TESTS))
    return importlib.import_module("oracles")


def fixture_pi() -> tuple[str, Fraction, Fraction]:
    """(digit string, value, half-width) of the committed 1000-digit fixture.

    The last digit may be rounded, so the half-width is one unit in the
    last place.
    """
    text = PI_FIXTURE.read_text().strip()
    frac_digits = len(text.partition(".")[2])
    return text, Fraction(Decimal(text)), Fraction(1, 10 ** frac_digits)


def stable_cf(lo: Fraction, hi: Fraction) -> list[int]:
    """Partial quotients shared by every number in [lo, hi]."""
    terms = []
    while True:
        a, b = lo.numerator // lo.denominator, hi.numerator // hi.denominator
        if a != b or lo == a or hi == b:
            return terms
        terms.append(a)
        lo, hi = 1 / (hi - a), 1 / (lo - a)


def fixture_pi_cf() -> list[int]:
    _, x, e = fixture_pi()
    return stable_cf(x - e, x + e)


def bits_of(err: Fraction) -> float:
    """-log2(err) for an error bound err > 0."""
    return -(math.log2(err.numerator) - math.log2(err.denominator))


class Workload:
    """One benchmark workload; subclasses fill in the operation and checks."""

    name = ""
    in_process = True       # False: the operation runs the CLI in child processes
    item_layer = ""         # layer whose calls each handle one item, if any
    trace_config_differs = False

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.items = 0

    def setup(self) -> None:
        """Import flintlab and fill its caches for this workload's inputs."""

    def op(self, tracer=None):
        raise NotImplementedError

    def key(self, output):
        """Comparable form of an output; equal keys mean equal outputs."""
        return output

    def verify(self, output) -> list[str]:
        """Problems found by checking one output independently."""
        raise NotImplementedError

    def cert_bits(self, output) -> float:
        raise NotImplementedError

    def refinements(self) -> int:
        return load_flintlab().mpreal.PI_CACHE.refinements

    def slowdown(self) -> float:
        """The machine's momentary slowdown, measured with the reference
        loop that matches an operation's shape."""
        return reference.slowdown()

    def use_trace_config(self) -> None:
        """Switch to the configuration the traced pass runs."""

    def describe(self) -> dict:
        return {}


class SumWorkload(Workload):
    """partial_sum over 1..SUM_TERMS in checkpointed blocks."""

    name = "sum"
    item_layer = "series.partial_sum"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.items = SUM_TERMS
        if seed == 0:
            self.ends = [SUM_TERMS * i // SUM_BLOCKS for i in range(1, SUM_BLOCKS + 1)]
        else:
            cuts = random.Random(seed).sample(range(64, SUM_TERMS - 63), SUM_BLOCKS - 1)
            self.ends = sorted(cuts) + [SUM_TERMS]
        self.path = OUT / "sum-checkpoint.json"
        self.op_bytes = 0

    def describe(self) -> dict:
        return {"terms": SUM_TERMS, "spec": SUM_SPEC, "block_ends": self.ends}

    def setup(self) -> None:
        series = load_flintlab().series
        self.spec = series.SeriesSpec(*SUM_SPEC)
        for n in width_classes(1, SUM_TERMS):
            series.term(n, self.spec)

    def op(self, tracer=None):
        series = fl.series
        states = []
        written = 0
        for end in self.ends:
            resume = series.load_checkpoint(str(self.path)) if states else None
            result = series.partial_sum(end, self.spec, checkpoint=resume)
            series.save_checkpoint(result, str(self.path))
            written += self.path.stat().st_size
            states.append(result)
        self.op_bytes = written
        return tuple(states)

    def verify(self, states) -> list[str]:
        problems = []
        final = states[-1]
        ref = json.loads(SUM_REFERENCE.read_text())
        if (ref["k"], ref["s"], ref["u"], ref["v"]) != (SUM_TERMS,) + SUM_SPEC[:3]:
            return [f"{SUM_REFERENCE.name} is for another series or range"]
        value = Fraction(Decimal(ref["value"]))
        slack = final.err + Fraction(Decimal(ref["err"]))
        if final.k != SUM_TERMS or abs(final.value_fraction() - value) > slack:
            problems.append(f"S({SUM_TERMS}) ball misses the frozen reference")
        # a straight run over a prefix that includes one resume
        straight = fl.series.partial_sum(self.ends[1], self.spec)
        if straight != states[1]:
            problems.append(f"checkpointed sum over 1..{self.ends[1]} differs "
                            "from one straight partial_sum")
        return problems

    def cert_bits(self, states) -> float:
        return bits_of(states[-1].err)


def violates(n: int, eps: Fraction, sin_approx: Fraction, sin_err: Fraction) -> bool | None:
    """Whether sin^2(n) * n^(2-eps) < 1, decided exactly from a sine interval.

    With G(n) = n and s = 1 this is the violation of
    G(n)^2 <= sin^2(n) * n^(4-eps).  For eps = p/q both sides are raised
    to the power q.  None when the interval cannot decide.
    """
    p, q = eps.numerator, eps.denominator
    lo, hi = abs(sin_approx) - sin_err, abs(sin_approx) + sin_err
    n_pow = n ** (2 * q - p)
    if (hi * hi) ** q * n_pow < 1:
        return True
    if lo > 0 and (lo * lo) ** q * n_pow > 1:
        return False
    return None


def independent_violators(lo: int, hi: int, eps: Fraction) -> list[int]:
    """Indices in [lo, hi] violating the s = 1 criterion, without flintlab.

    Screens with libm's sine (error below 1 ulp), where the log margin
    2 ln|sin n| + (2 - eps) ln n is off by less than 1e-9 for n < 1e6;
    every index within 1e-6 of the threshold is decided exactly by the
    Fraction Taylor sine of tests/oracles.py.
    """
    sin_by_reduction = oracles().sin_by_reduction
    c = float(2 - eps)
    out = []
    for n in range(lo, hi + 1):
        margin = 2 * math.log(abs(math.sin(n))) + c * math.log(n)
        if abs(margin) < 1e-6:
            verdict = violates(n, eps, *sin_by_reduction(n))
            if verdict is None:
                raise RuntimeError(f"oracle cannot decide the criterion at n={n}")
            if verdict:
                out.append(n)
        elif margin < 0:
            out.append(n)
    return out


class ScanWorkload(Workload):
    """scan_criterion over a seeded window on a 2-process pool."""

    name = "scan"
    item_layer = "criterion.scan"
    trace_config_differs = True

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        shift = 0 if seed == 0 else random.Random(seed).randrange(1, SCAN_MAX_SHIFT + 1)
        self.lo, self.hi = 1 + shift, SCAN_SPAN + shift
        self.items = SCAN_SPAN
        self.threads = SCAN_THREADS

    def describe(self) -> dict:
        return {"window": [self.lo, self.hi], "s": SCAN_S, "eps": SCAN_EPS,
                "threads": self.threads}

    def setup(self) -> None:
        criterion = load_flintlab().criterion
        for n in width_classes(self.lo, self.hi):
            criterion.check_criterion(n, SCAN_S, SCAN_EPS)

    def use_trace_config(self) -> None:
        self.threads = 1        # spans cannot come back from pool workers

    def slowdown(self) -> float:
        return reference.slowdown(self.threads)

    def op(self, tracer=None):
        return fl.criterion.scan_criterion((self.lo, self.hi), SCAN_S, SCAN_EPS,
                                           threads=self.threads)

    def key(self, result):
        return (tuple(sorted(result.summary.items())),
                tuple((r.n, r.satisfied, r.margin, r.rhs.man, r.rhs.exp, r.rhs.err)
                      for r in result.violations))

    def verify(self, result) -> list[str]:
        problems = []
        found = [r.n for r in result.violations]
        if result.summary.get("checked") != self.items:
            problems.append(f"scan checked {result.summary.get('checked')} "
                            f"indices, expected {self.items}")
        if any(r.satisfied for r in result.violations):
            problems.append("a reported violation is marked satisfied")
        expected = independent_violators(self.lo, self.hi, Fraction(SCAN_EPS))
        if found != expected:
            problems.append(f"violators {found} differ from the independent {expected}")
        if self.lo == 1 and found[:len(SCAN_SEED0_PREFIX)] != SCAN_SEED0_PREFIX:
            problems.append(f"violators start {found[:6]}, expected {SCAN_SEED0_PREFIX}")
        return problems

    def cert_bits(self, result) -> float:
        return min(bits_of(r.rhs.err) for r in result.violations)


class SpikesWorkload(Workload):
    """spike_indices(SPIKES_N_MAX): one certified sine per n."""

    name = "spikes"
    item_layer = "rationality.spike_loop"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.items = SPIKES_N_MAX

    def describe(self) -> dict:
        return {"n_max": SPIKES_N_MAX, "bits": SPIKES_BITS}

    def setup(self) -> None:
        rationality = load_flintlab().rationality
        for n in width_classes(2, SPIKES_N_MAX):
            rationality.sin_int(n, SPIKES_BITS)
            rationality.local_exponent(n, SPIKES_BITS)
        rationality.convergent_numerators_up_to(SPIKES_N_MAX)

    def op(self, tracer=None):
        return fl.rationality.spike_indices(SPIKES_N_MAX, SPIKES_BITS)

    def key(self, records):
        return tuple((r.n, r.abs_sin.man, r.abs_sin.exp, r.abs_sin.err, r.lam,
                      r.is_convergent_numerator) for r in records)

    def verify(self, records) -> list[str]:
        problems = []
        numerators, p_prev, p = [], 0, 1
        for a in fixture_pi_cf():
            p_prev, p = p, a * p + p_prev
            if p > SPIKES_N_MAX:
                break
            numerators.append(p)
        else:
            return ["the pi fixture is too short to list the convergents"]
        found = [r.n for r in records]
        if found != [1] + numerators:
            problems.append(f"spikes {found}, expected 1 and the convergent "
                            f"numerators {numerators}")
        sin_by_reduction = oracles().sin_by_reduction
        for r in records:
            approx, err = sin_by_reduction(r.n)
            if abs(abs(approx) - r.abs_sin.center()) > err + r.abs_sin.err:
                problems.append(f"|sin {r.n}| ball misses the oracle value")
            if r.is_convergent_numerator != (r.n in numerators):
                problems.append(f"n={r.n} has the wrong convergent flag")
        return problems

    def cert_bits(self, records) -> float:
        return min(bits_of(r.abs_sin.err) for r in records)


class PiWorkload(Workload):
    """A cold `flintlab pi` then a cold `flintlab cf`, each a fresh interpreter."""

    name = "pi"
    in_process = False

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.items = 2
        self.child_refinements = 0

    def describe(self) -> dict:
        return {"commands": [PI_ARGS, CF_ARGS]}

    def refinements(self) -> int:
        return self.child_refinements

    def slowdown(self) -> float:
        return reference.cold_slowdown()

    def op(self, tracer=None):
        outputs = []
        for argv in (PI_ARGS, CF_ARGS):
            if tracer is None:
                cmd = [sys.executable, "-m", "flintlab"] + argv
            else:
                spans = OUT / "pi-child-spans.json"
                cmd = [sys.executable, str(HERE / "cli_entry.py"), str(spans), "--"] + argv
            launched = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, env=flintlab_env(),
                                  timeout=CLI_TIMEOUT_S, cwd=ROOT)
            outputs.append((proc.returncode, proc.stdout, proc.stderr))
            if tracer is not None:
                doc = json.loads(spans.read_text())
                tracer.merge(doc)
                tracer.add_span("cli.startup", launched, doc["main_entered"])
                self.child_refinements += doc["refinements"]
        return tuple(outputs)

    def verify(self, outputs) -> list[str]:
        problems = []
        for rc, out, err in outputs:
            if rc != 0 or err:
                problems.append(f"exit code {rc}, stderr {err[:200]!r}")
        if problems:
            return problems
        pi_doc, cf_doc = (json.loads(out) for _, out, _ in outputs)
        text, _, _ = fixture_pi()
        ours = pi_doc["value"].partition(".")[2]
        theirs = text.partition(".")[2]
        if len(ours) != PI_DIGITS:
            problems.append(f"pi has {len(ours)} digits, expected {PI_DIGITS}")
        # the fixture's last digit may be rounded
        if ours[:len(theirs) - 1] != theirs[:-1]:
            problems.append("pi digits disagree with tests/data/pi_1000.txt")
        terms = cf_doc["terms"]
        if terms[:len(CF_PREFIX)] != CF_PREFIX:
            problems.append(f"cf starts {terms[:6]}")
        ref = fixture_pi_cf()
        if terms[:len(ref)] != ref:
            problems.append("cf terms disagree with the pi fixture's expansion")
        if len(terms) != CF_COUNT or cf_doc["exhausted"]:
            problems.append(f"cf gave {len(terms)} terms, exhausted={cf_doc['exhausted']}")
        return problems

    def cert_bits(self, outputs) -> float:
        doc = json.loads(outputs[0][1])
        return bits_of(Fraction(Decimal(doc["err"])))


WORKLOADS = {cls.name: cls for cls in
             (SumWorkload, ScanWorkload, SpikesWorkload, PiWorkload)}
