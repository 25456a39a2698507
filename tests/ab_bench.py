"""A/B timing of one suite of operations on one or more trees.

Usage: python tests/ab_bench.py SUITE [--runs N] LABEL=SRC_DIR [LABEL=SRC_DIR ...]

Each SRC_DIR is the ``src`` directory of a checkout, for instance
``before=../parent/src after=src``.  Every run starts one fresh interpreter
per tree with PYTHONPATH=SRC_DIR; the trees take turns within every run, and
alternate which goes first, so they share the machine's drift.  Each
interpreter runs the suite's untimed warm-up, then times every operation
once: wall seconds with ``time.perf_counter``; CPU seconds as
``time.process_time`` plus the time of the children it waited for
(``RUSAGE_CHILDREN``), so scan pool workers and cold CLI calls count; and
parent CPU seconds, ``time.process_time`` alone, which on a pooled scan is
the parent's share: cutting pieces, starting workers, unpickling their
results and building reports.  Each output is digested after the clocks
stop.  One more, untimed, interpreter per tree gives the suite's counts.

``sum``: warm-up ``partial_sum(5000)``; operations, at 128 bits:

* ``sum_1e5``: ``partial_sum(100000)`` of the classical series;
* ``blocks_8192``: the benchmark's ``sum`` operation (perfbench/workloads.py,
  seed 0): n = 1..8192 in 8 blocks of 1024, each resumed with
  ``load_checkpoint`` and written with ``save_checkpoint``;
* ``sum_u4_v1``: ``partial_sum(110000, SeriesSpec(u=4, v=1))``, whose tiny
  sines near 355 and 103993 fall below their block's floor;
* ``term_u5000``: ``term(1, SeriesSpec(u=5000))``, a sine power that
  escalates;
* ``fail_u20000``: ``partial_sum(3, SeriesSpec(u=20000))``, which raises
  ``ResourceLimitError``.

Output (units, err_units) of a sum, (man, exp, err) of a term, the error's
type name of a failure.  Counts: per sum, its terms, the terms that called
``series._units`` (for integer v, those whose walked sine lies below their
block's floor ``m_lo``, as ``partial_sum`` forms every other T inline) and
the walk's fallbacks to ``mpreal.abs_sin_canonical``; per sine-power
operation, its calls of ``series.abs_sin_canonical``, one per attempt whose
sine the walk did not supply.

``scan``: warm-up one ``scan_op`` call; every scan below at threads 1 and 2
(``<name>@<threads>``).  At threads 2 a round with more than one piece of
candidates runs on a process pool, whose start-up is timed.

* ``scan_op``: the benchmark's ``scan`` operation (seed 0, run there at
  threads 2): n = 1..32768, s = 1, eps = 0.1, 17 or fewer candidates and
  no pool; timed over SCAN_REPEAT calls, as one call takes a few ms;
* ``dense``: n = 1..1e5, s = 1, eps = 1.5, about 5000 candidates;
* ``dense_19``: n = 1..1e5, s = 1, eps = 1.9, about 41000 candidates,
  whose windows span several n around each multiple of pi;
* ``mixed``: n = 1..1e5, s = 1, eps = 1, a few hundred candidates;
* ``mixed_1e6``: n = 1..1e6, s = 1, eps = 1.3, about 9000 candidates;
* ``far``: n = 1..1e40, s = 1, eps = 0.1, about 1800 candidates;
* ``far_1e60``: n = 1..1e60, s = 1, eps = 0.1, about 18000 candidates,
  12746 violators;
* ``far_1e400``: n = 1e399..1e400, s = 1, eps = 0.01, 143 violators, past
  the float range: its items per second print as an integer;
* ``far_1e300``: n = 1..1e300, s = 1, eps = 0.01, 4083 violators, whose
  listing made 3352 descents on 2058-bit residues before it walked.

Output ``scan_paths.scan_key``, taken after the clocks stop, as it reads
every violator's ``rhs`` ball, which the CLI never prints and a report
builds on each read.  Counts, per scan at threads 1 (the n decided
do not depend on threads): the calls of ``criterion._decided_kernel``, the
distinct n they decide, the calls of ``criterion._first_hit`` (the
descents of the window listing's walks), the calls of ``criterion.fx_ln_int`` and
the sum of their working bits, the violators.

``spikes``: warm-up one ``spikes_op`` call; operations:

* ``spikes_op``: the benchmark's ``spikes`` operation, ``spike_indices(12000,
  64)``, timed over SPIKES_REPEAT calls, as one call takes well under a ms;
  its items are n, as the benchmark counts them;
* ``deep_100``: ``spike_indices(10**100, 512)``, one call, one item;
* ``deep_300``: ``spike_indices(10**300, 2048)``, one call, one item;
* ``deep_1000``: ``spike_indices(10**1000, 64)``, one call, one item, 1947
  records whose n reach 3322 bits.

Output (n, abs_sin man/exp/err, lambda) per record.  Counts, per operation
(one call): the quotients that ``convergent_numerators_up_to`` requests from
``cf_terms``, the calls of ``fx_ln_int`` and the sum of their working bits,
the calls of ``fx_atanh``, the records.

``cold``: the commands of the benchmark's ``pi`` workload, ``pi --bits 20000
--digits 4000`` and ``cf --bits 20000 --count 4800`` in JSON, each a fresh
``python -m flintlab`` in one of two bytecode states
(``<state>/<command>``).  ``source`` points PYTHONPYCACHEPREFIX at an empty
directory that PYTHONDONTWRITEBYTECODE=1 keeps empty, so every module a call
imports, the standard library's too, is compiled from source (an empty
PYTHONPYCACHEPREFIX would be ignored, and the ``__pycache__`` beside the
sources read).  ``cached`` points it at a directory that the warm-up, one
untimed call per command, fills.  Output the call's stdout.  Counts: per
operation, the median over IMPORTTIME_CALLS calls under ``-X importtime`` of
each flintlab module's self import microseconds.

``render``: warm-up ``compute_pi(b)`` at both sizes, so the constant is
cached; operations ``decimal_2e4`` and ``decimal_3e5``, each
``compute_pi(b).decimal()`` in-process at b = 20000 and 300000 bits.  Output
the string.  Counts: per operation, the characters printed.

Prints one JSON document: the machine (CPU count, Python version); the
operations and the items each covers; whether every tree gave the same
outputs; per tree its counts and, per operation, the median and quartiles of
wall, CPU and parent CPU seconds and the items per wall second at the median.
Exits 1 if the trees' outputs differ.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from typing import Callable, NamedTuple


class Suite(NamedTuple):
    operations: dict      # name -> items that one timing covers
    warm: Callable        # (tmp) -> None, untimed
    run: Callable         # (name, tmp) -> output
    counts: Callable      # (tmp) -> JSON-able counts
    key: Callable = repr  # output -> the text digested, after the clocks stop


def recording(module, name: str, arg: int = 0) -> list:
    """Wrap module.name so that each call appends its argument `arg` to the list returned."""
    calls, inner = [], getattr(module, name)

    def wrapper(*args):
        calls.append(args[arg])
        return inner(*args)

    setattr(module, name, wrapper)
    return calls


SUM_TERMS = {"sum_1e5": 100_000, "blocks_8192": 8192, "sum_u4_v1": 110_000}
SUM_BLOCKS = 8
SINE_POWERS = {"term_u5000": 5000, "fail_u20000": 20000}


def sum_warm(tmp: str) -> None:
    from flintlab import series

    series.partial_sum(5000, series.SeriesSpec())


def sum_run(name: str, tmp: str):
    from flintlab import ResourceLimitError, series

    if name == "term_u5000":
        t = series.term(1, series.SeriesSpec(u=SINE_POWERS[name]))
        return t.man, t.exp, t.err
    if name == "fail_u20000":
        try:
            series.partial_sum(3, series.SeriesSpec(u=SINE_POWERS[name]))
        except ResourceLimitError as exc:
            return type(exc).__name__
        return None
    u, v = (4, 1) if name == "sum_u4_v1" else (2, 3)
    spec = series.SeriesSpec(0, u, v, 128)
    if name != "blocks_8192":
        r = series.partial_sum(SUM_TERMS[name], spec)
    else:
        path, r = os.path.join(tmp, "sum-checkpoint.json"), None
        for i in range(1, SUM_BLOCKS + 1):
            resume = series.load_checkpoint(path) if r is not None else None
            r = series.partial_sum(SUM_TERMS[name] * i // SUM_BLOCKS, spec, checkpoint=resume)
            series.save_checkpoint(r, path)
    return r.units, r.err_units


def sum_counts(tmp: str) -> dict:
    from flintlab import mpreal, series

    units = recording(series, "_units")
    # the walk looks abs_sin_canonical up in mpreal; _units has its own binding
    canonical = recording(mpreal, "abs_sin_canonical")
    counts = {}
    for name, terms in SUM_TERMS.items():
        units.clear()
        canonical.clear()
        sum_run(name, tmp)
        counts[name] = {"terms": terms, "units_calls": len(units),
                        "walk_canonical_calls": len(canonical)}
    attempts = recording(series, "abs_sin_canonical")
    for name in SINE_POWERS:
        attempts.clear()
        sum_run(name, tmp)
        counts[name] = {"sine_calls": len(attempts)}
    return counts


SCANS = {"scan_op": ((1, 32768), 1, "0.1"), "dense": ((1, 100_000), 1, "1.5"),
         "dense_19": ((1, 100_000), 1, "1.9"), "mixed": ((1, 100_000), 1, "1"),
         "mixed_1e6": ((1, 10**6), 1, "1.3"), "far": ((1, 10**40), 1, "0.1"),
         "far_1e60": ((1, 10**60), 1, "0.1"), "far_1e400": ((10**399, 10**400), 1, "0.01"),
         "far_1e300": ((1, 10**300), 1, "0.01")}
SCAN_REPEAT = {"scan_op": 20}


def scan_warm(tmp: str) -> None:
    from flintlab.criterion import scan_criterion

    scan_criterion(*SCANS["scan_op"], threads=2)


def scan_run(operation: str, tmp: str):
    from flintlab.criterion import scan_criterion

    name, threads = operation.split("@")
    for _ in range(SCAN_REPEAT.get(name, 1)):
        result = scan_criterion(*SCANS[name], threads=int(threads))
    return result


def scan_digest_key(result) -> str:
    from scan_paths import scan_key

    return repr(scan_key(result))


def scan_counts(tmp: str) -> dict:
    from flintlab import criterion

    calls = recording(criterion, "_decided_kernel")
    descents = recording(criterion, "_first_hit")
    ln_bits = recording(criterion, "fx_ln_int", 1)
    counts = {}
    for name, scan in SCANS.items():
        for recorded in (calls, descents, ln_bits):
            recorded.clear()
        result = criterion.scan_criterion(*scan, threads=1)
        counts[name] = {"kernel_calls": len(calls), "distinct_n": len(set(calls)),
                        "first_hit_calls": len(descents), "fx_ln_int_calls": len(ln_bits),
                        "fx_ln_int_bits": sum(ln_bits), "violators": len(result.violations)}
    return counts


SPIKES = {"spikes_op": (12000, 64), "deep_100": (10**100, 512), "deep_300": (10**300, 2048),
          "deep_1000": (10**1000, 64)}
SPIKES_REPEAT = {"spikes_op": 200}


def spikes_warm(tmp: str) -> None:
    from flintlab.rationality import spike_indices

    spike_indices(*SPIKES["spikes_op"])


def spikes_run(name: str, tmp: str):
    from flintlab.rationality import spike_indices

    for _ in range(SPIKES_REPEAT.get(name, 1)):
        records = spike_indices(*SPIKES[name])
    return [(r.n, r.abs_sin.man, r.abs_sin.exp, r.abs_sin.err, r.lam) for r in records]


def spikes_counts(tmp: str) -> dict:
    from flintlab import mpreal, rationality

    quotients = recording(rationality, "cf_terms", 1)
    ln_bits = recording(rationality, "fx_ln_int", 1)
    # fx_ln_int looks fx_atanh up in mpreal
    atanh_calls = recording(mpreal, "fx_atanh")
    counts = {}
    for name, spikes in SPIKES.items():
        for calls in (quotients, ln_bits, atanh_calls):
            calls.clear()
        records = rationality.spike_indices(*spikes)
        counts[name] = {"quotients_requested": sum(quotients), "fx_ln_int_calls": len(ln_bits),
                        "fx_ln_int_bits": sum(ln_bits), "fx_atanh_calls": len(atanh_calls),
                        "records": len(records)}
    return counts


COMMANDS = {
    "pi": ["pi", "--bits", "20000", "--digits", "4000", "--format", "json"],
    "cf": ["cf", "--bits", "20000", "--count", "4800", "--format", "json"],
}
COLD = [f"{state}/{command}" for state in ("source", "cached") for command in COMMANDS]
IMPORTTIME_CALLS = 3


def cold_call(operation: str, tmp: str, *flags: str) -> subprocess.CompletedProcess:
    """One ``python -m flintlab`` of the operation's command, in its state."""
    state, command = operation.split("/")
    env = dict(os.environ, PYTHONPYCACHEPREFIX=os.path.join(tmp, state))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if state == "source":
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return subprocess.run([sys.executable, *flags, "-m", "flintlab", *COMMANDS[command]],
                          env=env, capture_output=True, timeout=120, check=True)


def cold_warm(tmp: str) -> None:
    for command in COMMANDS:
        cold_call(f"cached/{command}", tmp)


def module_self_us(stderr: bytes) -> dict:
    """flintlab module -> self microseconds, from ``-X importtime`` output."""
    out = {}
    for line in stderr.decode().splitlines():
        if line.startswith("import time:"):
            self_us, _, name = line[len("import time:"):].split("|")
            name = name.strip()
            if name == "flintlab" or name.startswith("flintlab."):
                out[name] = int(self_us)
    return out


def cold_counts(tmp: str) -> dict:
    counts = {}
    for operation in COLD:
        samples = [module_self_us(cold_call(operation, tmp, "-X", "importtime").stderr)
                   for _ in range(IMPORTTIME_CALLS)]
        modules = sorted({module for sample in samples for module in sample})
        self_us = {m: statistics.median(s.get(m, 0) for s in samples) for m in modules}
        counts[operation] = {"flintlab_self_us": self_us,
                             "flintlab_self_us_total": sum(self_us.values())}
    return counts


RENDER = {"decimal_2e4": 20_000, "decimal_3e5": 300_000}


def render_warm(tmp: str) -> None:
    from flintlab.mpreal import compute_pi

    for bits in RENDER.values():
        compute_pi(bits)


def render_run(name: str, tmp: str) -> str:
    from flintlab.mpreal import compute_pi

    return compute_pi(RENDER[name]).decimal()


def render_counts(tmp: str) -> dict:
    return {name: {"chars": len(render_run(name, tmp))} for name in RENDER}


SUITES = {
    "sum": Suite({**SUM_TERMS, **dict.fromkeys(SINE_POWERS, 1)}, sum_warm, sum_run, sum_counts),
    "scan": Suite({f"{name}@{threads}": (window[1] - window[0] + 1) * SCAN_REPEAT.get(name, 1)
                   for name, (window, *_) in SCANS.items() for threads in (1, 2)},
                  scan_warm, scan_run, scan_counts, scan_digest_key),
    "spikes": Suite({"spikes_op": SPIKES["spikes_op"][0] * SPIKES_REPEAT["spikes_op"],
                     "deep_100": 1, "deep_300": 1, "deep_1000": 1},
                    spikes_warm, spikes_run, spikes_counts),
    "cold": Suite(dict.fromkeys(COLD, 1), cold_warm,
                  lambda operation, tmp: cold_call(operation, tmp).stdout, cold_counts),
    "render": Suite(dict.fromkeys(RENDER, 1), render_warm, render_run, render_counts),
}


def clocks() -> tuple:
    """(wall, CPU of this process and of the children it waited for, CPU of
    this process) seconds."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    own = time.process_time()
    return time.perf_counter(), own + children.ru_utime + children.ru_stime, own


def worker(suite: Suite, count: bool):
    """One tree's interpreter: name -> [digest, wall, cpu, parent cpu] per
    operation, or the counts."""
    with tempfile.TemporaryDirectory() as tmp:
        suite.warm(tmp)
        if count:
            return suite.counts(tmp)
        out = {}
        for name in suite.operations:
            start = clocks()
            output = suite.run(name, tmp)
            end = clocks()
            digest = hashlib.sha256(suite.key(output).encode()).hexdigest()
            out[name] = [digest, *(b - a for a, b in zip(start, end))]
        return out


def call(suite: str, src: str, mode: str):
    proc = subprocess.run([sys.executable, __file__, mode, suite], stdout=subprocess.PIPE,
                          env=dict(os.environ, PYTHONPATH=src), timeout=600, check=True)
    return json.loads(proc.stdout)


def summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median_s": round(statistics.median(values), 5),
            "quartiles_s": [round(q1, 5), round(q3, 5)]}


def per_second(items: int, seconds: float):
    """items / seconds to 0.1, or to the unit where it passes the float range."""
    try:
        return round(items / seconds, 1)
    except OverflowError:
        return round(items / Fraction(seconds))


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] in ("--worker", "--count"):
        print(json.dumps(worker(SUITES[sys.argv[2]], sys.argv[1] == "--count")))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("suite", choices=SUITES)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("trees", nargs="+", metavar="LABEL=SRC_DIR")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2, for quartiles")
    if any("=" not in tree for tree in args.trees):
        parser.error("each tree must be given as LABEL=SRC_DIR")
    trees = {label: os.path.abspath(src)
             for label, src in (tree.split("=", 1) for tree in args.trees)}
    operations = SUITES[args.suite].operations
    samples = {label: [] for label in trees}
    for run in range(args.runs):
        for label, src in list(trees.items())[::-1 if run % 2 else 1]:
            samples[label].append(call(args.suite, src, "--worker"))
    first = samples[next(iter(trees))][0]
    identical = all(sample[name][0] == first[name][0]
                    for runs in samples.values() for sample in runs for name in operations)
    results = {}
    for label, src in trees.items():
        results[label] = {"counts": call(args.suite, src, "--count")}
        for name, items in operations.items():
            wall, cpu, parent_cpu = ([sample[name][i] for sample in samples[label]]
                                     for i in (1, 2, 3))
            results[label][name] = {"wall": summary(wall), "cpu": summary(cpu),
                                    "parent_cpu": summary(parent_cpu),
                                    "items_per_s": per_second(items, statistics.median(wall))}
    doc = {"suite": args.suite, "runs": args.runs, "operations": operations,
           "machine": {"nproc": os.cpu_count(), "python": platform.python_version()},
           "outputs_identical": identical, "trees": results}
    print(json.dumps(doc, indent=1))
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
