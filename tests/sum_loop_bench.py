"""Timing of the ``partial_sum`` loop on one or more trees.

Usage: python tests/sum_loop_bench.py [--runs N] LABEL=SRC_DIR [LABEL=SRC_DIR ...]

Each SRC_DIR is the ``src`` directory of a checkout, for instance
``before=../parent/src after=src``.  Every run starts one fresh
interpreter per tree with PYTHONPATH=SRC_DIR; the trees take turns within every run, and
alternate which goes first, so they share the machine's drift.  Each interpreter
warms the constant caches with ``partial_sum(5000)``, then times two
operations with ``time.perf_counter`` and ``time.process_time``:

* ``sum_1e5``: ``partial_sum(100000)`` of the classical series at 128 bits;
* ``blocks_8192``: the benchmark's ``sum`` operation (perfbench/workloads.py,
  seed 0): n = 1..8192 in 8 blocks of 1024, each resumed with
  ``load_checkpoint`` and written with ``save_checkpoint``.

One more, untimed, interpreter per tree counts calls: the terms that
called ``series._units`` and the walk's fallbacks to
``mpreal.abs_sin_canonical``, over both operations.

Prints one JSON document: per tree and operation the median and quartiles
of the wall and CPU seconds and the terms per wall second at the median;
the counts; whether every tree gave the same (units, err_units); and the
machine (CPU count, Python version).  Exits 1 if the trees' sums differ.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

TERMS = {"sum_1e5": 100_000, "blocks_8192": 8192}
BLOCKS = 8


def run_operations() -> dict:
    """Both operations once each, in this interpreter: name -> (units, err_units, wall, cpu)."""
    from flintlab import series

    spec = series.SeriesSpec(0, 2, 3, 128)
    out = {}
    t0, c0 = time.perf_counter(), time.process_time()
    r = series.partial_sum(TERMS["sum_1e5"], spec)
    out["sum_1e5"] = (r.units, r.err_units, time.perf_counter() - t0, time.process_time() - c0)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sum-checkpoint.json")
        t0, c0 = time.perf_counter(), time.process_time()
        r = None
        for i in range(1, BLOCKS + 1):
            resume = series.load_checkpoint(path) if r is not None else None
            r = series.partial_sum(TERMS["blocks_8192"] * i // BLOCKS, spec, checkpoint=resume)
            series.save_checkpoint(r, path)
        out["blocks_8192"] = (r.units, r.err_units,
                              time.perf_counter() - t0, time.process_time() - c0)
    return out


def worker(count: bool) -> None:
    """One tree's interpreter: print the timed operations, or the call counts."""
    from flintlab import mpreal, series

    series.partial_sum(5000, series.SeriesSpec())
    if not count:
        print(json.dumps(run_operations()))
        return
    counts = {"units_calls": 0, "walk_canonical_calls": 0}

    def counting(module, name, key):
        inner = getattr(module, name)

        def wrapper(*args):
            counts[key] += 1
            return inner(*args)

        setattr(module, name, wrapper)

    counting(series, "_units", "units_calls")
    # the walk looks abs_sin_canonical up in mpreal; _units has its own binding
    counting(mpreal, "abs_sin_canonical", "walk_canonical_calls")
    run_operations()
    print(json.dumps(dict(counts, terms=sum(TERMS.values()))))


def call(src: str, mode: str) -> dict:
    proc = subprocess.run([sys.executable, __file__, mode],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, timeout=600, check=True)
    return json.loads(proc.stdout)


def summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median_s": round(statistics.median(values), 5),
            "quartiles_s": [round(q1, 5), round(q3, 5)]}


def main() -> int:
    if sys.argv[1:] in (["--worker"], ["--count"]):
        worker(sys.argv[1] == "--count")
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=20)
    parser.add_argument("trees", nargs="+", metavar="LABEL=SRC_DIR")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2, for quartiles")
    trees = dict(tree.split("=", 1) for tree in args.trees)
    trees = {label: os.path.abspath(src) for label, src in trees.items()}
    samples = {label: [] for label in trees}
    for run in range(args.runs):
        for label, src in list(trees.items())[::-1 if run % 2 else 1]:
            samples[label].append(call(src, "--worker"))
    first = samples[next(iter(trees))][0]
    identical = all(sample[name][:2] == first[name][:2]
                    for runs in samples.values() for sample in runs for name in TERMS)
    result = {}
    for label, src in trees.items():
        result[label] = {"counts": call(src, "--count")}
        for name, terms in TERMS.items():
            wall = [sample[name][2] for sample in samples[label]]
            cpu = [sample[name][3] for sample in samples[label]]
            result[label][name] = {"wall": summary(wall), "cpu": summary(cpu),
                                   "terms_per_s": round(terms / statistics.median(wall))}
    doc = {"machine": {"nproc": os.cpu_count(), "python": platform.python_version()},
           "runs": args.runs, "terms": TERMS, "trees": list(trees),
           "sums_identical": identical, **result}
    print(json.dumps(doc, indent=1))
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
