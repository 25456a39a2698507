"""Timing of ``scan_criterion`` on one or more trees.

Usage: python tests/scan_bench.py [--runs N] LABEL=SRC_DIR [LABEL=SRC_DIR ...]

Each SRC_DIR is the ``src`` directory of a checkout, for instance
``before=../parent/src after=src``.  Every run starts one fresh
interpreter per tree with PYTHONPATH=SRC_DIR; the trees take turns within every run, and
alternate which goes first, so they share the machine's drift.  Each interpreter
warms the constant caches with one untimed benchmark operation, then times
every operation at threads 1 and at threads 2 (``<name>@<threads>``) with
``time.perf_counter`` and ``time.process_time``:

* ``scan_op``: the benchmark's ``scan`` operation (perfbench/workloads.py,
  seed 0, which runs it at threads 2): n = 1..32768, s = 1, eps = 0.1,
  which has 17 or fewer candidates and starts no pool; timed over
  SCAN_OP_REPEAT calls, as one call takes a few ms;
* ``dense``: n = 1..1e5, s = 1, eps = 1.5, about 5000 candidates;
* ``dense_19``: n = 1..1e5, s = 1, eps = 1.9, about 41000 candidates,
  whose windows span several n around each multiple of pi;
* ``mixed``: n = 1..1e5, s = 1, eps = 1, a few hundred candidates;
* ``mixed_1e6``: n = 1..1e6, s = 1, eps = 1.3, about 9000 candidates;
* ``far``: n = 1..1e40, s = 1, eps = 0.1, about 1800 candidates.

At threads 2 a round with more than one piece of candidates runs on a
process pool, whose start-up is part of the call.  CPU seconds count the
parent interpreter only, not its pool workers.

One more, untimed, interpreter per tree counts the calls of
``criterion._decided_kernel`` and the distinct n they decide, per
operation, at threads 1, where the calls run in the counting process;
the n decided do not depend on threads.

Prints one JSON document: per tree and operation the median and quartiles
of the wall and CPU seconds and the indices per wall second at the median;
the counts; whether every tree gave the same output, down to the bits of
every rhs ball; and the machine (CPU count, Python version).  Exits 1 if
the trees' outputs differ.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

SCAN_OP = ((1, 32768), 1, "0.1")
SCANS = {"scan_op": SCAN_OP, "dense": ((1, 100_000), 1, "1.5"),
         "dense_19": ((1, 100_000), 1, "1.9"), "mixed": ((1, 100_000), 1, "1"),
         "mixed_1e6": ((1, 10**6), 1, "1.3"), "far": ((1, 10**40), 1, "0.1")}
OPERATIONS = {f"{name}@{threads}": (*scan, threads)
              for name, scan in SCANS.items() for threads in (1, 2)}
SCAN_OP_REPEAT = 20


def output_digest(result) -> str:
    """sha256 of everything a scan reports, down to the bits of every rhs ball."""
    key = (sorted(result.summary.items()),
           [(r.n, r.satisfied, r.margin, r.ln_lhs, r.ln_rhs,
             r.rhs.man, r.rhs.exp, r.rhs.err) for r in result.violations])
    return hashlib.sha256(repr(key).encode()).hexdigest()


def run_operations() -> dict:
    """Every operation once, in this interpreter: name -> (digest, wall, cpu)."""
    from flintlab.criterion import scan_criterion

    out = {}
    for name, (window, s, eps, threads) in OPERATIONS.items():
        repeat = SCAN_OP_REPEAT if name.startswith("scan_op@") else 1
        t0, c0 = time.perf_counter(), time.process_time()
        for _ in range(repeat):
            result = scan_criterion(window, s, eps, threads=threads)
        out[name] = (output_digest(result), time.perf_counter() - t0, time.process_time() - c0)
    return out


def worker(count: bool) -> None:
    """One tree's interpreter: print the timed operations, or the call counts."""
    from flintlab import criterion

    window, s, eps = SCAN_OP
    criterion.scan_criterion(window, s, eps, threads=2)
    if not count:
        print(json.dumps(run_operations()))
        return
    calls = []
    kernel = criterion._decided_kernel

    def counting(n, *rest):
        calls.append(n)
        return kernel(n, *rest)

    criterion._decided_kernel = counting
    counts = {}
    for name, (window, s, eps) in SCANS.items():
        calls.clear()
        result = criterion.scan_criterion(window, s, eps, threads=1)
        counts[name] = {"kernel_calls": len(calls), "distinct_n": len(set(calls)),
                        "violators": len(result.violations)}
    print(json.dumps(counts))


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
    parser.add_argument("--runs", type=int, default=10)
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
    identical = all(sample[name][0] == first[name][0]
                    for runs in samples.values() for sample in runs for name in OPERATIONS)
    result = {}
    for label, src in trees.items():
        result[label] = {"counts": call(src, "--count")}
        for name, (window, *_) in OPERATIONS.items():
            repeat = SCAN_OP_REPEAT if name.startswith("scan_op@") else 1
            wall = [sample[name][1] for sample in samples[label]]
            cpu = [sample[name][2] for sample in samples[label]]
            indices = (window[1] - window[0] + 1) * repeat
            result[label][name] = {"wall": summary(wall), "cpu": summary(cpu),
                                   "indices_per_s": round(indices / statistics.median(wall))}
    doc = {"machine": {"nproc": os.cpu_count(), "python": platform.python_version()},
           "runs": args.runs, "scan_op_repeat": SCAN_OP_REPEAT,
           "operations": {name: {"window": list(op[0]), "s": op[1], "eps": op[2],
                                 "threads": op[3]} for name, op in OPERATIONS.items()},
           "trees": list(trees), "outputs_identical": identical, **result}
    print(json.dumps(doc, indent=1))
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
