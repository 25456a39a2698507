"""Cold-start timing of ``python -m flintlab pi`` and ``cf`` on one or more trees.

Usage: python tests/cold_start_bench.py [--runs N] LABEL=SRC_DIR [LABEL=SRC_DIR ...]

Each SRC_DIR is the ``src`` directory of a checkout, for instance
``before=../parent/src after=src``.  The commands are those of the
benchmark's ``pi`` workload (perfbench/workloads.py): ``pi --bits 20000
--digits 4000`` and ``cf --bits 20000 --count 4800``, JSON output.  Each
call is a fresh interpreter with PYTHONPATH=SRC_DIR; the trees take turns
within every run, so they share the machine's drift.

Two bytecode states are measured.  ``source`` sets PYTHONDONTWRITEBYTECODE=1,
so every module a call imports is compiled from source.  ``cached`` writes
bytecode under a temporary PYTHONPYCACHEPREFIX, filled by one untimed call.
A second set of calls under ``-X importtime`` gives each flintlab module's
self import time.

Prints one JSON document: per state, tree and command the median and
quartiles of the wall seconds per call and the median self microseconds
of each flintlab module; whether every tree printed the same stdout; and
the machine (CPU count, Python version).  Exits 1 if the trees' stdout
differs.
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

COMMANDS = {
    "pi": ["pi", "--bits", "20000", "--digits", "4000", "--format", "json"],
    "cf": ["cf", "--bits", "20000", "--count", "4800", "--format", "json"],
}


def call(src: str, argv: list, env: dict, importtime: bool = False):
    """One cold ``python -m flintlab argv``: (wall seconds, stdout, stderr)."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-m", "flintlab"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd + argv, env=dict(env, PYTHONPATH=src),
                          capture_output=True, timeout=120, check=True)
    return time.perf_counter() - t0, proc.stdout, proc.stderr


def module_self_us(stderr: bytes) -> dict:
    """flintlab module -> self microseconds, from ``-X importtime`` output."""
    out = {}
    for line in stderr.decode().splitlines():
        if not line.startswith("import time:"):
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        name = name.strip()
        if name == "flintlab" or name.startswith("flintlab."):
            out[name] = int(self_us)
    return out


def summary(times: list) -> dict:
    q1, _, q3 = statistics.quantiles(times, n=4)
    return {"median_s": round(statistics.median(times), 4),
            "quartiles_s": [round(q1, 4), round(q3, 4)]}


def measure(trees: dict, runs: int, env: dict) -> tuple:
    """Per tree and command: timing summary and median module self times;
    and whether every tree's stdout equals the first tree's."""
    times = {label: {name: [] for name in COMMANDS} for label in trees}
    imports = {label: {name: [] for name in COMMANDS} for label in trees}
    outputs = {}
    for label, src in trees.items():             # untimed: fill any bytecode cache
        for name, argv in COMMANDS.items():
            outputs[label, name] = call(src, argv, env)[1]
    for _ in range(runs):
        for label, src in trees.items():
            for name, argv in COMMANDS.items():
                times[label][name].append(call(src, argv, env)[0])
                imports[label][name].append(module_self_us(call(src, argv, env, True)[2]))
    result = {}
    for label in trees:
        result[label] = {}
        for name in COMMANDS:
            modules = sorted({m for sample in imports[label][name] for m in sample})
            per_module = {m: statistics.median(s.get(m, 0) for s in imports[label][name])
                          for m in modules}
            result[label][name] = dict(summary(times[label][name]),
                                       flintlab_self_us=per_module,
                                       flintlab_self_us_total=sum(per_module.values()))
    first = next(iter(trees))
    identical = all(outputs[label, name] == outputs[first, name]
                    for label in trees for name in COMMANDS)
    return result, identical


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=20)
    parser.add_argument("trees", nargs="+", metavar="LABEL=SRC_DIR")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2, for quartiles")
    trees = dict(tree.split("=", 1) for tree in args.trees)
    trees = {label: os.path.abspath(src) for label, src in trees.items()}
    base = {k: v for k, v in os.environ.items()
            if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    doc = {"machine": {"nproc": os.cpu_count(), "python": platform.python_version()},
           "runs": args.runs, "commands": COMMANDS, "trees": list(trees), "states": {}}
    with tempfile.TemporaryDirectory() as cache:
        states = {"source": dict(base, PYTHONDONTWRITEBYTECODE="1"),
                  "cached": dict(base, PYTHONPYCACHEPREFIX=cache)}
        for state, env in states.items():
            result, identical = measure(trees, args.runs, env)
            doc["states"][state] = {
                "PYTHONDONTWRITEBYTECODE": env.get("PYTHONDONTWRITEBYTECODE"),
                "stdout_identical": identical, **result}
    print(json.dumps(doc, indent=1))
    return 0 if all(state["stdout_identical"] for state in doc["states"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
