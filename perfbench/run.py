"""flintlab benchmark runner.

Usage (from the repository root):

    python3 perfbench/run.py --workload {sum,scan,spikes,pi} --seed N \
        --seconds S --trace {0,1}

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1
is the separate traced pass: it runs the workload untraced and then
traced, and reports the per-layer metrics and the tracing overhead.
Each metric is printed as "name value unit"; the last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}.  Run
facts and raw samples go to perfbench/out/<workload>.json.  See
perfbench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import reference  # noqa: E402
from tracing import LayerTotals, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    OUT, ROOT, SRC, TESTS, WORKLOADS, flintlab_env, load_flintlab)

SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "items_per_cpu_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cert_bits": "bits",
    "ok_ratio": "ratio",
}

CALL_LAYERS = [
    "mpreal.fx_sin", "mpreal.reduce", "mpreal.fx_ln_int", "mpreal.fx_atanh",
    "mpreal.fx_exp_small", "series.checkpoint", "combinatorics.g_value",
    "criterion.check_criterion", "mpreal.sin_int", "rationality.local_exponent",
    "mpreal.const", "mpreal.render", "rationality.cf_terms",
]
SELF_LAYERS = CALL_LAYERS + [
    "series.partial_sum", "criterion.scan", "rationality.spike_loop",
    "rationality.convergents", "cli.main",
]
# escalation counters: calls of a kernel made directly by the item loop,
# per item; 1.0 means no precision escalation
ATTEMPT_COUNTERS = {
    "series.attempts_per_term": ("series.partial_sum", "mpreal.fx_sin"),
    "criterion.attempts_per_index": ("criterion.scan", "mpreal.fx_sin"),
    "rationality.rounds_per_n": ("rationality.spike_loop", "mpreal.sin_int"),
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in CALL_LAYERS:
        units[f"{layer}.calls"] = "count"
    for layer in SELF_LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update({name: "ratio" for name in ATTEMPT_COUNTERS})
    units.update({
        "mpreal.reduce.pi_lookups_per_call": "ratio",
        "mpreal.const.refinements": "count",
        "series.checkpoint.bytes": "bytes",
        "criterion.pool.speedup": "ratio",
        "cli.startup_s": "s",
        "outer.self_s": "s",
        "traced.op_wall_s": "s",
        "traced.accounted_share": "ratio",
        "tracing_overhead": "ratio",
    })
    return units


# ---------------------------------------------------------------- run facts

def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


# ---------------------------------------------------------------- measuring

def cpu_seconds() -> float:
    """CPU time of this process plus its reaped children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0     # ru_maxrss is in KiB on Linux


class Sample:
    """One operation: raw wall and CPU seconds, and its output or error."""

    __slots__ = ("wall", "cpu", "output", "error")

    def __init__(self, wall, cpu, output, error):
        self.wall, self.cpu, self.output, self.error = wall, cpu, output, error


class Phase:
    """Operations run back to back, with the reference loop before the
    first and after each one.

    An operation's time in reference seconds is its time divided by the
    mean slowdown measured just before and just after it.
    """

    def __init__(self) -> None:
        self.samples: list[Sample] = []
        self.slowdowns: list[float] = []

    def good(self) -> list[Sample]:
        return [s for s in self.samples if s.error is None]

    def op_times(self, attr: str, raw: bool = False):
        """Good operations' times of `attr`, in reference seconds unless `raw`."""
        for i, s in enumerate(self.samples):
            if s.error is None:
                slow = 1.0 if raw else (self.slowdowns[i] + self.slowdowns[i + 1]) / 2
                yield getattr(s, attr) / slow

    def median_rate(self, items: int, attr: str, raw: bool = False) -> float:
        """Median of items per second of `attr` ("wall" or "cpu") over good
        operations, in reference seconds unless `raw`."""
        times = list(self.op_times(attr, raw))
        return statistics.median(items / t for t in times) if times else 0.0

    def median_wall(self) -> float:
        """Median good-operation time in reference seconds (0 if none)."""
        times = list(self.op_times("wall"))
        return statistics.median(times) if times else 0.0


def closed_loop(wl, seconds: float, tracer=None, totals=None) -> Phase:
    """Run operations back to back until `seconds` have passed."""
    phase = Phase()
    phase.slowdowns.append(wl.slowdown())
    deadline = time.perf_counter() + seconds
    while True:
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.begin()
        try:
            output, error = wl.op(tracer), None
        except Exception as exc:      # a failed operation is counted, not fatal
            output, error = None, f"{type(exc).__name__}: {exc}"
        if tracer is not None:
            tracer.end()
        t1 = time.perf_counter()
        phase.samples.append(Sample(t1 - t0, cpu_seconds() - c0, output, error))
        phase.slowdowns.append(wl.slowdown())
        if tracer is not None:
            if totals.ops == 0:
                tracer.write_spans(OUT / f"{wl.name}-spans.json")
            tracer.fold(totals, 2 / (phase.slowdowns[-2] + phase.slowdowns[-1]))
        if t1 >= deadline:
            return phase


def check_outputs(wl, samples: list[Sample]) -> tuple[int, list[str]]:
    """Failed-operation count and problems; outside every timed region.

    The first good output is verified independently; every other output
    must equal it, since each operation of a run does the same work.
    """
    problems = [s.error for s in samples if s.error]
    good = [s for s in samples if s.error is None]
    if not good:
        return len(samples), problems
    expected = wl.key(good[0].output)
    try:
        verified = wl.verify(good[0].output)
    except Exception as exc:          # a malformed output fails its check
        verified = [f"check raised {type(exc).__name__}: {exc}"]
    problems += verified
    failed = len(samples) - len(good)
    for s in good:
        if verified or wl.key(s.output) != expected:
            failed += 1
    if failed > len(samples) - len(good) and not verified:
        problems.append("outputs differ between identical operations")
    return failed, problems


def setup_probe(wl) -> None:
    """Child side of setup_samples: print the set-up seconds and the
    slowdown measured around them."""
    reference.timed()                   # the first run pays for its own warm-up
    before = reference.slowdown()
    t0 = time.perf_counter()
    load_flintlab()
    wl.setup()
    took = time.perf_counter() - t0
    print(took, (before + reference.slowdown()) / 2)


def setup_samples(wl, seed: int) -> tuple[list[float], list[float]]:
    """Seconds of SETUP_SAMPLES set-ups in fresh interpreters, and the
    slowdown measured around each.

    For in-process workloads the child times its own import plus constant
    warm-up; for `pi` the parent times interpreter start plus import of
    the CLI.
    """
    env = flintlab_env()
    if wl.in_process:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl.name,
               "--seed", str(seed), "--setup-probe"]
    else:
        cmd = [sys.executable, "-c", "import flintlab.cli"]
        subprocess.run(cmd, env=env, check=True, timeout=SETUP_TIMEOUT_S)  # compile .pyc
    times, slowdowns = [], []
    for _ in range(SETUP_SAMPLES):
        before = 0.0 if wl.in_process else wl.slowdown()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              check=True, timeout=SETUP_TIMEOUT_S)
        took = time.perf_counter() - t0
        if wl.in_process:
            took, slow = map(float, proc.stdout.split()[-2:])
        else:
            slow = (before + wl.slowdown()) / 2
        times.append(took)
        slowdowns.append(slow)
    return times, slowdowns


# ---------------------------------------------------------------- passes

def untraced_pass(wl, seed: int, seconds: float) -> dict:
    if wl.in_process:
        wl.setup()
    setup_times, setup_slowdowns = setup_samples(wl, seed)
    phase = closed_loop(wl, seconds)
    rss = peak_rss_mb()
    failed, problems = check_outputs(wl, phase.samples)
    good = phase.good()
    metrics = {
        "items_per_s": phase.median_rate(wl.items, "wall"),
        "items_per_cpu_s": phase.median_rate(wl.items, "cpu"),
        "setup_s": statistics.median(t / slow for t, slow in zip(setup_times, setup_slowdowns)),
        "peak_rss_mb": rss,
        "cert_bits": wl.cert_bits(good[0].output) if good and not problems else 0.0,
        "ok_ratio": 1.0 - failed / len(phase.samples),
    }
    record = {"samples": {"ops": len(phase.samples), "setup": len(setup_times)},
              "raw": {"items_per_s": phase.median_rate(wl.items, "wall", raw=True),
                      "items_per_cpu_s": phase.median_rate(wl.items, "cpu", raw=True),
                      "setup_s": statistics.median(setup_times)},
              "op_wall_s": [s.wall for s in phase.samples],
              "op_cpu_s": [s.cpu for s in phase.samples],
              "slowdowns": phase.slowdowns,
              "setup_s": setup_times,
              "setup_slowdowns": setup_slowdowns,
              "tracing_overhead": None}
    return finish(wl, phase.samples, failed, problems, metrics, END_TO_END_UNITS, record)


def traced_pass(wl, seconds: float) -> dict:
    """Untraced then traced operations; per-layer metrics come from the latter.

    When the traced configuration differs from the benchmarked one
    (`scan` runs serially), the benchmarked configuration runs first so
    that the pool speed-up can be reported.
    """
    if wl.in_process:
        wl.setup()
    bench = None
    if wl.trace_config_differs:
        bench = closed_loop(wl, seconds / 3)
        seconds = seconds * 2 / 3
    wl.use_trace_config()
    plain = closed_loop(wl, seconds / 2)
    tracer = Tracer()
    if wl.in_process:
        tracer.install()
    totals = LayerTotals()
    refinements_before = wl.refinements()
    traced = closed_loop(wl, seconds / 2, tracer, totals)
    phases = [p for p in (bench, plain, traced) if p is not None]
    samples = [s for p in phases for s in p.samples]
    failed, problems = check_outputs(wl, samples)

    ops = totals.ops
    units = per_layer_units()
    metrics = {}
    for layer in CALL_LAYERS:
        metrics[f"{layer}.calls"] = totals.per_op_calls(layer)
    for layer in SELF_LAYERS:
        metrics[f"{layer}.self_s"] = totals.per_op_self(layer)
    for name, (parent, kernel) in ATTEMPT_COUNTERS.items():
        per_item = wl.items * ops if wl.item_layer == parent else 0
        metrics[name] = totals.calls_under(parent, kernel) / per_item if per_item else 0.0
    reduces = totals.calls["mpreal.reduce"]
    metrics["mpreal.reduce.pi_lookups_per_call"] = (
        totals.calls_under("mpreal.reduce", "mpreal.const") / reduces if reduces else 0.0)
    metrics["mpreal.const.refinements"] = (wl.refinements() - refinements_before) / ops
    metrics["series.checkpoint.bytes"] = float(getattr(wl, "op_bytes", 0))
    # raw seconds: the pool's gain on this machine, whatever its momentary speed
    metrics["criterion.pool.speedup"] = (
        statistics.median(s.wall for s in plain.samples)
        / statistics.median(s.wall for s in bench.samples) if bench else 0.0)
    metrics["cli.startup_s"] = totals.per_op_self("cli.startup")
    metrics["outer.self_s"] = totals.per_op_self("op")
    traced_wall = sum(traced.op_times("wall"))
    metrics["traced.op_wall_s"] = traced_wall / ops
    metrics["traced.accounted_share"] = (
        sum(totals.self_s.values()) / traced_wall if traced_wall else 0.0)
    untraced = plain.median_wall()
    metrics["tracing_overhead"] = traced.median_wall() / untraced if untraced else 0.0
    record = {"samples": {p_name: len(p.samples) for p_name, p in
                          (("bench", bench), ("untraced", plain), ("traced", traced)) if p},
              "op_wall_s": {p_name: [s.wall for s in p.samples] for p_name, p in
                            (("bench", bench), ("untraced", plain), ("traced", traced)) if p},
              "slowdowns": {p_name: p.slowdowns for p_name, p in
                                   (("bench", bench), ("untraced", plain), ("traced", traced)) if p},
              "tracing_overhead": metrics["tracing_overhead"],
              "layer_calls": dict(totals.calls),
              "layer_self_s": dict(totals.self_s),
              "edges": {f"{p}>{c}": n for (p, c), n in totals.edges.items()}}
    return finish(wl, samples, failed, problems, metrics, units, record)


def finish(wl, samples, failed, problems, metrics, units, record) -> dict:
    record.update(workload=wl.name, seed=wl.seed, inputs=wl.describe(),
                  attempted=len(samples), failed=failed, problems=problems,
                  metrics=metrics)
    return {"correct": failed == 0 and not problems,
            "attempted": len(samples),
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
            "record": record}


def save_record(workload: str, mode: str, record: dict) -> None:
    path = OUT / f"{workload}.json"
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError):
        doc = {}
    doc["facts"] = run_facts()
    doc[mode] = record
    path.write_text(json.dumps(doc, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "flintlab" / "__init__.py", TESTS / "oracles.py")
               if not p.is_file()]
    if missing:
        print(f"perfbench: run from a flintlab checkout; missing {missing[0]}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed)

    if args.setup_probe:
        setup_probe(wl)
        return 0

    OUT.mkdir(exist_ok=True)
    if args.trace:
        result = traced_pass(wl, args.seconds)
    else:
        result = untraced_pass(wl, args.seed, args.seconds)
    record = result.pop("record")
    save_record(args.workload, f"trace{args.trace}", record)
    for problem in record["problems"]:
        print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
