"""Outside-in span tracing of flintlab's layers.

The program has no tracing of its own, so the benchmark records spans
from here: ``install`` replaces the module-level names each consumer
imported (``series.fx_sin``, ``criterion.reduce_fixed``, ...) with
wrappers that record one span per call.  A span is (layer, parent,
start, end); a layer's self time is its spans' durations minus the
part covered by their child spans.

Spans are kept in flat arrays (24 bytes each), because a traced ``scan``
operation makes about 400 000 of them.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from collections import Counter
from pathlib import Path

# name in a flintlab module -> layer it belongs to
LAYER_OF = {
    "reduce_fixed": "mpreal.reduce",
    "fx_sin": "mpreal.fx_sin",
    "fx_ln_int": "mpreal.fx_ln_int",
    "fx_atanh": "mpreal.fx_atanh",
    "fx_exp_small": "mpreal.fx_exp_small",
    "pi_mantissa": "mpreal.const",
    "ln2_mantissa": "mpreal.const",
    "sin_int": "mpreal.sin_int",
    "guaranteed_decimal": "mpreal.render",
    "exact_decimal": "mpreal.render",
    "_sci": "mpreal.render",            # series' short rendering of error bounds
    "g_value": "combinatorics.g_value",
    "partial_sum": "series.partial_sum",
    "save_checkpoint": "series.checkpoint",
    "load_checkpoint": "series.checkpoint",
    "scan_criterion": "criterion.scan",
    "check_criterion": "criterion.check_criterion",
    "spike_indices": "rationality.spike_loop",
    "local_exponent": "rationality.local_exponent",
    "convergent_numerators_up_to": "rationality.convergents",
    "cf_terms": "rationality.cf_terms",
    "main": "cli.main",
}

# consumers whose imported names are wrapped; order does not matter
MODULES = ("mpreal", "combinatorics", "series", "criterion", "rationality", "cli")

ROOT = "op"


class Tracer:
    """Span recorder for one process; ``begin``/``end`` bracket one operation."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self._clear()

    def _clear(self) -> None:
        self.layer_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]

    def layer_id(self, layer: str) -> int:
        if layer not in self._ids:
            self._ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self._ids[layer]

    def wrap(self, layer: str, fn):
        lid = self.layer_id(layer)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.layer_ids)
            tracer.layer_ids.append(lid)
            tracer.parents.append(tracer.stack[-1])
            tracer.ends.append(0.0)
            tracer.stack.append(idx)
            tracer.starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.ends[idx] = clock()
                tracer.stack.pop()

        traced.__wrapped_layer__ = layer
        return traced

    def install(self) -> None:
        """Wrap every LAYER_OF name in every MODULES consumer."""
        for short in MODULES:
            module = importlib.import_module(f"flintlab.{short}")
            for attr, layer in LAYER_OF.items():
                fn = getattr(module, attr, None)
                if fn is not None and not hasattr(fn, "__wrapped_layer__"):
                    setattr(module, attr, self.wrap(layer, fn))

    def begin(self) -> None:
        """Start a fresh operation: drop old spans, open the root span."""
        self._clear()
        self.layer_ids.append(self.layer_id(ROOT))
        self.parents.append(-1)
        self.ends.append(0.0)
        self.stack.append(0)
        self.starts.append(time.perf_counter())

    def end(self) -> None:
        self.ends[0] = time.perf_counter()
        self.stack.pop()

    def merge(self, doc: dict) -> None:
        """Append spans a child process wrote (see ``dump``) under the root span.

        Starts and ends come from ``time.perf_counter``, which on Linux is
        the system-wide monotonic clock, so a child's spans line up with
        the parent's.
        """
        remap = [self.layer_id(name) for name in doc["layers"]]
        base = len(self.layer_ids)
        for lid, parent, start, end in zip(doc["layer_ids"], doc["parents"],
                                           doc["starts"], doc["ends"]):
            self.layer_ids.append(remap[lid])
            self.parents.append(0 if parent < 0 else parent + base)
            self.starts.append(start)
            self.ends.append(end)

    def dump(self) -> dict:
        return {"layers": list(self.layers), "layer_ids": list(self.layer_ids),
                "parents": list(self.parents), "starts": list(self.starts),
                "ends": list(self.ends)}

    def add_span(self, layer: str, start: float, end: float) -> None:
        """Record a span measured by other means, under the root span."""
        self.layer_ids.append(self.layer_id(layer))
        self.parents.append(0)
        self.starts.append(start)
        self.ends.append(end)

    def fold(self, totals: "LayerTotals", scale: float = 1.0) -> None:
        """Add this operation's spans to running per-layer totals, with self
        times multiplied by `scale`."""
        starts, ends, parents, ids = self.starts, self.ends, self.parents, self.layer_ids
        self_time = [e - s for s, e in zip(starts, ends)]
        for i, p in enumerate(parents):
            if p >= 0:
                self_time[p] -= ends[i] - starts[i]
        layers = self.layers
        for i, lid in enumerate(ids):
            name = layers[lid]
            totals.calls[name] += 1
            totals.self_s[name] += self_time[i] * scale
            p = parents[i]
            totals.edges[(layers[ids[p]] if p >= 0 else "", name)] += 1
        totals.ops += 1

    def write_spans(self, path: Path) -> None:
        """Spans of the current operation: a JSON header plus a flat binary body."""
        header = {"layers": self.layers, "count": len(self.layer_ids),
                  "body": path.with_suffix(".bin").name,
                  "layout": "int32 layer_id[count], int32 parent[count], "
                            "float64 start[count], float64 end[count]; "
                            "parent -1 marks the root, times are perf_counter seconds"}
        path.write_text(json.dumps(header, indent=1) + "\n")
        with open(path.with_suffix(".bin"), "wb") as fh:
            for arr in (self.layer_ids, self.parents, self.starts, self.ends):
                arr.tofile(fh)


class LayerTotals:
    """Per-layer call counts and self seconds summed over traced operations."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.edges: Counter = Counter()     # (parent layer, layer) -> calls
        self.ops = 0

    def per_op_calls(self, layer: str) -> float:
        return self.calls[layer] / self.ops if self.ops else 0.0

    def per_op_self(self, layer: str) -> float:
        return self.self_s[layer] / self.ops if self.ops else 0.0

    def calls_under(self, parent: str, layer: str) -> int:
        return self.edges[(parent, layer)]
