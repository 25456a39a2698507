"""Run ``flintlab.cli.main`` with the benchmark's layer wrappers installed.

Usage: python cli_entry.py SPANS_JSON -- <flintlab arguments>

Used by the traced ``pi`` pass, where every CLI call is a fresh
interpreter.  Writes this process's spans, the ``time.perf_counter()``
value at which ``main`` was entered and the pi-source refinement count to
SPANS_JSON, then exits with the CLI's exit code.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import flintlab.cli  # noqa: E402
from flintlab.mpreal import PI_CACHE  # noqa: E402
from tracing import Tracer  # noqa: E402


def run(spans_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    main_entered = time.perf_counter()
    try:
        return flintlab.cli.main(argv)
    finally:
        doc = tracer.dump()
        doc.update(main_entered=main_entered, refinements=PI_CACHE.refinements)
        Path(spans_path).write_text(json.dumps(doc))


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        sys.exit("usage: cli_entry.py SPANS_JSON -- <flintlab arguments>")
    sys.exit(run(sys.argv[1], sys.argv[3:]))
