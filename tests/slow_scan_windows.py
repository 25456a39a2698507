"""Slow agreement checks between the scan and the per-n loop, too long for the test suite.

    PYTHONPATH=src:tests python tests/slow_scan_windows.py [windows] [dense] [grid]

The per-n loop is scan_paths.per_n_scan, which decides every n.
``windows`` compares the scan, at threads 1 and 2, with the per-n loop
on 200001-wide windows around the eps = 0.1 violators 147373401987 and
428224593349304.  ``dense`` does the same on 10001-wide windows at
eps = 1.5 past 2.6e10, where the sines need more than 32 guard bits:
1e12 +- 5000 holds no violator, so the worst margin takes rounds past 0,
and 1000000030003 +- 5000 holds 29.  ``grid`` compares the scan with the
per-n loop on 1..1e5 at eps in {0.1, 0.5, 1, 1.5, 1.9} and s in {1, 3}.
With no argument all three run.  One line per check; the exit code is 1
if any output differs.  pytest does not collect this file.
"""

import sys
import time

from flintlab.criterion import scan_criterion
from scan_paths import per_n_scan, scan_key

WINDOW_CENTRES = (147373401987, 428224593349304)
HALF_WIDTH = 100_000
DENSE_CENTRES = (10**12, 1_000_000_030_003)
DENSE_HALF_WIDTH = 5_000


def _timed(scan, window, s, eps, threads=1):
    t0 = time.perf_counter()
    key = scan_key(scan(window, s, eps, threads=threads))
    return key, time.perf_counter() - t0


def _around(centres, half_width, eps, must_find) -> bool:
    ok = True
    for centre in centres:
        window = (centre - half_width, centre + half_width)
        want, t_per_n = _timed(per_n_scan, window, 1, eps)
        found = [n for n, *_ in want[1]]
        times, same = [f"per-n {t_per_n:.2f} s"], not must_find or centre in found
        for threads in (1, 2):
            key, t = _timed(scan_criterion, window, 1, eps, threads)
            same &= key == want
            times.append(f"threads {threads} {t:.3f} s")
        ok &= same
        print(f"{window} eps {eps}: {len(found)} violators {found[:3]}, "
              f"{'same' if same else 'DIFFERENT'}; {', '.join(times)}", flush=True)
    return ok


def windows() -> bool:
    return _around(WINDOW_CENTRES, HALF_WIDTH, "0.1", must_find=True)


def dense() -> bool:
    return _around(DENSE_CENTRES, DENSE_HALF_WIDTH, "1.5", must_find=False)


def grid() -> bool:
    ok = True
    window = (1, 100_000)
    for eps in ("0.1", "0.5", "1", "1.5", "1.9"):
        for s in (1, 3):
            want, t_per_n = _timed(per_n_scan, window, s, eps)
            key, t = _timed(scan_criterion, window, s, eps)
            same = key == want
            ok &= same
            print(f"{window} eps {eps} s {s}: {want[0]['violations']} violators, "
                  f"{'same' if same else 'DIFFERENT'}; per-n {t_per_n:.2f} s, "
                  f"scan {t:.2f} s", flush=True)
    return ok


if __name__ == "__main__":
    checks = {"windows": windows, "dense": dense, "grid": grid}
    names = sys.argv[1:] or list(checks)
    unknown = [name for name in names if name not in checks]
    if unknown:
        sys.exit(f"unknown check(s) {unknown}; choose from {list(checks)}")
    results = [checks[name]() for name in names]
    sys.exit(0 if all(results) else 1)
