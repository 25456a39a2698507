"""Slow agreement checks between the scan paths, too long for the test suite.

    PYTHONPATH=src:tests python tests/slow_scan_windows.py [windows] [dense] [grid]

The paths are those of scan_paths.forced: "walk" walks every block in
round 0, "sparse" takes every block's near multiples of pi, "auto" lets
the scan choose per block, and "per_n" decides every n.  ``windows``
compares the walk, at threads 1 and 2, with the sparse path on
200001-wide windows around the eps = 0.1 violators 147373401987 and
428224593349304.  ``dense`` compares the walk at threads 1 and 2, the
sparse path and the per-n loop on 10001-wide windows at eps = 1.5 past
2.6e10, where the walk's sines need more than 32 guard bits: 1e12 +-
5000 holds no violator, so the worst margin takes rounds past the walk,
and 1000000030003 +- 5000 holds 29.  ``grid`` compares the walk, the
sparse path and the unforced scan with the per-n loop on 1..1e5 at eps
in {0.1, 0.5, 1, 1.5, 1.9} and s in {1, 3}.  With no argument all three
run.  One line per check; the exit code is 1 if any output differs.
pytest does not collect this file.
"""

import sys
import time

from scan_paths import scan, scan_key

WINDOW_CENTRES = (147373401987, 428224593349304)
HALF_WIDTH = 100_000
DENSE_CENTRES = (10**12, 1_000_000_030_003)
DENSE_HALF_WIDTH = 5_000


def _timed(path, window, s, eps, threads=1):
    t0 = time.perf_counter()
    key = scan_key(scan(path, window, s, eps, threads=threads))
    return key, time.perf_counter() - t0


def windows() -> bool:
    ok = True
    for centre in WINDOW_CENTRES:
        window = (centre - HALF_WIDTH, centre + HALF_WIDTH)
        want, t_sparse = _timed("sparse", window, 1, "0.1")
        found = [n for n, *_ in want[1]]
        for threads in (1, 2):
            key, t_walk = _timed("walk", window, 1, "0.1", threads)
            same = key == want and centre in found
            ok &= same
            print(f"{window} eps 0.1 threads {threads}: violators {found}, "
                  f"{'same' if same else 'DIFFERENT'}; walk {t_walk:.2f} s, "
                  f"sparse {t_sparse:.3f} s", flush=True)
    return ok


def dense() -> bool:
    ok = True
    for centre in DENSE_CENTRES:
        window = (centre - DENSE_HALF_WIDTH, centre + DENSE_HALF_WIDTH)
        want, t_per_n = _timed("per_n", window, 1, "1.5")
        times, same = [f"per-n {t_per_n:.2f} s"], True
        for path, threads in (("walk", 1), ("walk", 2), ("sparse", 1)):
            key, t = _timed(path, window, 1, "1.5", threads)
            same &= key == want
            times.append(f"{path} threads {threads} {t:.2f} s")
        ok &= same
        print(f"{window} eps 1.5: {want[0]['violations']} violators, "
              f"{'same' if same else 'DIFFERENT'}; {', '.join(times)}", flush=True)
    return ok


def grid() -> bool:
    ok = True
    window = (1, 100_000)
    for eps in ("0.1", "0.5", "1", "1.5", "1.9"):
        for s in (1, 3):
            want, t_per_n = _timed("per_n", window, s, eps)
            times, same = [f"per-n {t_per_n:.2f} s"], True
            for path in ("walk", "sparse", "auto"):
                key, t = _timed(path, window, s, eps)
                same &= key == want
                times.append(f"{path} {t:.2f} s")
            ok &= same
            print(f"{window} eps {eps} s {s}: {want[0]['violations']} violators, "
                  f"{'same' if same else 'DIFFERENT'}; {', '.join(times)}", flush=True)
    return ok


if __name__ == "__main__":
    checks = {"windows": windows, "dense": dense, "grid": grid}
    names = sys.argv[1:] or list(checks)
    unknown = [name for name in names if name not in checks]
    if unknown:
        sys.exit(f"unknown check(s) {unknown}; choose from {list(checks)}")
    results = [checks[name]() for name in names]
    sys.exit(0 if all(results) else 1)
