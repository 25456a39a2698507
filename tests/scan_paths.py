"""scan_criterion down a chosen path, for the tests and slow_scan_windows.py.

scan_criterion takes the sparse path or the walk as _use_sparse decides
from (lo, hi, eps).  ``forced`` overrides that choice, and its "per_n"
path replaces the walk's chunk with a loop in which _decided_kernel
decides every n: the oracle that both paths must match.
"""

import contextlib

import flintlab.criterion as criterion

PATHS = ("walk", "sparse", "per_n")


def per_n_chunk(args):
    """The scan chunk as a per-n loop: _decided_kernel decides every n."""
    lo, hi, s, c_num, c_den, bits = args
    violations = []
    worst = (float("inf"), -1)
    for n in range(lo, hi + 1):
        verdict, ln_lhs, ln_rhs, _ = criterion._decided_kernel(n, s, c_num, c_den, bits)
        margin = ln_rhs - ln_lhs
        if not verdict:
            violations.append(n)
        if margin < worst[0]:
            worst = (margin, n)
    return violations, hi - lo + 1, worst


@contextlib.contextmanager
def forced(path):
    """Make scan_criterion take `path`, one of PATHS, until the block ends."""
    saved = criterion._use_sparse, criterion._scan_chunk
    criterion._use_sparse = lambda *args: path == "sparse"
    if path == "per_n":
        criterion._scan_chunk = per_n_chunk
    try:
        yield
    finally:
        criterion._use_sparse, criterion._scan_chunk = saved


def scan(path, window, s, eps, threads=1):
    with forced(path):
        return criterion.scan_criterion(window, s, eps, threads=threads)


def scan_key(result):
    """Everything a scan reports, down to the bits of every rhs ball."""
    return result.summary, [(r.n, r.satisfied, r.margin, r.ln_lhs, r.ln_rhs,
                             r.rhs.man, r.rhs.exp, r.rhs.err) for r in result.violations]
