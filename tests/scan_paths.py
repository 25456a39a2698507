"""scan_criterion down a chosen path, for the tests and slow_scan_windows.py.

scan_criterion takes the sparse path or the walk as _use_sparse decides
from (lo, hi, eps).  ``forced`` overrides that choice, and its "per_n"
path replaces scan_criterion with ``per_n_scan``: a brute-force loop in
which _decided_kernel decides every n, the oracle that both paths must
match.  It shares no merge or worst-margin code with scan_criterion.
"""

import contextlib
import math
from fractions import Fraction

import flintlab.criterion as criterion

PATHS = ("walk", "sparse", "per_n")


def per_n_scan(n_range, s, epsilon, bits=64, threads=1):
    """scan_criterion's result, with every n decided and its margin taken."""
    lo, hi = n_range
    c = Fraction(2 * s + 2) - Fraction(epsilon)
    violators = []
    worst = (math.inf, -1)
    for n in range(lo, hi + 1):
        verdict, ln_lhs, ln_rhs, _ = criterion._decided_kernel(
            n, s, c.numerator, c.denominator, bits)
        margin = ln_rhs - ln_lhs
        if not verdict:
            violators.append(n)
        if margin < worst[0]:
            worst = (margin, n)
    violations = [criterion.check_criterion(n, s, epsilon, bits) for n in violators]
    summary = {"checked": hi - lo + 1, "violations": len(violations),
               "worst_margin_n": worst[1], "worst_margin": worst[0]}
    return criterion.ScanResult(violations, summary)


@contextlib.contextmanager
def forced(path):
    """Make scan_criterion take `path`, one of PATHS, until the block ends."""
    saved = criterion._use_sparse, criterion.scan_criterion
    criterion._use_sparse = lambda *args: path == "sparse"
    if path == "per_n":
        criterion.scan_criterion = per_n_scan
    try:
        yield
    finally:
        criterion._use_sparse, criterion.scan_criterion = saved


def scan(path, window, s, eps, threads=1):
    with forced(path):
        return criterion.scan_criterion(window, s, eps, threads=threads)


def scan_key(result):
    """Everything a scan reports, down to the bits of every rhs ball."""
    return result.summary, [(r.n, r.satisfied, r.margin, r.ln_lhs, r.ln_rhs,
                             r.rhs.man, r.rhs.exp, r.rhs.err) for r in result.violations]
