"""The oracle that scan_criterion must match, for the tests and slow_scan_windows.py.

scan_criterion decides windows around the near multiples of pi on the
escalating kernel.  ``per_n_scan`` is a brute-force loop in which
_decided_kernel decides every n.  It shares no window, merge or
worst-margin code with scan_criterion.  ``scan_key`` is what the two
must agree on.
"""

import math
from fractions import Fraction

import flintlab.criterion as criterion


def per_n_scan(n_range, s, epsilon, bits=64, threads=1):
    """scan_criterion's result, with every n decided and its margin taken."""
    lo, hi = n_range
    p = 2 - Fraction(epsilon)
    violators = []
    worst = (math.inf, -1)
    for n in range(lo, hi + 1):
        verdict, ln_lhs, ln_rhs, _ = criterion._decided_kernel(n, s, p, bits)
        margin = ln_rhs - ln_lhs
        if not verdict:
            violators.append(n)
        if margin < worst[0]:
            worst = (margin, n)
    violations = [criterion.check_criterion(n, s, epsilon, bits) for n in violators]
    summary = {"checked": hi - lo + 1, "violations": len(violations),
               "worst_margin_n": worst[1], "worst_margin": worst[0]}
    return criterion.ScanResult(violations, summary)


def scan_key(result):
    """Everything a scan reports, down to the bits of every rhs ball."""
    return result.summary, [(r.n, r.satisfied, r.margin, r.ln_lhs, r.ln_rhs,
                             r.rhs.man, r.rhs.exp, r.rhs.err) for r in result.violations]
