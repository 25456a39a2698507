"""Freeze the reference value for the ``sum`` workload's output check.

Usage: python perfbench/make_reference.py      (from the repository root)

Computes S(K) = sum_{n=1}^{K} 1 / (sin^2(n) * n^3) with Python's
``decimal`` module at 150 significant digits and pi from the streaming
spigot in ``tests/oracles.py``.  No flintlab code is involved, so the
check in ``workloads.py`` compares the program against an independent
computation.

Error budget, for K = 8192:
  * pi: 160 spigot digits, truncated, so |pi - P| < 1e-158; with
    k = round(n/P) <= 2608 the reduced argument r = n - k*P is off by
    less than 3e-155, plus one rounding of 1e-150 relative.
  * sin r by its Taylor series with |r| < 1.58, summed until the term
    falls below 1e-160; each of ~80 steps rounds at 1e-150 relative
    (|terms| <= 2), so |error| < 1e-147.
  * min |sin n| over n <= K is |sin 355| > 3e-5, so sin n is known to
    relative error < 4e-143 and each term to < 1e-142 relative; terms
    are below 30, so the sum of K terms is off by < 3e-138 including
    the rounding of the accumulation.
The stored value is rounded to 110 decimals; the claimed error bound
1e-100 covers both with a wide margin.
"""

from __future__ import annotations

import json
import sys
from decimal import Decimal, localcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "data" / "sum_reference.json"

sys.path.insert(0, str(ROOT / "tests"))
from oracles import spigot_pi_digits  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import SUM_SPEC, SUM_TERMS  # noqa: E402


def taylor_sin(r: Decimal) -> Decimal:
    total = term = r
    r2 = r * r
    i = 1
    tiny = Decimal("1e-160")
    while abs(term) > tiny:
        term = -term * r2 / ((2 * i) * (2 * i + 1))
        total += term
        i += 1
    return total


def reference_sum(k: int) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 150
        pi = Decimal(spigot_pi_digits(160))
        total = Decimal(0)
        for n in range(1, k + 1):
            q = (Decimal(n) / pi).to_integral_value()
            s = taylor_sin(Decimal(n) - q * pi)
            total += 1 / (s * s * Decimal(n) ** 3)
        return total


def main() -> None:
    s, u, v, _bits = SUM_SPEC
    if (s, u, v) != (0, 2, 3):
        raise SystemExit("the reference is for the classical series s=0, u=2, v=3")
    value = reference_sum(SUM_TERMS)
    doc = {"k": SUM_TERMS, "s": s, "u": u, "v": v,
           "value": f"{value:.110f}", "err": "1e-100",
           "method": "decimal, 150 digits; spigot pi (tests/oracles.py); Taylor sine"}
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {OUT}: S({SUM_TERMS}) = {doc['value'][:40]}...")


if __name__ == "__main__":
    main()
