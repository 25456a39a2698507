"""Fixed reference loops that tell how fast the machine runs right now.

The benchmark runs on shared machines whose speed drifts by up to 2x
within seconds, because other tenants contend for the same cores and
caches.  Every timed operation is therefore bracketed by runs of a
reference loop, and each time is reported in *reference seconds*:

    t_ref = t / slowdown,   slowdown = (loop time) / (loop's nominal time)

where the slowdown is the mean of the runs just before and just after
the measurement.  The nominal times are about the loops' median times
on the machine the benchmark was defined on (a 2-CPU Intel Xeon VM,
Python 3.11), so there reference seconds read roughly as seconds.

The loops have flintlab's instruction mix but none of its code, so a
change to flintlab cannot change them.  ``reference_loop`` does
fixed-point sines at integer arguments with Fraction error balls (the
`sum`/`spikes` path), fixed-point atanh and exp series (the `scan`
path) and some big-integer work.  ``big_number_loop``, run in a fresh
interpreter, mirrors `pi`: interpreter start, binary splitting, a long
division, decimal digits and a continued fraction.
"""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

NOMINAL_S = 0.04          # reference_loop() in a warm interpreter
COLD_NOMINAL_S = 0.14     # big_number_loop() in a fresh one, start included


def _atan_inv(q: int, terms: int) -> tuple[int, int]:
    """(num, den) of sum_{i<terms} (-1)^i / ((2i+1) q^(2i+1)) by binary splitting."""
    def split(lo: int, hi: int) -> tuple[int, int]:
        if hi - lo == 1:
            return (-1) ** lo, 2 * lo + 1
        mid = (lo + hi) // 2
        nl, dl = split(lo, mid)
        nr, dr = split(mid, hi)
        p = q * q
        return nl * dr * p ** (mid - lo) + nr * dl, dl * dr * p ** (mid - lo)
    num, den = split(0, terms)
    return num, den * q


def _pi_fixed(w: int) -> int:
    """pi * 2**w, truncated, by Machin's formula."""
    a_num, a_den = _atan_inv(5, w // 4 + 4)
    b_num, b_den = _atan_inv(239, w // 15 + 4)
    return ((16 * a_num * b_den - 4 * b_num * a_den) << w) // (a_den * b_den)


_PI_200 = _pi_fixed(200)


def _sines(first: int, count: int) -> int:
    w, acc = 120, 0
    pi_w = _PI_200 >> (200 - w)
    for n in range(first, first + count):
        k = ((n << w) * 2 + pi_w) // (2 * pi_w)
        x = abs((n << w) - k * pi_w)
        xx = (x * x) >> w
        term = total = x
        i = 1
        while term:
            term = (term * xx) // (((2 * i) * (2 * i + 1)) << w)
            total += -term if i & 1 else term
            i += 1
        err = Fraction(8 * i + 16 + (k >> 1), 1 << w)
        center = Fraction(total, 1 << w)
        acc ^= (center - err < center + err) + (-((-err.numerator << 72) // err.denominator))
    return acc


def _logs_and_exps(first: int, count: int) -> int:
    w, acc = 112, 0
    for n in range(first, first + count):
        half = 1 << (n.bit_length() - 1)
        t = ((n - half) << w) // (n + half)
        tt = (t * t) >> w
        p = total = t
        i = 1
        while p:
            p = (p * tt) >> w
            total += p // (2 * i + 1)
            i += 1
        r = total >> 3
        term, e = r, (1 << w) + r
        i = 2
        while term:
            term = (2 * term * r + (i << w)) // (2 * (i << w))
            e += term
            i += 1
        acc ^= e
    return acc


def _big_ints() -> int:
    pi = _pi_fixed(6000)
    digits = str(pi * 10 ** 1200 >> 6000)
    width = Fraction(1, pi | 1)
    d = 0
    while d < 200 and Fraction(1, 10 ** (d + 1)) > width:
        d += 1
    return len(digits) + d


def big_number_loop() -> int:
    """The `pi` workload's mix: binary splitting, a long division, decimal
    digits, a Fraction digit-count search and a continued fraction."""
    w = 5000
    pi = _pi_fixed(w)
    digits = str(pi * 10 ** 1200 >> w)
    lo, hi = Fraction(pi, 1 << w), Fraction(pi + 1, 1 << w)
    width = hi - lo
    d = 0
    while d < 1500 and Fraction(1, 10 ** (d + 1)) > width:
        d += 1
    terms = 0
    while terms < 1500:
        a, b = lo.numerator // lo.denominator, hi.numerator // hi.denominator
        if a != b or lo == a:
            break
        lo, hi = 1 / (hi - a), 1 / (lo - a)
        terms += 1
    return len(digits) + d + terms


def reference_loop() -> int:
    """About NOMINAL_S of fixed work; the result only keeps the work alive."""
    return _sines(1000, 700) ^ _logs_and_exps(1000, 1300) ^ _big_ints()


def timed() -> float:
    """Wall time of one reference_loop() in this interpreter."""
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


def _child(code: str) -> list[str]:
    return [sys.executable, "-c",
            "import sys; sys.path.insert(0, sys.argv[1]); import reference; " + code,
            str(Path(__file__).resolve().parent)]


def slowdown(processes: int = 1) -> float:
    """Time of reference_loop() over NOMINAL_S.

    With processes > 1 that many loops run at once, each in a fresh
    interpreter that times only its loop, for operations that keep that
    many CPUs busy; the result is their mean.
    """
    if processes == 1:
        return timed() / NOMINAL_S
    cmd = _child("reference.timed(); print(reference.timed())")
    children = [subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
                for _ in range(processes)]
    try:
        times = [float(child.communicate(timeout=60)[0]) for child in children]
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()
                child.wait()
    return sum(times) / processes / NOMINAL_S


def cold_slowdown() -> float:
    """Wall time of a fresh interpreter running big_number_loop(), over
    COLD_NOMINAL_S."""
    t0 = time.perf_counter()
    subprocess.run(_child("reference.big_number_loop()"), check=True, timeout=60)
    return (time.perf_counter() - t0) / COLD_NOMINAL_S
