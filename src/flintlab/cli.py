"""Command-line surface over every operation in the package.

Each ``_cmd_<name>`` computes its result once and returns one
:class:`_Record`: the JSON document, the text lines, the CSV rows
(header first) and the exit code.  ``_render`` is the only place that
reads ``--format``; CSV is comma-separated, RFC 4180-quoted and
LF-terminated.  ``main`` checks ``--bits >= 8`` once for every
subcommand that has it.  Integer options also take exact
``<digits>e<digits>`` (``_int``).  ``flintlab --help`` prints ``_DESCRIPTION``.

Only ``mpreal`` and ``errors`` load with this module.  Each ``_cmd_<name>``
imports what else it runs when it is called, so a cold start loads only
that, and a name replaced in its home module (a test's patch, a tracing
wrapper) is the one the command calls.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import NamedTuple

from .errors import CheckpointMismatchError, PrecisionError, UsageError
from .mpreal import MpReal, compute_pi, floor_log10, sin_int

__all__ = ["main", "build_parser"]

_DESCRIPTION = """\
Command-line surface over every operation in the package.

Exit codes: 0 success, 1 usage/domain error, 2 precision or resource
error, 3 checkpoint mismatch, 130 interrupted (``KeyboardInterrupt``).
Any other exception -- a bug, or a ``BrokenProcessPool`` when a scan
worker dies -- exits 1.  Every failure also writes a one-line JSON
object ``{"error": <type>, "message": <text>}`` to stderr.

``--format`` selects text (default), json (one well-formed document per
run) or csv.  Decimal output never prints digits outside the error
bound; the bound itself travels in an explicit ``err`` field.
"""


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exceptions, not exits.

    Options must be spelled in full: a prefix such as ``--s`` is an error,
    not an abbreviation of the one option it happens to start.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


_INT_MAX_DIGITS = 4300    # CPython's default limit on int <-> str conversion


def _int(text: str) -> int:
    """An integer option: what int() takes, or exact ``<digits>e<digits>``.

    ``1e12`` is 10**12.  Fractions (``1.5``, ``1e-3``) are refused, and so
    is a result of more than 4300 digits, with int()'s usage message.
    """
    try:
        return int(text)
    except ValueError:
        pass
    match = re.fullmatch(r"([0-9]+)e([0-9]+)", text)
    if match:
        man, exp = match[1].lstrip("0"), match[2].lstrip("0") or "0"
        if len(exp) < 5 and len(man) + int(exp) <= _INT_MAX_DIGITS:
            return int(man or 0) * 10 ** int(exp)
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


class _Record(NamedTuple):
    """One command's output in every format; ``csv`` None prints ``text``."""

    doc: dict
    text: list
    csv: list | None
    code: int = 0


def _render(record: _Record, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(record.doc) + "\n")
    elif fmt == "csv" and record.csv is not None:
        import csv
        csv.writer(sys.stdout, lineterminator="\n").writerows(record.csv)
    else:
        for line in record.text:
            print(line)


def _kv(pairs) -> list:
    return [f"{key}: {value}" for key, value in pairs]


def _one_row(doc: dict, *keys: str) -> list:
    """CSV header plus the single row of ``doc``'s values under ``keys``."""
    return [list(keys), [doc[k] for k in keys]]


def _sci(x: Fraction, digits: int = 3) -> str:
    """Short scientific rendering of a non-negative fraction, rounded up,
    so a printed error bound is never below the radius it stands for.

    The exponent is mpreal.floor_log10; a mantissa that rounds up to 10
    carries into it.
    """
    if x == 0:
        return "0"
    num, den = x.numerator, x.denominator
    e10 = floor_log10(num, den)
    # x / 10**e10 = top / bottom
    top, bottom = (num, den * 10 ** e10) if e10 >= 0 else (num * 10 ** -e10, den)
    scaled = -(-top * 10 ** (digits - 1) // bottom)
    if scaled == 10 ** digits:
        scaled //= 10
        e10 += 1
    mant = f"{scaled / 10 ** (digits - 1):.{digits - 1}f}"
    return f"{mant}e{e10:+03d}"


# ---------------------------------------------------------------- sum / term

def _number(x: int | Fraction) -> int | float:
    """An int as itself, a Fraction as the nearest float, for printing."""
    return x if isinstance(x, int) else float(x)


def _cmd_sum(args) -> _Record:
    from .series import SeriesSpec, load_checkpoint, partial_sum, save_checkpoint
    spec = SeriesSpec(s=args.s, u=args.u, v=args.v, bits=args.bits)
    checkpoint = load_checkpoint(args.resume) if args.resume else None
    result = partial_sum(args.k, spec, checkpoint=checkpoint)
    if args.checkpoint:
        save_checkpoint(result, args.checkpoint)
    doc = {"k": result.k, "s": spec.s, "u": spec.u, "v": _number(spec.v), "bits": spec.bits,
           "value": result.value.decimal(), "err": _sci(result.err)}
    return _Record(doc, _kv(doc.items()),
                   _one_row(doc, "k", "s", "u", "v", "value", "err"))


def _cmd_term(args) -> _Record:
    from .series import SeriesSpec, term
    spec = SeriesSpec(s=args.s, u=args.u, v=args.v, bits=args.bits)
    val = term(args.n, spec)
    doc = {"n": args.n, "s": spec.s, "u": spec.u, "v": _number(spec.v), "bits": spec.bits,
           "value": val.decimal(), "err": _sci(val.err)}
    return _Record(doc, _kv((k, doc[k]) for k in ("n", "s", "value", "err")),
                   _one_row(doc, "n", "s", "u", "v", "value", "err"))


# ---------------------------------------------------------------- g / coeffs

def _cmd_g(args) -> _Record:
    from .combinatorics import g_value
    result = g_value(args.n)
    doc = {"n": result.n, "g": result.value}
    return _Record(doc, [result.value], _one_row(doc, "n", "g"))


def _cmd_coeffs(args) -> _Record:
    from .combinatorics import multiple_angle_coefficients
    coeffs = [[p, c] for p, c in multiple_angle_coefficients(args.n)]
    return _Record({"n": args.n, "coefficients": coeffs},
                   [f"{p} {c}" for p, c in coeffs], [["power", "coeff"]] + coeffs)


# ---------------------------------------------------------------- pi / sin / cf

def _matched_fraction_digits(ours: str, fixture: str) -> tuple[int, bool]:
    """Common fractional-digit prefix length, and whether the overlap is
    contradiction-free.  The last digit of the shorter string is rounded
    rather than truncated, so it is excluded from the comparison."""
    a, b = ours.partition(".")[2], fixture.partition(".")[2]
    a, b = (a[:-1], b) if len(a) <= len(b) else (a, b[:-1])
    for matched, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return matched, False
    return min(len(a), len(b)), True


def _cmd_pi(args) -> _Record:
    if args.digits is not None and args.digits < 0:
        raise UsageError(f"--digits must be at least 0, got {args.digits}")
    value = compute_pi(args.bits)
    doc = {"bits": args.bits, "value": value.decimal(args.digits),
           "err": _sci(value.err)}
    if args.fixture:
        with open(args.fixture, "r", encoding="utf-8") as fh:
            fixture = fh.read().strip()
        matched, agrees = _matched_fraction_digits(value.decimal(), fixture)
        doc.update({"fixture": args.fixture, "matched_digits": matched,
                    "agrees": agrees})
    return _Record(doc, _kv(doc.items()), None)


def _cmd_sin(args) -> _Record:
    value = sin_int(args.n, args.bits)
    doc = {"n": args.n, "bits": args.bits, "value": value.decimal(),
           "err": _sci(value.err)}
    return _Record(doc, _kv(doc.items()), _one_row(doc, "n", "bits", "value", "err"))


def _cmd_cf(args) -> _Record:
    from .rationality import cf_terms
    expansion = cf_terms(compute_pi(args.bits), args.count)
    doc = {"bits": args.bits, "count": args.count, "terms": list(expansion.terms),
           "exhausted": expansion.exhausted, "complete": expansion.complete}
    text = _kv([("terms", " ".join(map(str, expansion.terms))),
                ("exhausted", expansion.exhausted), ("complete", expansion.complete)])
    return _Record(doc, text, [["index", "term"]] + list(enumerate(expansion.terms)))


# ---------------------------------------------------------------- spikes / lambda

def _cmd_spikes(args) -> _Record:
    from .rationality import spike_indices
    records = spike_indices(args.n_max, args.bits)
    doc = {"n_max": args.n_max, "bits": args.bits, "spikes": [
        {"n": r.n, "abs_sin": r.abs_sin.decimal(15), "lambda": r.lam,
         "is_convergent_numerator": r.is_convergent_numerator} for r in records]}
    text = [f"n={r.n} |sin n|={r.abs_sin.decimal(10)} lambda={r.lam} "
            f"convergent_numerator={r.is_convergent_numerator}" for r in records]
    rows = [[r.n, r.abs_sin.decimal(40), r.lam, int(r.is_convergent_numerator)]
            for r in records]
    return _Record(doc, text, [["n", "abs_sin", "lambda", "is_convergent_numerator"]] + rows)


def _cmd_lambda(args) -> _Record:
    from .rationality import local_exponent
    lam = local_exponent(args.n, args.bits)
    doc = {"n": args.n, "bits": args.bits, "lambda": lam}
    return _Record(doc, [repr(lam)], _one_row(doc, "n", "lambda"))


# ---------------------------------------------------------------- criterion / scan

def _criterion_csv(reports) -> list:
    return [["n", "s", "epsilon", "ln_lhs", "ln_rhs", "margin"]] + [
        [r.n, r.s, r.epsilon, r.ln_lhs, r.ln_rhs, r.margin] for r in reports]


def _cmd_criterion(args) -> _Record:
    from .criterion import check_criterion
    report = check_criterion(args.n, args.s, args.eps, args.bits)
    doc = {"n": report.n, "s": report.s, "epsilon": report.epsilon,
           "satisfied": report.satisfied, "margin": report.margin,
           "ln_lhs": report.ln_lhs, "ln_rhs": report.ln_rhs,
           "rhs": report.rhs.decimal(12)}
    verdict = "satisfied" if report.satisfied else "violated"
    text = _kv([("n", report.n), ("s", report.s), ("epsilon", report.epsilon),
                ("verdict", verdict), ("margin", report.margin),
                ("ln_lhs", report.ln_lhs), ("ln_rhs", report.ln_rhs)])
    return _Record(doc, text, _criterion_csv([report]))


def _cmd_scan(args) -> _Record:
    from .criterion import scan_criterion
    result = scan_criterion((getattr(args, "from"), args.to), args.s, args.eps,
                            args.bits, threads=args.threads)
    doc = {"from": getattr(args, "from"), "to": args.to, "s": args.s,
           "epsilon": float(Fraction(args.eps)), "bits": args.bits,
           "summary": result.summary,
           "violations": [{"n": r.n, "margin": r.margin, "ln_lhs": r.ln_lhs,
                           "ln_rhs": r.ln_rhs} for r in result.violations]}
    ns = " ".join(str(r.n) for r in result.violations)
    text = _kv([("violations", ns or "(none)")] + list(result.summary.items()))
    return _Record(doc, text, _criterion_csv(result.violations))


# ---------------------------------------------------------------- identity / equiv

def _cmd_sinc(args) -> _Record:
    from .identities import verify_sinc_limit
    ms = [Fraction(1, 10 ** j) for j in range(1, args.depth + 1)]
    pairs = verify_sinc_limit(ms, args.bits)
    rows = [{"m": m.decimal(20), "ratio": ratio.decimal(),
             "gap": _sci(abs(ratio.center() - 1))} for m, ratio in pairs]
    text = [f"m={row['m']} ratio={ratio.decimal(30)} gap={row['gap']}"
            for row, (_, ratio) in zip(rows, pairs)]
    return _Record({"check": "sinc", "rows": rows}, text,
                   [["m", "ratio", "gap"]] + [list(row.values()) for row in rows])


def _cmd_identity(args) -> _Record:
    if args.check == "sinc":
        return _cmd_sinc(args)
    from .identities import verify_angle_difference, verify_multiple_angle_sweep
    if args.check == "multiple-angle":
        reports = verify_multiple_angle_sweep(args.n_max, args.count,
                                              args.bits, seed=args.seed)
    else:                                  # angle-diff
        if args.n is None or args.a is None:
            raise UsageError("--check angle-diff requires --n and --a")
        n = MpReal.from_decimal(args.n, args.bits + 16)
        a = MpReal.from_decimal(args.a, args.bits + 16)
        reports = [verify_angle_difference(n, a, args.bits)]
    all_passed = all(r.passed for r in reports)
    doc = {"check": args.check, "pass": all_passed,
           "reports": [r.to_json() for r in reports]}
    text = [f"{'PASS' if r.passed else 'FAIL'} {r.description} "
            f"residual={r.residual.decimal(20)} tolerance={r.tolerance.decimal(20)}"
            for r in reports]
    text.append(f"{len(reports)} checks, {'all passed' if all_passed else 'FAILURES'}")
    rows = [[r.description, r.residual.decimal(40), r.tolerance.decimal(40), r.passed]
            for r in reports]
    return _Record(doc, text, [["description", "residual", "tolerance", "pass"]] + rows,
                   0 if all_passed else 2)


def _cmd_equiv(args) -> _Record:
    from .series import equivalence_experiment
    rows = equivalence_experiment(args.k, args.s_max, args.bits)
    doc = {"k": args.k, "bits": args.bits, "rows": [
        {"s": r.s, "value": r.value.decimal(), "err": _sci(r.err),
         "delta_vs_s0": _sci(r.delta_vs_s0)} for r in rows]}
    text = [f"s={r.s} value={r.value.decimal(40)} err={row['err']} "
            f"delta_vs_s0={row['delta_vs_s0']}" for r, row in zip(rows, doc["rows"])]
    return _Record(doc, text, [["s", "value", "err", "delta_vs_s0"]] + [
        list(row.values()) for row in doc["rows"]])


# ---------------------------------------------------------------- parser

def _finish(p: argparse.ArgumentParser, func, bits: int | None = None) -> None:
    """Attach the shared tail of every subcommand: --bits, --format, func."""
    if bits is not None:
        p.add_argument("--bits", type=_int, default=bits,
                       help="working precision in bits, >= 8 (default %(default)s)")
    p.add_argument("--format", choices=["text", "json", "csv"], default="text",
                   help="output format (default %(default)s)")
    p.set_defaults(func=func)


def build_parser() -> _Parser:
    parser = _Parser(prog="flintlab", description=_DESCRIPTION,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("sum", help="partial sum over n in [1, k]",
                       description="Output: k, s, u, v, bits, value, err.")
    p.add_argument("--k", type=_int, required=True)
    p.add_argument("--s", type=_int, default=0)
    p.add_argument("--u", type=_int, default=2)
    p.add_argument("--v", default=3, help="n-power v > 0, exact, e.g. 2.1 or 21/10")
    p.add_argument("--checkpoint", metavar="PATH", help="write checkpoint JSON here")
    p.add_argument("--resume", metavar="PATH", help="resume from checkpoint JSON")
    _finish(p, _cmd_sum, bits=128)

    p = sub.add_parser("term", help="single summand at index n",
                       description="Output: n, s, u, v, value, err.")
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--s", type=_int, default=0)
    p.add_argument("--u", type=_int, default=2)
    p.add_argument("--v", default=3, help="n-power v > 0, exact, e.g. 2.1 or 21/10")
    _finish(p, _cmd_term, bits=128)

    p = sub.add_parser("g", help="exact double-binomial value G(n)",
                       description="Output: the integer G(n).")
    p.add_argument("--n", type=_int, required=True)
    _finish(p, _cmd_g)

    p = sub.add_parser("coeffs", help="cosine-power coefficients of sin(n t)/sin(t)",
                       description="Output: power/coefficient pairs, ascending.")
    p.add_argument("--n", type=_int, required=True)
    _finish(p, _cmd_coeffs)

    p = sub.add_parser("pi", help="certified pi digits",
                       description="Output: value, err; with --fixture: "
                       "fixture, matched_digits, agrees.")
    p.add_argument("--digits", type=_int, default=None,
                   help="cap printed digits (default: all guaranteed)")
    p.add_argument("--fixture", metavar="PATH",
                   help="reference digit file to compare against")
    _finish(p, _cmd_pi, bits=128)

    p = sub.add_parser("sin", help="certified sin(n) for integer n",
                       description="Output: n, bits, value, err.")
    p.add_argument("--n", type=_int, required=True)
    _finish(p, _cmd_sin, bits=128)

    p = sub.add_parser("cf", help="stable continued-fraction terms of pi",
                       description="Output: terms plus exhausted/complete flags.")
    p.add_argument("--count", type=_int, default=20)
    _finish(p, _cmd_cf, bits=128)

    p = sub.add_parser("spikes", help="record minima of |sin n|",
                       description="Output per spike: n, abs_sin, lambda, "
                       "is_convergent_numerator.")
    p.add_argument("--n-max", type=_int, required=True)
    _finish(p, _cmd_spikes, bits=64)

    p = sub.add_parser("lambda", help="local sine exponent -ln|sin n|/ln n",
                       description="Output: the exponent as a float.")
    p.add_argument("--n", type=_int, required=True)
    _finish(p, _cmd_lambda, bits=64)

    p = sub.add_parser("criterion", help="one bounding inequality check",
                       description="Output: n, s, epsilon, verdict, margin, "
                       "ln_lhs, ln_rhs.")
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--s", type=_int, required=True)
    p.add_argument("--eps", required=True, help="epsilon in (0, 2), e.g. 0.1")
    _finish(p, _cmd_criterion, bits=64)

    p = sub.add_parser("scan", help="bounding inequality over a range",
                       description="Output: violation rows (csv), or summary "
                       "plus violations (text/json).")
    p.add_argument("--from", type=_int, required=True, dest="from")
    p.add_argument("--to", type=_int, required=True)
    p.add_argument("--s", type=_int, required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--threads", type=_int, default=1,
                   help="worker processes for pieces of candidates; output does not depend on it")
    _finish(p, _cmd_scan, bits=64)

    p = sub.add_parser("identity", help="residual checks of the trig identities",
                       description="Checks: multiple-angle (--n-max --count "
                       "--seed), sinc (--depth), angle-diff (--n --a).  "
                       "Output: residual reports.")
    p.add_argument("--check", required=True,
                   choices=["multiple-angle", "sinc", "angle-diff"])
    p.add_argument("--n-max", type=_int, default=60)
    p.add_argument("--count", type=_int, default=50)
    p.add_argument("--seed", type=_int, default=7041)
    p.add_argument("--depth", type=_int, default=8)
    p.add_argument("--n", default=None, help="angle-diff: n as a decimal string")
    p.add_argument("--a", default=None, help="angle-diff: a as a decimal string")
    _finish(p, _cmd_identity, bits=128)

    p = sub.add_parser("equiv", help="partial sums across s with exact deltas",
                       description="Output per s: value, err, delta_vs_s0.")
    p.add_argument("--k", type=_int, required=True)
    p.add_argument("--s-max", type=_int, default=3)
    _finish(p, _cmd_equiv, bits=128)

    return parser


# failure type -> exit code; any other exception is a bug and exits 1
_EXIT_CODES = ((CheckpointMismatchError, 3), (UsageError, 1), (PrecisionError, 2),
               (KeyboardInterrupt, 130))


def _emit_error(exc: BaseException) -> None:
    sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "bits", 8) < 8:
            raise UsageError(f"--bits must be at least 8, got {args.bits}")
        record = args.func(args)
        _render(record, args.format)
        return record.code
    except SystemExit as exc:        # --help and friends
        return int(exc.code or 0)
    except OSError as exc:           # unreadable or unwritable files: a usage error
        _emit_error(UsageError(str(exc)))
        return 1
    except (Exception, KeyboardInterrupt) as exc:   # still one JSON line, never a traceback
        _emit_error(exc)
        return next((code for kind, code in _EXIT_CODES if isinstance(exc, kind)), 1)
