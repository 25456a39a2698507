"""Command-line surface over every operation in the package.

Exit codes: 0 success, 1 usage/domain error, 2 precision or resource
error, 3 checkpoint mismatch, 130 interrupted (``KeyboardInterrupt``).
Any other exception -- a bug, or a ``BrokenProcessPool`` when a scan
worker dies -- exits 1.  Every failure also writes a one-line JSON
object ``{"error": <type>, "message": <text>}`` to stderr.

``--format`` selects text (default), json (one well-formed document per
run) or csv.  Decimal output never prints digits outside the error
bound; the bound itself travels in an explicit ``err`` field.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .combinatorics import g_value, multiple_angle_coefficients
from .criterion import check_criterion, scan_criterion, write_scan_csv, write_scan_summary
from .errors import CheckpointMismatchError, PrecisionError, UsageError
from .identities import (
    verify_angle_difference,
    verify_iteration_ratio,
    verify_multiple_angle_sweep,
    verify_sinc_limit,
)
from .mpreal import MpReal, compute_pi, sin_int
from .rationality import cf_terms, local_exponent, spike_indices, write_spike_csv
from .series import (
    SeriesSpec,
    load_checkpoint,
    partial_sum,
    save_checkpoint,
    equivalence_experiment,
    term,
    write_series_csv,
    _sci,
)

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exceptions, not exits."""

    def error(self, message):
        raise UsageError(message)


def _require_cli_bits(bits: int) -> None:
    if bits < 8:
        raise UsageError(f"--bits must be at least 8, got {bits}")


def _print_kv(pairs) -> None:
    for key, value in pairs:
        print(f"{key}: {value}")


def _json_doc(doc: dict) -> None:
    json.dump(doc, sys.stdout)
    sys.stdout.write("\n")


# ---------------------------------------------------------------- sum / term

def _series_spec(args) -> SeriesSpec:
    _require_cli_bits(args.bits)
    return SeriesSpec(s=args.s, u=args.u, v=args.v, bits=args.bits)


def _cmd_sum(args) -> int:
    spec = _series_spec(args)
    checkpoint = load_checkpoint(args.resume) if args.resume else None
    result = partial_sum(args.k, spec, checkpoint=checkpoint)
    if args.checkpoint:
        save_checkpoint(result, args.checkpoint)
    value = result.value.decimal()
    err = _sci(result.err)
    if args.format == "json":
        _json_doc({"k": result.k, "s": spec.s, "u": spec.u, "v": spec.v,
                   "bits": spec.bits, "value": value, "err": err})
    elif args.format == "csv":
        write_series_csv([result], sys.stdout)
    else:
        _print_kv([("k", result.k), ("s", spec.s), ("u", spec.u), ("v", spec.v),
                   ("bits", spec.bits), ("value", value), ("err", err)])
    return 0


def _cmd_term(args) -> int:
    spec = _series_spec(args)
    val = term(args.n, spec)
    value, err = val.decimal(), _sci(val.err)
    if args.format == "json":
        _json_doc({"n": args.n, "s": spec.s, "u": spec.u, "v": spec.v,
                   "bits": spec.bits, "value": value, "err": err})
    elif args.format == "csv":
        print("n,s,u,v,value,err")
        print(f"{args.n},{spec.s},{spec.u},{spec.v},{value},{err}")
    else:
        _print_kv([("n", args.n), ("s", spec.s), ("value", value), ("err", err)])
    return 0


# ---------------------------------------------------------------- g / coeffs

def _cmd_g(args) -> int:
    result = g_value(args.n)
    if args.format == "json":
        _json_doc({"n": result.n, "g": result.value})
    elif args.format == "csv":
        print("n,g")
        print(f"{result.n},{result.value}")
    else:
        print(result.value)
    return 0


def _cmd_coeffs(args) -> int:
    coeffs = multiple_angle_coefficients(args.n)
    if args.format == "json":
        _json_doc({"n": args.n, "coefficients": [[p, c] for p, c in coeffs]})
    elif args.format == "csv":
        print("power,coeff")
        for p, c in coeffs:
            print(f"{p},{c}")
    else:
        for p, c in coeffs:
            print(f"{p} {c}")
    return 0


# ---------------------------------------------------------------- pi / sin / cf

def _matched_fraction_digits(ours: str, fixture: str) -> tuple[int, bool]:
    """Common fractional-digit prefix length, and whether the overlap is
    contradiction-free.  The last digit of the shorter string is rounded
    rather than truncated, so it is excluded from the comparison."""
    def frac(s: str) -> str:
        return s.split(".", 1)[1] if "." in s else ""
    a, b = frac(ours), frac(fixture)
    if len(a) <= len(b):
        a = a[:-1]
    else:
        b = b[:-1]
    matched = 0
    for x, y in zip(a, b):
        if x != y:
            return matched, False
        matched += 1
    return matched, True


def _cmd_pi(args) -> int:
    _require_cli_bits(args.bits)
    value = compute_pi(args.bits)
    rendered = value.decimal(args.digits)
    fixture_path = args.fixture or os.environ.get("FLINTLAB_PI_FIXTURE")
    doc = {"bits": args.bits, "value": rendered, "err": _sci(value.err)}
    if fixture_path:
        with open(fixture_path, "r", encoding="utf-8") as fh:
            fixture = fh.read().strip()
        matched, agrees = _matched_fraction_digits(value.decimal(), fixture)
        doc.update({"fixture": fixture_path, "matched_digits": matched,
                    "agrees": agrees})
    if args.format == "json":
        _json_doc(doc)
    else:
        _print_kv(doc.items())
    return 0


def _cmd_sin(args) -> int:
    _require_cli_bits(args.bits)
    value = sin_int(args.n, args.bits)
    pairs = [("n", args.n), ("bits", args.bits),
             ("value", value.decimal()), ("err", _sci(value.err))]
    if args.format == "json":
        _json_doc(dict(pairs))
    elif args.format == "csv":
        print("n,bits,value,err")
        print(f"{args.n},{args.bits},{value.decimal()},{_sci(value.err)}")
    else:
        _print_kv(pairs)
    return 0


def _cmd_cf(args) -> int:
    _require_cli_bits(args.bits)
    expansion = cf_terms(compute_pi(args.bits), args.count)
    if args.format == "json":
        _json_doc({"bits": args.bits, "count": args.count,
                   "terms": list(expansion.terms),
                   "exhausted": expansion.exhausted,
                   "complete": expansion.complete})
    elif args.format == "csv":
        print("index,term")
        for i, t in enumerate(expansion.terms):
            print(f"{i},{t}")
    else:
        _print_kv([("terms", " ".join(map(str, expansion.terms))),
                   ("exhausted", expansion.exhausted),
                   ("complete", expansion.complete)])
    return 0


# ---------------------------------------------------------------- spikes / lambda

def _cmd_spikes(args) -> int:
    _require_cli_bits(args.bits)
    records = spike_indices(args.n_max, args.bits)
    if args.format == "json":
        _json_doc({"n_max": args.n_max, "bits": args.bits, "spikes": [
            {"n": r.n, "abs_sin": r.abs_sin.decimal(15),
             "lambda": r.lam, "is_convergent_numerator": r.is_convergent_numerator}
            for r in records]})
    elif args.format == "csv":
        write_spike_csv(records, sys.stdout)
    else:
        for r in records:
            print(f"n={r.n} |sin n|={r.abs_sin.decimal(10)} lambda={r.lam} "
                  f"convergent_numerator={r.is_convergent_numerator}")
    return 0


def _cmd_lambda(args) -> int:
    _require_cli_bits(args.bits)
    lam = local_exponent(args.n, args.bits)
    if args.format == "json":
        _json_doc({"n": args.n, "bits": args.bits, "lambda": lam})
    elif args.format == "csv":
        print("n,lambda")
        print(f"{args.n},{lam!r}")
    else:
        print(f"{lam!r}")
    return 0


# ---------------------------------------------------------------- criterion / scan

def _cmd_criterion(args) -> int:
    _require_cli_bits(args.bits)
    report = check_criterion(args.n, args.s, args.eps, args.bits)
    if args.format == "json":
        _json_doc({"n": report.n, "s": report.s, "epsilon": report.epsilon,
                   "satisfied": report.satisfied, "margin": report.margin,
                   "ln_lhs": report.ln_lhs, "ln_rhs": report.ln_rhs,
                   "rhs": report.rhs.decimal(12)})
    elif args.format == "csv":
        write_scan_csv([report], sys.stdout)
    else:
        verdict = "satisfied" if report.satisfied else "violated"
        _print_kv([("n", report.n), ("s", report.s), ("epsilon", report.epsilon),
                   ("verdict", verdict), ("margin", f"{report.margin!r}"),
                   ("ln_lhs", f"{report.ln_lhs!r}"), ("ln_rhs", f"{report.ln_rhs!r}")])
    return 0


def _cmd_scan(args) -> int:
    _require_cli_bits(args.bits)
    if args.threads < 1:
        raise UsageError(f"--threads must be at least 1, got {args.threads}")
    result = scan_criterion((getattr(args, "from"), args.to), args.s, args.eps,
                            args.bits, threads=args.threads)
    if args.summary_out:
        with open(args.summary_out, "w", encoding="utf-8") as fh:
            write_scan_summary(result, fh)
    if args.format == "json":
        _json_doc({"from": getattr(args, "from"), "to": args.to, "s": args.s,
                   "epsilon": float(Fraction(args.eps)), "bits": args.bits,
                   "summary": result.summary,
                   "violations": [{"n": r.n, "margin": r.margin,
                                   "ln_lhs": r.ln_lhs, "ln_rhs": r.ln_rhs}
                                  for r in result.violations]})
    elif args.format == "csv":
        write_scan_csv(result.violations, sys.stdout)
    else:
        ns = " ".join(str(r.n) for r in result.violations)
        _print_kv([("violations", ns or "(none)")] + list(result.summary.items()))
    return 0


# ---------------------------------------------------------------- identity / equiv

def _identity_reports(args):
    _require_cli_bits(args.bits)
    if args.check == "multiple-angle":
        return verify_multiple_angle_sweep(args.n_max, args.count,
                                           args.bits, seed=args.seed)
    if args.check == "angle-diff":
        if args.n is None or args.a is None:
            raise UsageError("--check angle-diff requires --n and --a")
        n = MpReal.from_decimal(args.n, args.bits + 16)
        a = MpReal.from_decimal(args.a, args.bits + 16)
        return [verify_angle_difference(n, a, args.bits)]
    if args.check == "iteration-ratio":
        return [verify_iteration_ratio(args.k, args.s, args.bits)]
    raise UsageError(f"unknown identity check {args.check!r}")


def _cmd_identity(args) -> int:
    if args.check == "sinc":
        _require_cli_bits(args.bits)
        ms = [Fraction(1, 10 ** j) for j in range(1, args.depth + 1)]
        rows = verify_sinc_limit(ms, args.bits)
        if args.format == "json":
            _json_doc({"check": "sinc", "rows": [
                {"m": m.decimal(20), "ratio": ratio.decimal(),
                 "gap": _sci(abs(ratio.center() - 1))} for m, ratio in rows]})
        elif args.format == "csv":
            print("m,ratio,gap")
            for m, ratio in rows:
                print(f"{m.decimal(20)},{ratio.decimal()},{_sci(abs(ratio.center() - 1))}")
        else:
            for m, ratio in rows:
                print(f"m={m.decimal(20)} ratio={ratio.decimal(30)} "
                      f"gap={_sci(abs(ratio.center() - 1))}")
        return 0
    reports = _identity_reports(args)
    all_passed = all(r.passed for r in reports)
    if args.format == "json":
        _json_doc({"check": args.check, "pass": all_passed,
                   "reports": [r.to_json() for r in reports]})
    elif args.format == "csv":
        print("description,residual,tolerance,pass")
        for r in reports:
            print(f"{r.description},{r.residual.decimal(40)},"
                  f"{r.tolerance.decimal(40)},{r.passed}")
    else:
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            print(f"{status} {r.description} residual={r.residual.decimal(20)} "
                  f"tolerance={r.tolerance.decimal(20)}")
        print(f"{len(reports)} checks, {'all passed' if all_passed else 'FAILURES'}")
    return 0 if all_passed else 2


def _cmd_equiv(args) -> int:
    _require_cli_bits(args.bits)
    rows = equivalence_experiment(args.k, args.s_max, args.bits)
    if args.format == "json":
        _json_doc({"k": args.k, "bits": args.bits, "rows": [
            {"s": r.s, "value": r.value.decimal(), "err": _sci(r.err),
             "delta_vs_s0": _sci(r.delta_vs_s0)} for r in rows]})
    elif args.format == "csv":
        print("s,value,err,delta_vs_s0")
        for r in rows:
            print(f"{r.s},{r.value.decimal()},{_sci(r.err)},{_sci(r.delta_vs_s0)}")
    else:
        for r in rows:
            print(f"s={r.s} value={r.value.decimal(40)} err={_sci(r.err)} "
                  f"delta_vs_s0={_sci(r.delta_vs_s0)}")
    return 0


# ---------------------------------------------------------------- parser

def _add_format(p: argparse.ArgumentParser, default: str = "text") -> None:
    p.add_argument("--format", choices=["text", "json", "csv"], default=default,
                   help="output format (default %(default)s)")


def _add_bits(p: argparse.ArgumentParser, default: int) -> None:
    p.add_argument("--bits", type=int, default=default,
                   help="working precision in bits, >= 8 (default %(default)s)")


def build_parser() -> _Parser:
    parser = _Parser(prog="flintlab", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("sum", help="partial sum over n in [1, k]",
                       description="Output: k, s, u, v, bits, value, err.")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, default=0)
    p.add_argument("--u", type=int, default=2)
    p.add_argument("--v", type=float, default=3)
    p.add_argument("--checkpoint", metavar="PATH", help="write checkpoint JSON here")
    p.add_argument("--resume", metavar="PATH", help="resume from checkpoint JSON")
    _add_bits(p, 128)
    _add_format(p)
    p.set_defaults(func=_cmd_sum)

    p = sub.add_parser("term", help="single summand at index n",
                       description="Output: n, s, u, v, value, err.")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, default=0)
    p.add_argument("--u", type=int, default=2)
    p.add_argument("--v", type=float, default=3)
    _add_bits(p, 128)
    _add_format(p)
    p.set_defaults(func=_cmd_term)

    p = sub.add_parser("g", help="exact double-binomial value G(n)",
                       description="Output: the integer G(n).")
    p.add_argument("--n", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_g)

    p = sub.add_parser("coeffs", help="cosine-power coefficients of sin(n t)/sin(t)",
                       description="Output: power/coefficient pairs, ascending.")
    p.add_argument("--n", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("pi", help="certified pi digits",
                       description="Output: value, err; with a fixture "
                       "(--fixture or FLINTLAB_PI_FIXTURE): matched_digits, agrees.")
    p.add_argument("--digits", type=int, default=None,
                   help="cap printed digits (default: all guaranteed)")
    p.add_argument("--fixture", metavar="PATH",
                   help="reference digit file to compare against")
    _add_bits(p, 128)
    _add_format(p)
    p.set_defaults(func=_cmd_pi)

    p = sub.add_parser("sin", help="certified sin(n) for integer n",
                       description="Output: n, bits, value, err.")
    p.add_argument("--n", type=int, required=True)
    _add_bits(p, 128)
    _add_format(p)
    p.set_defaults(func=_cmd_sin)

    p = sub.add_parser("cf", help="stable continued-fraction terms of pi",
                       description="Output: terms plus exhausted/complete flags.")
    p.add_argument("--count", type=int, default=20)
    _add_bits(p, 128)
    _add_format(p)
    p.set_defaults(func=_cmd_cf)

    p = sub.add_parser("spikes", help="record minima of |sin n|",
                       description="Output per spike: n, abs_sin, lambda, "
                       "is_convergent_numerator.")
    p.add_argument("--n-max", type=int, required=True)
    _add_bits(p, 64)
    _add_format(p)
    p.set_defaults(func=_cmd_spikes)

    p = sub.add_parser("lambda", help="local sine exponent -ln|sin n|/ln n",
                       description="Output: the exponent as a float.")
    p.add_argument("--n", type=int, required=True)
    _add_bits(p, 64)
    _add_format(p)
    p.set_defaults(func=_cmd_lambda)

    p = sub.add_parser("criterion", help="one bounding inequality check",
                       description="Output: n, s, epsilon, verdict, margin, "
                       "ln_lhs, ln_rhs.")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--eps", required=True, help="epsilon in (0, 2), e.g. 0.1")
    _add_bits(p, 64)
    _add_format(p)
    p.set_defaults(func=_cmd_criterion)

    p = sub.add_parser("scan", help="bounding inequality over a range",
                       description="Output: violation rows (csv), or summary "
                       "plus violations (text/json).")
    p.add_argument("--from", type=int, required=True, dest="from")
    p.add_argument("--to", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--summary-out", metavar="PATH",
                   help="also write the run summary JSON here")
    _add_bits(p, 64)
    _add_format(p)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("identity", help="residual checks of the trig identities",
                       description="Checks: multiple-angle (--n-max --count "
                       "--seed), sinc (--depth), angle-diff (--n --a), "
                       "iteration-ratio (--k --s).  Output: residual reports.")
    p.add_argument("--check", required=True,
                   choices=["multiple-angle", "sinc", "angle-diff", "iteration-ratio"])
    p.add_argument("--n-max", type=int, default=60)
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--seed", type=int, default=7041)
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--n", default=None, help="angle-diff: n as a decimal string")
    p.add_argument("--a", default=None, help="angle-diff: a as a decimal string")
    p.add_argument("--k", type=int, default=1000)
    p.add_argument("--s", type=int, default=1)
    _add_bits(p, 128)
    _add_format(p)
    p.set_defaults(func=_cmd_identity)

    p = sub.add_parser("equiv", help="partial sums across s with exact deltas",
                       description="Output per s: value, err, delta_vs_s0.")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s-max", type=int, default=3)
    _add_bits(p, 128)
    _add_format(p)
    p.set_defaults(func=_cmd_equiv)

    return parser


def _emit_error(exc: Exception) -> None:
    json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
    sys.stderr.write("\n")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:        # --help and friends
        return int(exc.code or 0)
    except CheckpointMismatchError as exc:
        _emit_error(exc)
        return 3
    except UsageError as exc:
        _emit_error(exc)
        return 1
    except OSError as exc:           # unreadable or unwritable files: a usage error
        _emit_error(UsageError(str(exc)))
        return 1
    except PrecisionError as exc:
        _emit_error(exc)
        return 2
    except KeyboardInterrupt as exc:
        _emit_error(exc)
        return 130
    except Exception as exc:         # last resort: still one JSON line, never a traceback
        _emit_error(exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
