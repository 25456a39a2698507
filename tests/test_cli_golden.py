"""Golden stdout of every subcommand in every output format.

Each case runs ``flintlab.cli.main`` in-process and compares its stdout
byte for byte with ``tests/data/cli_golden/<case>.out``.  The files pin
the CLI's byte-identity contract: a mismatch means the code changed what
it prints, not that the golden is stale.  Regenerate them only for a
deliberate, documented output change:

    PYTHONPATH=src python tests/test_cli_golden.py --write
"""

import csv
import io
import sys

import pytest

import flintlab.criterion as criterion
from flintlab.cli import main
from oracles import DATA_DIR
from scan_paths import per_n_scan

GOLDEN_DIR = DATA_DIR / "cli_golden"
FORMATS = ("text", "json", "csv")

COMMANDS = {
    "sum": ["sum", "--k", "200", "--s", "1", "--bits", "96"],
    "term": ["term", "--n", "355"],
    "g": ["g", "--n", "12"],
    "coeffs": ["coeffs", "--n", "7"],
    "pi": ["pi", "--bits", "512"],
    "pi_digits": ["pi", "--bits", "256", "--digits", "30"],
    "sin": ["sin", "--n", "355"],
    "sin_big": ["sin", "--n", "1000000007", "--bits", "64"],
    "cf": ["cf", "--bits", "256", "--count", "20"],
    "spikes": ["spikes", "--n-max", "400"],
    "lambda": ["lambda", "--n", "355"],
    "criterion": ["criterion", "--n", "355", "--s", "1", "--eps", "0.1"],
    "scan": ["scan", "--from", "1", "--to", "400", "--s", "1", "--eps", "0.1",
             "--threads", "1"],
    "identity_multiple_angle": ["identity", "--check", "multiple-angle",
                                "--n-max", "6", "--count", "3", "--bits", "128"],
    "identity_sinc": ["identity", "--check", "sinc", "--depth", "5"],
    "identity_angle_diff": ["identity", "--check", "angle-diff",
                            "--n", "1000000.5", "--a", "0.25"],
    "identity_angle_diff_small": ["identity", "--check", "angle-diff",
                                  "--n=-2.75", "--a", "1.5", "--bits", "96"],
    "equiv": ["equiv", "--k", "100", "--s-max", "2"],
}

CASES = [(f"{name}.{fmt}", argv + ["--format", fmt])
         for name, argv in COMMANDS.items() for fmt in FORMATS]


def _stdout(capsys, argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.mark.parametrize("case, argv", CASES, ids=[c for c, _ in CASES])
def test_cli_stdout_matches_golden(capsys, case, argv):
    code, out = _stdout(capsys, argv)
    assert code == 0
    assert out.encode() == (GOLDEN_DIR / f"{case}.out").read_bytes()


SCAN_CASES = [(case, argv) for case, argv in CASES if case.startswith("scan.")]


@pytest.mark.parametrize("path", ["auto", "per_n"])
@pytest.mark.parametrize("case, argv", SCAN_CASES, ids=[c for c, _ in SCAN_CASES])
def test_scan_golden_on_every_path(capsys, monkeypatch, case, argv, path):
    if path == "per_n":
        monkeypatch.setattr(criterion, "scan_criterion", per_n_scan)
    code, out = _stdout(capsys, argv)
    assert code == 0
    assert out.encode() == (GOLDEN_DIR / f"{case}.out").read_bytes()


CSV_CASES = [(case, argv) for case, argv in CASES if case.endswith(".csv")]


@pytest.mark.parametrize("case, argv", CSV_CASES, ids=[c for c, _ in CSV_CASES])
def test_csv_is_lf_terminated_and_rectangular(capsys, case, argv):
    code, out = _stdout(capsys, argv)
    assert code == 0
    assert "\r" not in out
    rows = list(csv.reader(io.StringIO(out)))
    assert all(len(row) == len(rows[0]) for row in rows), rows


def test_every_subcommand_has_a_golden():
    covered = {argv[0] for _, argv in CASES}
    assert covered == {"sum", "term", "g", "coeffs", "pi", "sin", "cf", "spikes",
                       "lambda", "criterion", "scan", "identity", "equiv"}


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    import contextlib

    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for case, argv in CASES:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(list(argv)) == 0, case
        (GOLDEN_DIR / f"{case}.out").write_bytes(buf.getvalue().encode())
