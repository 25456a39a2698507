import json
import random
import time
from concurrent.futures.process import BrokenProcessPool
from fractions import Fraction

import pytest

import flintlab.cli as cli
import flintlab.criterion as criterion
from flintlab import MAX_BITS, SeriesSpec, partial_sum, sin_int
from flintlab.cli import main
from flintlab.rationality import convergent_numerators_up_to
from oracles import DATA_DIR, sci_ref

FIXTURE = str(DATA_DIR / "pi_1000.txt")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_g_prints_bare_integer(capsys):
    code, out, err = run(capsys, "g", "--n", "4")
    assert (code, out.strip(), err) == (0, "4", "")


def test_g_json(capsys):
    code, out, _ = run(capsys, "g", "--n", "7", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 7, "g": 7}


def test_coeffs_text(capsys):
    code, out, _ = run(capsys, "coeffs", "--n", "5")
    assert code == 0
    assert out.splitlines() == ["0 1", "2 -12", "4 16"]


def test_sum_json_matches_api(capsys):
    code, out, _ = run(capsys, "sum", "--k", "1000", "--s", "0",
                       "--bits", "128", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    result = partial_sum(1000, SeriesSpec(s=0, bits=128))
    assert doc["k"] == 1000 and doc["s"] == 0
    assert doc["value"] == result.value.decimal()
    assert "err" in doc


def test_sum_csv_header(capsys):
    code, out, _ = run(capsys, "sum", "--k", "10", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "k,s,u,v,value,err"


def test_term_json(capsys):
    code, out, _ = run(capsys, "term", "--n", "355", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 355
    assert doc["value"].startswith("24.59818122")


def test_pi_with_fixture_flag(capsys):
    code, out, _ = run(capsys, "pi", "--bits", "3400",
                       "--fixture", FIXTURE, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["matched_digits"] >= 1000
    assert doc["agrees"] is True


def test_pi_ignores_a_fixture_environment_variable(capsys, monkeypatch):
    # only --fixture names a reference file
    monkeypatch.setenv("FLINTLAB_PI_FIXTURE", FIXTURE)
    code, out, _ = run(capsys, "pi", "--bits", "256", "--format", "json")
    assert code == 0
    assert set(json.loads(out)) == {"bits", "value", "err"}


def test_pi_digit_cap(capsys):
    code, out, _ = run(capsys, "pi", "--bits", "128", "--digits", "10")
    assert code == 0
    assert "value: 3.1415926536" in out


def test_sin_json_matches_api(capsys):
    code, out, _ = run(capsys, "sin", "--n", "355", "--bits", "96",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == sin_int(355, 96).decimal()


def test_cf_json(capsys):
    code, out, _ = run(capsys, "cf", "--bits", "256", "--count", "20",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["terms"][:5] == [3, 7, 15, 1, 292]
    assert doc["exhausted"] is False


def test_spikes_csv(capsys):
    code, out, _ = run(capsys, "spikes", "--n-max", "400", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,abs_sin,lambda,is_convergent_numerator"
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "3", "22", "333", "355"]


def test_lambda_float(capsys):
    code, out, _ = run(capsys, "lambda", "--n", "355")
    assert code == 0
    assert float(out) == pytest.approx(1.7727016572988021, abs=0)


def test_criterion_json(capsys):
    code, out, _ = run(capsys, "criterion", "--n", "2", "--s", "1",
                       "--eps", "0.1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["satisfied"] is True
    assert doc["rhs"].startswith("12.3432")


def test_scan_csv_rows(capsys):
    code, out, _ = run(capsys, "scan", "--from", "1", "--to", "30",
                       "--s", "1", "--eps", "0.1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "3", "22"]


def test_scan_threads_identical_stdout(capsys):
    argv = ["scan", "--from", "1", "--to", "8200", "--s", "1", "--eps", "0.1",
            "--format", "csv"]
    code1, out1, _ = run(capsys, *argv, "--threads", "1")
    code2, out2, _ = run(capsys, *argv, "--threads", "3")
    assert code1 == code2 == 0
    assert out1 == out2


def test_identity_iteration_ratio_is_gone(capsys):
    # S_s/S_0 is compared by `equiv` alone
    for argv in (["--check", "iteration-ratio", "--k", "200", "--s", "2"],
                 ["--check", "sinc", "--k", "5"], ["--k", "5"],
                 ["--check", "multiple-angle", "--s", "2"]):
        code, out, err = run(capsys, "identity", *argv, "--format", "json")
        assert code == 1 and out == "", argv
        lines = err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "UsageError"


def test_identity_sinc_text(capsys):
    code, out, _ = run(capsys, "identity", "--check", "sinc", "--depth", "3")
    assert code == 0
    assert len(out.strip().splitlines()) == 3


def test_identity_multiple_angle_json(capsys):
    code, out, _ = run(capsys, "identity", "--check", "multiple-angle",
                       "--n-max", "4", "--count", "2", "--bits", "160",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert len(doc["reports"]) == 8


def test_identity_angle_diff_requires_inputs(capsys):
    code, _, err = run(capsys, "identity", "--check", "angle-diff")
    assert code == 1
    assert json.loads(err)["error"] == "UsageError"


def test_equiv_csv_flat_deltas(capsys):
    code, out, _ = run(capsys, "equiv", "--k", "50", "--s-max", "3",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "s,value,err,delta_vs_s0"
    assert len(lines) == 5
    assert all(line.endswith(",0") for line in lines[1:])


def test_missing_required_flag_is_usage_error(capsys):
    code, _, err = run(capsys, "sum")
    assert code == 1
    doc = json.loads(err)
    assert doc["error"] == "UsageError"
    assert "--k" in doc["message"]


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1
    assert json.loads(err)["error"] == "UsageError"


def test_low_bits_is_usage_error(capsys):
    code, _, err = run(capsys, "pi", "--bits", "4")
    assert code == 1
    assert "at least 8" in json.loads(err)["message"]


def test_negative_digit_cap_is_usage_error(capsys):
    code, out, err = run(capsys, "pi", "--digits", "-5")
    assert (code, out) == (1, "")
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "UsageError"


def test_empty_multiple_angle_sweep_is_usage_error(capsys):
    code, out, err = run(capsys, "identity", "--check", "multiple-angle", "--n-max", "0")
    assert (code, out) == (1, "")
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "DomainError"


def test_epsilon_out_of_range_is_usage_error(capsys):
    code, _, err = run(capsys, "criterion", "--n", "2", "--s", "1", "--eps", "3")
    assert code == 1
    assert json.loads(err)["error"] == "DomainError"


@pytest.mark.parametrize("argv", [
    ("criterion", "--n", "2", "--s", "1", "--eps", "abc"),
    ("scan", "--from", "1", "--to", "5", "--s", "1", "--eps", "1/0"),
])
def test_malformed_epsilon_is_domain_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "DomainError"


def test_scan_past_the_float_range_renders_in_every_format(capsys):
    lo = 1 << 1100
    argv = ("scan", "--from", str(lo), "--to", str(lo + 40), "--s", "1", "--eps", "1.9")
    for fmt in ("text", "json", "csv"):
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert (code, err) == (0, ""), fmt
        assert out
        if fmt == "json":
            want = criterion.scan_criterion((lo, lo + 40), 1, "1.9").summary
            assert json.loads(out)["summary"] == want


def test_scan_past_the_float_range_finds_the_convergent_numerator(capsys):
    # the first convergent numerator of pi past 2**1024 is the window's one violator
    p = min(q for q in convergent_numerators_up_to(1 << 1100) if q >= 1 << 1024)
    code, out, err = run(capsys, "scan", "--from", str(p - 20), "--to", str(p + 20),
                         "--s", "1", "--eps", "0.1", "--format", "csv")
    assert (code, err) == (0, "")
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == [str(p)]


def test_criterion_margin_near_pi_is_accurate(capsys):
    # a convergent numerator of pi near 1.1e36, where |sin n| is about 1e-36
    code, out, _ = run(capsys, "criterion", "--n", "1139633139961839625160418214775137593",
                       "--s", "1", "--eps", "0.1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["satisfied"] is False
    assert round(doc["margin"], 4) == -8.8338


def test_far_scan_is_fast(capsys):
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "scan", "--from", "1", "--to", "1000000000000000",
                       "--s", "1", "--eps", "0.1", "--format", "csv")
    assert time.perf_counter() - t0 < 1
    assert code == 0
    ns = [line.split(",")[0] for line in out.splitlines()[1:]]
    assert len(ns) == 62
    assert ns[-3:] == ["428224593349304", "567979811876093", "856449186698608"]


def test_large_power_sum_is_fast(capsys):
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "sum", "--k", "300", "--v", "100000", "--format", "json")
    assert time.perf_counter() - t0 < 1
    assert code == 0
    assert json.loads(out)["value"].startswith("1.412")


def test_huge_sine_power_fails_cleanly(capsys):
    # 1/|sin 1|**20000 needs a w whose m**u passes the bound on sine powers
    code, out, err = run(capsys, "sum", "--k", "3", "--u", "20000")
    assert (code, out) == (2, "")
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ResourceLimitError"


@pytest.mark.parametrize("command", ["sum --k 5", "term --n 5"])
@pytest.mark.parametrize("v", ["inf", "1e400", "0", "-2", "nan"])
def test_bad_power_is_domain_error(capsys, command, v):
    code, out, err = run(capsys, *command.split(), "--v", v)
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "DomainError"


def test_power_prints_as_a_number(capsys):
    _, out, _ = run(capsys, "sum", "--k", "5", "--v", "2.1", "--format", "json")
    assert '"v": 2.1,' in out
    assert json.loads(out)["value"] == partial_sum(5, SeriesSpec(v=Fraction(21, 10))).value.decimal()
    _, out, _ = run(capsys, "term", "--n", "5", "--v", "3.0", "--format", "json")
    assert '"v": 3,' in out


def test_resource_limit_is_precision_error(capsys):
    code, _, err = run(capsys, "sum", "--k", "5", "--bits", str(MAX_BITS + 1))
    assert code == 2
    assert json.loads(err)["error"] == "ResourceLimitError"


def test_spikes_to_1e30_at_the_default_bits(capsys):
    # |sin n| of the last records is far below 2**-64, and the default
    # bits list them all: the sine behind lambda is relative
    code, out, err = run(capsys, "spikes", "--n-max", "1e30", "--format", "csv")
    assert (code, err) == (0, "")
    rows = out.splitlines()[1:]
    assert len(rows) == 55
    assert rows[-1].split(",")[0] == "126016265525921254632388702258"


def test_unreadable_file_is_usage_error(capsys):
    code, out, err = run(capsys, "pi", "--bits", "64", "--fixture", "/nonexistent/pi.txt")
    assert code == 1
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "UsageError"


def test_checkpoint_mismatch_exit_code(capsys, tmp_path):
    path = tmp_path / "c.json"
    code, _, _ = run(capsys, "sum", "--k", "100", "--s", "1",
                     "--checkpoint", str(path))
    assert code == 0
    code, _, err = run(capsys, "sum", "--k", "200", "--s", "2",
                       "--resume", str(path))
    assert code == 3
    assert json.loads(err)["error"] == "CheckpointMismatchError"


@pytest.mark.parametrize("top, spec", [({"k": True}, {}), ({}, {"s": False, "u": True})])
def test_resume_refuses_boolean_fields(capsys, tmp_path, top, spec):
    # JSON true and false are not the integers 1 and 0
    path = tmp_path / "c.json"
    code, _, _ = run(capsys, "sum", "--k", "2", "--checkpoint", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    doc.update(top)
    doc["spec"].update(spec)
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "sum", "--k", "3", "--resume", str(path))
    assert (code, out) == (3, "")
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "CheckpointMismatchError"


def test_cli_resume_round_trip(capsys, tmp_path):
    path = tmp_path / "c.json"
    run(capsys, "sum", "--k", "120", "--s", "1", "--checkpoint", str(path))
    _, resumed, _ = run(capsys, "sum", "--k", "240", "--s", "1",
                        "--resume", str(path), "--format", "json")
    _, fresh, _ = run(capsys, "sum", "--k", "240", "--s", "1",
                      "--format", "json")
    assert resumed == fresh


# CPython refuses int -> str conversions above 4300 digits by default.

def test_pi_beyond_the_int_str_digit_limit(capsys):
    code, out, err = run(capsys, "pi", "--bits", "20000",
                         "--fixture", FIXTURE, "--format", "json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert len(doc["value"]) > 6000
    assert doc["matched_digits"] >= 1000
    assert doc["agrees"] is True


def test_pi_past_the_old_digit_cap(capsys):
    # 70000 bits guarantee about 21070 digits; the digit search once stopped at 20000
    code, out, err = run(capsys, "pi", "--bits", "70000",
                         "--fixture", FIXTURE, "--format", "json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert len(doc["value"].partition(".")[2]) > 21000
    assert doc["matched_digits"] >= 999
    assert doc["agrees"] is True


def test_resume_beyond_the_int_str_digit_limit(capsys, tmp_path):
    path = tmp_path / "c.json"
    code, _, err = run(capsys, "sum", "--k", "3", "--bits", "14500",
                       "--checkpoint", str(path))
    assert (code, err) == (0, "")
    _, resumed, _ = run(capsys, "sum", "--k", "4", "--bits", "14500",
                        "--resume", str(path))
    code, fresh, _ = run(capsys, "sum", "--k", "4", "--bits", "14500")
    assert code == 0
    assert len(fresh) > 4300
    assert resumed == fresh


def _raise(exc):
    def command(*args, **kwargs):
        raise exc
    return command


@pytest.mark.parametrize("target, argv, exc, want", [
    ("_cmd_g", ["g", "--n", "4"], RuntimeError("boom"), 1),
    ("scan_criterion", ["scan", "--from", "1", "--to", "9", "--s", "1", "--eps", "0.1"],
     BrokenProcessPool("a worker died"), 1),
    ("_cmd_g", ["g", "--n", "4"], KeyboardInterrupt(), 130),
])
def test_unexpected_failure_is_one_json_line(capsys, monkeypatch, target, argv, exc, want):
    # the scan command imports scan_criterion from its home module when it runs
    home = criterion if target == "scan_criterion" else cli
    monkeypatch.setattr(home, target, _raise(exc))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (want, "")
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": type(exc).__name__, "message": str(exc)}


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "sum" in out and "scan" in out


def test_sci_matches_the_per_digit_search():
    rng = random.Random(11)
    cases = [Fraction(1), Fraction(10), Fraction(1, 10), Fraction(999, 1000),
             Fraction(9995, 1000), Fraction(99949, 10000)]
    for _ in range(400):
        e = rng.randrange(-60, 60)
        x = Fraction(rng.randrange(1, 10 ** rng.randrange(1, 8)), rng.randrange(1, 10 ** 6))
        cases.append(x * Fraction(10) ** e)
    for e in (-6200, 6100, -7000):
        cases.append(Fraction(rng.randrange(1, 10 ** 9), 7) * Fraction(10) ** e)
    cases.append(Fraction(3 ** 13000, 2 ** 5000))          # about 10**4698
    for x in cases:
        for digits in (1, 3, 5):
            assert cli._sci(x, digits) == sci_ref(x, digits), (x, digits)


def test_sci_rounding_carries_into_the_exponent():
    # the mantissa rounds up, so anything above 9.99 carries
    assert cli._sci(Fraction(99996, 10000)) == "1.00e+01"
    assert cli._sci(Fraction(99996, 10 ** 9)) == "1.00e-04"
    assert cli._sci(Fraction(99949, 10000)) == "1.00e+01"
    assert cli._sci(Fraction(99901, 10000)) == "1.00e+01"
    assert cli._sci(Fraction(999, 100)) == "9.99e+00"


def test_sci_never_prints_below_its_argument():
    # sum --k 200 --s 1 --bits 96 has a radius of 6.2643e-51
    assert cli._sci(Fraction(62643, 10 ** 55)) == "6.27e-51"
    assert cli._sci(Fraction(12341, 10000)) == "1.24e+00"
    assert cli._sci(Fraction(123, 100)) == "1.23e+00"
    rng = random.Random(51)
    for _ in range(300):
        x = Fraction(rng.randrange(1, 10 ** 9), rng.randrange(1, 10 ** 9))
        x *= Fraction(10) ** rng.randrange(-80, 80)
        for digits in (1, 3, 5):
            printed = Fraction(cli._sci(x, digits))
            assert x <= printed < x * (1 + Fraction(10, 10 ** digits)), (x, digits)


def test_integer_options_take_exact_scientific_notation(capsys):
    code, out, _ = run(capsys, "spikes", "--n-max", "1e12", "--bits", "128", "--format", "csv")
    assert code == 0
    assert run(capsys, "spikes", "--n-max", "1000000000000", "--bits", "128",
               "--format", "csv") == (0, out, "")
    assert out.splitlines()[-1].startswith("21053343141,")
    assert cli._int("1e4299") == 10**4299
    assert (cli._int("007e2"), cli._int("0e9"), cli._int("2e0")) == (700, 0, 2)


def test_integer_options_parse_as_int_did():
    for text in ("12", "-5", " 7 ", "+3", "1_000", "0", "0012", "9" * 4300):
        assert cli._int(text) == int(text), text


@pytest.mark.parametrize("text", ["1.5e3", "1e-3", "1.5", "12.0", "1e", "e5", "-1e3", "1E3",
                                  "1e+3", "1e4300", "10e4299", "1e99999", "1" * 4301])
def test_integer_options_refuse_other_numbers(capsys, text):
    code, out, err = run(capsys, "spikes", f"--n-max={text}")
    assert (code, out) == (1, "")
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "UsageError", "message": f"argument --n-max: invalid int value: {text!r}"}


def _one_error(capsys, code, *argv) -> dict:
    """Run argv, check its exit code, an empty stdout and exactly one JSON
    line on stderr, and return that line's object."""
    got, out, err = run(capsys, *argv)
    assert (got, out) == (code, "")
    lines = err.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


NEAR_ONE_EPS = "43888708850394570/22565335563579539"    # see test_criterion


def test_criterion_that_escalates_exits_zero(capsys):
    code, out, err = run(capsys, "criterion", "--n", "1000", "--s", "1",
                         "--eps", NEAR_ONE_EPS, "--format", "json")
    assert (code, err) == (0, "")
    want = criterion.check_criterion(1000, 1, Fraction(NEAR_ONE_EPS), 512)
    assert json.loads(out)["satisfied"] is want.satisfied


def test_criterion_past_the_escalation_cap_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(criterion, "_ESCALATION_CAP", 112)
    doc = _one_error(capsys, 2, "criterion", "--n", "1000", "--s", "1", "--eps", NEAR_ONE_EPS)
    assert doc["error"] == "UndecidableError"


def test_scan_refuses_zero_threads(capsys):
    doc = _one_error(capsys, 1, "scan", "--from", "1", "--to", "9", "--s", "1",
                     "--eps", "0.1", "--threads", "0")
    assert doc == {"error": "DomainError",
                   "message": "scan_criterion requires an integer threads >= 1, got 0"}


@pytest.mark.parametrize("field, value, code, error, words", [
    ("value", "abc", 3, "CheckpointMismatchError", "value is not a decimal"),
    ("value", "0.1", 3, "CheckpointMismatchError", "value does not sit on the 2**-208 grid"),
    ("err", "1e-300", 3, "CheckpointMismatchError", "err does not sit on the 2**-208 grid"),
    ("value", "-1", 3, "CheckpointMismatchError", "negative accumulator"),
    ("k", None, 1, "UsageError", "missing fields"),
])
def test_resume_refuses_a_bad_accumulator(capsys, tmp_path, field, value, code, error, words):
    path = tmp_path / "c.json"
    assert run(capsys, "sum", "--k", "2", "--checkpoint", str(path))[0] == 0
    doc = json.loads(path.read_text())
    if value is None:
        del doc[field]
    else:
        doc[field] = value
    path.write_text(json.dumps(doc))
    got = _one_error(capsys, code, "sum", "--k", "3", "--resume", str(path))
    assert got["error"] == error
    assert f"checkpoint {path}" in got["message"] and words in got["message"]


def test_resume_from_a_directory_is_usage_error(capsys, tmp_path):
    doc = _one_error(capsys, 1, "sum", "--k", "3", "--resume", str(tmp_path))
    assert doc["error"] == "UsageError"
    assert doc["message"].startswith(f"cannot read checkpoint {tmp_path}")


@pytest.mark.parametrize("argv, message", [
    # w = bits + 80 + 48 + clog2 2 for the term, bits + 41 for the sine
    (["term", "--n", "1", "--u", "1"], "term(n=1) needs 10000129 working bits (max 10000000)"),
    (["sin", "--n", "2"], "sin(2) at 10000000 bits needs 10000041 working bits (max 10000000)"),
])
def test_commands_past_max_bits_exit_2(capsys, argv, message):
    doc = _one_error(capsys, 2, *argv, "--bits", str(MAX_BITS))
    assert doc["error"] == "ResourceLimitError"
    assert message in doc["message"]


def test_pi_fixture_with_a_wrong_digit_disagrees(capsys, tmp_path):
    text = open(FIXTURE, encoding="utf-8").read().strip()
    at = text.index(".") + 1 + 500             # fractional digit 500
    wrong = "1" if text[at] != "1" else "2"
    path = tmp_path / "pi.txt"
    path.write_text(text[:at] + wrong + text[at + 1:])
    code, out, err = run(capsys, "pi", "--bits", "3400", "--fixture", str(path),
                         "--format", "json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["agrees"] is False
    assert doc["matched_digits"] == 500
