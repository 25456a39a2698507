"""The A/B harness tells trees with different outputs apart, and needs two runs."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
AB_BENCH = str(TESTS / "ab_bench.py")


def test_trees_whose_pi_differs_exit_1(tmp_path):
    other = tmp_path / "src"
    shutil.copytree(SRC, other, ignore=shutil.ignore_patterns("__pycache__"))
    # the copy's ``python -m flintlab`` prints one fixed line, so its pi
    # differs from src's, and its calls take no time
    (other / "flintlab" / "__main__.py").write_text('print("3.14")\n')
    proc = subprocess.run([sys.executable, AB_BENCH, "cold", "--runs", "2",
                           f"a={SRC}", f"b={other}"], capture_output=True, timeout=300)
    assert proc.returncode == 1, proc.stderr.decode()
    doc = json.loads(proc.stdout)
    assert doc["outputs_identical"] is False
    assert set(doc["trees"]) == {"a", "b"}


def test_one_run_is_refused():
    proc = subprocess.run([sys.executable, AB_BENCH, "sum", "--runs", "1", f"a={SRC}"],
                          capture_output=True, timeout=60)
    assert proc.returncode == 2
    assert b"--runs must be at least 2" in proc.stderr
