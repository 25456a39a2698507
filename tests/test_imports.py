"""The package namespace is lazy, and a cold CLI start loads only what runs.

``flintlab`` maps each public name to its home submodule and imports that
submodule on first use; ``python -m flintlab <cmd>`` imports the modules
``<cmd>`` needs when the command runs.
"""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import flintlab

SRC = Path(flintlab.__file__).resolve().parents[1]
HEAVY = ("flintlab.series", "flintlab.criterion", "flintlab.identities",
         "flintlab.combinatorics", "flintlab.rationality")


def cold_modules(code: str) -> set[str]:
    """Names in sys.modules after a fresh interpreter runs `code`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code + "\nprint(*sorted(sys.modules))"],
                          env=env, capture_output=True, text=True, timeout=60, check=True)
    return set(proc.stdout.splitlines()[-1].split())


def cli_modules(*argv: str) -> set[str]:
    """sys.modules after a cold ``python -m flintlab`` run of `argv`."""
    return cold_modules(
        "import runpy, sys\n"
        f"sys.argv = {['flintlab', *argv]!r}\n"
        "try:\n"
        "    runpy.run_module('flintlab', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code")


def test_cold_pi_loads_no_series_criterion_or_dataclasses():
    loaded = cli_modules("pi", "--bits", "64")
    assert "flintlab.mpreal" in loaded
    unwanted = {*HEAVY, "dataclasses"}
    assert not loaded & unwanted, sorted(loaded & unwanted)


def test_cold_cf_loads_rationality_only():
    loaded = cli_modules("cf", "--bits", "64", "--count", "5")
    assert "flintlab.rationality" in loaded
    unwanted = set(HEAVY) - {"flintlab.rationality"} | {"dataclasses"}
    assert not loaded & unwanted, sorted(loaded & unwanted)


def test_cold_criterion_loads_no_combinatorics():
    # the report's left side is n^(2s) itself, since G(n) = n
    loaded = cli_modules("criterion", "--n", "355", "--s", "1", "--eps", "0.1")
    assert "flintlab.criterion" in loaded
    unwanted = {"flintlab.combinatorics", "dataclasses"}
    assert not loaded & unwanted, sorted(loaded & unwanted)


@pytest.mark.parametrize("argv, home", [
    (("sum", "--k", "10"), "flintlab.series"),
    (("identity", "--check", "multiple-angle", "--n-max", "3", "--count", "2"),
     "flintlab.identities"),
], ids=["sum", "identity"])
def test_cold_sum_and_identity_load_no_dataclasses(argv, home):
    loaded = cli_modules(*argv)
    assert home in loaded
    assert "dataclasses" not in loaded


def test_bare_import_loads_no_submodule():
    loaded = cold_modules("import sys, flintlab")
    assert "flintlab" in loaded
    assert not [m for m in loaded if m.startswith("flintlab.")]


def test_every_public_name_is_its_home_module_object():
    assert set(flintlab._HOME) == set(flintlab.__all__)
    for name in flintlab.__all__:
        home = importlib.import_module(f"flintlab.{flintlab._HOME[name]}")
        obj = getattr(flintlab, name)
        assert obj is getattr(home, name), name
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__module__ == home.__name__, name


def test_every_submodule_defines_its_all():
    # a name deleted from a submodule must leave its __all__ too
    shorts = [m.name for m in pkgutil.iter_modules(flintlab.__path__)
              if m.name != "__main__"]      # importing __main__ runs the CLI
    assert "rationality" in shorts and "cli" in shorts
    for short in shorts:
        module = importlib.import_module(f"flintlab.{short}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (short, missing)


def test_dir_lists_all():
    assert set(flintlab.__all__) <= set(dir(flintlab))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from flintlab import *", namespace)
    assert set(flintlab.__all__) <= set(namespace)


def test_unknown_attribute_names_the_package():
    with pytest.raises(AttributeError, match="'flintlab' has no attribute 'no_such_name'"):
        flintlab.no_such_name
