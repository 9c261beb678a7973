"""The package's public names, and what importing them loads."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import convexcell
from convexcell import model

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
# prints the JSON list of the simulator modules the interpreter has loaded;
# the trace analytics and the argument parser must load none of them
SIMULATOR_MODULES = (
    "numpy", "convexcell.coverage", "convexcell.model", "convexcell.optimizer",
)
PRINT_LOADED = f"print(json.dumps([m for m in {SIMULATOR_MODULES!r} if m in sys.modules]))\n"


def run_fresh(code, *args):
    """Run code in a new interpreter that imports the package from src/."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + code, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_every_export_exists_once():
    missing = [name for name in convexcell.__all__ if not hasattr(convexcell, name)]
    assert missing == []
    assert len(set(convexcell.__all__)) == len(convexcell.__all__)


def test_package_and_parser_load_no_simulator():
    """Each name resolves on first use, so importing the package loads no
    submodule, and the trace names and the parser load no simulator."""
    run = run_fresh(
        "import convexcell\n"
        "print(json.dumps([m for m in sys.modules if m.startswith('convexcell.')]))\n"
        "from convexcell import (\n"
        "    DemandScenario, Scheme, UserClass, analyze_trace, read_trace_csv,\n"
        ")\n"
        + PRINT_LOADED
        + "from convexcell import cli\n"
        "cli.build_parser().parse_args(['analyze', '--trace', 'trace.csv'])\n"
        + PRINT_LOADED
        + "print(json.dumps([n for n in convexcell.__all__ if not hasattr(convexcell, n)]))\n"
        + PRINT_LOADED
    )
    assert run.returncode == 0, run.stderr
    submodules, loaded_names, loaded, missing, loaded_after = map(
        json.loads, run.stdout.splitlines()
    )
    assert submodules == []
    assert loaded_names == []
    assert loaded == []
    assert missing == []
    assert loaded_after == list(SIMULATOR_MODULES)


@pytest.mark.parametrize("name", ["np", "math", "replace"])
def test_package_lookup_exposes_no_module_internals(name):
    """Only the names of ``__all__`` are looked up in the modules."""
    assert hasattr(model, name)
    assert not hasattr(convexcell, name)


def test_package_lookup_raises_for_a_name_no_module_holds(monkeypatch):
    monkeypatch.setattr(convexcell, "__all__", [*convexcell.__all__, "no_such_name"])
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        convexcell.no_such_name


@pytest.mark.parametrize(
    "row, extra, code, errors",
    [
        ("u1,2015-06-01T00:05:00Z,0.0,0.0,1e6", [], 0, 0),
        ("u1,not-a-time,0.0,0.0,1e6", ["--strict"], 1, 1),
    ],
    ids=["success", "strict-malformed-row"],
)
def test_analyze_loads_no_simulator(tmp_path, row, extra, code, errors):
    """analyze runs without numpy, also when main catches an error.

    main's except clause names the simulator's error types, so the refused
    run checks that they resolve without it.
    """
    trace = tmp_path / "trace.csv"
    trace.write_text(
        "user_id,timestamp,lat,lon,rx_bytes\n"
        "u1,2015-06-01T00:00:00Z,0.0,0.0,0\n"
        f"{row}\n"
        "u1,2015-06-01T00:10:00Z,0.002,0.0,1e6\n"
    )
    argv = ["analyze", "--trace", str(trace), "--out", str(tmp_path / "out"), *extra]
    run = run_fresh(
        "from convexcell.cli import main\n"
        "code = main(sys.argv[1:])\n" + PRINT_LOADED + "sys.exit(code)\n",
        *argv,
    )
    assert run.returncode == code, run.stderr
    assert json.loads(run.stdout.splitlines()[-1]) == []
    assert [line[:7] for line in run.stderr.splitlines()] == ["error: "] * errors


def readme_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_python_blocks_compile_and_import_exports():
    """A removed export or a syntax slip cannot leave the README stale."""
    blocks = readme_blocks()
    assert blocks
    imported = []
    for number, block in enumerate(blocks, 1):
        name = f"README.md python block {number}"
        tree = ast.parse(block, name)
        compile(tree, name, "exec")
        imported += [
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "convexcell"
            for alias in node.names
        ]
    assert imported
    assert [name for name in imported if name not in convexcell.__all__] == []


def test_readme_python_blocks_run(tmp_path, monkeypatch, capsys):
    """A stale attribute or call in an example fails here, not for a reader."""
    monkeypatch.chdir(tmp_path)
    # user u1 has one stationary, one walking and one vehicular segment
    (tmp_path / "trace.csv").write_text(
        "user_id,timestamp,lat,lon,rx_bytes\n"
        "u1,2015-06-01T00:00:00Z,0.0,0.0,0\n"
        "u1,2015-06-01T00:05:00Z,0.0,0.0,1e6\n"
        "u1,2015-06-01T00:10:00Z,0.002,0.0,1e6\n"
        "u1,2015-06-01T00:15:00Z,0.03,0.0,1e6\n"
    )
    blocks = readme_blocks()
    assert blocks
    for number, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {number}", "exec"), {})
    assert capsys.readouterr().out
