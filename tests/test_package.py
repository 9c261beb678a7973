"""The package's public names."""

import ast
import re
from pathlib import Path

import convexcell

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_export_exists_once():
    missing = [name for name in convexcell.__all__ if not hasattr(convexcell, name)]
    assert missing == []
    assert len(set(convexcell.__all__)) == len(convexcell.__all__)


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
