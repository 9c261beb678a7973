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


def test_readme_python_blocks_compile_and_import_exports():
    """A removed export or a syntax slip cannot leave the README stale."""
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
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
