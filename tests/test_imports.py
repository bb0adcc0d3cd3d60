"""Module boundaries: the package's modules share only their public names."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "itpsearch"


def test_no_module_imports_a_private_name_of_another():
    # a private name imported across modules is how a second copy of a code
    # path, such as a search loop outside search_block, comes back unseen
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            sibling = isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "itpsearch"
            )
            if sibling:
                found += [f"{path.name}: {alias.name}" for alias in node.names if alias.name.startswith("_")]
    assert not found, found
