import ast
from pathlib import Path

import affcopy

SOURCES = sorted(Path(affcopy.__file__).parent.glob("*.py"))


def test_library_has_no_assert():
    # assert statements vanish under python -O; invariants must raise explicitly
    assert SOURCES
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
