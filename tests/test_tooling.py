import ast
from pathlib import Path

import affcopy

SOURCES = sorted(Path(affcopy.__file__).parent.glob("*.py"))
COMPREHENSIONS = (ast.ListComp, ast.GeneratorExp, ast.SetComp)


def test_library_has_no_assert():
    # assert statements vanish under python -O; invariants must raise explicitly
    assert SOURCES
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def _calls_translate(node):
    return any(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
               and n.func.attr == "translate" for n in ast.walk(node))


def test_translate_unions_and_intersections_go_through_the_kernel():
    # union_of_translates / intersection_of_translates in intervals.py are the
    # one place that builds them; nowhere else may hand-roll the loop
    found = []
    for path in SOURCES:
        if path.name == "intervals.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name == "normalize" and any(isinstance(a, COMPREHENSIONS) and _calls_translate(a)
                                           for a in node.args):
                found.append(f"{path.name}:{node.lineno}: normalize of translates")
            if (isinstance(node.func, ast.Attribute) and name == "intersect"
                    and any(_calls_translate(a) for a in node.args)):
                found.append(f"{path.name}:{node.lineno}: intersect with a translate")
    assert found == []
