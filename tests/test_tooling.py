import ast
from pathlib import Path

import affcopy
from affcopy import cantor, cli, intervals

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


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def test_cut_encoding_stays_inside_the_kernel():
    # the 2*x*D + flag cut encoding belongs to intervals.py alone: no other
    # module may import a private intervals name or reach one by attribute
    private = {name for owner in (intervals, intervals.Interval, intervals.IntervalSet)
               for name in vars(owner) if _private(name)}
    assert {"_encode", "_decode", "_decode_part", "_sweep", "_rescale",
            "_parts", "_lattice"} <= private
    # a kernel result carries only its parts and its (D, cuts)
    assert intervals.IntervalSet.__slots__ == ("_parts", "_lattice")
    found = []
    for path in SOURCES:
        if path.name == "intervals.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "affcopy.intervals":
                found += [f"{path.name}:{node.lineno}: imports {alias.name}"
                          for alias in node.names if _private(alias.name)]
            elif isinstance(node, ast.Attribute) and (
                    node.attr in private or (_private(node.attr) and isinstance(node.value, ast.Name)
                                             and node.value.id == "intervals")):
                found.append(f"{path.name}:{node.lineno}: uses .{node.attr}")
    assert found == []


#: The IntervalSet members that read ``.parts``: the property itself, and
#: what hashes, prints or iterates the decoded parts.
READS_PARTS = {"parts", "__hash__", "__repr__", "__iter__", "__str__", "to_strings"}


def test_set_operations_read_the_operands_cuts():
    # every set operation, transform and query takes each operand's (D, cuts):
    # reading .parts would decode a kernel result only to encode it again
    tree = ast.parse(Path(intervals.__file__).read_text(encoding="utf-8"))
    (cls,) = [node for node in tree.body
              if isinstance(node, ast.ClassDef) and node.name == "IntervalSet"]
    methods = {item.name: item for item in cls.body if isinstance(item, ast.FunctionDef)}
    assert READS_PARTS < set(methods)
    assert {"union", "intersect", "difference", "affine", "translate", "star", "closure",
            "contains_point", "left_neighborhood", "__reduce__", "__eq__"} < set(methods)
    found = [f"IntervalSet.{name}:{node.lineno}: reads .parts"
             for name, method in methods.items() if name not in READS_PARTS
             for node in ast.walk(method)
             if isinstance(node, ast.Attribute) and node.attr == "parts"]
    assert found == []


def _enclosing_functions(tree):
    """(name of the innermost enclosing function, node) for every node in ``tree``."""
    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            yield owner, child
            inner = child.name if isinstance(child, ast.FunctionDef) else owner
            yield from visit(child, inner)
    yield from visit(tree, None)


def test_an_interval_set_has_one_representation():
    # every set carries its (D, cuts) from construction: only the parts
    # property reads the decoded cache, and only the constructor and the
    # kernel's _decode set the lattice, never to None
    tree = ast.parse(Path(intervals.__file__).read_text(encoding="utf-8"))
    (cls,) = [node for node in tree.body
              if isinstance(node, ast.ClassDef) and node.name == "IntervalSet"]
    methods = {item.name for item in cls.body if isinstance(item, ast.FunctionDef)}
    assert "parts" in methods and "_cuts" not in methods
    found = []
    for owner, node in _enclosing_functions(tree):
        if isinstance(node, ast.Attribute) and node.attr == "_parts" and owner != "parts":
            found.append(f"{owner}:{node.lineno}: reads ._parts")
        if isinstance(node, ast.Attribute) and node.attr == "_lattice" and not isinstance(
                node.ctx, ast.Load):
            found.append(f"{owner}:{node.lineno}: assigns ._lattice")
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_set_lattice"
                and (owner not in ("__init__", "_decode")
                     or any(isinstance(a, ast.Constant) and a.value is None for a in node.args))):
            found.append(f"{owner}:{node.lineno}: sets the lattice")
    assert found == []


def test_one_helper_sizes_the_common_lattice():
    # _aligned is the one lcm over several sets' lattices and shifts; besides
    # it only the constructor's _denominator (a lattice for parts) and affine
    # (one set's lattice times the scale's denominator) take an lcm
    tree = ast.parse(Path(intervals.__file__).read_text(encoding="utf-8"))
    found = {owner for owner, node in _enclosing_functions(tree)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "lcm"}
    assert found == {"_aligned", "_denominator", "affine"}


def test_the_ladder_asks_its_oracle_on_ints():
    # build_cantor reaches its oracle only by calling gap_ends and avoids, so
    # an oracle gap has no second path through Fractions or an Interval; each
    # oracle implements the two int forms, and no class wraps them
    tree = ast.parse(Path(cantor.__file__).read_text(encoding="utf-8"))
    (build,) = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "build_cantor"]
    parent = {child: node for node in ast.walk(build) for child in ast.iter_child_nodes(node)}
    uses = [node for node in ast.walk(build)
            if isinstance(node, ast.Name) and node.id == "oracle"]
    found = [f"build_cantor:{node.lineno}: {ast.unparse(parent[node])}" for node in uses
             if not (isinstance(parent[node], ast.Attribute)
                     and parent[node].attr in ("gap_ends", "avoids")
                     and isinstance(parent[parent[node]], ast.Call)
                     and parent[parent[node]].func is parent[node])]
    assert len(uses) == 2 and found == []
    oracles = [cls for cls in vars(cantor).values()
               if isinstance(cls, type) and issubclass(cls, cantor.GapOracle)
               and cls is not cantor.GapOracle]
    assert len(oracles) == 3
    for cls in oracles + [cantor.GapOracle]:
        assert {"gap_ends", "avoids"} <= set(vars(cls)), cls
        assert not {"__call__", "interval_avoids_target"} & set(vars(cls)), cls
    # the ternary oracle follows its midpoint's orbit on ints as well
    (ternary,) = [node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "TernaryCantorOracle"]
    (avoids,) = [item for item in ternary.body
                 if isinstance(item, ast.FunctionDef) and item.name == "avoids"]
    assert [node.lineno for node in ast.walk(avoids)
            if isinstance(node, ast.Name) and node.id == "Fraction"] == []


def test_report_format_lives_in_one_encoder():
    # intervals.Report writes every report; only the three reports whose keys
    # are derived values, not fields, keep their own to_json_dict
    allowed = {"Report", "Hole", "NestedChain", "PremeasureBound"}
    found = {node.name
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.ClassDef)
             and any(isinstance(item, ast.FunctionDef) and item.name == "to_json_dict"
                     for item in node.body)}
    assert found == allowed


def test_unchecked_construction_stays_in_intervals():
    # object.__new__ skips the Interval and IntervalSet checks; only the
    # kernel, which checks its results on the cuts, may do that
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES if path.name != "intervals.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr == "__new__"
             and isinstance(node.value, ast.Name) and node.value.id == "object"]
    assert found == []


def test_measure_and_longest_part_come_from_the_kernel():
    # IntervalSet.measure() and .longest() read the integer cuts; no other
    # module may sum part lengths or pick a part by length in Fractions
    found = [f"{path.name}:{node.lineno}: {node.func.id} of part lengths"
             for path in SOURCES if path.name != "intervals.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in ("sum", "max", "min")
             and {"parts", "length"} <= {n.attr for n in ast.walk(node)
                                         if isinstance(n, ast.Attribute)}]
    assert found == []


def _truth_tested(tree):
    """Every expression whose length or truth a statement in ``tree`` takes."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.If, ast.While, ast.IfExp, ast.Assert)):
            yield node.test
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            yield node.operand
        elif isinstance(node, ast.BoolOp):
            yield from node.values
        elif isinstance(node, ast.comprehension):
            yield from node.ifs
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("len", "bool") and node.args):
            yield node.args[0]


def test_sizes_and_emptiness_come_from_the_cuts():
    # len(), truth and is_empty of a set read a kernel result's cuts; the
    # length or truth of its .parts would decode every part
    found = [f"{path.name}:{expr.lineno}: length or truth of .parts"
             for path in SOURCES if path.name != "intervals.py"
             for expr in _truth_tested(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(expr, ast.Attribute) and expr.attr == "parts"]
    assert found == []


def _dataclass_decorators(tree):
    """(class name, decorator) for every @dataclass or @dataclass(...) in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for deco in node.decorator_list:
                target = deco.func if isinstance(deco, ast.Call) else deco
                if (getattr(target, "id", None) or getattr(target, "attr", None)) == "dataclass":
                    yield node.name, deco


def test_every_dataclass_is_frozen():
    # no mutable side channels: a value built once is never reassigned
    decorated = [(path.name, name, deco) for path in SOURCES
                 for name, deco in _dataclass_decorators(ast.parse(path.read_text(encoding="utf-8")))]
    assert len(decorated) > 10
    found = [f"{path}: {name}" for path, name, deco in decorated
             if not (isinstance(deco, ast.Call)
                     and any(k.arg == "frozen" and isinstance(k.value, ast.Constant)
                             and k.value.value is True for k in deco.keywords))]
    assert found == []


def test_readme_shows_one_example_per_subcommand():
    # the README's CLI block runs each cli.COMMANDS entry once, in table order,
    # and every example parses
    readme = Path(affcopy.__file__).resolve().parents[2] / "README.md"
    block = readme.read_text(encoding="utf-8").split("## CLI", 1)[1].split("```sh\n", 1)[1]
    examples = [line.split()[1:] for line in block.split("```", 1)[0].splitlines()]
    assert [argv[0] for argv in examples] == list(cli.COMMANDS)
    for argv in examples:
        cli.build_parser().parse_args(argv)
