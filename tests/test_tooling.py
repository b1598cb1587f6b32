import ast
import importlib
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

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
    # one place that builds them; nowhere else may hand-roll the loop, except
    # seq-decompose's brute-force check, which must not share the kernel's
    # chaining of translates into runs, and so must hand-roll it
    found = []
    for path in SOURCES:
        if path.name == "intervals.py":
            continue
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call) or not node.args:
                    continue
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                where = f"{path.name}:{getattr(top, 'name', top.lineno)}"
                if name == "normalize" and any(isinstance(a, COMPREHENSIONS)
                                               and _calls_translate(a) for a in node.args):
                    found.append(f"{where}: normalize of translates")
                if (isinstance(node.func, ast.Attribute) and name == "intersect"
                        and any(_calls_translate(a) for a in node.args)):
                    found.append(f"{where}: intersect with a translate")
    assert found == ["cli.py:_seq_decompose: normalize of translates"]


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def test_cut_encoding_stays_inside_the_kernel():
    # the 2*x*D + flag cut encoding belongs to intervals.py alone: no other
    # module may import a private intervals name or reach one by attribute
    private = {name for owner in (intervals, intervals.Interval, intervals.IntervalSet)
               for name in vars(owner) if _private(name)}
    assert {"_encode", "_decode", "_decode_part", "_sweep", "_rescale",
            "_parts", "_lattice"} <= private
    # a kernel result carries only its parts and its (D, cuts), and no
    # public name takes cut ints: callers hand from_ends their ends
    assert intervals.IntervalSet.__slots__ == ("_parts", "_lattice")
    assert not hasattr(intervals.IntervalSet, "from_cuts")
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
            if "from_cuts" in (getattr(node, "attr", None), getattr(node, "id", None),
                               getattr(node, "name", None)):
                found.append(f"{path.name}:{node.lineno}: names from_cuts")
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
    # it only the constructor's _encode (a lattice for parts) and affine
    # (one set's lattice times the scale's denominator) take an lcm
    tree = ast.parse(Path(intervals.__file__).read_text(encoding="utf-8"))
    found = {owner for owner, node in _enclosing_functions(tree)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "lcm"}
    assert found == {"_aligned", "_encode", "affine"}


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


def test_an_interval_is_one_checked_value():
    # an Interval is its four fields, coerced and checked in __post_init__
    # alone: no cut view, no second point test or closure beside
    # IntervalSet.contains_point and .closure, and no constructor coerces
    assert not {"start_cut", "end_cut", "contains", "closure"} & set(dir(intervals.Interval))
    assert not hasattr(intervals, "Cut")
    assert set(vars(cantor.FinitePointsOracle(("1/3", 0)))) == {"_pairs"}
    tree = ast.parse(Path(intervals.__file__).read_text(encoding="utf-8"))
    (cls,) = [node for node in tree.body
              if isinstance(node, ast.ClassDef) and node.name == "Interval"]
    methods = {item.name: item for item in cls.body if isinstance(item, ast.FunctionDef)}
    coercing = {name for name, method in methods.items()
                for node in ast.walk(method)
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "as_fraction"}
    assert {"open", "closed", "half_open", "point"} <= set(methods)
    assert not {"parse", "is_point"} & set(methods)  # test helpers, not library API
    assert coercing == {"__post_init__", "translate"}  # translate coerces its shift


def test_the_reference_kernel_uses_intervals_only_as_containers():
    # tests/fraction_kernel.py checks the library, so it shares none of its
    # arithmetic: it imports Interval and IntervalSet alone and reads only
    # the parts of a set and the four fields of an interval
    tree = ast.parse(Path(__file__).with_name("fraction_kernel.py").read_text(encoding="utf-8"))
    imported = [(getattr(node, "module", None), alias.name) for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
    assert [(module, name) for module, name in imported
            if "affcopy" in (module or name)] == [("affcopy.intervals", "Interval"),
                                                    ("affcopy.intervals", "IntervalSet")]
    members = {name for cls in (intervals.Interval, intervals.IntervalSet) for name in dir(cls)}
    allowed = {"parts", "lo", "hi", "lo_closed", "hi_closed"}
    assert allowed < members
    found = [f"fraction_kernel.py:{node.lineno}: .{node.attr}" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in members - allowed]
    assert found == []


def test_report_format_lives_in_one_encoder():
    # intervals.Report writes every report; only the two reports whose keys
    # are derived values, not fields, keep their own to_json_dict
    allowed = {"Report", "NestedChain", "PremeasureBound"}
    found = {node.name
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.ClassDef)
             and any(isinstance(item, ast.FunctionDef) and item.name == "to_json_dict"
                     for item in node.body)}
    assert found == allowed


def _callers(tree, callee, arg_attr=None):
    """Names of the functions in ``tree`` that call ``callee`` by name, with an
    argument reading attribute ``arg_attr`` when one is given."""
    return sorted(fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                  and any(isinstance(call, ast.Call) and getattr(call.func, "id", None) == callee
                          and (arg_attr is None or any(isinstance(a, ast.Attribute)
                                                       and a.attr == arg_attr
                                                       for a in call.args))
                          for call in ast.walk(fn)))


def test_overlap_budget_is_derived_once():
    # one avoider function turns a hole length into (T, T*lambda + eta_T);
    # the hole planner and the translate-measure identity both call it
    tree = ast.parse((Path(affcopy.__file__).parent / "avoider.py").read_text(encoding="utf-8"))
    assert _callers(tree, "threshold_index", "eta_gap") == ["_overlap"]
    assert _callers(tree, "_overlap") == ["measure_union_translates", "plan_budget"]


def _reached(tree, root):
    """Names that the function ``root`` of ``tree`` calls, directly or through
    the module's own functions."""
    calls = {fn.name: {getattr(call.func, "id", None) or getattr(call.func, "attr", None)
                       for call in ast.walk(fn) if isinstance(call, ast.Call)}
             for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    reached, todo = set(), [root]
    while todo:
        for name in calls.get(todo.pop(), ()):
            if name not in reached:
                reached.add(name)
                todo.append(name)
    return reached


def _pairs_every_with_every(comprehension):
    # a later generator whose iterable reads no name an earlier one binds
    # runs in full for every earlier element: a product of the two
    bound = set()
    for gen in comprehension.generators:
        reads = {n.id for n in ast.walk(gen.iter) if isinstance(n, ast.Name)}
        if bound and not reads & bound:
            return True
        bound |= {n.id for n in ast.walk(gen.target) if isinstance(n, ast.Name)}
    return False


def test_each_rung_is_one_union_of_gap_translates():
    # intersection_of_translates is the hull minus one sort-and-sweep union of
    # the gaps' translates: one _merge call and no loop that intersects once
    # per shift; find_embedding certifies each rung through it. Both translate
    # functions hand _merge the runs _translate_runs chains the translates
    # into, and no comprehension lists every part's every translate
    tree = ast.parse(Path(intervals.__file__).read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ("union_of_translates", "intersection_of_translates"):
        merges = [node for node in ast.walk(functions[name]) if isinstance(node, ast.Call)
                  and getattr(node.func, "id", None) == "_merge"]
        assert [[getattr(arg.func, "id", None) for arg in node.args if isinstance(arg, ast.Call)]
                for node in merges] == [["_translate_runs"]], name
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, COMPREHENSIONS)
            and _pairs_every_with_every(node)] == []
    fn = functions["intersection_of_translates"]
    calls = [getattr(node.func, "id", None) for node in ast.walk(fn) if isinstance(node, ast.Call)]
    assert calls.count("_merge") == 1
    assert [loop.lineno for loop in ast.walk(fn) if isinstance(loop, (ast.For, ast.While, *COMPREHENSIONS))
            and any(isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_intersect"
                    for node in ast.walk(loop))] == []
    tree = ast.parse((Path(affcopy.__file__).parent / "avoider.py").read_text(encoding="utf-8"))
    assert "intersection_of_translates" in _reached(tree, "find_embedding")


def test_both_exp_deciders_share_one_bracket_loop():
    # _brackets is the one loop refining exp_bounds, and the MAX_TERMS cap
    # with it; compare_with_exp and even_upper_exp_quotient both read it
    tree = ast.parse((Path(affcopy.__file__).parent / "expbounds.py").read_text(encoding="utf-8"))
    assert _callers(tree, "exp_bounds") == ["_brackets"]
    assert _callers(tree, "_brackets") == ["compare_with_exp", "even_upper_exp_quotient"]


def _halves_a_sum(node):
    return (isinstance(node, ast.BinOp) and isinstance(node.left, ast.BinOp)
            and isinstance(node.left.op, ast.Add) and isinstance(node.right, ast.Constant)
            and (isinstance(node.op, ast.FloorDiv) and node.right.value == 2
                 or isinstance(node.op, ast.RShift) and node.right.value == 1))


def test_the_threshold_search_ends_in_bisect():
    # first_index gallops and hands its last bracket to bisect_left: no
    # function binds a midpoint ``mid`` and no loop halves a sum by hand
    tree = ast.parse((Path(affcopy.__file__).parent / "slowseq.py").read_text(encoding="utf-8"))
    assert "first_index" in _callers(tree, "bisect_left")
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and any(
                    isinstance(target, ast.Name) and target.id == "mid" for target in targets):
                found.append(f"{path.name}:{node.lineno}: assigns mid")
            if isinstance(node, ast.While):
                found += [f"{path.name}:{inner.lineno}: halves a sum in a loop"
                          for inner in ast.walk(node) if _halves_a_sum(inner)]
    assert found == []


def test_digit_membership_is_one_residue():
    # f_membership reads x*P_n mod M_n/2 on ints: it expands no digits, runs
    # no loop, and no borrow-twin builder is left beside it
    tree = ast.parse((Path(affcopy.__file__).parent / "mixedradix.py").read_text(encoding="utf-8"))
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert "f_membership" in defined and "alternate_digits" not in defined
    fn = next(node for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name == "f_membership")
    assert not [node for node in ast.walk(fn)
                if isinstance(node, (ast.For, ast.While, ast.DictComp, *COMPREHENSIONS))
                or isinstance(node, ast.Call) and "digits_of" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def test_unchecked_construction_stays_in_intervals():
    # object.__new__ skips the Interval and IntervalSet checks; only the
    # kernel, which checks its results on the cuts, may do that
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES if path.name != "intervals.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr == "__new__"
             and isinstance(node.value, ast.Name) and node.value.id == "object"]
    assert found == []


def test_one_unchecked_interval_builder():
    # _part is the one function that makes an Interval without __post_init__;
    # Interval.translate, Interval.split_around and the kernel's part decoder
    # build through it, so no second fast builder sits beside it
    tree = ast.parse(Path(intervals.__file__).read_text(encoding="utf-8"))
    calls = [(owner, node) for owner, node in _enclosing_functions(tree)
             if isinstance(node, ast.Call)]
    builders = [owner for owner, call in calls
                if isinstance(call.func, ast.Attribute) and call.func.attr == "__new__"
                and any(isinstance(a, ast.Name) and a.id == "Interval" for a in call.args)]
    assert builders == ["_part"]
    assert {owner for owner, call in calls
            if getattr(call.func, "id", None) == "_part"} == {"translate", "_decode_part",
                                                              "split_around"}


def test_one_unchecked_fraction_builder():
    # _reduced is the one function that makes a Fraction without its
    # constructor; translates, splits, decoded parts and measure build
    # through it, and every colder site keeps the constructor
    calls = [(path.name, owner, node) for path in SOURCES
             for owner, node in _enclosing_functions(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call)]
    builders = [(name, owner) for name, owner, call in calls
                if isinstance(call.func, ast.Attribute) and call.func.attr == "__new__"
                and any(isinstance(a, ast.Name) and a.id == "Fraction" for a in call.args)]
    assert builders == [("intervals.py", "_reduced")]
    assert {(name, owner) for name, owner, call in calls
            if getattr(call.func, "id", None) == "_reduced"} == {
        ("intervals.py", owner)
        for owner in ("translate", "split_around", "_decode_part", "measure")}


def test_only_intervals_touches_fraction_slots():
    # intervals reads every ratio from Fraction's two slots and _reduced
    # writes them; no other module names a slot, and intervals reads no
    # ratio through as_integer_ratio() or the numerator/denominator properties
    slots = {"_numerator", "_denominator"}
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (node.attr if isinstance(node, ast.Attribute) else
                    node.id if isinstance(node, ast.Name) else
                    node.value if isinstance(node, ast.Constant) else None)
            if path.name != "intervals.py" and name in slots:
                found.append(f"{path.name}:{node.lineno}: names {name}")
            if path.name == "intervals.py" and isinstance(node, ast.Attribute) and node.attr in (
                    "as_integer_ratio", "numerator", "denominator"):
                found.append(f"{path.name}:{node.lineno}: reads .{node.attr}")
    assert found == []


def test_a_fraction_with_other_slots_fails_at_import():
    # intervals checks the two slot names once, when it loads, not per call
    assert _fresh_python("-c", "import fractions\n"
                               "fractions.Fraction.__slots__ = ('_num', '_den')\n"
                               "try:\n"
                               "    import affcopy.intervals\n"
                               "except ImportError as err:\n"
                               "    print(type(err).__name__, \"('_num', '_den')\" in str(err))"
                         ) == ["ImportError", "True"]


def test_the_ladder_splits_each_remnant_in_one_checked_step():
    # build_cantor makes every gap and remnant through Interval.split_around,
    # which checks the three shapes on ints and takes the gap's ends as ints,
    # and constructs no Interval itself; its one Fraction is each level's
    # length 1/m, none per remnant
    tree = ast.parse(Path(cantor.__file__).read_text(encoding="utf-8"))
    (build,) = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "build_cantor"]
    calls = [node.func for node in ast.walk(build) if isinstance(node, ast.Call)]
    assert [f.attr for f in calls if isinstance(f, ast.Attribute)
            and f.attr == "split_around"] == ["split_around"]
    found = [f"build_cantor:{f.lineno}: {ast.unparse(f)}" for f in calls
             if "Interval" in (getattr(f, "id", None),
                               getattr(getattr(f, "value", None), "id", None))]
    assert found == []
    assert [ast.unparse(node) for node in ast.walk(build) if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "Fraction"] == ["Fraction(1, m)"]


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


def _readme_examples():
    """The argv of each example in the README's CLI block."""
    readme = Path(affcopy.__file__).resolve().parents[2] / "README.md"
    block = readme.read_text(encoding="utf-8").split("## CLI", 1)[1].split("```sh\n", 1)[1]
    return [line.split()[1:] for line in block.split("```", 1)[0].splitlines()]


def test_readme_shows_one_example_per_subcommand():
    # the README's CLI block runs each cli.COMMANDS entry once, in table order,
    # and every example parses
    examples = _readme_examples()
    assert [argv[0] for argv in examples] == list(cli.COMMANDS)
    for argv in examples:
        cli.build_parser().parse_args(argv)


#: The nine layer modules of the package.
LAYERS = ("avoider", "cantor", "cli", "expbounds", "intervals", "mixedradix", "presets",
          "propcheck", "slowseq")

#: The layers each subcommand's process loads, besides the package itself.
LOADED = {
    **dict.fromkeys(("cantor-build", "cantor-verify", "cover"), {"intervals", "cantor"}),
    **dict.fromkeys(("seq-build", "seq-decompose", "coverage01"),
                    {"intervals", "cantor", "slowseq"}),
    **dict.fromkeys(("avoider-build", "avoider-measure", "avoider-embed"),
                    {"intervals", "slowseq", "avoider", "presets"}),
    **dict.fromkeys(("appendix-schedule", "appendix-intersect", "appendix-premeasure"),
                    {"intervals", "mixedradix", "expbounds"}),
    "prop-suite": {"intervals", "propcheck"},
}

#: Run ``affcopy.cli`` as ``python -m`` does, then print its exit code and the
#: affcopy modules loaded. The cli module itself runs as __main__.
RUN_AND_LIST = """
import runpy, sys
sys.argv[0] = "affcopy"
try:
    runpy.run_module("affcopy.cli", run_name="__main__")
except SystemExit as stop:
    print(stop.code, *sorted(m for m in sys.modules if m.startswith("affcopy")))
"""


def _fresh_python(*argv):
    src = str(Path(affcopy.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, *argv], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_layers_are_the_package_modules():
    assert {path.stem for path in SOURCES} == {"__init__", *LAYERS}
    assert set(LOADED) == set(cli.COMMANDS)


@pytest.mark.parametrize("argv", _readme_examples(), ids=lambda argv: argv[0])
def test_each_subcommand_loads_only_its_layers(tmp_path, argv):
    code, *modules = _fresh_python("-c", RUN_AND_LIST, *argv, "--out",
                                   str(tmp_path / "report.json"))
    assert code == "0"
    assert modules == sorted(["affcopy", *(f"affcopy.{layer}" for layer in LOADED[argv[0]])])


def test_an_input_error_loads_no_extra_layer():
    # a refused input exits 2 through main's except clause, which imports nothing
    code, *modules = _fresh_python("-c", RUN_AND_LIST, "avoider-build", "--beta", "harmonic",
                                   "--depth", "125")
    assert code == "2"
    assert modules == sorted(["affcopy",
                              *(f"affcopy.{layer}" for layer in LOADED["avoider-build"])])


def test_the_avoider_half_loads_no_ladder():
    assert _fresh_python("-c", "import sys, affcopy.presets; print(*sorted("
                         "m for m in sys.modules if m.startswith('affcopy')))") == [
        "affcopy", "affcopy.avoider", "affcopy.intervals", "affcopy.presets", "affcopy.slowseq"]


class TestLazyExports:
    def test_import_loads_no_layer(self):
        assert _fresh_python("-c", "import sys, affcopy; print(*sorted("
                             "m for m in sys.modules if m.startswith('affcopy')))") == ["affcopy"]

    def test_every_export_is_its_layers_object(self):
        names = [name for layer in LAYERS for name in affcopy._EXPORTS[layer]]
        assert sorted(names) == affcopy.__all__
        assert {*names, *LAYERS} <= set(dir(affcopy))
        for layer in LAYERS:
            module = importlib.import_module(f"affcopy.{layer}")
            for name in affcopy._EXPORTS[layer]:
                assert getattr(affcopy, name) is getattr(module, name)

    def test_every_layer_is_an_attribute(self):
        for layer in LAYERS:
            assert getattr(affcopy, layer) is sys.modules[f"affcopy.{layer}"]

    def test_star_import_binds_every_export(self):
        namespace = {}
        exec("from affcopy import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == affcopy.__all__
        assert len(namespace) == 44
        assert namespace["IntervalSet"] is intervals.IntervalSet

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            affcopy.no_such_name
        with pytest.raises(ImportError):
            from affcopy import no_such_name  # noqa: F401


MUTANTS = Path(__file__).parents[1] / "tools" / "mutants.py"


def test_the_mutation_script_kills_a_planted_mutant(tmp_path):
    # the check reads the boundary of `below` alone: flipping its `<` is
    # killed, while the `>=` of `above` and LIMIT + 1 survive; the planted
    # file itself is never written
    lib = tmp_path / "lib"
    lib.mkdir()
    planted = lib / "planted.py"
    text = ("def below(x, cap):\n"
            "    return x < cap\n"
            "\n"
            "\n"
            "def above(x, cap):\n"
            "    return x >= cap\n"
            "\n"
            "\n"
            "LIMIT = 3\n")
    planted.write_text(text)
    check = "import planted; assert planted.below(1, 2) and not planted.below(2, 2)"
    start = time.perf_counter()
    run = subprocess.run([sys.executable, str(MUTANTS), str(planted), "2", "9", "--",
                          sys.executable, "-c", check],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    assert run.returncode == 1, run.stderr
    assert run.stdout.splitlines() == ["lib/planted.py:6: >= -> >", "lib/planted.py:9: 3 -> 4"]
    assert run.stderr.splitlines() == ["3 mutants, 2 survived"]
    assert planted.read_text() == text
    assert elapsed < 2
    # the same command on the killed line alone: every mutant killed, exit 0
    run = subprocess.run([sys.executable, str(MUTANTS), str(planted), "1", "2", "--",
                          sys.executable, "-c", check],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stdout, run.stderr) == (0, "", "1 mutants, 0 survived\n")
