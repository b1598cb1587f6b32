"""Mutation check: which small edits of a line range do the tests not notice?

    python tools/mutants.py SOURCE FIRST LAST -- COMMAND...

Each mutant changes one token of SOURCE between lines FIRST and LAST: a
comparison flips to its boundary twin (``<`` and ``<=``, ``>`` and ``>=``,
``==`` and ``!=``, ``is`` and ``is not``, ``in`` and ``not in``), or an int
literal gains 1. SOURCE itself is never written. The current directory,
which must hold SOURCE, is copied to a temporary directory (without
``.git``, ``__pycache__`` and ``.pytest_cache``); each mutant is written into
the copy, and COMMAND runs there. ``PYTHONPATH`` has SOURCE's import root in
the copy (the first directory above SOURCE without an ``__init__.py``)
first, and its entries under the current directory point into the copy. A
mutant survives when COMMAND exits 0; each survivor is printed as
``file:line: old -> new``, the file relative to the current directory.
COMMAND must pass on the unmutated copy first. A mutant that runs past five
times that run's wall time (at least 10 s) counts as killed.

Exit status: 0 when every mutant is killed, 1 when one survives, 2 when the
arguments are malformed or COMMAND fails on the unmutated copy. Example:

    python tools/mutants.py src/affcopy/mixedradix.py 78 101 -- \\
        python -m pytest -q -x -p no:cacheprovider tests/test_mixedradix.py
"""

import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

#: Each comparison's boundary twin, and the pattern of its token in the text
#: between two operands (a lone ``<`` must not match inside ``<=`` or ``<<``).
TWINS = {
    ast.Lt: (r"(?<![<>=!])<(?![<=])", "<="), ast.LtE: (r"<=", "<"),
    ast.Gt: (r"(?<![<>=!])>(?![>=])", ">="), ast.GtE: (r">=", ">"),
    ast.Eq: (r"==", "!="), ast.NotEq: (r"!=", "=="),
    ast.Is: (r"\bis\b(?!\s+not\b)", "is not"), ast.IsNot: (r"\bis\s+not\b", "is"),
    ast.In: (r"(?<!not )\bin\b", "not in"), ast.NotIn: (r"\bnot\s+in\b", "in"),
}


def mutants(source: bytes, first: int, last: int):
    """Each mutant of the lines first..last as ``(line, old, new, text)``.
    AST offsets count UTF-8 bytes, so the edits work on bytes."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def offset(line, col):
        return starts[line - 1] + col

    def edit(lo, hi, new):
        return source[:lo] + new.encode() + source[hi:]

    def found():
        for node in ast.walk(ast.parse(source)):
            if not first <= getattr(node, "lineno", 0) <= last:
                continue
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                for op, left, right in zip(node.ops, operands, operands[1:]):
                    lo = offset(left.end_lineno, left.end_col_offset)
                    between = source[lo:offset(right.lineno, right.col_offset)].decode()
                    pattern, new = TWINS[type(op)]
                    match = re.search(pattern, between)
                    if match:
                        yield (node.lineno, match.group(), new,
                               edit(lo + match.start(), lo + match.end(), new))
            elif (isinstance(node, ast.Constant) and isinstance(node.value, int)
                  and not isinstance(node.value, bool)):
                lo = offset(node.lineno, node.col_offset)
                hi = offset(node.end_lineno, node.end_col_offset)
                old, new = source[lo:hi].decode(), str(node.value + 1)
                if old.isdigit() and int(old) == node.value:  # skip a misplaced offset
                    yield node.lineno, old, new, edit(lo, hi, new)

    for line, old, new, text in sorted(found(), key=lambda m: m[0]):
        try:
            ast.parse(text)
        except SyntaxError:  # a mutant that cannot run is not a test's kill
            continue
        yield line, old, new, text


def import_root(path: Path) -> Path:
    root = path.parent
    while (root / "__init__.py").exists():
        root = root.parent
    return root


def main(argv) -> int:
    if "--" not in argv or len(argv[:argv.index("--")]) != 3 or argv[-1] == "--":
        print("usage: " + __doc__.splitlines()[2].strip(), file=sys.stderr)
        return 2
    split = argv.index("--")
    (source, first, last), command = argv[:split], argv[split + 1:]
    here = Path.cwd()
    try:
        first, last = int(first), int(last)
        path = Path(source).resolve().relative_to(here)
        text = path.read_bytes()
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / here.name

        def skipped(directory, names):
            return [name for name in names if name in (".git", "__pycache__", ".pytest_cache")
                    or Path(directory, name) == Path(tmp)]

        shutil.copytree(here, copy, ignore=skipped)
        # the import root of SOURCE first, and every path entry under the
        # current directory moved into the copy
        entries = [str(copy / import_root(path))]
        for entry in filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep)):
            inside = Path(entry).resolve()
            entries.append(str(copy / inside.relative_to(here))
                           if inside.is_relative_to(here) else entry)
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(entries))

        def passes(timeout=None):
            try:
                return subprocess.run(command, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                                      stderr=subprocess.DEVNULL, timeout=timeout).returncode == 0
            except subprocess.TimeoutExpired:
                return False

        start = time.perf_counter()
        if not passes():
            print("error: the command fails on the unmutated source", file=sys.stderr)
            return 2
        timeout = max(10.0, 5 * (time.perf_counter() - start))
        total = survived = 0
        for line, old, new, mutated in mutants(text, first, last):
            (copy / path).write_bytes(mutated)
            total += 1
            if passes(timeout):
                survived += 1
                print(f"{path}:{line}: {old} -> {new}", flush=True)
        print(f"{total} mutants, {survived} survived", file=sys.stderr)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
