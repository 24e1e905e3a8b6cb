"""Every function, class and method in src/gradedsrc has a caller.

A name counts as used when it occurs as a whole word on some line of
src/gradedsrc or scripts/ other than its own definition line.  The match is
by word, not by call site, so a name that also occurs in prose (a comment,
a docstring, a message) escapes the guard.  Dunder methods are called by
the interpreter and are not checked.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gradedsrc"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))

# public entry points that only the tests or the benchmark call, with the reason each stays
ALLOWED = {
    "find_point": "criterion 6 finds a root of a polynomial over an extension field with it",
    "footnote_embedding": "the map whose kernel footnote_kernel certifies; tests evaluate it",
    "intconst_truncated_kernel": "criterion 8's truncated kernel over the polynomial fixture",
    "system_to_json": "writes the solve input format; the benchmark's self-test uses it",
}


def definitions():
    """(name, file, line) for every non-dunder def and class in src/gradedsrc."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    yield node.name, path, node.lineno


def test_every_helper_has_a_caller():
    lines = {path: path.read_text().splitlines() for path in SOURCES}
    unused = []
    for name, path, lineno in definitions():
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(word.search(line) for p, text in lines.items()
                   for i, line in enumerate(text, 1) if (p, i) != (path, lineno)):
            unused.append(f"{path.name}:{lineno} {name}")
    unused = [u for u in unused if u.split()[-1] not in ALLOWED]
    assert not unused, "no caller: " + ", ".join(unused)


def test_allowlist_names_only_defined_helpers():
    assert set(ALLOWED) <= {name for name, _, _ in definitions()}
