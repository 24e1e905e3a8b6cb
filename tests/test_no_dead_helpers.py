"""Every function, class and method in src/gradedsrc has a caller.

A name counts as used when it occurs as a name token (a ``tokenize`` NAME)
on some line of src/gradedsrc or scripts/ other than its own definition
line.  Comments and strings are not name tokens, so a name that occurs only
in prose (a comment, a docstring, a message) does not count as a use.
Dunder methods are called by the interpreter and are not checked.
"""

import ast
import tokenize
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "gradedsrc").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "scripts").glob("*.py"))

# public entry points that only the tests or the benchmark call, with the reason each stays
ALLOWED = {
    "find_point": "criterion 6 finds a root of a polynomial over an extension field with it",
    "footnote_embedding": "the map whose kernel footnote_kernel certifies; tests evaluate it",
    "intconst_truncated_kernel": "criterion 8's truncated kernel over the polynomial fixture",
    "system_to_json": "writes the solve input format; the benchmark's self-test uses it",
}


def definitions(paths):
    """(name, file, line) for every non-dunder def and class in `paths`."""
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    yield node.name, path, node.lineno


def unused(package, sources):
    """'file:line name' for each definition in `package` whose name is a
    name token on no line of `sources` but its own definition line."""
    where = defaultdict(set)  # name -> {(file, line)} of its name tokens
    for path in sources:
        with tokenize.open(path) as fh:
            for tok in tokenize.generate_tokens(fh.readline):
                if tok.type == tokenize.NAME:
                    where[tok.string].add((path, tok.start[0]))
    return [f"{path.name}:{lineno} {name}" for name, path, lineno in definitions(package)
            if not where[name] - {(path, lineno)}]


def test_every_helper_has_a_caller():
    flagged = [u for u in unused(PACKAGE, SOURCES) if u.split()[-1] not in ALLOWED]
    assert not flagged, "no caller: " + ", ".join(flagged)


def test_names_in_prose_do_not_count(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "def helper():\n"
        '    """helper is named in this docstring."""\n'
        "    return 'helper'  # and in a comment: helper\n"
        "\n"
        "\n"
        "def main():\n"
        "    return 1\n"
        "\n"
        "\n"
        "main()\n"
    )
    assert unused([src], [src]) == ["mod.py:1 helper"]


def test_allowlist_names_only_defined_helpers():
    assert set(ALLOWED) <= {name for name, _, _ in definitions(PACKAGE)}
