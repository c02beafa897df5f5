"""Source hygiene: every imported name is used, and every public
definition under src/ has a user outside the tests.

Walks the syntax tree of each module under src/, scripts/ and tests/
with the standard library alone.  An imported name counts as used when
it is read anywhere in the module or listed in its `__all__`.  A public
top-level function or class counts as used when code outside its own
body refers to it across the Python files of src/, scripts/ and
godelbench/: as a name or as an attribute.  Strings, docstrings and
comments name nothing, so the function names godelbench/tracer.py wraps
by string are no users either.
"""

import ast
import collections
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "scripts", "tests")
               for p in (ROOT / d).rglob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(), str(path))) == []


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\n"
                     "from typing import Optional, Union\n"
                     "x: Union[int, str]\n")
    assert unused_imports(tree) == ["Optional (line 2)", "os (line 1)"]


# public names the lab itself never calls, each kept for a reason
TEST_ONLY_ALLOWED = {
    # emitter budget guarantees: the tests check that each emitted index
    # settles within them
    "s_const_budget",
    "first_value_budget",
    "literal_eval_budget",
    # the loop language's reference interpreter, against which the tests
    # check the compiled machine code
    "run_loop",
    # runs a decoded program without an index: criterion 1's EVB probe
    # runs programs too wide to encode
    "run_program",
    # emitters no workload reaches, which the tracer wraps by name: the
    # s-m-n index transformer, checked against direct calls and the
    # reference, and the literal compiler, whose indices the tests check
    # against the literal's values
    "s_const",
    "compile_literal",
}


def public_definitions(tree: ast.Module) -> list[ast.AST]:
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def references(node: ast.AST):
    """The names that the code under `node` refers to."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def unnamed_definitions(sources: dict[str, str]) -> list[str]:
    """Public top-level definitions in the src/ sources that no code
    outside their own bodies refers to.

    `sources` maps a path relative to the repository root to its text.
    """
    trees = {path: ast.parse(text, path) for path, text in sources.items()}
    refs = collections.Counter(
        name for tree in trees.values() for name in references(tree))
    return sorted(
        node.name
        for path, tree in trees.items() if path.startswith("src/")
        for node in public_definitions(tree)
        if refs[node.name] == sum(name == node.name
                                  for name in references(node)))


def test_every_public_definition_has_a_user_outside_the_tests():
    sources = {str(p.relative_to(ROOT)): p.read_text()
               for d in ("src", "scripts", "godelbench")
               for p in (ROOT / d).rglob("*.py")}
    unnamed = set(unnamed_definitions(sources))
    assert unnamed - TEST_ONLY_ALLOWED == set()
    # an allowed name that gains a user leaves the list
    assert TEST_ONLY_ALLOWED - unnamed == set()


def test_the_check_sees_an_unnamed_definition():
    sources = {
        "src/m.py": "def used():\n    pass\n\n"
                    "def lonely():\n    pass\n\n"
                    "class _Private:\n    pass\n",
        "scripts/s.py": "from m import used\nused()\n",
    }
    assert unnamed_definitions(sources) == ["lonely"]


def test_words_outside_code_are_not_users():
    sources = {
        "src/m.py": "def documented():\n"
                    "    \"\"\"documented() names itself here.\"\"\"\n\n"
                    "def recursive(n):\n"
                    "    return recursive(n - 1) if n else 0\n\n"
                    "def traced():\n    pass\n\n"
                    "def attribute():\n    pass\n",
        # a comment or a string names nothing, the tracer's included
        "scripts/s.py": "import m\n# documented, recursive\n"
                        "print('documented')\nm.attribute()\n",
        "godelbench/tracer.py": "SPANS = (('m', 'traced'),)\n",
    }
    assert unnamed_definitions(sources) == ["documented", "recursive", "traced"]
