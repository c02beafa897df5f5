"""Source hygiene: every imported name is used, every public
definition under src/ has a user outside the tests, and so does every
`Callable`-typed field of a public dataclass under src/.

Walks the syntax tree of each module under src/, scripts/ and tests/
with the standard library alone.  An imported name counts as used when
it is read anywhere in the module or listed in its `__all__`.  A public
top-level function or class, or a public method or property of a public
class, counts as used when code outside its own body refers to it
across the Python files of src/, scripts/ and godelbench/: as a name or
as an attribute.  Strings, docstrings and comments name nothing, so the
function names godelbench/tracer.py wraps by string are no users either;
but each of them must still name a function of the lab.  A `Callable`
field counts as used when the same files read an attribute of its name
(`spec.verify`); passing it by keyword or position fills the slot but
reads nothing.

A use is matched by name alone, so any name or attribute spelled like
a definition counts as its user, and a member with no caller can still
pass: a property `LoopCompiler.image` had none, but passed because
godelbench/workloads.py has a local variable `image`.
"""

import ast
import collections
import importlib.util
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


def public_definitions(tree: ast.Module):
    """(name, node) for each public top-level function and class, and
    ("Class.member", node) for each public method and property of a
    public class."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, functions) and not member.name.startswith("_"):
                        yield f"{node.name}.{member.name}", member


def references(node: ast.AST):
    """The names that the code under `node` refers to."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def unnamed_definitions(sources: dict[str, str]) -> list[str]:
    """Public definitions in the src/ sources that no code outside their
    own bodies refers to.

    `sources` maps a path relative to the repository root to its text.
    """
    trees = {path: ast.parse(text, path) for path, text in sources.items()}
    refs = collections.Counter(
        name for tree in trees.values() for name in references(tree))
    return sorted(
        qualified
        for path, tree in trees.items() if path.startswith("src/")
        for qualified, node in public_definitions(tree)
        if refs[node.name] == sum(name == node.name
                                  for name in references(node)))


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if (isinstance(target, ast.Name) and target.id == "dataclass"
                or isinstance(target, ast.Attribute) and target.attr == "dataclass"):
            return True
    return False


def unread_callable_fields(sources: dict[str, str]) -> list[str]:
    """The `Callable`-typed fields of public dataclasses in the src/
    sources that no code reads as an attribute (`x.field`).

    A field set by keyword or by position and never called through an
    instance is a slot every instance must fill and nothing uses.
    """
    trees = {path: ast.parse(text, path) for path, text in sources.items()}
    read = {sub.attr for tree in trees.values() for sub in ast.walk(tree)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}
    return sorted(
        f"{node.name}.{field.target.id}"
        for path, tree in trees.items() if path.startswith("src/")
        for node in tree.body
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
        and _is_dataclass(node)
        for field in node.body
        if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
        and any(isinstance(n, ast.Name) and n.id == "Callable"
                or isinstance(n, ast.Attribute) and n.attr == "Callable"
                for n in ast.walk(field.annotation))
        and field.target.id not in read)


def _code_sources() -> dict[str, str]:
    """The Python files whose code counts as a user: src/, scripts/ and
    godelbench/."""
    return {str(p.relative_to(ROOT)): p.read_text()
            for d in ("src", "scripts", "godelbench")
            for p in (ROOT / d).rglob("*.py")}


def test_every_public_definition_has_a_user_outside_the_tests():
    unnamed = set(unnamed_definitions(_code_sources()))
    assert unnamed - TEST_ONLY_ALLOWED == set()
    # an allowed name that gains a user leaves the list
    assert TEST_ONLY_ALLOWED - unnamed == set()


def test_the_check_sees_an_unnamed_definition():
    sources = {
        "src/m.py": "def used():\n    pass\n\n"
                    "def lonely():\n    pass\n\n"
                    "class _Private:\n    def hidden(self):\n        pass\n\n"
                    "class Public:\n"
                    "    def __init__(self):\n        pass\n\n"
                    "    def called(self):\n        pass\n\n"
                    "    def idle(self):\n        return self.idle()\n\n"
                    "    @property\n    def shape(self):\n        return 0\n",
        "scripts/s.py": "from m import Public, used\nused()\nPublic().called()\n",
    }
    # members of a private class, and dunders, are not checked
    assert unnamed_definitions(sources) == ["Public.idle", "Public.shape", "lonely"]


def test_every_callable_field_is_read_outside_the_tests():
    assert unread_callable_fields(_code_sources()) == []


def test_the_check_sees_an_unread_callable_field():
    sources = {
        "src/m.py": "from dataclasses import dataclass\n"
                    "from typing import Callable, Optional\n\n"
                    "@dataclass(frozen=True)\nclass Spec:\n"
                    "    name: str\n"
                    "    run: Callable[[int], int]\n"
                    "    spare: Callable[[int], int]\n"
                    "    hook: Optional[Callable[[], None]] = None\n"
                    "    written: Callable[[], None] = None\n\n"
                    "@dataclass\nclass _Private:\n    idle: Callable\n\n"
                    "class Plain:\n    idle: Callable\n",
        # a keyword, a store and a name are no reads; a call through an
        # instance and a bare attribute load are
        "scripts/s.py": "import m\n"
                        "s = m.Spec('a', run=abs, spare=abs, hook=None)\n"
                        "s.written = print\nspare = 1\n"
                        "s.run(1)\nf = s.hook\n",
    }
    assert unread_callable_fields(sources) == ["Spec.spare", "Spec.written"]


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


def test_the_tracer_wraps_names_the_lab_has():
    # godelbench/tracer.py looks each wrapped function up by name when
    # `run.py --trace 1` installs it, so a lab function deleted or renamed
    # under it breaks the traced benchmark; this catches that here
    spec = importlib.util.spec_from_file_location(
        "tracer", ROOT / "godelbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    wrapped = [*tracer.SPANS, *tracer.SPEC_FACTORIES,
               *(("corpus", name) for name in tracer.GENERATORS)]
    assert [f"{module}.{name}" for module, name in wrapped
            if not hasattr(importlib.import_module(f"godellab.{module}"), name)] == []
