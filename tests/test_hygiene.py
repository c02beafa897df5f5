"""Source hygiene: every imported name is used, no module under src/ or
scripts/ imports another's private name, every public definition under
src/ has a user outside the tests, and so does every field of a public
dataclass under src/, and only `corpus.write_text` writes a file under
src/ (an `open` for writing, or an `os.replace`).

Walks the syntax tree of each module under src/, scripts/ and tests/
with the standard library alone.  An imported name counts as used when
it is read anywhere in the module or listed in its `__all__`.  A public
top-level function or class, or a public method or property of a public
class, counts as used when code outside its own body refers to it
across the Python files of src/, scripts/ and godelbench/: as a name or
as an attribute.  Strings, docstrings and comments name nothing, so the
function names godelbench/tracer.py wraps by string are no users either;
but each of them must still name a function of the lab, and so must each
`lab.<module>.<name>` the benchmark reads.  A dataclass field counts as
used when the same files read an attribute of its name (`spec.verify`,
`res.trace`); passing it by keyword or position fills the slot but reads
nothing.  Each problem of `problem_registry()` counts as read when the
same files read a subscript keyed by its name (`p["cn"]`, `specs["kol"]`).

A use is matched by name alone, so any name or attribute spelled like
a definition counts as its user, and a member with no caller can still
pass when an unrelated variable, attribute or key shares its name.
"""

import ast
import collections
import importlib.util
import pathlib

import pytest

from godellab.problems import problem_registry

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


def private_imports(tree: ast.Module) -> list[str]:
    """The `from <module> import _name` imports: a private name read
    from another module."""
    return [f"{node.module}.{alias.name} (line {node.lineno})"
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names if alias.name.startswith("_")]


# tests may read private names; the lab and its scripts may not
@pytest.mark.parametrize(
    "path", [p for p in FILES if p.relative_to(ROOT).parts[0] != "tests"],
    ids=lambda p: str(p.relative_to(ROOT)))
def test_no_private_imports_across_modules(path):
    assert private_imports(ast.parse(path.read_text(), str(path))) == []


def test_the_check_sees_a_private_import():
    tree = ast.parse("from __future__ import annotations\n"
                     "from .spaces import Literal, _word_of\n"
                     "from corpus import _distinct as draw\n")
    assert private_imports(tree) == ["spaces._word_of (line 2)",
                                     "corpus._distinct (line 3)"]


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


def unread_fields(sources: dict[str, str]) -> list[str]:
    """The fields of public dataclasses in the src/ sources that no code
    reads as an attribute (`x.field`).

    A field set by keyword or by position and never read through an
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
    # every field is checked, the `Callable` ones among them
    assert unread_fields(_code_sources()) == []


def test_the_check_sees_an_unread_callable_field():
    sources = {
        "src/m.py": "from dataclasses import dataclass\n"
                    "from typing import Callable, Optional\n\n"
                    "@dataclass(frozen=True)\nclass Spec:\n"
                    "    name: str\n"
                    "    size: int\n"
                    "    run: Callable[[int], int]\n"
                    "    spare: Callable[[int], int]\n"
                    "    hook: Optional[Callable[[], None]] = None\n"
                    "    written: Callable[[], None] = None\n\n"
                    "@dataclass\nclass _Private:\n    idle: Callable\n\n"
                    "class Plain:\n    idle: Callable\n",
        # a keyword, a store and a name are no reads; a call through an
        # instance and a bare attribute load are; `size` is a plain field
        # that nothing reads
        "scripts/s.py": "import m\n"
                        "s = m.Spec('a', 3, run=abs, spare=abs, hook=None)\n"
                        "s.written = print\nspare = 1\n"
                        "s.run(1)\nf = s.hook\nprint(s.name)\n",
    }
    assert unread_fields(sources) == ["Spec.size", "Spec.spare", "Spec.written"]


def unread_problems(names, sources: dict[str, str]) -> list[str]:
    """The problem names that no source uses as a subscript key.

    The lab keeps a problem spec only as an endpoint of a reduction or a
    query, and both look their problems up by name in the registry.
    """
    keys = {sub.slice.value for path, text in sources.items()
            for sub in ast.walk(ast.parse(text, path))
            if isinstance(sub, ast.Subscript) and isinstance(sub.ctx, ast.Load)
            and isinstance(sub.slice, ast.Constant)}
    return sorted(set(names) - keys)


def test_every_problem_is_read_outside_the_tests():
    assert unread_problems(problem_registry(), _code_sources()) == []


def test_the_check_sees_an_unread_problem():
    sources = {
        "src/r.py": "def pairs(p):\n"
                    "    \"\"\"p['doc'] names nothing.\"\"\"\n"
                    "    return p['cn'], p.get('called')  # p['comment']\n",
        "godelbench/w.py": "def query(specs):\n"
                           "    specs['kol'] = specs['g']\n"
                           "    return specs[0], 'bare'\n",
    }
    names = ["bare", "called", "cn", "comment", "doc", "g", "kol"]
    # a key loaded is a read; a key stored, a string, a docstring, a
    # comment or an argument is none
    assert unread_problems(names, sources) == ["bare", "called", "comment", "doc", "kol"]


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


def lab_reads(tree: ast.Module) -> set[str]:
    """The `<module>.<name>` that `tree` reads as `lab.<module>.<name>` or
    `mods.<module>.<name>`, the benchmark's names for the imported lab,
    also through an alias such as `C = lab.corpus`."""

    def module_of(node):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in ("lab", "mods")):
            return node.attr
        return aliases.get(node.id) if isinstance(node, ast.Name) else None

    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            module = module_of(node.value)
            if module is not None:
                aliases[node.targets[0].id] = module
    return {f"{module_of(node.value)}.{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and module_of(node.value) is not None}


def missing_lab_names(sources: dict[str, str]) -> list[str]:
    """The lab names each source reads (`lab_reads`) that the lab lacks."""
    missing = []
    for path, text in sorted(sources.items()):
        for read in sorted(lab_reads(ast.parse(text, path))):
            module, name = read.split(".")
            try:
                found = hasattr(importlib.import_module(f"godellab.{module}"), name)
            except ModuleNotFoundError:
                found = False
            if not found:
                missing.append(f"{path}: {read}")
    return missing


def test_the_benchmark_reads_names_the_lab_has():
    # godelbench/ reads the lab as attributes of the imported modules, so
    # a lab name deleted or renamed under it breaks run.py at run time
    sources = {str(p.relative_to(ROOT)): p.read_text()
               for p in (ROOT / "godelbench").glob("*.py")}
    assert missing_lab_names(sources) == []
    # the aliases are followed: workloads.py reads these as C.* and P.*
    reads = lab_reads(ast.parse(sources["godelbench/workloads.py"]))
    assert {"corpus.gen_families", "corpus.write_corpus",
            "problems.ProblemConfig", "problems.problem_registry"} <= reads


def test_the_check_sees_a_missing_lab_name():
    sources = {
        "godelbench/w.py": "def build(lab):\n"
                           "    C = lab.corpus\n"
                           "    C.write_corpus, C.gone\n"
                           "    return lab.numbering.nowhere(lab.spaces.Literal)\n",
        "godelbench/t.py": "def install(mods):\n"
                           "    mods.numbering.Halted, mods.nomodule.f, mods.all()\n",
    }
    assert missing_lab_names(sources) == ["godelbench/t.py: nomodule.f",
                                          "godelbench/w.py: corpus.gone",
                                          "godelbench/w.py: numbering.nowhere"]


def file_writes(tree: ast.Module) -> list[str]:
    """'<top-level definition>: <call> (line n)' for each call that writes
    a file in place: `open` with a mode that writes (or one that is not a
    literal), and `os.replace` or `os.rename`."""
    found = []
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                mode = node.args[1] if len(node.args) > 1 else next(
                    (k.value for k in node.keywords if k.arg == "mode"), None)
                if mode is not None and (not isinstance(mode, ast.Constant)
                                         or set("wax+") & set(mode.value)):
                    found.append((node.lineno, owner, "open"))
            elif (isinstance(func, ast.Attribute) and func.attr in ("replace", "rename")
                  and isinstance(func.value, ast.Name) and func.value.id == "os"):
                found.append((node.lineno, owner, f"os.{func.attr}"))
    return [f"{owner}: {call} (line {line})" for line, owner, call in sorted(found)]


def test_the_lab_writes_files_through_one_helper():
    # corpora and result files alike go through corpus.write_text, which
    # replaces a file whole and keeps one that already holds the bytes
    writes = {str(p.relative_to(ROOT)): file_writes(ast.parse(p.read_text(), str(p)))
              for p in FILES if p.relative_to(ROOT).parts[0] == "src"}
    helper = writes.pop("src/godellab/corpus.py")
    assert [w.split(" (")[0] for w in helper] == ["write_text: open",
                                                  "write_text: os.replace"]
    assert {path: found for path, found in writes.items() if found} == {}


def test_the_check_sees_a_file_write():
    tree = ast.parse("import os\n"
                     "def save(path, text, mode):\n"
                     "    with open(path, 'w') as fh:\n"
                     "        fh.write(text)\n"
                     "    open(path, mode=mode)\n"
                     "    open(path), open(path, 'rb'), open(path, mode='r')\n"
                     "class Store:\n"
                     "    def keep(self, a, b):\n"
                     "        os.replace(a, b)\n"
                     "        text.replace(a, b)\n"
                     "open('log', 'ab')\n")
    assert file_writes(tree) == ["save: open (line 3)", "save: open (line 5)",
                                 "Store: os.replace (line 9)",
                                 "<module>: open (line 11)"]
