"""API-surface guards: every function, class and method in `src/suspkit`
and `bench`, public or private, and every private module-level constant
is referenced somewhere in that code outside its own definition, every
name a module of `src/suspkit` or `tests` imports is used in that
module, every local a function of `src/suspkit` assigns is read, every
public dataclass field is read by that code, and every defaulted
parameter of a function in `src/suspkit` is on an allowlist
with its reason.  The test oracles (`tests/oracles.py`) import nothing
of the package but its exceptions.

References are matched by name: a bare name, an attribute, an imported
name, or a word of a string constant.  A method or property is used only
through an attribute (`obj.method`) outside its own body, or through a
"Class.method" string: `bench/layer_trace.py` wraps methods it names in
strings such as "CorpusStore.user_timeline".  So a local `n` or the word
`n` in a message is no use of a method `n`.  Tests do not count as
references, so a name only tests use fails here unless it is on the
allowlist with its reason.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "suspkit"
SCANNED = (PACKAGE, ROOT / "bench")

# name -> why it stays public although no program code calls it
ALLOWED: dict[str, str] = {}

WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _definitions(tree: ast.Module) -> list[tuple[str, ast.AST, str | None]]:
    """(name, node, owner) of the module-level functions, classes and
    constants, whose owner is None, and of the methods of classes, whose
    owner is the class name."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node, None))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.extend((t.id, node, None) for t in targets if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef):
            found.extend(
                (item.name, item, node.name) for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            )
    # Dunders (`__init__`, `__all__`) are used by Python itself.
    return [entry for entry in found if not entry[0].startswith("__")]


def _docstrings(node: ast.AST) -> set[int]:
    """ids of the docstring constants under a node."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = sub.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                found.add(id(body[0].value))
    return found


def _references(node: ast.AST) -> Counter:
    """Names used under a node; a docstring that mentions a name is no use of it."""
    docstrings = _docstrings(node)
    names: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names[sub.name.rsplit(".", 1)[-1]] += 1
        elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and id(sub) not in docstrings):
            names.update(WORD.findall(sub.value))
    return names


def _attributes(node: ast.AST) -> Counter:
    """Attribute names accessed under a node."""
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def unreferenced_names(roots=SCANNED, *, private=False) -> set[str]:
    """Public functions, classes and methods, or with `private` private
    ones and private module-level constants, that nothing under `roots`
    references outside their own definition."""
    trees = [
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for root in roots
        for path in sorted(root.rglob("*.py"))
    ]
    everywhere: Counter = Counter()
    attributes: Counter = Counter()
    strings = []
    for tree in trees:
        everywhere.update(_references(tree))
        attributes.update(_attributes(tree))
        docstrings = _docstrings(tree)
        strings.extend(node.value for node in ast.walk(tree)
                       if isinstance(node, ast.Constant) and isinstance(node.value, str)
                       and id(node) not in docstrings)
    unused = set()
    for tree in trees:
        for name, node, owner in _definitions(tree):
            if name.startswith("_") != private:
                continue
            if not private and isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            # A recursive call is no use from outside.
            if owner is None:
                used = everywhere[name] > _references(node)[name]
            else:
                used = (attributes[name] > _attributes(node)[name]
                        or any(f"{owner}.{name}" in text for text in strings))
            if not used:
                unused.add(name)
    return unused


def unused_imports(root=PACKAGE) -> set[str]:
    """`module:name` for each imported name its module never uses.

    A use is a load of the name or a word of a string constant that is
    not a docstring (quoted annotations, `__all__` re-exports).
    """
    unused = set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.extend(a.asname or a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.extend(a.asname or a.name for a in node.names)
        docstrings = _docstrings(tree)
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in docstrings):
                used.update(WORD.findall(node.value))
        unused.update(f"{path.stem}:{name}" for name in imported if name not in used)
    return unused


def test_every_public_name_is_used_by_the_program():
    unused = unreferenced_names()
    assert unused - set(ALLOWED) == set(), "public names nothing in src/ or bench/ uses"


def test_allowlist_holds_only_unused_names():
    assert set(ALLOWED) <= unreferenced_names()


def test_guard_catches_an_unused_function(tmp_path):
    (tmp_path / "mod.py").write_text(
        '"""Mentions `unused` and `Lid` in a docstring."""\n\n'
        "def used():\n    return 1\n\n"
        "def unused():\n    return unused()\n\n"
        "class Box:\n    def open(self):\n        return used()\n\n"
        "class Lid:\n    def _hinge(self):\n        return 0\n\n"
        "WRAPPED = ['Box.open']\n",
        encoding="utf-8",
    )
    assert unreferenced_names([tmp_path]) == {"unused", "Lid"}


def test_guard_sees_methods_only_through_attributes(tmp_path):
    (tmp_path / "mod.py").write_text(
        '"""Mentions `Matrix.docs` in a docstring."""\n\n'
        "class Matrix:\n"
        "    @property\n    def n(self):\n        return 1\n\n"
        "    def docs(self):\n        return 2\n\n"
        "    def again(self):\n        return self.again()\n\n"
        "    def read(self):\n        return 3\n\n"
        "    def wrapped(self):\n        return 4\n\n"
        "def report(n, read, again):\n"
        "    matrix = Matrix()\n"
        "    return f'{n} rows, docs', matrix.read(), again\n\n"
        "WRAPPED = ['Matrix.wrapped', report]\n",
        encoding="utf-8",
    )
    assert unreferenced_names([tmp_path]) == {"n", "docs", "again"}


def test_every_private_name_is_used_by_the_program():
    assert unreferenced_names(private=True) == set(), "private names nothing in src/ or bench/ uses"


def test_private_guard_catches_unused_private_names(tmp_path):
    (tmp_path / "mod.py").write_text(
        '"""Mentions `_spare` and `_Lid` in a docstring."""\n\n'
        "_USED = 1\n_UNUSED = 2\n_TYPED: int = 3\nPUBLIC = 4\n\n"
        "def _helper():\n    return _USED\n\n"
        "def _spare():\n    return _spare()\n\n"
        "class Box:\n    def __init__(self):\n        self._open()\n\n"
        "    def _open(self):\n        return _helper()\n\n"
        "    def _hinge(self):\n        return 0\n\n"
        "class _Lid:\n    pass\n\n"
        "WRAPPED = ['Box._wrapped']\n\n"
        "def _wrapped():\n    return Box()\n",
        encoding="utf-8",
    )
    assert unreferenced_names([tmp_path], private=True) == {
        "_UNUSED", "_TYPED", "_spare", "_hinge", "_Lid"}


def test_every_import_is_used():
    assert unused_imports() | unused_imports(ROOT / "tests") == set()


def test_import_guard_catches_an_unused_import(tmp_path):
    (tmp_path / "mod.py").write_text(
        '"""Mentions math and Path in a docstring."""\n\n'
        "from __future__ import annotations\n\n"
        "import math\nimport os.path\nimport numpy as np\n"
        "from pathlib import Path, PurePath\nfrom typing import Sequence\n\n"
        "__all__ = ['PurePath']\n\n"
        "def f(x: 'Sequence[int]') -> int:\n    return len(os.path.sep) + len(x)\n",
        encoding="utf-8",
    )
    assert unused_imports(tmp_path) == {"mod:math", "mod:np", "mod:Path"}


def _own_nodes(func: ast.AST):
    """The nodes of a function's body, outside the functions, lambdas and
    classes it defines."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def unused_locals(root=PACKAGE) -> set[str]:
    """`module.function:name` for each name without a leading underscore
    that a function assigns and that no load in the function, its nested
    functions included, reads.  An augmented assignment is no read, and
    a name the function declares global or nonlocal is not its own."""
    unused = set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            own = list(_own_nodes(func))
            shared = {name for node in own if isinstance(node, (ast.Global, ast.Nonlocal))
                      for name in node.names}
            stored = {node.id for node in own
                      if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
            loaded = {node.id for node in ast.walk(func)
                      if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            unused.update(f"{path.stem}.{func.name}:{name}"
                          for name in stored - loaded - shared if not name.startswith("_"))
    return unused


def test_every_local_is_read():
    assert unused_locals() == set(), "locals a function of src/ assigns and never reads"


def test_local_guard_catches_an_unused_local(tmp_path):
    (tmp_path / "mod.py").write_text(
        '"""Mentions `spare` in a docstring."""\n\n'
        "def f(rows):\n"
        "    total, spare, _skipped = 0, 1, 2\n"
        "    view = rows[:2]\n"
        "    count = 0\n    count += 1\n"
        "    for row in rows:\n        total += row\n"
        "    def inner():\n        nonlocal total\n        total = 3\n        seen = total\n"
        "    class Box:\n        lid = 4\n"
        "    inner()\n"
        "    return total + sum(x for x in rows)\n",
        encoding="utf-8",
    )
    assert unused_locals(tmp_path) == {"mod.f:spare", "mod.f:view", "mod.f:count",
                                       "mod.inner:seen"}


# The only module of the package the test oracles may use: an oracle
# that shares code with what it judges would repeat its faults.
ORACLE_IMPORTS = {"suspkit.errors"}


def package_imports(path: Path) -> set[str]:
    """The `suspkit` modules a file imports from, by dotted name; a name
    imported from the package itself counts as its submodule."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == "suspkit":
            found.update(f"suspkit.{a.name}" for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module)
    return {name for name in found if name.split(".")[0] == "suspkit"}


def test_oracles_share_no_code_with_the_program():
    assert package_imports(ROOT / "tests" / "oracles.py") <= ORACLE_IMPORTS


def test_oracle_guard_catches_a_program_import(tmp_path):
    (tmp_path / "mod.py").write_text(
        '"""Mentions suspkit.wallets in a docstring."""\n\n'
        "import numpy\nimport suspkit.corpus\n"
        "from suspkit import gbdt\nfrom suspkit.errors import SchemaMismatch\n"
        "from suspkit.wallets import _bech32_polymod\n",
        encoding="utf-8",
    )
    assert package_imports(tmp_path / "mod.py") - ORACLE_IMPORTS == {
        "suspkit.corpus", "suspkit.gbdt", "suspkit.wallets"}


# Class.field -> why it stays although no program code reads it
ALLOWED_FIELDS = {
    "PcaModel.explained_variance": "the PCA oracle checks compare it with the dense eigensolver",
    "ToxicitySummary.skipped_unknown": "cmd_cluster writes it to toxicity.json through "
        "dataclasses.asdict, a read by field name that no attribute load shows",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def unread_fields(roots=SCANNED) -> set[str]:
    """`Class.field` for each public dataclass field that no attribute
    load and no word of a non-docstring string constant reads."""
    trees = [
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for root in roots
        for path in sorted(root.rglob("*.py"))
    ]
    read = set()
    for tree in trees:
        docstrings = _docstrings(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in docstrings):
                read.update(WORD.findall(node.value))
    unread = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                unread.update(
                    f"{node.name}.{item.target.id}" for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                    and not item.target.id.startswith("_") and item.target.id not in read
                )
    return unread


def test_every_dataclass_field_is_read_by_the_program():
    assert unread_fields() == set(ALLOWED_FIELDS)


def test_field_guard_catches_an_unread_field(tmp_path):
    (tmp_path / "mod.py").write_text(
        '"""Mentions `Box.docs` in a docstring."""\n\n'
        "import dataclasses\nfrom dataclasses import dataclass\n\n"
        "@dataclass\nclass Box:\n    read: int\n    named: int\n    docs: int\n"
        "    written: int\n    _private: int = 0\n\n"
        "@dataclasses.dataclass(frozen=True)\nclass Lid:\n    hinge: int\n\n"
        "class Plain:\n    loose: int\n\n"
        "def use(box):\n    box.written = box.read\n    return getattr(box, 'named')\n",
        encoding="utf-8",
    )
    assert unread_fields([tmp_path]) == {"Box.docs", "Box.written", "Lid.hinge"}


# module.function(parameter) -> why the parameter keeps a default value
ALLOWED_DEFAULTS = {
    "cli.main(argv)": "the entry point: the `suspkit` console script calls it without "
                      "arguments, so argparse reads sys.argv",
    "content_clustering.cluster_cosine(item_ids)": "the pipeline passes the post ids of "
        "the rows; the clustering tests name rows by their index",
    "corpus.MalformedRecord.__init__(reason)": "most parse faults are bad_value; the "
        "others name their reason at the raise",
    "corpus.CorpusStore.__init__(path)": "the in-memory store tests build corpora in; "
        "the CLI passes its sqlite file",
    "pipeline.extract_window_features(context)": "None fits the context on the train "
        "window; test windows pass the train split's context",
    "suspension_model.train(mask)": "None fits on every column, as the model tests do; "
        "the pipeline passes the selection mask",
}


def defaulted_parameters(root=PACKAGE) -> set[str]:
    """`module.function(parameter)` for each parameter with a default
    value of a function, method or lambda under `root`."""
    found = set()

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
            elif isinstance(child, ast.Lambda):
                name = f"{prefix}.<lambda>"
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = child.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults):] + [
                    arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                    if default is not None
                ]
                found.update(f"{name}({arg.arg})" for arg in defaulted)
            visit(child, name)

    for path in sorted(root.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), path.stem)
    return found


def test_every_default_is_on_the_allowlist():
    assert defaulted_parameters() == set(ALLOWED_DEFAULTS)


def test_default_guard_catches_a_defaulted_parameter(tmp_path):
    (tmp_path / "mod.py").write_text(
        '"""Mentions `f(x=1)` in a docstring."""\n\n'
        "def f(a, b=1, *, c, d=2):\n    return a + b + c + d\n\n"
        "def g(a, /, b=None, *rest, **options):\n    return lambda x, y=a: x + y\n\n"
        "class Box:\n    def __init__(self, size=3):\n        self.size = size\n\n"
        "    def open(self, *, how):\n        return how\n",
        encoding="utf-8",
    )
    assert defaulted_parameters(tmp_path) == {
        "mod.f(b)", "mod.f(d)", "mod.g(b)", "mod.g.<lambda>(y)", "mod.Box.__init__(size)"}
