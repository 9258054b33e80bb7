"""No public class or constant of ``bft`` that nothing uses.

``tests/test_reachability.py`` holds every function of ``src/bft`` to a
request that runs it, which this name check cannot do: it does not know
which class a method call goes to.  What that guard cannot see is a name
that runs no code of its own: a public class with no method (the exception
classes) and a public name bound by assignment (constants, named tuples,
the chamber-family views).  Such a name of a ``src/bft`` module counts as
used if another line of ``src/bft`` names it (as a name or an attribute) or
if ``perfbench/`` names it (as a name, an import or a string constant, so
the names its tracer looks up by ``getattr`` count).  Tests do not count:
a name only its own tests use is dead code.

Nor does a module of ``src/bft`` import a name it never reads: a name
listed in its ``__all__`` counts as read, as the package root re-exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _trees(directory: Path):
    return [
        ast.parse(p.read_text(), str(p))
        for p in sorted(directory.glob("*.py"))
        if p.name != "__init__.py"
    ]


def _unguarded_definitions(tree):
    """The public classes with no method, and the public assigned names."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            if not any(isinstance(item, ast.FunctionDef) for item in node.body):
                names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def _referenced(trees, strings: bool):
    """The names read in ``trees``.  Binding a name, or one of its attributes
    (``Analysis.__doc__ = ...``), is no read of it."""
    names = set()
    for tree in trees:
        bound = {
            id(node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Load) and id(node) not in bound:
                    names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif strings and isinstance(node, ast.alias):
                names.add(node.name)
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(node.value.split("."))
    return names


def test_every_public_helper_is_used_or_kept_for_a_stated_reason():
    src = _trees(ROOT / "src" / "bft")
    defined = set().union(*map(_unguarded_definitions, src))
    used = _referenced(src, strings=False) | _referenced(
        _trees(ROOT / "perfbench"), strings=True
    )
    assert defined - used == set()


def test_no_module_imports_a_private_name_of_another():
    """A private name of ``src/bft`` is read only in the module that defines
    it: a relative ``from .x import _name`` gives its encoding two owners."""
    borrowed = [
        f"{path.name}: from .{node.module} import {alias.name}"
        for path in sorted((ROOT / "src" / "bft").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert borrowed == []


def _imported(tree):
    """The names a module's imports bind, with their lines; a future
    import binds none."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def _exported(tree) -> set:
    """The names in a module's ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_no_module_imports_a_name_it_never_reads():
    unread = []
    for path in sorted((ROOT / "src" / "bft").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        read = _exported(tree) | {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unread += [
            f"{path.name}:{line}: {name}" for line, name in _imported(tree) if name not in read
        ]
    assert unread == []
