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
