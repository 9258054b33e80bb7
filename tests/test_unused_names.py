"""No public helper of ``bft`` that nothing uses.

A public top-level function or class of a ``src/bft`` module counts as
used if another line of ``src/bft`` names it (as a name or an attribute)
or if ``perfbench/`` names it (as a name, an import or a string constant,
so the names its tracer looks up by ``getattr`` count).  An attribute
that is also the name of a method of a ``src/bft`` class does not count,
so ``apartment.chamber_of_perm(...)`` cannot keep a dead module-level
``chamber_of_perm`` alive.  A public method of a public class counts as
used only if ``src/bft`` or ``perfbench/`` reads an attribute of that name,
or if ``perfbench/`` holds the exact string ``"Class.method"``: a local
variable that shares the method's name, or the other half of a dotted
string, does not count, and neither does an attribute of a ``str`` or
``bytes`` literal: ``", ".join(...)`` does not keep ``Subspace.join``
alive.  Otherwise an attribute counts for every class with a method of its
name.  Tests do not count: a helper only its own tests call is dead code.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# The public names nothing in src/bft or perfbench uses, each kept for a reason.
KEPT = {
    "adjacent",  # the building check that chambers share a panel
    "common_apartment",  # the building axiom; a witness without enumeration needs it
    "d_transform",  # a lemma of the paper
    "decode_chamber",  # the one-chamber read path, beside decode_map
    "panels_of",  # the building check that each panel has q + 1 chambers
}

# The public methods nothing in src/bft or perfbench names, each kept for a reason.
KEPT_METHODS = {
    "ChamberMap.is_surjective",  # the abstract's "collineation if f is onto"
    "GF.frobenius",  # the automorphism that twists a semilinear map
    "Chamber.hyperplane",  # the last part in coordinates, beside Chamber.point
    "Chamber.parts",  # a chamber as RREF subspaces, what the oracles compare
    "Semilinear.apply_point",  # the point map a semilinear map induces
    "Subspace.contains",  # RREF incidence, the oracle for mask containment
    "Subspace.extended_by",  # RREF prefix spans, the chamber oracles' step
    "Subspace.meet",  # RREF meet, the oracle for the mask meet &
    "Subspace.pdim",  # the paper's projective dimension, rank - 1
}


def _trees(directory: Path):
    return [
        ast.parse(p.read_text(), str(p))
        for p in sorted(directory.glob("*.py"))
        if p.name != "__init__.py"
    ]


def _public_definitions(tree):
    return {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }


def _public_methods(tree):
    return {
        f"{node.name}.{item.name}"
        for node in tree.body
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
        for item in node.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
    }


def _methods(tree):
    return {
        item.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef)
    }


def _referenced(trees, strings: bool, methods):
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and node.attr not in methods:
                names.add(node.attr)
            elif strings and isinstance(node, ast.alias):
                names.add(node.name)
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(node.value.split("."))
    return names


def test_every_public_helper_is_used_or_kept_for_a_stated_reason():
    src = _trees(ROOT / "src" / "bft")
    defined = set().union(*map(_public_definitions, src))
    methods = set().union(*map(_methods, src))
    used = _referenced(src, strings=False, methods=methods) | _referenced(
        _trees(ROOT / "perfbench"), strings=True, methods=methods
    )
    assert defined - used == KEPT


def _attributes(trees):
    """Attributes read in ``trees``, except those of ``str`` and ``bytes`` literals."""
    return {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and not (isinstance(node.value, ast.Constant) and isinstance(node.value.value, (str, bytes)))
    }


def _strings(trees):
    return {
        node.value
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def test_an_attribute_of_a_string_literal_is_no_use():
    tree = ast.parse('", ".split(text); b"".hex(); space.join(a, b)')
    assert _attributes([tree]) == {"join"}


def test_every_public_method_is_used_or_kept_for_a_stated_reason():
    src, bench = _trees(ROOT / "src" / "bft"), _trees(ROOT / "perfbench")
    attributes, strings = _attributes(src + bench), _strings(bench)
    defined = set().union(*map(_public_methods, src))
    unused = {m for m in defined if m.split(".")[1] not in attributes and m not in strings}
    assert unused == KEPT_METHODS
