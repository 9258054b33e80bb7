"""Every name the benchmark looks up in ``bft`` still resolves.

``perfbench/traced.py`` wraps each ``TRACED`` name and reads ``cache_info``
off each ``CACHES`` entry by ``getattr``, and ``perfbench/gen.py`` imports
its helpers from ``bft``.  Deleting or renaming one of them breaks the
benchmark with an ``AttributeError`` or ``ImportError``, and nothing else
would notice.  So the names are read from the source of those files and
resolved here, and one traced request is run end to end.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import bft

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _assigned(tree, name):
    """The literal value assigned to a module-level ``name``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/traced.py assigns no {name}")


def _resolves(owner, path: str) -> bool:
    """Whether a dotted path (a method when dotted) names an attribute."""
    for attr in path.split("."):
        if not hasattr(owner, attr):
            return False
        owner = getattr(owner, attr)
    return True


def test_every_name_the_benchmark_looks_up_resolves():
    traced = ast.parse((PERFBENCH / "traced.py").read_text())
    missing = [
        f"bft.{layer}.{path}"
        for layer, entries in _assigned(traced, "TRACED").items()
        for path, _keep in entries
        if not _resolves(importlib.import_module(f"bft.{layer}"), path)
    ]
    missing += [
        f"bft.{layer}.{name}.cache_info"
        for layer, names in _assigned(traced, "CACHES").values()
        for name in names
        if not _resolves(importlib.import_module(f"bft.{layer}"), f"{name}.cache_info")
    ]
    gen = ast.parse((PERFBENCH / "gen.py").read_text())
    imported = [
        alias.name
        for node in gen.body
        if isinstance(node, ast.ImportFrom) and node.module == "bft"
        for alias in node.names
    ]
    assert imported
    missing += [f"bft.{name}" for name in imported if not hasattr(bft, name)]
    assert missing == []


def test_import_cli_loads_every_module():
    """``perfbench/traced.py`` runs ``import bft.cli`` and then patches only
    the ``bft`` modules in ``sys.modules``: a module that loads later, on
    first use, would go untraced, and the ``TRACED`` names in it would fail
    with a ``KeyError`` inside ``traced.py``."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, bft.cli; print(*sys.modules)"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    modules = {f"bft.{p.stem}" for p in (ROOT / "src" / "bft").glob("*.py")} - {"bft.__init__"}
    missing = sorted(modules - set(done.stdout.split()))
    assert not missing, (
        f"import bft.cli does not load {missing}; perfbench/traced.py patches only "
        "the modules import bft.cli loads, so it cannot trace them"
    )


def test_a_traced_request_runs(tmp_path):
    out = tmp_path / "trace.json"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "traced.py"), str(out), "0", "--",
         "space", "--n", "2", "--q", "2"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["calls"]
