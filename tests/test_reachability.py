"""Every function in ``src/bft`` is run by a request, or kept for a reason.

A fixed set of requests (every command, both report formats, ``/1`` and
``/2`` files, induced maps and their perturbations, and each kind of
malformed input) runs in a fresh interpreter with ``sys.setprofile`` on
before ``bft`` is imported, so no cache filled by another test hides a
function.  Every named function of ``src/bft`` (methods, properties and
nested functions included; lambdas and comprehensions are not named) must
be entered by one of those requests or be in ``KEPT``, and no ``KEPT``
function may be entered.

A ``KEPT`` reason is one of three, and each is checked:

* ``PINNED``: the benchmark needs it.  ``perfbench/traced.py`` names it in
  ``TRACED`` or ``CACHES``, ``perfbench/gen.py`` imports it from ``bft``, or
  ``gen.py`` enters it while it writes the inputs of the analyze workloads
  (the same interpreter runs that after the requests).
* ``callee(name)``: ``name`` is kept, and its body names this function.
* ``DUNDER``: a special method that Python calls for the caller, kept so
  that instances behave as values (``__repr__``, ``__delattr__``, ...).

The names are read from ``perfbench/``, not listed here, so once the
benchmark stops naming a function its entry fails, and the function moves
out of ``src/bft``.
"""

from __future__ import annotations

import ast
import inspect
import json
import os
import subprocess
import sys
import time
from collections import namedtuple
from pathlib import Path

import pytest
from conftest import sweep_only_map
from test_perfbench_names import PERFBENCH, _assigned

import bft
from bft.buildings import flags
from bft.jsonio import dump_map
from bft.projective import ProjSpace, Semilinear, bits

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "bft"

PINNED = "pinned by perfbench"
DUNDER = "special method"
CALLEE = "callee of "


def callee(name: str) -> str:
    return CALLEE + name


# module.qualname -> why it stays in src/bft though no request enters it
KEPT = {
    "buildings.Apartment.__eq__": DUNDER,
    "buildings.Apartment.__repr__": DUNDER,
    "buildings.check_chamber": PINNED,
    "chamber_maps.ChamberMap.__init__": PINNED,
    "chamber_maps.ChamberMap.__repr__": DUNDER,
    "chamber_maps.ChamberMap.table": PINNED,
    "chamber_maps.classify": PINNED,
    "chamber_maps.dual_point": PINNED,
    "chamber_maps.induce": PINNED,
    "chamber_maps.main_lemma_decompose": PINNED,
    "chamber_maps.verify_strong_embedding": PINNED,
    "combinatorics.complement_chamber": PINNED,
    "combinatorics.intersection_count": PINNED,
    "combinatorics.star_intersections": PINNED,
    "gf.GF.__eq__": DUNDER,
    "gf.GF.__hash__": DUNDER,
    "gf.GF.__repr__": DUNDER,
    "gf.Subspace._pivots": callee("gf.Subspace.contains_vector"),
    "gf.Subspace.annihilator": PINNED,
    "gf.Subspace.contains_vector": PINNED,
    "gf.Value.__delattr__": DUNDER,
    "gf.Value.__repr__": DUNDER,
    "gf.Value.__setattr__": DUNDER,
    "jsonio._targets.<locals>.image_lines": PINNED,
    "jsonio.encode_map": PINNED,
    "projective.ProjSpace.__delattr__": DUNDER,
    "projective.ProjSpace.__repr__": DUNDER,
    "projective.ProjSpace.__setattr__": DUNDER,
    "projective.ProjSpace.mask_of": callee("projective.points_of_subspace"),
    "projective.ProjSpace.subspace": callee("projective.span_points"),
    "projective.Semilinear.apply_subspace": PINNED,
    "projective.dual_subspace": PINNED,
    "projective.is_independent": PINNED,
    "projective.points_of": PINNED,
    "projective.points_of_subspace": PINNED,
    "projective.span_points": PINNED,
}

IDENTITY = "1,0,0;0,1,0;0,0,1"
SWAP = "0,1,0;1,0,0;0,0,1"
EYE5 = "1,0,0,0,0;0,1,0,0,0;0,0,1,0,0;0,0,0,1,0;0,0,0,0,1"
# the workloads whose inputs perfbench/gen.py writes, and a seed
SETUP = [("analyze-exhaustive", 1), ("analyze-sample", 1)]


def _definitions(paths=None) -> set:
    """``module.qualname`` of every named function, read off the compiled
    code objects of ``paths`` (by default ``src/bft``).  Two code objects of
    one name, such as closures of one name in two branches, would count as
    one, so that fails, naming them."""
    found, shared = set(), set()
    for path in sorted(SRC.glob("*.py")) if paths is None else paths:
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if inspect.iscode(c))
            if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<"):
                name = f"{path.stem}.{code.co_qualname}"
                (shared if name in found else found).add(name)
    assert not shared, f"functions that share a module.qualname: {sorted(shared)}"
    return found


def _v1(doc: dict) -> dict:
    """The ``chamber-map/1`` spelling of a ``/2`` document: every subspace
    inline."""
    tables = doc["subspaces"]
    pairs = [
        [[tables[side][i] for i in ids] for side, ids in zip(("source", "target"), pair)]
        for pair in doc["pairs"]
    ]
    head = {k: doc[k] for k in ("source", "target")}
    return {"schema": "chamber-map/1", **head, "pairs": pairs}


def _malformed(doc: dict) -> dict:
    """One document per kind of malformed input ``decode_map`` names."""
    pairs, tables = doc["pairs"], doc["subspaces"]
    src = tables["source"]
    space = ProjSpace.of(doc["source"]["n"], doc["source"]["q"])
    masks = [space.span(map(space.id_of, part)) for part in src]
    line = pairs[0][0][1]
    off_line = next(i for i, m in enumerate(masks) if space.rank(m) == 1 and not m & masks[line])

    def edited(**fields):
        return {**doc, **fields}

    def pair_edited(k, pair):
        return edited(pairs=pairs[:k] + [pair] + pairs[k + 1:])

    def table_edited(entries):
        return edited(subspaces={**tables, "source": entries})

    return {
        "top-level-list": [],
        "unknown-schema": edited(schema="chamber-map/9"),
        "unsupported-order": edited(source={"n": 2, "q": 6}),
        "dimensions-differ": edited(target={"n": 3, "q": 2, "dual": False}),
        "dual-not-a-bool": edited(target={**doc["target"], "dual": "yes"}),
        "pairs-not-a-list": edited(pairs={}),
        "too-many-chambers": edited(source={"n": 65, "q": 2}, target={"n": 65, "q": 2}),
        "short": edited(pairs=pairs[:-1]),
        "subspaces-not-an-object": edited(subspaces=[]),
        "table-not-a-list": edited(subspaces={**tables, "target": {}}),
        "bad-entry": table_edited(src + [[[0, 1]]]),
        "code-out-of-range": table_edited(src + [[[0, 0, 2]]]),
        "dependent-rows": table_edited(src + [[[0, 0, 1], [0, 0, 1]]]),
        "duplicate-entry": table_edited(src + [src[line][::-1]]),
        "index-out-of-range": pair_edited(1, [[0, len(src)], pairs[1][1]]),
        "wrong-pdim": pair_edited(1, [[line, line], pairs[1][1]]),
        "unnested": pair_edited(1, [[off_line, line], pairs[1][1]]),
        "not-a-pair": pair_edited(1, [pairs[1][0]]),
        "duplicate-source-chamber": pair_edited(1, pairs[0]),
        "v1-chamber-too-short": {**_v1(doc), "pairs": [[[], []]] + _v1(doc)["pairs"]},
    }


def _uninduced(doc: dict) -> dict:
    """One ``/1`` document per failure of the certificate: the identity of
    ``doc``'s PG(2,2) with the images of some chains moved."""
    space = ProjSpace.of(2, 2)
    chains = list(flags(space))
    star = [c for c in chains if c[0] == chains[0][0]]
    last = [c for c in chains if c[0] == chains[-1][0]]
    off = next(c[1] for c in chains if not c[1] & chains[0][0])
    g = (0, 0, 1, 0, 1, 3, 0)  # not injective; lines span lines, no star collapses

    def induced(chain):
        return 1 << g[chain[0].bit_length() - 1], space.span(g[p] for p in bits(chain[1]))

    moved = {
        "collapse": dict.fromkeys(star, star[0]),
        "neither": dict(zip(star, [star[0], chains[-1], chains[-1]])),
        "mixed-kinds": dict(zip(star, [c for c in chains if c[1] == off])),
        "not-induced": {last[0]: last[-1], last[-1]: last[0]},
        "not-injective": {c: induced(c) for c in chains},
    }

    def spelled(chain):
        return [[list(row) for row in space.rows(mask)] for mask in chain]

    head = {k: doc[k] for k in ("source", "target")}
    return {
        kind: {"schema": "chamber-map/1", **head,
               "pairs": [[spelled(c), spelled(images.get(c, c))] for c in chains]}
        for kind, images in moved.items()
    }


def _requests(tmp: Path) -> list:
    """The request set, as ``(argv, exit code)``, with the files it reads
    written under ``tmp``."""

    def induced(name, n, q, target_q, matrix, dual):
        source, target = ProjSpace.of(n, q), ProjSpace.of(n, target_q)
        path = tmp / name
        dump_map(Semilinear.of(source, target, matrix), path, dual=dual)
        return str(path)

    def written(name, doc):
        path = tmp / name
        path.write_text(json.dumps(doc))
        return str(path)

    def sweep_only(name, q):
        path = tmp / name
        dump_map(sweep_only_map(ProjSpace.of(2, q)), path)
        return str(path)

    eye = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    direct = induced("direct.json", 2, 2, 2, eye, False)
    doc = json.loads(Path(direct).read_text())
    pairs = doc["pairs"]
    swapped = [[a, b] for (a, _), (_, b) in zip(pairs, [pairs[-1]] + pairs[1:-1] + [pairs[0]])]
    shuffled = [[a, b] for (a, _), (_, b) in zip(pairs, pairs[::-1])]
    analyze = ["map", "analyze"]
    positives = [
        [direct],
        [induced("dual.json", 2, 2, 2, eye, True), "--format", "csv"],
        [induced("into-pg24.json", 2, 2, 4, eye, False)],
        [induced("into-pg24-dual.json", 2, 2, 4, eye, True)],
        [induced("pg24.json", 2, 4, 4, eye, False)],
        [written("v1.json", _v1(doc)), "--mode", "sample", "--k", "5", "--seed", "1"],
    ]
    negatives = [
        [written("swap.json", {**doc, "pairs": swapped})],
        [written("shuffle.json", {**doc, "pairs": shuffled}), "--format", "csv"],
        *([written(f"{kind}.json", bad)] for kind, bad in _uninduced(doc).items()),
        [sweep_only("sweep-only.json", 2)],  # g not injective: a local witness
        [sweep_only("sweep-only-pg24.json", 4)],  # the same, where the sweep needs 65
    ]
    broken = [[written(f"{kind}.json", bad)] for kind, bad in _malformed(doc).items()]
    not_json = tmp / "not.json"
    not_json.write_text("{not json")
    latin1 = tmp / "latin1.json"
    latin1.write_bytes(b'{"schema": "caf\xe9"}')
    deep = tmp / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    long_int = tmp / "long-int.json"
    long_int.write_text('{"pairs":[' + "1" * 5000 + "]}")
    broken += [[str(not_json)], [str(latin1)], [str(deep)], [str(long_int)],
               [str(tmp / "none.json")], [direct, "--k", "0"]]

    induce = ["map", "induce", "--n", "2", "--q", "2", "--out", str(tmp / "out.json")]
    return [
        (["space", "--n", "2", "--q", "2"], 0),
        (["space", "--n", "3", "--q", "4", "--format", "csv"], 0),
        (["space", "--n", "1", "--q", "2"], 2),
        (["space", "--n", "65", "--q", "2"], 2),
        (["space", "--n", "2", "--q", "6"], 2),
        (["apartment", "--n", "2", "--q", "2"], 0),
        (["apartment", "--n", "2", "--q", "3", "--base", "1,0,0;1,1,0;1,1,1",
          "--format", "csv"], 0),
        (["apartment", "--n", "2", "--q", "2", "--base", "1,0,0;0,1,0;1,1,0"], 2),
        (["apartment", "--n", "2", "--q", "2", "--base", "1,x"], 2),
        (["apartment", "--n", "6", "--q", "2"], 2),
        (["lemmas", "--n", "2", "--q", "2", "--all"], 0),
        (["lemmas", "--n", "3", "--q", "2", "--all", "--format", "csv"], 1),
        (["lemmas", "--n", "5", "--q", "2", "--case", "2"], 0),
        (["lemmas", "--n", "2", "--q", "2", "--case", "6"], 0),
        (["lemmas", "--n", "6", "--q", "2", "--all"], 2),
        (induce + ["--matrix", IDENTITY], 0),
        (induce + ["--matrix", SWAP, "--dual"], 0),
        (induce + ["--matrix", IDENTITY, "--target-q", "4"], 0),
        (induce + ["--matrix", IDENTITY, "--target-q", "4", "--dual"], 0),
        (induce + ["--matrix", "1,x"], 2),
        (induce + ["--matrix", "1,0;0,1"], 2),
        (induce + ["--matrix", "2,0,0;0,1,0;0,0,1"], 2),
        (induce + ["--matrix", IDENTITY, "--target-q", "6"], 2),
        (induce + ["--matrix", IDENTITY, "--target-q", "3"], 2),
        (induce + ["--matrix", "1,0,0;1,0,0;0,0,1"], 1),
        (induce[:-1] + [str(tmp), "--matrix", IDENTITY], 2),
        (["map", "induce", "--n", "6", "--q", "2", "--matrix", IDENTITY,
          "--out", str(tmp / "big.json")], 2),
        (["map", "induce", "--n", "4", "--q", "9", "--matrix", EYE5,
          "--out", str(tmp / "big.json")], 2),
        *((analyze + argv, 0) for argv in positives),
        *((analyze + argv, 1) for argv in negatives),
        *((analyze + argv, 2) for argv in broken),
    ]


# Runs in a fresh interpreter: the requests, then gen.py's set-up of the
# benchmark, each under its own record of the functions it enters.  The argv
# lists and set-up arguments come on stdin; the exit codes and the entered
# functions go to stdout.
CHILD = """
import contextlib, io, json, sys
from pathlib import Path
entered = set()

def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)

def names(codes):
    return sorted({(c.co_filename, c.co_qualname) for c in codes})

job = json.load(sys.stdin)
sys.setprofile(profile)
import bft.cli

codes = []
for argv in job["requests"]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            codes.append(bft.cli.main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
by_requests, entered = entered, set()
sys.path.insert(0, job["perfbench"])
import gen

for workload, seed, out in job["setup"]:
    gen.write_maps(workload, seed, Path(out))
sys.setprofile(None)
json.dump({"codes": codes, "requests": names(by_requests), "setup": names(entered)}, sys.stdout)
"""


Run = namedtuple("Run", "requests codes entered setup_entered seconds")


@pytest.fixture(scope="module")
def run(tmp_path_factory) -> Run:
    """The request set, its exit codes, the functions the requests enter,
    those gen.py enters, and the seconds it all took."""
    start = time.perf_counter()
    tmp = tmp_path_factory.mktemp("requests")
    requests = _requests(tmp)
    job = {
        "requests": [argv for argv, _ in requests],
        "perfbench": str(PERFBENCH),
        "setup": [(workload, seed, str(tmp / workload)) for workload, seed in SETUP],
    }
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", CHILD],
        input=json.dumps(job),
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    files = {str(p): p.stem for p in SRC.glob("*.py")}

    def qualified(entered):
        return {f"{files[f]}.{name}" for f, name in entered if f in files}

    return Run(requests, out["codes"], qualified(out["requests"]), qualified(out["setup"]),
               time.perf_counter() - start)


def _pins(setup_entered) -> set:
    """What the benchmark needs: the ``TRACED`` paths and ``CACHES`` names of
    ``perfbench/traced.py``, the functions ``perfbench/gen.py`` imports from
    ``bft``, and the functions gen.py enters as it writes its inputs."""
    traced = ast.parse((PERFBENCH / "traced.py").read_text())
    pins = {f"{layer}.{path}" for layer, entries in _assigned(traced, "TRACED").items()
            for path, _keep in entries}
    pins |= {f"{layer}.{name}" for layer, names in _assigned(traced, "CACHES").values()
             for name in names}
    gen = ast.parse((PERFBENCH / "gen.py").read_text())
    for node in gen.body:
        if isinstance(node, ast.ImportFrom) and node.module == "bft":
            for alias in node.names:
                value = getattr(bft, alias.name)
                pins.add(f"{value.__module__.removeprefix('bft.')}.{value.__qualname__}")
    return pins | setup_entered


def _bodies() -> dict:
    """``module.qualname`` -> the AST of every named function."""
    found = {}

    def visit(node, prefix, module):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found[f"{module}.{prefix}{child.name}"] = child
                visit(child, f"{prefix}{child.name}.<locals>.", module)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", module)
            else:
                visit(child, prefix, module)

    for path in SRC.glob("*.py"):
        visit(ast.parse(path.read_text()), "", path.stem)
    return found


def _names(node) -> set:
    """The names and attributes a function body reads."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _faults(kept: dict, entered: set, pins: set) -> dict:
    """The ``kept`` entries whose reason does not hold, with what is wrong."""
    bodies, faults = _bodies(), {}
    for name, reason in kept.items():
        short = name.rsplit(".", 1)[1]
        caller = reason.removeprefix(CALLEE)
        if name not in bodies:
            faults[name] = "no such function in src/bft"
        elif name in entered:
            faults[name] = "a request enters it"
        elif reason == PINNED:
            if name not in pins:
                faults[name] = "perfbench does not need it"
        elif reason == DUNDER:
            if not (short.startswith("__") and short.endswith("__")) or short == "__init__":
                faults[name] = "not a special method"
        elif caller == reason:
            faults[name] = f"no such reason: {reason!r}"
        elif caller not in kept:
            faults[name] = f"its caller {caller} is not kept"
        elif short not in _names(bodies[caller]):
            faults[name] = f"{caller} does not name it"
    for name, reason in kept.items():  # each chain of callers ends in a reason
        seen = {name}
        while reason.startswith(CALLEE) and reason.removeprefix(CALLEE) in kept:
            name = reason.removeprefix(CALLEE)
            if name in seen:
                faults[name] = "its callers run in a circle"
                break
            seen.add(name)
            reason = kept[name]
    return faults


def test_each_request_takes_its_path(run):
    assert [(argv, code) for (argv, _), code in zip(run.requests, run.codes)] == run.requests


def test_the_guard_runs_in_under_three_seconds(run):
    assert run.seconds < 3


def test_every_function_is_entered_or_kept(run):
    assert sorted(_definitions() - run.entered - KEPT.keys()) == []


def test_two_functions_of_one_qualified_name_are_named(tmp_path):
    path = tmp_path / "twice.py"
    path.write_text("def f(x):\n"
                    "    if x:\n        def lines(): pass\n"
                    "    else:\n        def lines(): pass\n"
                    "    return lines\n")
    with pytest.raises(AssertionError, match=r"\['twice\.f\.<locals>\.lines'\]"):
        _definitions([path])


def test_every_kept_function_is_kept_for_a_reason_that_holds(run):
    assert _faults(KEPT, run.entered, _pins(run.setup_entered)) == {}


def test_a_reason_that_does_not_hold_is_found(run):
    kept = {
        "cli.main": DUNDER,  # a request enters it
        "gf.GF.of": PINNED,  # and this one
        "gf.nothing": PINNED,
        "combinatorics.disposition": PINNED,
        "gf.Value.__init__": DUNDER,
        "gf.Subspace._pivots": callee("gf.Subspace.annihilator"),  # holds
        "projective.ProjSpace.mask_of": callee("jsonio.encode_map"),
        "gf.rref": "used by the oracles",
        "gf.Subspace.contains_vector": callee("gf.Subspace.annihilator"),
        "gf.Subspace.annihilator": callee("gf.Subspace.contains_vector"),
    }
    faults = _faults(kept, run.entered, _pins(run.setup_entered))
    assert set(faults) == set(kept) - {"gf.Subspace._pivots"}
