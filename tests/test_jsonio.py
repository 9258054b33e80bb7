"""Chamber-map files: encoding, validation, byte-stable round trips."""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import jsonio_oracle as oracle
import pytest
from conftest import LADDER, LADDER_IDS, random_invertible
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bft.buildings import Chamber, chambers_of, flags
from bft.chamber_maps import ChamberMap, induce
from bft.cli import build_parser, main
from bft.counts import MAX_DIMENSION, chamber_count
from bft.jsonio import (
    SCHEMA,
    FormatError,
    _inline,
    decode_map,
    dump_map,
    encode_chamber,
    encode_map,
    load_map,
    parse_rows,
)
from bft.projective import ProjSpace, Semilinear

PG22 = ProjSpace.of(2, 2)


def identity_map():
    eye = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    return induce(Semilinear.of(PG22, PG22, eye))


# ------------------------------------------------------------------ parsing


def test_parse_rows():
    assert parse_rows("1,0,0;0,1,0") == ((1, 0, 0), (0, 1, 0))
    assert parse_rows(" 1,2 ; 0,1 ") == ((1, 2), (0, 1))
    for bad in ("", "1,a", "1,0;1", "1,0;;0,1"):
        with pytest.raises(FormatError):
            parse_rows(bad)


# ----------------------------------------------------------------- chambers


def decode_chamber(space, data):
    """A chamber spelled as in ``chamber-map/1``, read as ``decode_map``
    reads the chambers of a ``/1`` file."""
    return Chamber(space, _inline(space, [], "source")(data))


def test_chamber_round_trip():
    for c in chambers_of(PG22):
        assert decode_chamber(PG22, encode_chamber(c)) == c


def test_decode_chamber_rejects_bad_data():
    good = encode_chamber(chambers_of(PG22)[0])
    with pytest.raises(FormatError):
        decode_chamber(PG22, good[:1])  # wrong number of parts
    with pytest.raises(FormatError):
        decode_chamber(PG22, [[[2, 0, 0]], good[1]])  # code out of range
    with pytest.raises(FormatError):
        decode_chamber(PG22, [good[0], [[1, 0, 0], [1, 0, 0]]])  # dependent
    with pytest.raises(FormatError):
        decode_chamber(PG22, [[[0, 1, 0]], [[1, 0, 0], [0, 0, 1]]])  # no chain


def test_decode_chamber_rejects_bool_codes():
    good = encode_chamber(chambers_of(PG22)[0])
    as_bools = json.loads(json.dumps(good).replace("1", "true").replace("0", "false"))
    assert as_bools == good  # True == 1: only the JSON types differ
    with pytest.raises(FormatError, match="invalid subspace encoding"):
        decode_chamber(PG22, as_bools)
    with pytest.raises(FormatError):
        decode_chamber(PG22, [[[False, True, False]], good[1]])


# --------------------------------------------------------------------- maps


def test_decode_chamber_accepts_independent_rows_not_in_rref():
    c = decode_chamber(PG22, [[[1, 0, 0]], [[1, 1, 0], [0, 1, 0]]])
    assert c == decode_chamber(PG22, [[[1, 0, 0]], [[1, 0, 0], [0, 1, 0]]])
    assert c == oracle.decode_chamber(PG22, [[[1, 0, 0]], [[1, 1, 0], [0, 1, 0]]])
    with pytest.raises(FormatError, match="dependent rows"):
        decode_chamber(PG22, [[[1, 0, 0]], [[1, 1, 0], [0, 0, 0]]])  # zero row


def test_map_round_trip_and_schema():
    f = identity_map()
    data = encode_map(f)
    assert data["schema"] == SCHEMA
    assert data["target"]["dual"] is False
    g = decode_map(data)
    assert g.table == f.table

    data["schema"] = "chamber-map/999"
    with pytest.raises(FormatError):
        decode_map(data)


def test_decode_map_validation():
    for data in (oracle.encode_map_v1(identity_map()), encode_map(identity_map())):
        clipped = {**data, "pairs": data["pairs"][:-1]}
        with pytest.raises(FormatError, match="missing"):
            decode_map(clipped)
        doubled = {**data, "pairs": data["pairs"] + [data["pairs"][0]]}
        with pytest.raises(FormatError, match="duplicate"):
            decode_map(doubled)
        with pytest.raises(FormatError, match="unsupported"):
            decode_map({**data, "source": {"n": 2, "q": 6}})
        with pytest.raises(FormatError, match="dimensions differ"):
            decode_map({**data, "target": {"n": 3, "q": 2, "dual": False}})
        # only JSON true and false say whether a map is dual
        for bad in ("yes", 1, 0, None, [True]):
            target = {**data["target"], "dual": bad}
            for decode in (decode_map, oracle.decode_map):
                message = f"target 'dual' must be true or false, got {bad!r}"
                with pytest.raises(FormatError, match=re.escape(message)):
                    decode({**data, "target": target})
        # 2.0 == 2 and true == 1, but only a JSON integer names a dimension or order
        for bad in ({"n": 2, "q": 2.0}, {"n": 2.0, "q": 2}, {"n": 2, "q": True},
                    {"n": True, "q": 2}):
            with pytest.raises(FormatError, match="source"):
                decode_map({**data, "source": bad})
            with pytest.raises(FormatError, match="target"):
                decode_map({**data, "target": {**bad, "dual": False}})
        # a short file is refused by its pair count, before any chamber is read
        for n, q in ((30, 2), (6, 9), (10**9, 2)):
            space = {"n": n, "q": q}
            with pytest.raises(FormatError, match="source chambers|cannot cover"):
                decode_map({**data, "source": space, "target": space})


def test_a_refused_dimension_makes_no_space():
    """A dimension above MAX_DIMENSION is refused before the file's spaces
    are made, as every ``ProjSpace`` stays for the life of the process."""
    data = encode_map(identity_map())
    before = dict(ProjSpace._instances)
    for n in range(100, 400):
        space = {"n": n, "q": 2}
        message = f"PG({n},2) has over 2**{MAX_DIMENSION} chambers"
        for decode in (decode_map, oracle.decode_map):
            with pytest.raises(FormatError, match=re.escape(message)):
                decode({**data, "source": space, "target": {**space, "dual": False}})
    assert ProjSpace._instances == before

def test_dump_load_byte_stable(tmp_path):
    f = identity_map()
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    dump_map(f, p1)
    dump_map(f, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert load_map(p1).table == f.table
    payload = json.loads(p1.read_text())
    assert payload["source"] == {"n": 2, "q": 2}


def test_load_rejects_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(FormatError):
        load_map(p)


def test_load_rejects_deep_nesting(tmp_path):
    p = tmp_path / "deep.json"
    p.write_text("[" * 100000 + "]" * 100000)
    with pytest.raises(FormatError, match="nested too deeply"):
        load_map(p)


# ------------------------------------------------------------ writer oracle


def _semilinear(n, q, target_q, seed):
    """A seeded semilinear map PG(n, q) -> PG(n, target_q)."""
    source, target = ProjSpace.of(n, q), ProjSpace.of(n, target_q)
    rng = random.Random(seed)
    while True:
        matrix = [[rng.randrange(q) for _ in range(n + 1)] for _ in range(n + 1)]
        try:
            return Semilinear.of(source, target, matrix)
        except ValueError:
            continue


_WRITTEN = {
    "PG22": (2, 2, 2, False), "PG32-dual": (3, 2, 2, True), "PG23-to-PG29": (2, 3, 9, False),
    "PG24-dual": (2, 4, 4, True), "PG33-dual": (3, 3, 3, True),
}
WRITTEN = pytest.mark.parametrize(
    "n, q, target_q, dual", list(_WRITTEN.values()), ids=list(_WRITTEN)
)


@WRITTEN
def test_dump_map_matches_json_oracle(tmp_path, n, q, target_q, dual):
    """The streamed file parses to the document the oracle builds from the
    definition, and ``encode_map`` returns it."""
    f = induce(_semilinear(n, q, target_q, seed=n * q), dual=dual)
    path = tmp_path / "map.json"
    dump_map(f, path, dual=dual)
    assert json.loads(path.read_text()) == oracle.encode_map_v2(f, dual) == encode_map(f, dual)


@WRITTEN
def test_dump_load_dump_is_byte_identical(tmp_path, n, q, target_q, dual):
    f = induce(_semilinear(n, q, target_q, seed=n * q), dual=dual)
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    dump_map(f, first, dual=dual)
    dump_map(load_map(first), second, dual=dual)
    assert first.read_bytes() == second.read_bytes()


# The induced writer keys the target table by source subspace; dual maps
# into a larger field and PG(2,9) are where that breaks first.
_STREAMED = {
    **_WRITTEN, "PG42": (4, 2, 2, False), "PG42-dual": (4, 2, 2, True),
    "PG22-to-PG24-dual": (2, 2, 4, True), "PG23-to-PG29-dual": (2, 3, 9, True),
    "PG29": (2, 9, 9, False), "PG29-dual": (2, 9, 9, True),
}


@pytest.mark.parametrize("n, q, target_q, dual", list(_STREAMED.values()), ids=list(_STREAMED))
def test_dump_induced_writes_the_bytes_of_dump_map_of_induce(tmp_path, n, q, target_q, dual):
    """``dump_map`` of a semilinear map, streamed, against ``dump_map`` of
    the chamber map it induces, and against the oracle's document.  A dual
    target table is numbered along the reversed chains, as written."""
    semi = _semilinear(n, q, target_q, seed=n * q)
    assert semi.matrix != tuple(tuple(int(r == c) for c in range(n + 1)) for r in range(n + 1))
    streamed, built = tmp_path / "streamed.json", tmp_path / "built.json"
    written = dump_map(semi, streamed, dual=dual)
    f = induce(semi, dual=dual)
    dump_map(f, built, dual=dual)
    assert streamed.read_bytes() == built.read_bytes()
    data = json.loads(streamed.read_text())
    assert data == oracle.encode_map_v2(f, dual)
    assert written == len(data["pairs"]) == chamber_count(n, q)


def _induce_requests(seed):
    """The ``map induce`` requests of the bench plan, read from
    ``perfbench/plan.py``."""
    spec = importlib.util.spec_from_file_location(
        "plan", Path(__file__).resolve().parents[1] / "perfbench" / "plan.py")
    plan = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(plan)
    return [r["argv"] for r in plan.build("induce", seed)["requests"]]


@pytest.mark.parametrize("argv", _induce_requests(1), ids=lambda argv: argv[-1][:-5])
def test_dump_induced_writes_the_bytes_of_dump_map_on_each_bench_request(tmp_path, argv):
    args = build_parser().parse_args(argv)
    source = ProjSpace.of(args.n, args.q)
    target = ProjSpace.of(args.n, args.target_q or args.q)
    semi = Semilinear.of(source, target, parse_rows(args.matrix))
    streamed, built = tmp_path / "streamed.json", tmp_path / "built.json"
    dump_map(semi, streamed, dual=args.dual)
    dump_map(induce(semi, dual=args.dual), built, dual=args.dual)
    assert streamed.read_bytes() == built.read_bytes()


@pytest.mark.parametrize("n, q", LADDER, ids=LADDER_IDS)
def test_flags_are_the_chains_of_chambers_of(n, q):
    space = ProjSpace.of(n, q)
    assert list(flags(space)) == [c.masks for c in chambers_of(space)]


def test_dump_map_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    """Tables are numbered along the pairs in ``chambers_of`` order, not in
    set or dict order of hashed values."""
    script = (
        "import sys\n"
        "from bft import ProjSpace, Semilinear, dump_map, induce\n"
        "s = ProjSpace.of(3, 3)\n"
        "m = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 2], [0, 0, 0, 1]]\n"
        "dump_map(induce(Semilinear.of(s, s, m), dual=True), sys.argv[1], dual=True)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    written = []
    for seed in ("1", "2"):
        path = tmp_path / f"seed{seed}.json"
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
        subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                       check=True, timeout=120)
        written.append(path.read_bytes())
    assert written[0] == written[1]


_PG42 = "1,1,0,0,0;0,1,1,0,0;0,0,1,1,0;0,0,0,1,1;1,0,0,0,0"


@pytest.mark.parametrize(
    "argv, sha256",
    [
        (["--n", "2", "--q", "9", "--matrix", "1,2,0;0,1,3;4,0,1"],
         "00abc8b5a060c04c5eaa2fa81d8fac43d26fe6ef24b9637ad860de4d7b063cff"),
        (["--n", "2", "--q", "9", "--matrix", "1,2,0;0,1,3;4,0,1", "--dual"],
         "0420e7ecd4caadc9fa3902d58737fcffae8921e1c607acdf13c13d7602254ed6"),
        (["--n", "3", "--q", "3", "--matrix", "1,1,0,0;0,1,0,0;0,0,1,2;0,0,0,1", "--dual"],
         "657371802c4744691cd2f55add4243f261d5fe8c32f55bc7f85d7b612b969c6f"),
        (["--n", "4", "--q", "2", "--matrix", _PG42],
         "16c4c0afcc44e6e234a8c1c922245e879c7a9ec769383d636e3b0cb00ab0e1e9"),
        (["--n", "4", "--q", "2", "--matrix", _PG42, "--dual"],
         "a73dadfdd5a6422888d76c06217d62c417ba6105ec2dfd83874a8f958abc0c76"),
        (["--n", "2", "--q", "3", "--target-q", "9", "--matrix", "1,5,0;0,1,7;2,0,1"],
         "64697ac118478e2df0d17640667bf5ff8da949a87eafd9af29f06d1fd7ffd90c"),
    ],
    ids=["PG29", "PG29-dual", "PG33-dual", "PG42", "PG42-dual", "PG23-to-PG29"],
)
def test_map_induce_writes_the_pinned_bytes(tmp_path, argv, sha256):
    """Fixed bytes for fixed matrices, so a change to the chamber walk or
    to the writer cannot change the files unseen."""
    path = tmp_path / "map.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["map", "induce", *argv, "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


# ------------------------------------------------------------ reader oracle


def _outcome(decode, data):
    """The decoded chains as ordered items, in file order, or the
    FormatError message."""
    try:
        return list(decode(data).chains.items())
    except FormatError as exc:
        return f"FormatError: {exc}"


def _gf_sum(gf, codes):
    total = 0
    for x in codes:
        total = gf.add[total][x]
    return total


def _rebase(gf, part, rng):
    """The subspace spelled by a random basis of it: its rows recombined by
    an invertible matrix, so mostly not in RREF."""
    return [
        [_gf_sum(gf, (gf.mul[a][x] for a, x in zip(coeffs, column))) for column in zip(*part)]
        for coeffs in random_invertible(gf, len(part), rng)
    ]


def _rebased(data, seed):
    """The file with every subspace spelled by a random basis of it: each
    inline part of a chamber-map/1 file, each table entry of a /2 file."""
    rng = random.Random(seed)
    out = json.loads(json.dumps(data))
    gf = {side: ProjSpace.of(out[side]["n"], out[side]["q"]).gf
          for side in ("source", "target")}
    if out["schema"] == SCHEMA:
        for side, table in out["subspaces"].items():
            table[:] = [_rebase(gf[side], part, rng) for part in table]
        return out
    for pair in out["pairs"]:
        for side, chamber in zip(("source", "target"), pair):
            chamber[:] = [_rebase(gf[side], part, rng) for part in chamber]
    return out


def _perturbed_pairs(pairs, perturb, rng):
    """Move images in place, keeping the file valid: all of them
    ("shuffled", pairs reordered too) or two ("swapped")."""
    if perturb == "shuffled":
        images = [b for _, b in pairs]
        rng.shuffle(images)
        for pair, image in zip(pairs, images):
            pair[1] = image
        rng.shuffle(pairs)
    elif perturb == "swapped":
        a, b = rng.sample(pairs, 2)
        a[1], b[1] = b[1], a[1]


def _corrupt(chamber, how, q):
    """Break one chamber encoding in place, in one of the ways a reader
    must report: the message names the first fault."""
    point, line = chamber[0], chamber[1]
    if how == "point-off-line":
        pivots = {row.index(next(filter(None, row))) for row in line}
        free = min(set(range(len(point[0]))) - pivots)  # e_free is off the line
        chamber[0] = [[int(c == free) for c in range(len(point[0]))]]
    elif how == "pdims-out-of-order":
        chamber[0], chamber[1] = line, point
    elif how == "dependent-rows":
        line[1] = list(line[0])
    elif how == "zero-row":
        line[1] = [0] * len(line[1])
    elif how == "code-out-of-range":
        line[0][-1] = q


VALID_PERTURBATIONS = ["induced", "shuffled", "swapped", "rebased"]
CORRUPTIONS = ["point-off-line", "pdims-out-of-order", "dependent-rows", "zero-row",
               "code-out-of-range"]


@pytest.mark.parametrize("perturb", VALID_PERTURBATIONS + CORRUPTIONS)
@pytest.mark.parametrize(
    "n, q, target_q, dual",
    [(2, 2, 2, False), (3, 2, 2, True), (2, 3, 9, False), (3, 3, 3, False)],
    ids=["PG22", "PG32-dual", "PG23-to-PG29", "PG33"],
)
def test_decode_map_matches_the_oracle(n, q, target_q, dual, perturb):
    """chamber-map/1 files, whose chambers spell their subspaces inline."""
    f = induce(_semilinear(n, q, target_q, seed=n * q), dual=dual)
    data = oracle.encode_map_v1(f, dual=dual)
    rng = random.Random(n * q)
    pairs = data["pairs"]
    _perturbed_pairs(pairs, perturb, rng)
    if perturb == "rebased":
        data = _rebased(data, seed=n * q)
    elif perturb in CORRUPTIONS:
        # a chamber late in the file, whose parts were all read before
        _corrupt(pairs[-2][rng.randrange(2)], perturb, target_q)
    expected = _outcome(oracle.decode_map, data)
    assert isinstance(expected, str) == (perturb in CORRUPTIONS)
    assert _outcome(decode_map, data) == expected
    if perturb == "induced":
        assert dict(expected) == f.chains


def _corrupt_v2(data, how):
    """Break a chamber-map/2 file in one of the ways a reader must report,
    mostly in a chamber late in the file."""
    tables, pairs = data["subspaces"], data["pairs"]
    ids = pairs[-2][0]
    first = pairs[0][0]
    assert first == list(range(len(first)))  # tables are numbered by first use
    if how == "index-out-of-range":
        ids[1] = len(tables["source"])
    elif how == "negative-index":
        ids[-1] = -1  # would index the last entry
    elif how == "true-index":
        first[1] = True  # equal to 1, and would index like it
    elif how == "float-index":
        first[1] = 1.0
    elif how == "string-index":
        ids[0] = str(ids[0])
    elif how == "duplicate-entry":
        # a line listed again, spelled with its rows in the other order
        line = next(part for part in tables["source"] if len(part) == 2)
        tables["source"].append(line[::-1])
    elif how == "wrong-pdim":
        ids[0] = ids[1]
    elif how == "unnested":
        space = ProjSpace.of(data["source"]["n"], data["source"]["q"])
        line = space.span(map(space.id_of, tables["source"][ids[1]]))
        ids[0] = next(j for j, part in enumerate(tables["source"])
                      if len(part) == 1 and not line >> space.id_of(part[0]) & 1)
    elif how == "no-subspaces":
        del data["subspaces"]
    elif how == "missing-side":
        del tables["target"]
    elif how == "non-list-side":
        tables["source"] = {"0": tables["source"][0]}
    elif how == "duplicate-source-chamber":
        pairs[-1][0] = list(first)


CORRUPTIONS_V2 = ["index-out-of-range", "negative-index", "true-index", "float-index",
                  "string-index", "duplicate-entry", "wrong-pdim", "unnested",
                  "no-subspaces", "missing-side", "non-list-side",
                  "duplicate-source-chamber"]


@pytest.mark.parametrize("perturb", VALID_PERTURBATIONS + CORRUPTIONS_V2)
@pytest.mark.parametrize(
    "n, q, target_q, dual",
    [(2, 2, 2, False), (3, 2, 2, True), (2, 3, 9, False), (3, 3, 3, False)],
    ids=["PG22", "PG32-dual", "PG23-to-PG29", "PG33"],
)
def test_decode_map_matches_the_oracle_on_v2(n, q, target_q, dual, perturb):
    """chamber-map/2 files, whose chambers are indices into the tables."""
    f = induce(_semilinear(n, q, target_q, seed=n * q), dual=dual)
    data = encode_map(f, dual=dual)
    _perturbed_pairs(data["pairs"], perturb, random.Random(n * q))
    if perturb == "rebased":
        data = _rebased(data, seed=n * q)
    elif perturb in CORRUPTIONS_V2:
        _corrupt_v2(data, perturb)
    expected = _outcome(oracle.decode_map, data)
    assert isinstance(expected, str) == (perturb in CORRUPTIONS_V2)
    assert _outcome(decode_map, data) == expected
    if perturb == "induced":
        assert dict(expected) == f.chains


def test_v1_and_v2_files_decode_to_the_same_table():
    """The maps the benchmark writes, in both layouts: a PG(3,2) dual swap,
    a PG(2,9) induced map, a PG(3,3) shuffle, PG(2,3) -> PG(2,9) and a
    PG(4,2) dual map."""
    maps = [(3, 2, 2, True, "swap"), (2, 9, 9, False, None), (3, 3, 3, False, "shuffle"),
            (2, 3, 9, False, None), (4, 2, 2, True, None)]
    for n, q, target_q, dual, perturb in maps:
        f = induce(_semilinear(n, q, target_q, seed=n * q), dual=dual)
        if perturb:
            chambers, images = list(f.table), list(f.table.values())
            rng = random.Random(n * q)
            if perturb == "swap":
                i, j = rng.sample(range(len(images)), 2)
                images[i], images[j] = images[j], images[i]
            else:
                rng.shuffle(images)
            f = ChamberMap(f.source, f.target, dict(zip(chambers, images)))
        v1 = list(decode_map(oracle.encode_map_v1(f, dual=dual)).table.items())
        v2 = list(decode_map(encode_map(f, dual=dual)).table.items())
        assert v1 == v2 == sorted(f.table.items(), key=lambda kv: kv[0].sort_key())


def _spelled(text: str, spelling) -> str:
    """The PG(2,2) identity file with the point [1,0,0] spelled otherwise in
    the last source chamber that has it as its point."""
    data = json.loads(text)
    last = max(k for k, (a, _) in enumerate(data["pairs"]) if a[0] == [[1, 0, 0]])
    data["pairs"][last][0][0] = spelling
    return json.dumps(data)


@pytest.mark.parametrize(
    "spelling",
    [[[True, False, False]], [[1.0, 0, 0]], [[1, False, 0]], ["[1, 0, 0]"],
     [[[1], 0, 0]], [[[1, 0, 0]]]],
    ids=["bools", "float", "one-bool", "string-row", "nested-code", "nested-row"],
)
def test_memoized_subspace_spelled_otherwise_is_rejected(tmp_path, capsys, spelling):
    """The memo is keyed by value, and true == 1 == 1.0 with equal hashes:
    a subspace that was read once as ints must not let a later spelling
    with other JSON types through, nor an earlier one."""
    text = _spelled(json.dumps(VALID), spelling)
    for data in (json.loads(text),
                 {**json.loads(text), "pairs": json.loads(text)["pairs"][::-1]}):
        with pytest.raises(FormatError, match="invalid subspace encoding") as exc:
            decode_map(data)
        assert _outcome(oracle.decode_map, data) == f"FormatError: {exc.value}"
    path = tmp_path / "map.json"
    path.write_text(text)
    assert main(["map", "analyze", str(path)]) == 2
    assert "invalid subspace encoding" in capsys.readouterr().err


def test_load_map_runs_no_row_reduction_and_no_second_check(tmp_path, monkeypatch):
    """The read path spans row points in the space: no rref, no
    check_chamber, and no pass of the public ChamberMap constructor.  Each
    table entry of a chamber-map/2 file is checked once, and no pair checks
    a subspace again."""
    from bft import buildings, gf, jsonio

    f = induce(_semilinear(3, 2, 2, seed=6), dual=True)
    path = tmp_path / "pg32.json"
    dump_map(f, path, dual=True)
    data = json.loads(path.read_text())
    assert data["schema"] == SCHEMA == "chamber-map/2"
    entries = len(data["subspaces"]["source"]) + len(data["subspaces"]["target"])
    calls = dict(rref=0, check_chamber=0, init=0, _part_mask=0)
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "bft"]
    for owner, name in [(gf, "rref"), (buildings, "check_chamber"),
                        (jsonio, "_part_mask")]:
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    init = ChamberMap.__init__

    def counted_init(self, *args, **kwargs):
        calls["init"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(ChamberMap, "__init__", counted_init)
    g = load_map(path)
    assert calls == dict(rref=0, check_chamber=0, init=0, _part_mask=entries)
    assert entries < 4 * len(data["pairs"])  # fewer than the pairs' subspaces
    assert g.table == f.table
    assert list(g.table) == sorted(chambers_of(f.source), key=lambda c: c.sort_key())
    # the counters do count: the oracle reader takes the checking path
    assert oracle.decode_map(data).table == f.table
    assert calls["check_chamber"] > 0 and calls["init"] == 1


# ----------------------------------------------------------------- fuzzing


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats(allow_nan=False)
    | st.integers(-(2**70), 2**70) | st.integers(-1, 30)
    | st.sampled_from([2, 3, 4, 9, 30, 10**9])
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "q", "dual", "x"]), inner, max_size=3),
    max_leaves=12,
)
VALID = oracle.encode_map_v1(identity_map())
VALID_2 = encode_map(identity_map())


@st.composite
def mutated_files(draw):
    """A valid PG(2,2) map file, chamber-map/1 or /2, with one subtree
    replaced by random JSON (anywhere, or a table entry, a chamber or one of
    its parts or indices), with pairs dropped or duplicated, or with two
    images swapped."""
    data = json.loads(json.dumps(draw(st.sampled_from([VALID, VALID_2]))))
    kind = draw(st.sampled_from(["replace", "entry", "drop", "duplicate", "swap"]))
    pairs = data["pairs"]
    index = st.integers(0, len(pairs) - 1)
    if kind == "entry":
        side = draw(st.integers(0, 1))
        if "subspaces" in data and draw(st.booleans()):
            parent = data["subspaces"][("source", "target")[side]]
        else:
            parent = pairs[draw(index)] if draw(st.booleans()) else pairs[draw(index)][side]
        parent[draw(st.integers(0, len(parent) - 1))] = draw(JSON_VALUES)
    elif kind == "drop":
        del pairs[draw(index)]
    elif kind == "duplicate":
        pairs.append(pairs[draw(index)])
    elif kind == "swap":
        a, b = pairs[draw(index)], pairs[draw(index)]
        a[1], b[1] = b[1], a[1]
    else:
        parent, key = None, None
        node = data
        while isinstance(node, (dict, list)) and node and draw(st.integers(0, 5)):
            keys = sorted(node) if isinstance(node, dict) else range(len(node))
            parent, key = node, draw(st.sampled_from(list(keys)))
            node = parent[key]
        value = draw(JSON_VALUES)
        if parent is None:
            data = value
        else:
            parent[key] = value
    return json.dumps(data)


@settings(max_examples=200, deadline=2000,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated_files())
@example('{"schema": "chamber-map/1", "source": {"n": 30, "q": 2}, '
         '"target": {"n": 30, "q": 2}, "pairs": []}')
@example(json.dumps({**VALID, "source": {"n": 2, "q": 2.0}}))
@example("[" * 100000 + "]" * 100000)
def test_load_map_and_analyze_survive_mutated_files(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "map.json"
        path.write_text(text, encoding="utf-8")
        try:
            assert isinstance(load_map(path), ChamberMap)
        except FormatError:
            pass
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["map", "analyze", str(path)])
    assert code in (0, 1, 2)


@settings(max_examples=200, deadline=2000,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated_files())
@example(json.dumps({**VALID_2, "pairs": [[[0, 1], [0, True]]] + VALID_2["pairs"][1:]}))
@example(_spelled(json.dumps(VALID), [[True, False, False]]))
def test_decode_map_matches_the_oracle_on_mutated_files(text):
    try:
        data = json.loads(text)
    except RecursionError:
        return
    assert _outcome(decode_map, data) == _outcome(oracle.decode_map, data)
