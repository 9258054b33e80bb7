"""Chamber-map files: encoding, validation, byte-stable round trips."""

import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bft.buildings import chambers_of
from bft.chamber_maps import ChamberMap, induce
from bft.cli import main
from bft.jsonio import (
    SCHEMA,
    FormatError,
    decode_chamber,
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
    data = encode_map(identity_map())
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


@pytest.mark.parametrize(
    "n, q, target_q, dual",
    [(2, 2, 2, False), (3, 2, 2, True), (2, 3, 9, False), (2, 4, 4, True),
     (3, 3, 3, True)],
    ids=["PG22", "PG32-dual", "PG23-to-PG29", "PG24-dual", "PG33-dual"],
)
def test_dump_map_matches_json_oracle(tmp_path, n, q, target_q, dual):
    f = induce(_semilinear(n, q, target_q, seed=n * q), dual=dual)
    path = tmp_path / "map.json"
    dump_map(f, path, dual=dual)
    expected = json.dumps(encode_map(f, dual=dual), indent=2) + "\n"
    assert path.read_bytes() == expected.encode("utf-8")


# ----------------------------------------------------------------- fuzzing


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats(allow_nan=False)
    | st.integers(-(2**70), 2**70) | st.sampled_from([2, 3, 4, 9, 30, 10**9])
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "q", "dual", "x"]), inner, max_size=3),
    max_leaves=12,
)
VALID = encode_map(identity_map())


@st.composite
def mutated_files(draw):
    """A valid PG(2,2) map file with one subtree replaced by random JSON,
    with pairs dropped or duplicated, or with two images swapped."""
    data = json.loads(json.dumps(VALID))
    kind = draw(st.sampled_from(["replace", "drop", "duplicate", "swap"]))
    pairs = data["pairs"]
    index = st.integers(0, len(pairs) - 1)
    if kind == "drop":
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


@settings(max_examples=100, deadline=2000,
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
