"""Chamber-map files: encoding, validation, byte-stable round trips."""

import json

import pytest

from bft.buildings import chambers_of
from bft.chamber_maps import induce
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
