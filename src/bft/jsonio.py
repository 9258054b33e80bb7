"""JSON interchange for chamber maps, plus small text parsers for the CLI.

A chamber-map file looks like::

    {
      "schema": "chamber-map/1",
      "source": {"n": 2, "q": 2},
      "target": {"n": 2, "q": 2, "dual": false},
      "pairs": [[chamber, chamber], ...]
    }

where a chamber is a list of subspaces (one per projective dimension,
ascending), a subspace is a list of linearly independent rows, and a row is
a list of field codes.  ``dump_map`` writes the reduced-row-echelon rows and
sorts ``pairs`` by source chamber; ``pairs`` covers every source chamber
exactly once, and a file round-trips byte-identically through
``dump_map``/``load_map``.

``dump_map`` writes exactly the bytes of
``json.dumps(encode_map(f), indent=2) + "\n"`` without building that
document: json renders the header and each distinct subspace once, and the
pairs are joined from those fragments and written one pair at a time.

``decode_map`` checks each distinct subspace encoding of a file once, into
a mask with no row reduction, through a memo local to the call; chains are
checked on the masks, and the map is built without the public
:class:`ChamberMap` constructor's second pass.

All validation problems raise :class:`FormatError` with a message naming
the offending entry.
"""

from __future__ import annotations

import json
from itertools import chain

from .buildings import Chamber
from .chamber_maps import ChamberMap
from .counts import chamber_count
from .gf import SUPPORTED_ORDERS
from .projective import Geometry, ProjSpace

__all__ = [
    "SCHEMA",
    "FormatError",
    "parse_rows",
    "encode_chamber",
    "decode_chamber",
    "encode_map",
    "decode_map",
    "dump_map",
    "load_map",
]

SCHEMA = "chamber-map/1"


class FormatError(ValueError):
    """A file or text value does not follow the expected format."""


def parse_rows(text: str) -> tuple[tuple[int, ...], ...]:
    """Parse ``"1,0,0;0,1,0"`` into a tuple of integer rows."""
    rows = []
    for chunk in text.strip().split(";"):
        chunk = chunk.strip()
        if not chunk:
            raise FormatError(f"empty row in {text!r}")
        try:
            rows.append(tuple(int(x) for x in chunk.split(",")))
        except ValueError as exc:
            raise FormatError(f"row {chunk!r} is not a comma-separated "
                              "list of integers") from exc
    if not rows:
        raise FormatError("no rows given")
    if len({len(r) for r in rows}) != 1:
        raise FormatError(f"rows of unequal length in {text!r}")
    return tuple(rows)


def encode_chamber(chamber: Chamber) -> list:
    return [[list(row) for row in rows] for rows in chamber.sort_key()]


def _part_mask(geo: Geometry, part) -> int:
    """The mask of a subspace encoding, checked in full: the span of its
    row points, which must be independent (they need not be in RREF)."""
    space = geo.space
    # type(x) is int: JSON true/false decode to bools, which are ints
    if not (isinstance(part, list) and part and all(
        isinstance(row, list) and len(row) == space.ambient
        and all(type(x) is int for x in row) for row in part
    )):
        raise FormatError(f"invalid subspace encoding: {part!r}")
    for x in chain.from_iterable(part):
        if not 0 <= x < space.q:
            raise FormatError(f"code {x} out of range for GF({space.q}) in {part!r}")
    # a zero row names no point; mask 0 then fails the rank test
    mask = geo.span(map(geo.id_of, part)) if all(map(any, part)) else 0
    if geo.rank(mask) != len(part):
        raise FormatError(f"dependent rows in subspace encoding {part!r}")
    return mask


def _decode_chamber(geo: Geometry, data, memo: dict) -> Chamber:
    """A chamber from its encoding; ``memo`` maps the subspace encodings
    already checked in this space to their masks."""
    n = geo.space.n
    if not isinstance(data, list) or len(data) != n:
        raise FormatError(f"a chamber must be a list of {n} subspaces, got {data!r}")
    # JSON true and 1.0 equal 1 and hash like it, so the memo serves only
    # chambers whose codes are all ints: a JSON part then hits it only if
    # spelled exactly like the checked one
    try:
        clean = {int}.issuperset(map(type, chain.from_iterable(chain.from_iterable(data))))
    except TypeError:
        clean = False
    masks = []
    for part in data:
        key = tuple(map(tuple, part)) if clean else None
        mask = memo.get(key)
        if mask is None:
            mask = _part_mask(geo, part)
            if clean:
                memo[key] = mask
        masks.append(mask)
    # a checked part has rank len(part)
    for k, part in enumerate(data):
        if len(part) != k + 1:
            raise FormatError(
                f"not a chamber: expected pdim {k} at position {k}, got {len(part) - 1}"
            )
        if k and masks[k - 1] & ~masks[k]:
            raise FormatError("not a chamber: chamber subspaces are not nested")
    return Chamber(geo, masks)


def decode_chamber(space: ProjSpace, data) -> Chamber:
    return _decode_chamber(Geometry.of(space), data, {})


def _space_entry(space: ProjSpace, dual=None) -> dict:
    entry = {"n": space.n, "q": space.q}
    if dual is not None:
        entry["dual"] = bool(dual)
    return entry


def _decode_space(entry, label: str) -> ProjSpace:
    if not isinstance(entry, dict) or "n" not in entry or "q" not in entry:
        raise FormatError(f"{label} must be an object with 'n' and 'q'")
    n, q = entry["n"], entry["q"]
    # type(x) is int: JSON 2.0 and true compare equal to ints but are not ints
    if type(n) is not int or n < 2:
        raise FormatError(f"{label} dimension must be an integer >= 2, got {n!r}")
    if type(q) is not int or q not in SUPPORTED_ORDERS:
        raise FormatError(
            f"{label} order {q!r} unsupported; supported: "
            + ", ".join(map(str, SUPPORTED_ORDERS))
        )
    return ProjSpace.of(n, q)


def _header(f: ChamberMap, dual: bool) -> dict:
    return {
        "schema": SCHEMA,
        "source": _space_entry(f.source),
        "target": _space_entry(f.target, dual=dual),
    }


def _sorted_pairs(f: ChamberMap) -> list:
    return sorted(f.table.items(), key=lambda kv: kv[0].sort_key())


def encode_map(f: ChamberMap, dual: bool = False) -> dict:
    return {
        **_header(f, dual),
        "pairs": [[encode_chamber(a), encode_chamber(b)] for a, b in _sorted_pairs(f)],
    }


# PG(n, q) has more than 2**n chambers, so no file lists them all beyond this
# dimension; it is refused before chamber_count multiplies n large factors.
_MAX_FILE_DIMENSION = 64


def decode_map(data) -> ChamberMap:
    if not isinstance(data, dict):
        raise FormatError("top level must be an object")
    if data.get("schema") != SCHEMA:
        raise FormatError(
            f"unknown schema {data.get('schema')!r}; expected {SCHEMA!r}"
        )
    source = _decode_space(data.get("source"), "source")
    target = _decode_space(data.get("target"), "target")
    if source.n != target.n:
        raise FormatError("source and target dimensions differ")
    pairs = data.get("pairs")
    if not isinstance(pairs, list):
        raise FormatError("'pairs' must be a list")
    if source.n > _MAX_FILE_DIMENSION:
        raise FormatError(
            f"{source!r} has over 2**{_MAX_FILE_DIMENSION} chambers; "
            f"{len(pairs)} pairs cannot cover them"
        )
    # Pairs with distinct, valid source chambers number at most the chamber
    # count, so at least that many of them make the file complete.
    short = chamber_count(source.n, source.q) - len(pairs)
    if short > 0:
        raise FormatError(f"{short} source chambers are missing a pair")
    source_geo, target_geo = Geometry.of(source), Geometry.of(target)
    source_memo = {}
    target_memo = source_memo if target_geo is source_geo else {}
    table = {}
    for entry in pairs:
        if not isinstance(entry, list) or len(entry) != 2:
            raise FormatError(f"each pair must be [chamber, chamber], got {entry!r}")
        key = _decode_chamber(source_geo, entry[0], source_memo)
        if key in table:
            raise FormatError(f"duplicate source chamber {key!r}")
        table[key] = _decode_chamber(target_geo, entry[1], target_memo)
    # The keys are distinct chambers of source, at least chamber_count of
    # them, so they are all of them once; every image is a target chamber.
    return ChamberMap._trusted(source, target, table)


# A subspace sits at depth 4 of the file: file > pairs > pair > chamber.
_PART_INDENT = "\n" + " " * 8


def dump_map(f: ChamberMap, path, dual: bool = False) -> None:
    head = json.dumps({**_header(f, dual), "pairs": []}, indent=2)
    fragments = {}

    def chamber(c: Chamber) -> str:
        parts = []
        for mask in c.masks:
            key = (c.geometry, mask)
            text = fragments.get(key)
            if text is None:
                rows = c.geometry.rows(mask)
                text = fragments[key] = json.dumps(rows, indent=2).replace(
                    "\n", _PART_INDENT
                )
            parts.append(text)
        return "[" + _PART_INDENT + ("," + _PART_INDENT).join(parts) + "\n      ]"

    with open(path, "w", encoding="utf-8") as out:
        out.write(head[: -len("]\n}")])  # ... "pairs": [
        sep = "\n    "
        for a, b in _sorted_pairs(f):
            out.write(f"{sep}[\n      {chamber(a)},\n      {chamber(b)}\n    ]")
            sep = ",\n    "
        out.write("\n  ]\n}\n")


def load_map(path) -> ChamberMap:
    try:
        with open(path, encoding="utf-8") as src:
            data = json.loads(src.read())
    except UnicodeDecodeError as exc:
        raise FormatError(f"not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise FormatError("JSON nested too deeply") from exc
    return decode_map(data)
