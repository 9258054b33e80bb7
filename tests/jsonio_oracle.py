"""The slow oracle for :func:`bft.jsonio.decode_map` and its
``chamber-map/1`` chamber reader, and the ``chamber-map/1`` and
``chamber-map/2`` encoders.

Every subspace, whether a ``chamber-map/2`` table entry or a subspace spelled
inline in a ``chamber-map/1`` chamber, is shape-checked on its own and
row-reduced through :class:`~bft.gf.Subspace` (behind an LRU keyed by the
space); every chamber goes through ``check_chamber``, and the map through the
checking public :class:`ChamberMap` constructor.
"""

from __future__ import annotations

from functools import lru_cache

from bft.buildings import Chamber, check_chamber
from bft.chamber_maps import ChamberMap
from bft.counts import MAX_DIMENSION, chamber_count
from bft.gf import Subspace
from bft.jsonio import (
    SCHEMA,
    FormatError,
    _decode_space,
    encode_chamber,
)
from bft.projective import ProjSpace

SCHEMA_1 = "chamber-map/1"


def encode_map_v1(f: ChamberMap, dual: bool = False) -> dict:
    """The ``chamber-map/1`` document of ``f``: every subspace of every
    chamber spelled inline as its RREF rows, pairs sorted by source chamber."""
    pairs = sorted(f.table.items(), key=lambda kv: kv[0].sort_key())
    return {
        "schema": SCHEMA_1,
        "source": {"n": f.source.n, "q": f.source.q},
        "target": {"n": f.target.n, "q": f.target.q, "dual": bool(dual)},
        "pairs": [[encode_chamber(a), encode_chamber(b)] for a, b in pairs],
    }


def encode_map_v2(f: ChamberMap, dual: bool = False) -> dict:
    """The ``chamber-map/2`` document of ``f``, from its definition: pairs
    sorted by source chamber, and each side's table the RREF rows of its
    subspaces in order of first use along them."""
    tables, pairs = ({}, {}), []
    for chambers in sorted(f.table.items(), key=lambda kv: kv[0].sort_key()):
        pairs.append([[table.setdefault(rows, len(table)) for rows in chamber.sort_key()]
                      for table, chamber in zip(tables, chambers)])
    return {
        **encode_map_v1(f, dual),
        "schema": SCHEMA,
        "pairs": pairs,
        "subspaces": {side: [list(map(list, rows)) for rows in table]
                      for side, table in zip(("source", "target"), tables)},
    }


@lru_cache(maxsize=4096)
def _decode_part(space: ProjSpace, rows: tuple) -> int:
    """The mask of one subspace given by rows of field codes; a file names
    each subspace many times, so each distinct encoding is checked once."""
    listed = [list(row) for row in rows]
    for row in rows:
        for x in row:
            if not 0 <= x < space.q:
                raise FormatError(f"code {x} out of range for GF({space.q}) in {listed!r}")
    sub = Subspace.span(space.gf, space.ambient, rows)
    if sub.rank != len(rows):
        raise FormatError(f"dependent rows in subspace encoding {listed!r}")
    return space.mask_of(sub)


def _part(space: ProjSpace, part) -> int:
    # type(x) is int: JSON true/false decode to bools, which are ints
    if (
        not isinstance(part, list)
        or not part
        or not all(
            isinstance(row, list)
            and len(row) == space.ambient
            and all(type(x) is int for x in row)
            for row in part
        )
    ):
        raise FormatError(f"invalid subspace encoding: {part!r}")
    return _decode_part(space, tuple(map(tuple, part)))


def _checked(space: ProjSpace, masks: list) -> Chamber:
    chamber = Chamber(space, masks)
    try:
        check_chamber(space, chamber)
    except ValueError as exc:
        raise FormatError(f"not a chamber: {exc}") from exc
    return chamber


def decode_chamber(space: ProjSpace, data) -> Chamber:
    if not isinstance(data, list) or len(data) != space.n:
        raise FormatError(
            f"a chamber must be a list of {space.n} subspaces, got {data!r}"
        )
    return _checked(space, [_part(space, part) for part in data])


def _table(space: ProjSpace, entries, side: str) -> list:
    if not isinstance(entries, list):
        raise FormatError(f"'subspaces' must hold a list of {side} subspaces")
    masks = []
    for part in entries:
        mask = _part(space, part)
        if mask in masks:
            raise FormatError(f"duplicate {side} subspace {part!r}")
        masks.append(mask)
    return masks


def _indexed_chamber(space: ProjSpace, table: list, side: str, data) -> Chamber:
    if (
        not isinstance(data, list)
        or len(data) != space.n
        or not all(
            isinstance(i, int) and not isinstance(i, bool) and 0 <= i < len(table)
            for i in data
        )
    ):
        raise FormatError(
            f"a {side} chamber must be {space.n} indices below {len(table)}, got {data!r}"
        )
    return _checked(space, [table[i] for i in data])


def decode_map(data) -> ChamberMap:
    if not isinstance(data, dict):
        raise FormatError("top level must be an object")
    schema = data.get("schema")
    if schema not in (SCHEMA, SCHEMA_1):
        raise FormatError(f"unknown schema {schema!r}; expected {SCHEMA!r} or {SCHEMA_1!r}")
    n, q = _decode_space(data.get("source"), "source")
    target_n, target_q = _decode_space(data.get("target"), "target")
    if "dual" in data["target"] and not isinstance(data["target"]["dual"], bool):
        raise FormatError(f"target 'dual' must be true or false, got {data['target']['dual']!r}")
    if n != target_n:
        raise FormatError("source and target dimensions differ")
    pairs = data.get("pairs")
    if not isinstance(pairs, list):
        raise FormatError("'pairs' must be a list")
    if n > MAX_DIMENSION:
        raise FormatError(
            f"PG({n},{q}) has over 2**{MAX_DIMENSION} chambers; "
            f"{len(pairs)} pairs cannot cover them"
        )
    # Pairs with distinct, valid source chambers number at most the chamber
    # count, so at least that many of them make the file complete.
    short = chamber_count(n, q) - len(pairs)
    if short > 0:
        raise FormatError(f"{short} source chambers are missing a pair")
    source, target = ProjSpace.of(n, q), ProjSpace.of(target_n, target_q)
    if schema == SCHEMA:
        subspaces = data.get("subspaces")
        if not isinstance(subspaces, dict):
            raise FormatError("'subspaces' must be an object")
        tables = {
            side: (space, _table(space, subspaces.get(side), side))
            for side, space in (("source", source), ("target", target))
        }

        def chamber(side, data):
            space, table = tables[side]
            return _indexed_chamber(space, table, side, data)
    else:
        spaces = {"source": source, "target": target}

        def chamber(side, data):
            return decode_chamber(spaces[side], data)

    table = {}
    for entry in pairs:
        if not isinstance(entry, list) or len(entry) != 2:
            raise FormatError(f"each pair must be [chamber, chamber], got {entry!r}")
        key = chamber("source", entry[0])
        if key in table:
            raise FormatError(f"duplicate source chamber {key!r}")
        table[key] = chamber("target", entry[1])
    return ChamberMap(source, target, table)
