"""The chamber-map reader before the memoized read path: the slow oracle
for :func:`bft.jsonio.decode_map` and :func:`bft.jsonio.decode_chamber`.

Every subspace occurrence is shape-checked on its own and row-reduced
through :class:`~bft.gf.Subspace` (behind an LRU keyed by the space), every
chamber goes through ``check_chamber``, and the map through the checking
public :class:`ChamberMap` constructor.
"""

from __future__ import annotations

from functools import lru_cache

from bft.buildings import Chamber, check_chamber
from bft.chamber_maps import ChamberMap
from bft.counts import chamber_count
from bft.gf import Subspace
from bft.jsonio import _MAX_FILE_DIMENSION, SCHEMA, FormatError, _decode_space
from bft.projective import Geometry, ProjSpace


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
    return Geometry.of(space).mask_of(sub)


def decode_chamber(space: ProjSpace, data) -> Chamber:
    if not isinstance(data, list) or len(data) != space.n:
        raise FormatError(
            f"a chamber must be a list of {space.n} subspaces, got {data!r}"
        )
    masks = []
    for part in data:
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
        masks.append(_decode_part(space, tuple(map(tuple, part))))
    chamber = Chamber(Geometry.of(space), masks)
    try:
        check_chamber(space, chamber)
    except ValueError as exc:
        raise FormatError(f"not a chamber: {exc}") from exc
    return chamber


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
    table = {}
    for entry in pairs:
        if not isinstance(entry, list) or len(entry) != 2:
            raise FormatError(f"each pair must be [chamber, chamber], got {entry!r}")
        key = decode_chamber(source, entry[0])
        if key in table:
            raise FormatError(f"duplicate source chamber {key!r}")
        table[key] = decode_chamber(target, entry[1])
    return ChamberMap(source, target, table)
