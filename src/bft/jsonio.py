"""JSON interchange for chamber maps, plus small text parsers for the CLI.

A ``chamber-map/2`` file writes each distinct subspace once::

    {"schema":"chamber-map/2","source":{"n":2,"q":2},"target":{"n":2,"q":2,"dual":false},"pairs":[
    [[0,1],[0,1]],
    ...
    ],"subspaces":{"source":[[[0,0,1]],[[0,1,0],[0,0,1]],...],"target":[...]}}

Each side's table lists subspaces as linearly independent rows of field
codes.  A pair gives a source chamber and its image as the indices of their
subspaces (one per projective dimension, ascending) in those tables, and
``pairs`` covers every source chamber exactly once.  One writer streams the
pairs along the flag tree of ``buildings.covers``, in ``flags`` order,
which is the ``Chamber.sort_key`` order (so nothing is sorted), then the
tables of RREF rows.  ``dump_map`` writes either kind of map.  The source
table is numbered in order of first use along the pairs as written, and
so is the target table, along the target keys: a chamber map's image
chains (``encode_map`` returns the same document), so a file round-trips
byte-identically through ``dump_map``/``load_map``.  A semilinear map is
injective on subspaces, so its target table is keyed by source subspace:
a direct line is ``[x,x]``, and a dual one reads a second numbering along
the reversed chain.  It writes the file of the chamber map it induces,
imaging each table entry once and no chain, with no chamber built and
memory that grows with the subspaces.

``decode_map`` also reads ``chamber-map/1``, which spells every subspace of
every chamber inline; its table is the distinct spellings, as read.  Each
table entry is checked once, into a mask with no row reduction (a ``/2``
table may not list a subspace twice).  A chamber is the chain of masks at
its indices, checked on the masks; the map holds those chains, with no
:class:`Chamber` and no constructor pass.  Every problem raises
:class:`FormatError` naming the offending entry.
"""

from __future__ import annotations

import io
import json
from functools import partial
from itertools import chain

from .buildings import Chamber, covers
from .chamber_maps import ChamberMap, subspace_image
from .counts import MAX_DIMENSION, chamber_count
from .gf import SUPPORTED_ORDERS
from .projective import ProjSpace

__all__ = [
    "SCHEMA",
    "FormatError",
    "parse_rows",
    "encode_chamber",
    "encode_map",
    "decode_map",
    "dump_map",
    "load_map",
]

SCHEMA = "chamber-map/2"
_SCHEMA_1 = "chamber-map/1"  # still read
_INT = frozenset({int})  # _INT.issuperset(map(type, row)): only ints, no bools


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
    if len({len(r) for r in rows}) != 1:
        raise FormatError(f"rows of unequal length in {text!r}")
    return tuple(rows)


def encode_chamber(chamber: Chamber) -> list:
    return [[list(row) for row in rows] for rows in chamber.sort_key()]


def _part_mask(space: ProjSpace, part) -> int:
    """The mask of a subspace encoding, checked in full: the span of its
    row points, which must be independent (they need not be in RREF)."""
    # no bools: JSON true/false decode to bools, which are ints
    if not (isinstance(part, list) and part and all(
        isinstance(row, list) and len(row) == space.ambient
        and _INT.issuperset(map(type, row)) for row in part
    )):
        raise FormatError(f"invalid subspace encoding: {part!r}")
    for x in chain.from_iterable(part):
        if not 0 <= x < space.q:
            raise FormatError(f"code {x} out of range for GF({space.q}) in {part!r}")
    # a zero row names no point; mask 0 then fails the rank test
    mask = space.span(map(space.id_of, part)) if all(map(any, part)) else 0
    if space.rank(mask) != len(part):
        raise FormatError(f"dependent rows in subspace encoding {part!r}")
    return mask


def _table(space: ProjSpace, entries, side: str) -> list:
    """Each ``/2`` subspace table entry as ``(mask, pdim)``, checked once."""
    if not isinstance(entries, list):
        raise FormatError(f"'subspaces' must hold a list of {side} subspaces")
    pdims = {}
    for part in entries:
        mask = _part_mask(space, part)
        if mask in pdims:
            raise FormatError(f"duplicate {side} subspace {part!r}")
        pdims[mask] = len(part) - 1
    return list(pdims.items())


def _chamber(space: ProjSpace, table: list, side: str, ids) -> tuple:
    """The chain of masks at the indices ``ids`` of ``table``, a list of
    checked ``(mask, pdim)``: the one path from a file to a chamber."""
    n, size = space.n, len(table)
    # type(i) is int: JSON true and 1.0 would index like 1
    if not (isinstance(ids, list) and len(ids) == n
            and all(type(i) is int and 0 <= i < size for i in ids)):
        raise FormatError(f"a {side} chamber must be {n} indices below {size}, got {ids!r}")
    masks, prev = [], 0
    for k, i in enumerate(ids):
        mask, pdim = table[i]
        if pdim != k:
            raise FormatError(f"not a chamber: expected pdim {k} at position {k}, got {pdim}")
        if prev & ~mask:
            raise FormatError("not a chamber: chamber subspaces are not nested")
        masks.append(mask)
        prev = mask
    return tuple(masks)


def _inline(space: ProjSpace, table: list, side: str):
    """The ``/1`` chamber reader.  A ``/1`` chamber spells its subspaces
    inline; each spelling not read before is checked and appended to
    ``table``, and the chamber is read at the indices of its spellings."""
    n = space.n
    memo = {}

    def read(data) -> tuple:
        if not isinstance(data, list) or len(data) != n:
            raise FormatError(f"a chamber must be a list of {n} subspaces, got {data!r}")
        ids = []
        for part in data:
            key = repr(part)  # JSON true and 1.0 equal 1, but are spelled apart
            if key not in memo:
                table.append((_part_mask(space, part), len(part) - 1))
                memo[key] = len(table) - 1
            ids.append(memo[key])
        return _chamber(space, table, side, ids)

    return read


def _decode_space(entry, label: str) -> tuple[int, int]:
    """The checked ``(n, q)`` of a space entry."""
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
    return n, q


def _header(f, dual: bool) -> dict:
    """``f`` is a chamber map or a semilinear map: its spaces are named."""
    return {"schema": SCHEMA, "source": {"n": f.source.n, "q": f.source.q},
            "target": {"n": f.target.n, "q": f.target.q, "dual": bool(dual)}}


class _Numbering(dict):
    """A subspace table: mask -> its index as a string, in order of first use."""

    def __missing__(self, mask):
        index = self[mask] = str(len(self))
        return index


def encode_map(f: ChamberMap, dual: bool = False) -> dict:
    """The document :func:`dump_map` writes."""
    out = io.StringIO()
    _write(out, f, dual)
    return json.loads(out.getvalue())


def decode_map(data) -> ChamberMap:
    if not isinstance(data, dict):
        raise FormatError("top level must be an object")
    schema = data.get("schema")
    if schema not in (SCHEMA, _SCHEMA_1):
        raise FormatError(
            f"unknown schema {schema!r}; expected {SCHEMA!r} or {_SCHEMA_1!r}"
        )
    n, q = _decode_space(data.get("source"), "source")
    target_n, target_q = _decode_space(data.get("target"), "target")
    dual = data["target"].get("dual", False)
    if type(dual) is not bool:
        raise FormatError(f"target 'dual' must be true or false, got {dual!r}")
    if n != target_n:
        raise FormatError("source and target dimensions differ")
    pairs = data.get("pairs")
    if not isinstance(pairs, list):
        raise FormatError("'pairs' must be a list")
    # refused before chamber_count multiplies n large factors or a space is kept
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
        source_read, target_read = (
            partial(_chamber, space, _table(space, subspaces.get(side), side), side)
            for space, side in ((source, "source"), (target, "target"))
        )
    else:  # a /1 file: one table of spellings per space
        source_read = _inline(source, [], "source")
        target_read = source_read if target is source else _inline(target, [], "target")
    chains = {}
    for entry in pairs:
        if not isinstance(entry, list) or len(entry) != 2:
            raise FormatError(f"each pair must be [chamber, chamber], got {entry!r}")
        key = source_read(entry[0])
        if key in chains:
            raise FormatError(f"duplicate source chamber {Chamber(source, key)!r}")
        chains[key] = target_read(entry[1])
    # The keys are distinct chains of source, at least chamber_count of
    # them, so they are all of them once; every image is a target chain.
    return ChamberMap._trusted(source, target, chains)


def _table_rows(space: ProjSpace, masks) -> str:
    """A subspace table as compact JSON: the RREF rows of each mask (``repr``
    spells nested lists of ints with spaces)."""
    return repr([list(map(list, space.rows(mask))) for mask in masks]).replace(" ", "")


def _targets(f, dual: bool, source: _Numbering, path: list):
    """The target side of the pairs of ``f``: ``lines(prefix, leaves)``,
    the lines of the chains ``path`` + (leaf,) whose source index string
    up to the leaf is ``prefix``, and ``masks()``, the target table once
    every line is written.  A chamber map's target keys are its image
    chains.  A semilinear map is injective on subspaces, so an induced
    map's are its source chains, read backwards when dual: a direct line
    is ``[x,x]``, and a dual one numbers the source subspaces a second time,
    along the reversed chains.  Each key is imaged once, for the table.
    """
    if isinstance(f, ChamberMap):
        chains, keys = f.chains, _Numbering()

        def image_lines(prefix, leaves):
            head = tuple(path)
            for leaf in leaves:
                target = ",".join(map(keys.__getitem__, chains[head + (leaf,)]))
                yield f",\n[[{prefix}{source[leaf]}],[{target}]]"

        return image_lines, lambda: keys
    image = subspace_image(f, dual)
    if not dual:
        def direct_lines(prefix, leaves):
            return (f",\n[[{prefix}{i}],[{prefix}{i}]]" for i in map(source.__getitem__, leaves))

        return direct_lines, lambda: map(image, source)
    keys = _Numbering()

    def dual_lines(prefix, leaves):
        keys[leaves[0]]  # read backwards, the first chain here numbers its leaf first
        rest = ",".join(map(keys.__getitem__, reversed(path)))
        return (f",\n[[{prefix}{i}],[{d},{rest}]]"
                for i, d in zip(map(source.__getitem__, leaves), map(keys.__getitem__, leaves)))

    return dual_lines, lambda: map(image, keys)


def _write(out, f, dual: bool) -> int:
    """Stream the ``chamber-map/2`` of ``f``, a chamber map or a semilinear
    map, and return the number of pairs written.  The pairs go along the
    flag tree of ``covers``: a node's source index string is its parent's
    and its own index, built once, and each leaf adds its last index."""
    space, source = f.source, _Numbering()
    table, path, written = covers(space), [0] * (space.n - 1), 0
    lines, masks = _targets(f, dual, source, path)

    def walk(k, nodes, prefix):
        nonlocal written
        for node in nodes:
            path[k] = node
            here = f"{prefix}{source[node]},"
            if k < space.n - 2:
                yield from walk(k + 1, table[node], here)
            else:
                leaves = table[node]
                written += len(leaves)
                yield lines(here, leaves)

    pairs = chain.from_iterable(walk(0, [1 << p for p in range(space.size)], ""))
    head = json.dumps(_header(f, dual), separators=(",", ":"))
    out.write(head[:-1] + ',"pairs":[' + next(pairs)[1:])  # "\n[[...", not ",\n[[..."
    out.writelines(pairs)
    rows = _table_rows(space, source), _table_rows(f.target, masks())
    out.write('\n],"subspaces":{"source":%s,"target":%s}}\n' % rows)
    return written


def dump_map(f, path, dual: bool = False) -> int:
    """Write ``f``, a chamber map or a semilinear map, as ``chamber-map/2``
    and return the number of pairs written.  A semilinear map ``semi`` gives
    the bytes of ``dump_map(induce(semi, dual), path, dual)``; ``path`` is
    opened before any flag is walked."""
    with open(path, "w", encoding="utf-8") as out:
        return _write(out, f, dual)


def load_map(path) -> ChamberMap:
    try:
        with open(path, encoding="utf-8") as src:
            data = json.loads(src.read())
    except UnicodeDecodeError as exc:
        raise FormatError(f"not UTF-8 text: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
        raise FormatError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise FormatError("JSON nested too deeply") from exc
    return decode_map(data)
