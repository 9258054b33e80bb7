"""The frozenset lemma battery: the slow oracle for :mod:`bft.lemmas`.

This is the battery as it was before it moved onto permutation bitsets: every
family is a frozenset of the chambers of a real apartment, selected by its
position vector or its prefix sets, and every overlap is a set
intersection.  ``positions`` and ``prefix_sets`` are the per-apartment tables
the families were read from.

The ``*_bits`` functions are the oracle for the bitset families of
:mod:`bft.combinatorics`: the same bitsets, built by one predicate call per
permutation from its position vector or its proper prefix sets.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, reduce
from math import factorial
from operator import itemgetter

from bft.buildings import Apartment, Chamber, _perm_prefixes
from bft.combinatorics import (
    _check_index,
    _check_pair,
    classify_adjacent_family,
    closed_form,
    complement_adjacent,
    complement_chamber,
    disposition,
    is_exact,
    is_exact_by_search,
)
from bft.lemmas import CheckRow


# ------------------------------------------------ per-permutation bitsets


@lru_cache(maxsize=None)
def _positions(n: int) -> tuple[tuple[int, ...], ...]:
    """The position vector of each permutation: pos[i] is where i stands,
    0 first and n last."""
    perms = _perm_prefixes(n + 1)[0]
    return tuple(tuple(map(perm.index, range(n + 1))) for perm in perms)


def _flags(kept) -> int:
    """One truth value per permutation, in order, as a bitset."""
    return int("".join(map("01".__getitem__, map(bool, kept)))[::-1], 2)


@lru_cache(maxsize=None)
def point_bits(n: int, i: int) -> int:
    """Chambers whose 0-component is the i-th base point.  Size n!."""
    _check_index(n, i)
    return _flags(pos[i] == 0 for pos in _positions(n))


@lru_cache(maxsize=None)
def copoint_bits(n: int, i: int) -> int:
    """Chambers whose hyperplane, span(base - {p_i}), omits p_i.  Size n!."""
    _check_index(n, i)
    return _flags(pos[i] == n for pos in _positions(n))


@lru_cache(maxsize=None)
def point_copoint_bits(n: int, i: int, j: int) -> int:
    """Chambers through p_i whose hyperplane omits p_j.

    Size (n-1)! when i != j; empty when i == j (a point cannot lie outside
    every hyperplane of its own chamber).
    """
    _check_index(n, i, j)
    return _flags(pos[i] == 0 and pos[j] == n for pos in _positions(n))


@lru_cache(maxsize=None)
def residual_bits(n: int, i: int, j: int) -> int:
    """Chambers placing i and j strictly inside the permutation, i first.

    In positions: 0 < pos(i) < pos(j) < n.  Empty when n == 2 (there is no
    room for two interior indices).
    """
    _check_pair(n, i, j)
    return _flags(0 < pos[i] < pos[j] < n for pos in _positions(n))


@lru_cache(maxsize=None)
def _prefix_meets(n: int, i: int) -> tuple[int, ...]:
    """For each permutation, the meet of its proper prefixes that contain i,
    as an index bitmask (all of 0..n when no proper prefix contains i)."""
    return tuple(
        reduce(int.__and__, (p for p in prefixes if p >> i & 1), (1 << n + 1) - 1)
        for prefixes in _perm_prefixes(n + 1)[1]
    )


@lru_cache(maxsize=None)
def max_inexact_bits(n: int, i: int, j: int) -> int:
    """Chambers all of whose components contain both of p_i, p_j or miss p_i.

    Checked literally on the component prefix sets: every proper prefix P of
    the permutation must satisfy ``{i, j} <= P or i not in P``, that is, j
    lies in every proper prefix that contains i.
    """
    _check_pair(n, i, j)
    return _flags(map((1 << j).__and__, _prefix_meets(n, i)))


def reversal(n: int) -> itemgetter:
    """Reads, at each permutation index, the index of the reversed
    permutation, looked up in a dict keyed by every permutation tuple."""
    rank = dict(zip(itertools.permutations(range(n + 1)), itertools.count()))
    reverse = itemgetter(slice(None, None, -1))
    return itemgetter(*map(rank.__getitem__, map(reverse, rank)))


# ------------------------------------------------ frozenset families


@lru_cache(maxsize=None)
def positions(ap):
    """Aligned with ``ap.perms``: tuple p with p[i] = position of base
    point i in the ordering (0 first, n last)."""
    out = []
    for perm in ap.perms:
        pos = [0] * len(perm)
        for k, idx in enumerate(perm):
            pos[idx] = k
        out.append(tuple(pos))
    return tuple(out)


@lru_cache(maxsize=None)
def prefix_sets(ap):
    """Aligned with ``ap.perms``: the chamber's subspaces as index sets,
    i.e. the n proper prefixes of the ordering."""
    n = ap.space.n
    return tuple(
        tuple(frozenset(perm[: k + 1]) for k in range(n)) for perm in ap.perms
    )


def _select(ap: Apartment, keep) -> frozenset[Chamber]:
    """Chambers of ``ap`` whose position vector satisfies ``keep``."""
    return frozenset(
        ap.chambers[k] for k, pos in enumerate(positions(ap)) if keep(pos)
    )


@lru_cache(maxsize=None)
def point_family(ap: Apartment, i: int) -> frozenset[Chamber]:
    """Chambers whose 0-component is the i-th base point.  Size n!."""
    return _select(ap, lambda pos: pos[i] == 0)


@lru_cache(maxsize=None)
def copoint_family(ap: Apartment, i: int) -> frozenset[Chamber]:
    """Chambers whose hyperplane does not contain the i-th base point.

    Equivalently: chambers through the complementary hyperplane
    span(base - {p_i}).  Size n!.
    """
    n = ap.base.space.n
    return _select(ap, lambda pos: pos[i] == n)


@lru_cache(maxsize=None)
def point_copoint_family(ap: Apartment, i: int, j: int) -> frozenset[Chamber]:
    """Chambers through p_i whose hyperplane omits p_j.

    Size (n-1)! when i != j; empty when i == j (a point cannot lie outside
    every hyperplane of its own chamber).
    """
    n = ap.base.space.n
    return _select(ap, lambda pos: pos[i] == 0 and pos[j] == n)


@lru_cache(maxsize=None)
def residual_family(ap: Apartment, i: int, j: int) -> frozenset[Chamber]:
    """Chambers placing i and j strictly inside the permutation, i first.

    In positions: 0 < pos(i) < pos(j) < n.  Empty when n == 2 (there is no
    room for two interior indices).
    """
    n = ap.base.space.n
    return _select(ap, lambda pos: 0 < pos[i] < pos[j] < n)


@lru_cache(maxsize=None)
def max_inexact_family(ap: Apartment, i: int, j: int) -> frozenset[Chamber]:
    """Chambers all of whose components contain both of p_i, p_j or miss p_i.

    Checked literally on the component prefix sets: every proper prefix P of
    the permutation must satisfy ``{i, j} <= P or i not in P``.
    """
    pair = {i, j}
    out = []
    for k, prefixes in enumerate(prefix_sets(ap)):
        if all(pair <= p or i not in p for p in prefixes):
            out.append(ap.chambers[k])
    return frozenset(out)


@lru_cache(maxsize=None)
def complement_family(ap: Apartment, i: int, j: int) -> frozenset[Chamber]:
    """The apartment minus ``max_inexact_family(ap, i, j)``."""
    return ap.chamber_set - max_inexact_family(ap, i, j)


def intersection_count(ap: Apartment, pair1, pair2) -> int:
    """|complement_family(pair1) & complement_family(pair2)| by enumeration."""
    disposition(pair1, pair2)  # validates the pairs
    first = complement_family(ap, *pair1)
    second = complement_family(ap, *pair2)
    return len(first & second)


def star_intersections(ap: Apartment, i: int):
    """Intersections of all complement families anchored at i.

    Returns the pair ``(meet of complement_family(i, j) over j != i,
    meet of complement_family(j, i) over j != i)``; these are expected to be
    ``point_family(i)`` and ``copoint_family(i)`` and are computed purely by
    enumeration so tests can compare.
    """
    n = ap.base.space.n
    others = [j for j in range(n + 1) if j != i]
    first = frozenset(ap.chamber_set)
    second = frozenset(ap.chamber_set)
    for j in others:
        first &= complement_family(ap, i, j)
        second &= complement_family(ap, j, i)
    return first, second


def case_row(ap, n, case):
    """One battery row: enumerated overlap vs closed form for one case."""
    pairs = [(i, j) for i in range(n + 1) for j in range(n + 1) if i != j]
    found = {}
    for p1, p2 in itertools.permutations(pairs, 2):
        if disposition(p1, p2) != case:
            continue
        count = intersection_count(ap, p1, p2)
        found.setdefault(count, (p1, p2))
    if case == 6 and n == 2:
        return CheckRow(
            "case-6-overlap",
            "undefined",
            "unrealizable" if not found else sorted(found),
            not found,
            "no four distinct indices exist at n=2",
        )
    expected = closed_form(n, case)
    values = sorted(found)
    actual = values[0] if len(values) == 1 else values
    passed = values == [expected]
    note = ""
    if not passed:
        value, (p1, p2) = next(
            (v, w) for v, w in sorted(found.items()) if v != expected
        )
        note = f"pairs {p1} and {p2} overlap in {value} chambers"
    return CheckRow(f"case-{case}-overlap", expected, actual, passed, note)


def structural_rows(ap, n, q):
    rows = []
    pairs = [(i, j) for i in range(n + 1) for j in range(n + 1) if i != j]

    ok = True
    for i, j in pairs:
        head = point_family(ap, i) | copoint_family(ap, j)
        tail = residual_family(ap, i, j)
        ok = ok and not (head & tail) and head | tail == complement_family(ap, i, j)
    rows.append(CheckRow("complement-decomposition", True, ok, ok))

    ok = all(
        {complement_chamber(ap, c) for c in complement_family(ap, i, j)}
        == complement_family(ap, j, i)
        for i, j in pairs
    )
    rows.append(CheckRow("complement-involution", True, ok, ok))

    if n == 2:
        ok = all(not residual_family(ap, i, j) for i, j in pairs)
        rows.append(CheckRow("residual-empty", True, ok, ok))
    else:
        ok = True
        for i, j in pairs:
            res = residual_family(ap, i, j)
            rest = [t for t in range(n + 1) if t not in (i, j)]
            for k in rest:
                ok = ok and len(point_family(ap, k) & res) == (n - 2) * factorial(n - 1) // 2
                ok = ok and len(copoint_family(ap, k) & res) == (n - 2) * factorial(n - 1) // 2
            for k, m in itertools.permutations(rest, 2):
                ok = ok and len(point_copoint_family(ap, m, k) & res) == factorial(n - 1) // 2
        rows.append(CheckRow("residual-split", True, ok, ok))

    ok = all(
        star_intersections(ap, i) == (point_family(ap, i), copoint_family(ap, i))
        for i in range(n + 1)
    )
    rows.append(CheckRow("star-intersections", True, ok, ok))

    n1, n2, n4 = closed_form(n, 1), closed_form(n, 2), closed_form(n, 4)
    bad = {n1, n4} | ({closed_form(n, 6)} if n >= 3 else set())
    ok = n2 not in bad
    rows.append(CheckRow("count-distinctness", True, ok, ok))

    if n >= 5:
        ok = (n2 - closed_form(n, 6)) * 12 == factorial(n - 1) * (n * n + n - 24)
        rows.append(CheckRow("difference-identity", True, ok, ok))

    if n <= 5:
        classified = 0
        for family in itertools.combinations(pairs, n):
            if all(
                complement_adjacent(a, b)
                for a, b in itertools.combinations(family, 2)
            ):
                classify_adjacent_family(family)
                classified += 1
        rows.append(
            CheckRow("adjacent-families", 2 * (n + 1), classified, classified == 2 * (n + 1))
        )

    if n == 2 and q <= 3:
        inexact_sets = []
        xs = {frozenset(max_inexact_family(ap, i, j)) for i, j in pairs}
        ok = True
        chambers = ap.chambers
        for bits in range(2 ** len(chambers)):
            subset = frozenset(c for t, c in enumerate(chambers) if bits >> t & 1)
            exact = is_exact(ap, subset)
            ok = ok and exact == is_exact_by_search(ap, subset)
            ok = ok and exact == (not any(subset <= x for x in xs))
            if not exact and all(
                is_exact(ap, subset | {c}) for c in ap.chamber_set - subset
            ):
                inexact_sets.append(subset)
        ok = ok and set(inexact_sets) == xs
        rows.append(CheckRow("maximal-inexact-classification", True, ok, ok))

    return rows
