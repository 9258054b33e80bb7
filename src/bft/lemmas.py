"""The lemma battery, checked by enumeration on the permutation bitsets of
:mod:`bft.combinatorics`: overlaps are popcounts.  Only the
``maximal-inexact-classification`` row (n = 2, q <= 3) needs the chambers of
a real apartment, so it alone builds one.  The ``lemmas`` command renders
the :class:`CheckRow` values of :func:`case_row` and :func:`structural_rows`.
"""

import itertools
from collections import namedtuple
from functools import lru_cache
from math import factorial

from .buildings import apartment_of
from .combinatorics import (
    _at,
    _max_inexact,
    _prefix_sets,
    _prefixes,
    classify_adjacent_family,
    closed_form,
    complement_adjacent,
    complement_bits,
    copoint_bits,
    disposition,
    is_exact,
    is_exact_by_search,
    max_inexact_family,
    point_bits,
    point_copoint_bits,
    residual_bits,
    star_bits,
)
from .projective import ProjSpace, standard_base

__all__ = ["CheckRow", "case_row", "structural_rows"]


CheckRow = namedtuple("CheckRow", "name expected actual passed note", defaults=("",))


@lru_cache(maxsize=None)
def _pairs_by_case(n: int) -> dict[int, tuple]:
    """The ordered pairs of distinct index pairs, by ``disposition`` case,
    each case in ``itertools.permutations`` order."""
    pairs = [(i, j) for i in range(n + 1) for j in range(n + 1) if i != j]
    by_case = {case: [] for case in range(1, 7)}
    for p1, p2 in itertools.permutations(pairs, 2):
        by_case[disposition(p1, p2)].append((p1, p2))
    return {case: tuple(found) for case, found in by_case.items()}


def case_row(n: int, case: int) -> CheckRow:
    """One battery row: enumerated overlap vs closed form for one case."""
    found = {}
    for p1, p2 in _pairs_by_case(n).get(case, ()):
        count = (complement_bits(n, *p1) & complement_bits(n, *p2)).bit_count()
        found.setdefault(count, (p1, p2))
    if case == 6 and n == 2:
        actual = sorted(found) or "unrealizable"
        note = "no four distinct indices exist at n=2"
        return CheckRow("case-6-overlap", "undefined", actual, not found, note)
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


def _adjacent_families(n: int, candidates, family=()):
    """Every n-set of pairwise ``complement_adjacent`` pairs among
    ``candidates``, in ``itertools.combinations`` order: a clique search that
    grows a family only by later pairs adjacent to all of it."""
    if len(family) == n:
        yield family
        return
    for k, pair in enumerate(candidates):
        later = [p for p in candidates[k + 1 :] if complement_adjacent(pair, p)]
        yield from _adjacent_families(n, later, family + (pair,))


def structural_rows(n: int, q: int) -> list[CheckRow]:
    rows = []
    pairs = [(i, j) for i in range(n + 1) for j in range(n + 1) if i != j]

    ok = True
    for i, j in pairs:
        head = point_bits(n, i) | copoint_bits(n, j)
        tail = residual_bits(n, i, j)
        ok = ok and not (head & tail) and head | tail == complement_bits(n, i, j)
    rows.append(CheckRow("complement-decomposition", True, ok, ok))

    # complement_chamber reverses each permutation, so read the prefixes of
    # the reversed permutations off positions n, n-1, .., 1; a complement
    # family is the rest of a max-inexact one, so comparing those decides it
    reversed_prefixes = _prefixes(_at(n)[:0:-1])
    ok = all(
        _max_inexact(n, reversed_prefixes, i, j)
        == _max_inexact(n, _prefix_sets(n), j, i)
        for i, j in pairs
    )
    rows.append(CheckRow("complement-involution", True, ok, ok))

    if n == 2:
        ok = all(not residual_bits(n, i, j) for i, j in pairs)
        rows.append(CheckRow("residual-empty", True, ok, ok))
    else:
        ok = True
        half, corner = (n - 2) * factorial(n - 1) // 2, factorial(n - 1) // 2
        for i, j in pairs:
            res = residual_bits(n, i, j)
            rest = [t for t in range(n + 1) if t not in (i, j)]
            for k in rest:
                ok = ok and (point_bits(n, k) & res).bit_count() == half
                ok = ok and (copoint_bits(n, k) & res).bit_count() == half
            for k, m in itertools.permutations(rest, 2):
                ok = ok and (point_copoint_bits(n, m, k) & res).bit_count() == corner
        rows.append(CheckRow("residual-split", True, ok, ok))

    ok = all(
        star_bits(n, i) == (point_bits(n, i), copoint_bits(n, i))
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
        for family in _adjacent_families(n, pairs):
            classify_adjacent_family(family)
            classified += 1
        rows.append(
            CheckRow("adjacent-families", 2 * (n + 1), classified, classified == 2 * (n + 1))
        )

    if n == 2 and q <= 3:
        ap = apartment_of(standard_base(ProjSpace.of(n, q)))
        inexact_sets = []
        xs = {frozenset(max_inexact_family(ap, i, j)) for i, j in pairs}
        ok = True
        for bits in range(2 ** len(ap.chambers)):
            subset = frozenset(c for t, c in enumerate(ap.chambers) if bits >> t & 1)
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
