"""The lemma battery on permutation bitsets against the frozenset oracle.

``lemma_oracle`` is the battery as it ran on the chambers of a real
apartment; ``bft.lemmas`` must give the same rows (name, expected, actual,
pass and note) from the bitsets of ``bft.combinatorics``.
"""

import functools
import itertools
from math import factorial

import pytest

import lemma_oracle as oracle
from bft import combinatorics, lemmas
from bft.buildings import APARTMENT_CACHE_SIZE, all_bases, apartment_of
from bft.projective import ProjSpace, standard_base

FAMILIES = (
    "point_family",
    "copoint_family",
    "point_copoint_family",
    "residual_family",
    "max_inexact_family",
    "complement_family",
)


@pytest.mark.parametrize(
    "n,q", [(n, q) for n in (2, 3, 4, 5) for q in (2, 3)] + [(6, 2)]
)
def test_battery_matches_the_frozenset_oracle(n, q):
    ap = apartment_of(standard_base(ProjSpace.of(n, q)))
    for case in range(1, 7):
        assert lemmas.case_row(n, case) == oracle.case_row(ap, n, case)
    assert lemmas.structural_rows(n, q) == oracle.structural_rows(ap, n, q)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_apartment_families_match_the_oracle(n):
    ap = apartment_of(standard_base(ProjSpace.of(n, 3)))
    for i, j in itertools.product(range(n + 1), repeat=2):
        for name in FAMILIES:
            if i == j and name != "point_copoint_family":
                continue
            args = (i, j)[: 1 if name in ("point_family", "copoint_family") else 2]
            got = getattr(combinatorics, name)(ap, *args)
            assert got == getattr(oracle, name)(ap, *args), (name, args)
    for i in range(n + 1):
        assert combinatorics.star_intersections(ap, i) == oracle.star_intersections(ap, i)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_adjacent_families_match_the_subset_filter(n):
    pairs = [(i, j) for i in range(n + 1) for j in range(n + 1) if i != j]
    expected = [
        family
        for family in itertools.combinations(pairs, n)
        if all(
            combinatorics.complement_adjacent(a, b)
            for a, b in itertools.combinations(family, 2)
        )
    ]
    assert list(lemmas._adjacent_families(n, pairs)) == expected


def test_apartment_family_caches_are_bounded():
    bases = all_bases(ProjSpace.of(3, 2))[: APARTMENT_CACHE_SIZE + 20]
    for base in bases:
        ap = apartment_of(base)
        combinatorics.point_family(ap, 0)
        combinatorics.complement_family(ap, 0, 1)
        combinatorics.is_exact(ap, ())
    for name in FAMILIES + ("_point_masks",):
        info = getattr(combinatorics, name).cache_info()
        assert info.maxsize == APARTMENT_CACHE_SIZE
        assert info.currsize <= APARTMENT_CACHE_SIZE


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_permutation_bits_match_the_literal_definitions(n):
    """Each family equals the per-permutation predicate it computes, for
    every valid index tuple."""
    indices = range(n + 1)
    for i in indices:
        for name in ("point_bits", "copoint_bits"):
            assert getattr(combinatorics, name)(n, i) == getattr(oracle, name)(n, i)
        for j in indices:
            got = combinatorics.point_copoint_bits(n, i, j)
            assert got == oracle.point_copoint_bits(n, i, j), (i, j)
            if i == j:
                continue
            for name in ("residual_bits", "max_inexact_bits"):
                got = getattr(combinatorics, name)(n, i, j)
                assert got == getattr(oracle, name)(n, i, j), (name, i, j)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_the_position_table_is_a_latin_square_of_bitsets(n):
    """Each row and each column of ``_at(n)`` splits the (n+1)! permutations
    into n+1 blocks of n! (n+1 sets of n! covering (n+1)! are disjoint), and
    row 0 is the lexicographic order cut into contiguous blocks.  This runs
    to n = 8, which ``lemmas --force`` reaches, past the oracle's n = 6."""
    size, block = factorial(n + 1), factorial(n)
    at = combinatorics._at(n)
    lines = list(at) + [tuple(row[i] for row in at) for i in range(n + 1)]
    for line in lines:
        assert len(line) == n + 1
        assert all(bits.bit_count() == block for bits in line)
        assert functools.reduce(int.__or__, line) == (1 << size) - 1
    for i, bits in enumerate(at[0]):
        assert bits == ((1 << block) - 1) << (i * block)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_reversed_prefixes_match_the_permutation_dict(n):
    """The max-inexact family on the prefix sets read backwards, as the
    ``complement-involution`` row builds them from ``_at``, flags each
    permutation whose reversal is in the family, found in the dict of
    permutation tuples."""
    reverse = oracle.reversal(n)(range(factorial(n + 1)))
    backwards = combinatorics._prefixes(combinatorics._at(n)[:0:-1])
    for i, j in itertools.permutations(range(n + 1), 2):
        got = combinatorics._max_inexact(n, backwards, i, j)
        flags = format(oracle.max_inexact_bits(n, i, j), f"0{len(reverse)}b")[::-1]
        expected = int("".join(flags[k] for k in reverse)[::-1], 2)
        assert got == expected, (i, j)
