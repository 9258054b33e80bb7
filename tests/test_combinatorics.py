"""Family combinatorics inside one apartment.

Independent oracles:

* factorial sizes of the point/copoint families;
* the order characterization: the complement family for (i, j) is exactly
  the half of the apartment whose permutation places i before j (proved
  below from the literal component predicate, then reused);
* uniform-order counts: two order constraints on disjoint index pairs cut
  the apartment to 1/4, a shared first index to 1/3, a chain to 1/6.
"""

import itertools
import random
from fractions import Fraction
from math import factorial

import pytest

from bft.buildings import Chamber, apartment_of
from bft.combinatorics import (
    UndefinedCountError,
    classify_adjacent_family,
    closed_form,
    complement_adjacent,
    complement_chamber,
    complement_family,
    disposition,
    intersection_count,
    is_exact,
    is_exact_by_search,
    max_inexact_family,
    point_copoint_family,
    point_family,
    copoint_family,
    residual_family,
    star_intersections,
)
from bft.projective import Base, ProjSpace, standard_base
from lemma_oracle import positions, prefix_sets
from reference import (
    chamber_of_perm,
    contains,
    d_transform,
    hyperplane,
    parts,
    perm_of_chamber,
)

AP2 = apartment_of(standard_base(ProjSpace.of(2, 2)))
AP3 = apartment_of(standard_base(ProjSpace.of(3, 2)))
AP4 = apartment_of(standard_base(ProjSpace.of(4, 2)))


def pairs_of(n):
    return [(i, j) for i in range(n + 1) for j in range(n + 1) if i != j]


# ---------------------------------------------------------------- families


def test_family_sizes():
    n = 3
    for i in range(n + 1):
        assert len(point_family(AP3, i)) == factorial(n)
        assert len(copoint_family(AP3, i)) == factorial(n)
        for j in range(n + 1):
            expected = 0 if i == j else factorial(n - 1)
            assert len(point_copoint_family(AP3, i, j)) == expected


def test_families_partition_the_apartment():
    n = 3
    assert set().union(*(point_family(AP3, i) for i in range(n + 1))) == AP3.chamber_set
    assert sum(len(point_family(AP3, i)) for i in range(n + 1)) == 24
    assert set().union(*(copoint_family(AP3, i) for i in range(n + 1))) == AP3.chamber_set
    for i in range(n + 1):
        blocks = [point_copoint_family(AP3, i, j) for j in range(n + 1) if j != i]
        assert set().union(*blocks) == point_family(AP3, i)
        assert sum(len(b) for b in blocks) == len(point_family(AP3, i))


def test_point_family_in_terms_of_chambers():
    base = AP2.base
    fam = point_family(AP2, 1)
    assert all(c.point == base.points[1] for c in fam)
    cop = copoint_family(AP2, 1)
    assert all(not hyperplane(c).contains_vector(base.points[1]) for c in cop)


def test_index_validation():
    with pytest.raises(ValueError):
        point_family(AP2, 3)
    with pytest.raises(ValueError):
        residual_family(AP2, 1, 1)
    with pytest.raises(ValueError):
        max_inexact_family(AP2, -1, 0)


# ------------------------------------------------- complements / residuals


def test_complement_family_concrete_n2():
    base = AP2.base
    p0, p1, p2 = base.points
    space = base.space
    line01 = space.subspace([p0, p1])
    line02 = space.subspace([p0, p2])
    expected = {
        chamber_of_perm(AP2, (0, 1, 2)),
        chamber_of_perm(AP2, (0, 2, 1)),
        chamber_of_perm(AP2, (2, 0, 1)),
    }
    got = complement_family(AP2, 0, 1)
    assert got == expected
    assert {(c.point, parts(c)[1]) for c in got} == {
        (p0, line01),
        (p0, line02),
        (p2, line02),
    }


def test_max_inexact_literal_predicate():
    space = AP2.base.space
    p0, p1 = AP2.base.points[0], AP2.base.points[1]
    pair_span = space.subspace([p0, p1])
    for c in max_inexact_family(AP2, 0, 1):
        for part in parts(c):
            assert contains(part, pair_span) or not part.contains_vector(p0)
    assert len(max_inexact_family(AP2, 0, 1)) == 3


def test_complement_is_set_difference():
    for i, j in pairs_of(2):
        assert complement_family(AP2, i, j) & max_inexact_family(AP2, i, j) == set()
        assert len(complement_family(AP2, i, j)) == 3


def test_complement_family_is_order_half():
    for ap, n in ((AP2, 2), (AP3, 3)):
        for i, j in pairs_of(n):
            by_order = {
                ap.chambers[k]
                for k, pos in enumerate(positions(ap))
                if pos[i] < pos[j]
            }
            assert complement_family(ap, i, j) == by_order


def test_complement_decomposition():
    for i, j in pairs_of(3):
        head = point_family(AP3, i) | copoint_family(AP3, j)
        tail = residual_family(AP3, i, j)
        assert head & tail == set()
        assert head | tail == complement_family(AP3, i, j)


def test_residual_empty_at_n2():
    for i, j in pairs_of(2):
        assert residual_family(AP2, i, j) == frozenset()


def test_residual_corner_counts_n4():
    i, j, k, m = 0, 1, 2, 3
    res = residual_family(AP4, i, j)
    assert len(point_copoint_family(AP4, m, k) & res) == 3  # (n-1)!/2
    assert len(point_family(AP4, k) & res) == 6  # (n-2)(n-1)!/2
    assert len(copoint_family(AP4, k) & res) == 6


# ------------------------------------------- complement / swap transforms


def test_complement_chamber_is_reversal_and_involution():
    for c in AP3.chambers:
        cc = complement_chamber(AP3, c)
        assert perm_of_chamber(AP3, cc) == perm_of_chamber(AP3, c)[::-1]
        assert complement_chamber(AP3, cc) == c


def test_complement_chamber_literal_definition():
    base = AP3.base
    space = base.space
    for c in AP3.chambers:
        prefixes = [set(p) for p in prefix_sets(AP3)[AP3.chambers.index(c)]]
        expected = [
            space.subspace([base.points[t] for t in range(4) if t not in pref])
            for pref in reversed(prefixes)
        ]
        assert list(parts(complement_chamber(AP3, c))) == expected


def test_complement_chamber_looks_its_chamber_up(monkeypatch):
    """The opposite chamber is found by rank: at most one ``Chamber.__eq__``
    per call (the membership check), where a scan of ``ap.chambers`` makes
    about (n+1)!/2, and no span."""
    chambers = AP4.chambers
    eq, compared = Chamber.__eq__, [0]

    def counted(self, other):
        compared[0] += 1
        return eq(self, other)

    def refuse(*args):
        raise AssertionError("complement_chamber spans a subspace")

    monkeypatch.setattr(Chamber, "__eq__", counted)
    monkeypatch.setattr(ProjSpace, "join_point", refuse)
    for c in chambers:
        compared[0] = 0
        complement_chamber(AP4, c)
        assert compared[0] <= 1


def test_complement_chamber_swaps_families():
    assert {complement_chamber(AP2, c) for c in point_family(AP2, 1)} == copoint_family(
        AP2, 1
    )
    assert {
        complement_chamber(AP3, c) for c in residual_family(AP3, 0, 2)
    } == residual_family(AP3, 2, 0)


def test_d_transform_involution_without_fixed_points():
    for c in AP3.chambers:
        d = d_transform(AP3, 0, 1, c)
        assert d != c
        assert d_transform(AP3, 0, 1, d) == c


def test_d_transform_matches_corner_split():
    i, j, k, m = 0, 1, 2, 3
    corner = point_copoint_family(AP4, m, k)
    inside = corner & residual_family(AP4, i, j)
    outside = corner - residual_family(AP4, i, j)
    assert len(inside) == len(outside) == 3
    assert {d_transform(AP4, i, j, c) for c in inside} == outside


# ------------------------------------------------------------ dispositions


@pytest.mark.parametrize(
    "p1,p2,case",
    [
        ((1, 2), (2, 1), 1),
        ((1, 2), (1, 3), 2),
        ((1, 2), (3, 2), 3),
        ((1, 2), (3, 1), 4),
        ((1, 2), (2, 3), 5),
        ((1, 2), (3, 4), 6),
    ],
)
def test_disposition_cases(p1, p2, case):
    assert disposition(p1, p2) == case


def test_disposition_validation():
    with pytest.raises(ValueError):
        disposition((1, 2), (1, 2))
    with pytest.raises(ValueError):
        disposition((1, 1), (1, 2))


def test_complement_adjacent():
    assert complement_adjacent((1, 2), (1, 3))
    assert complement_adjacent((1, 2), (3, 2))
    assert not complement_adjacent((1, 2), (2, 1))
    assert not complement_adjacent((1, 2), (3, 4))


# ------------------------------------------------------------------ counts


def _counts_by_case(ap, n):
    seen = {}
    for p1, p2 in itertools.permutations(pairs_of(n), 2):
        case = disposition(p1, p2)
        seen.setdefault(case, set()).add(intersection_count(ap, p1, p2))
    return seen


def test_enumerated_counts_n2():
    seen = _counts_by_case(AP2, 2)
    assert seen == {1: {0}, 2: {2}, 3: {2}, 4: {1}, 5: {1}}  # case 6 unrealizable


def test_enumerated_counts_n3():
    seen = _counts_by_case(AP3, 3)
    # Each case is a single uniform-order count of the 24 permutations:
    # cases 2/3 share a least element (24/3), 4/5 are chains (24/6),
    # case 6 is two independent constraints (24/4).
    assert seen == {1: {0}, 2: {8}, 3: {8}, 4: {4}, 5: {4}, 6: {6}}


def test_enumerated_counts_case6_n4():
    values = {
        intersection_count(AP4, p1, p2)
        for p1, p2 in itertools.permutations(pairs_of(4), 2)
        if disposition(p1, p2) == 6
    }
    assert values == {30}  # 5!/4


# complement_family(i, j) is the permutations with pos(i) < pos(j), so each
# overlap is the share of orderings of the named indices that meet both:
OVERLAP_SHARE = {
    1: Fraction(0),  # (i, j), (j, i): pos(i) < pos(j) < pos(i) never holds
    2: Fraction(1, 3),  # (i, j), (i, m): i first of {i, j, m}
    3: Fraction(1, 3),  # (i, j), (k, j): j last of {i, j, k}
    4: Fraction(1, 6),  # (i, j), (k, i): the one order k, i, j of three
    5: Fraction(1, 6),  # (i, j), (j, m): the one order i, j, m of three
    6: Fraction(1, 4),  # (i, j), (k, m): two independent halves
}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_enumerated_overlaps_match_the_order_oracle(n):
    """The overlap oracle: every enumerated count is (n+1)! times its share.
    Case 6 has no instance at n = 2.  The recorded ``closed_form`` table is
    left alone: its case 6 stays red in ``test_counting_sweep``."""
    ap = apartment_of(standard_base(ProjSpace.of(n, 2)))
    expected = {
        case: {factorial(n + 1) * share}
        for case, share in OVERLAP_SHARE.items()
        if case < 6 or n > 2
    }
    assert _counts_by_case(ap, n) == expected


def test_closed_form_table():
    table = {
        2: (0, 2, 2, 1, 1),
        3: (0, 8, 8, 4, 4),
        4: (0, 40, 40, 20, 20),
        5: (0, 240, 240, 120, 120),
    }
    for n, row in table.items():
        assert tuple(closed_form(n, c) for c in range(1, 6)) == row
    assert closed_form(3, 6) == 10
    assert closed_form(4, 6) == 42
    assert closed_form(5, 6) == 228


def test_closed_form_rejects_undefined_and_bad_input():
    with pytest.raises(UndefinedCountError):
        closed_form(2, 6)
    with pytest.raises(ValueError):
        closed_form(1, 2)
    with pytest.raises(ValueError):
        closed_form(3, 7)


def test_case6_closed_form_disagrees_with_enumeration():
    # The case-6 closed form does not reproduce the enumerated overlap: by
    # the order characterization the overlap is (n+1)!/4 (6, 30, 180 for
    # n = 3, 4, 5), while the closed form gives 10, 42, 228.  The lemma
    # battery reports this mismatch rather than hiding it; the distinctness
    # facts below hold for both the predicted and the enumerated values.
    enumerated = {3: 6, 4: 30}
    for n, ap in ((3, AP3), (4, AP4)):
        sample = intersection_count(ap, (0, 1), (2, 3))
        assert sample == enumerated[n] == factorial(n + 1) // 4
        assert closed_form(n, 6) != sample


def test_count_distinctness_and_difference_identity():
    for n in range(2, 9):
        n1, n2, n4 = closed_form(n, 1), closed_form(n, 2), closed_form(n, 4)
        bad = {n1, n4}
        if n >= 3:
            bad.add(closed_form(n, 6))
        assert n2 not in bad
    for n in range(5, 9):
        lhs = closed_form(n, 2) - closed_form(n, 6)
        assert lhs * 12 == factorial(n - 1) * (n * n + n - 24)


def test_counts_do_not_depend_on_base_or_field():
    space = ProjSpace.of(3, 2)
    alt = Base.of(
        space,
        [(0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 1)],
    )
    ap_alt = apartment_of(alt)
    ap_33 = apartment_of(standard_base(ProjSpace.of(3, 3)))
    for p1, p2 in (((0, 1), (0, 2)), ((0, 1), (2, 1)), ((0, 1), (2, 3))):
        expected = intersection_count(AP3, p1, p2)
        assert intersection_count(ap_alt, p1, p2) == expected
        assert intersection_count(ap_33, p1, p2) == expected


# ------------------------------------------------------------------- stars


def test_star_intersections():
    for ap, n in ((AP2, 2), (AP3, 3)):
        for i in range(n + 1):
            first, second = star_intersections(ap, i)
            assert first == point_family(ap, i)
            assert second == copoint_family(ap, i)
            assert {complement_chamber(ap, c) for c in first} == second


# --------------------------------------------------------- adjacent families


def test_classify_adjacent_family_shapes():
    assert classify_adjacent_family({(0, 1), (0, 2), (0, 3)}) == (0, "row")
    assert classify_adjacent_family({(1, 0), (2, 0), (3, 0)}) == (0, "column")
    assert classify_adjacent_family({(2, 0), (2, 1)}) == (2, "row")


def test_classify_adjacent_family_validation():
    with pytest.raises(ValueError):
        classify_adjacent_family({(0, 1)})
    with pytest.raises(ValueError):
        classify_adjacent_family({(0, 1), (1, 0), (2, 0)})  # not adjacent
    with pytest.raises(ValueError):
        classify_adjacent_family({(0, 5), (0, 2), (0, 3)})  # out of range


@pytest.mark.parametrize("n", [2, 3, 4])
def test_every_mutually_adjacent_family_is_row_or_column(n):
    all_pairs = pairs_of(n)
    hits = 0
    for family in itertools.combinations(all_pairs, n):
        if all(
            complement_adjacent(p1, p2)
            for p1, p2 in itertools.combinations(family, 2)
        ):
            i, orientation = classify_adjacent_family(family)
            hits += 1
            assert orientation in ("row", "column")
            assert 0 <= i <= n
    assert hits == 2 * (n + 1)  # one row and one column per index


# --------------------------------------------------------------- exactness


def test_full_apartment_and_empty_set():
    assert is_exact(AP2, AP2.chambers)
    assert is_exact_by_search(AP2, AP2.chambers)
    assert not is_exact(AP2, [])
    assert not is_exact_by_search(AP2, [])


def test_max_inexact_families_are_inexact_and_maximal():
    for i, j in pairs_of(2):
        fam = max_inexact_family(AP2, i, j)
        assert not is_exact(AP2, fam)
        for extra in AP2.chamber_set - fam:
            assert is_exact(AP2, fam | {extra})


def test_deciders_agree_on_all_subsets_n2():
    chambers = AP2.chambers
    for bits in range(2 ** len(chambers)):
        subset = [c for k, c in enumerate(chambers) if bits >> k & 1]
        assert is_exact(AP2, subset) == is_exact_by_search(AP2, subset)


def test_deciders_agree_on_random_subsets_n3():
    rng = random.Random(4)
    chambers = AP3.chambers
    for _ in range(300):
        size = rng.randrange(len(chambers) + 1)
        subset = rng.sample(chambers, size)
        assert is_exact(AP3, subset) == is_exact_by_search(AP3, subset)


def test_exactness_rejects_foreign_chambers():
    with pytest.raises(ValueError):
        is_exact(AP2, [AP3.chambers[0]])
