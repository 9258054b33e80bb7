"""Chamber enumeration, apartments, adjacency, common apartments.

Independent oracles used here: the flag-count product
prod_{k=2..n+1} (q^k - 1)/(q - 1), the ordered-frame count for bases,
and the fact that the chambers of an apartment hold 2^(n+1) - 2 distinct
subspaces (the spans of the proper nonempty subsets of the base).
"""

import random
from collections import Counter

import pytest

from bft.buildings import (
    APARTMENT_CACHE_SIZE,
    Chamber,
    all_bases,
    apartment_of,
    apartments_containing,
    chambers_of,
    check_chamber,
)
from bft.combinatorics import complement_chamber
from bft.projective import ProjSpace, standard_base
from lemma_oracle import positions, prefix_sets
from reference import (
    adjacent,
    chamber_of,
    chamber_of_perm,
    common_apartment,
    hyperplane,
    panels_of,
    parts,
)

PG22 = ProjSpace.of(2, 2)
PG32 = ProjSpace.of(3, 2)
PG23 = ProjSpace.of(2, 3)


def _chamber_count(n, q):
    return [
        ((q**k - 1) // (q - 1)) for k in range(2, n + 2)
    ]


def _base_count(n, q):
    frames = 1
    for i in range(n + 1):
        frames *= (q ** (n + 1) - q**i) // (q - 1)
    out, fact = frames, 1
    for k in range(2, n + 2):
        fact *= k
    return out // fact


# ------------------------------------------------------------ enumeration


@pytest.mark.parametrize(
    "space,count",
    [(PG22, 21), (PG32, 315), (PG23, 52)],
    ids=["PG22", "PG32", "PG23"],
)
def test_chamber_counts(space, count):
    chs = chambers_of(space)
    assert len(chs) == count
    prod = 1
    for f in _chamber_count(space.n, space.q):
        prod *= f
    assert count == prod
    assert len(set(chs)) == count


def test_chambers_are_valid_and_deterministic():
    chs = chambers_of(PG32)
    for c in chs[:25]:
        check_chamber(PG32, c)
    assert chambers_of(PG32) is chs  # cached
    assert [c.sort_key() for c in chs] == sorted(c.sort_key() for c in chs)


def test_check_chamber_rejects_bad_chains():
    c = chambers_of(PG22)[0]
    with pytest.raises(ValueError):
        check_chamber(PG32, c)
    broken = chamber_of(PG22, (parts(c)[1], parts(c)[1]))
    with pytest.raises(ValueError):
        check_chamber(PG22, broken)


# -------------------------------------------------------------- adjacency


def test_adjacency_examples():
    base = standard_base(PG22)
    ap = apartment_of(base)
    c_012 = chamber_of_perm(ap, (0, 1, 2))
    c_102 = chamber_of_perm(ap, (1, 0, 2))  # same line, other point
    c_021 = chamber_of_perm(ap, (0, 2, 1))  # same point, other line
    c_210 = chamber_of_perm(ap, (2, 1, 0))
    assert adjacent(c_012, c_102)
    assert adjacent(c_012, c_021)
    assert not adjacent(c_012, c_012)
    assert not adjacent(c_012, c_210)


def test_every_panel_lies_in_q_plus_1_chambers():
    for space in (PG22, PG32, PG23):
        counter = Counter()
        for c in chambers_of(space):
            for key in panels_of(c):
                counter[key] += 1
        assert set(counter.values()) == {space.q + 1}


def test_apartments_are_thin():
    for space, base in ((PG22, standard_base(PG22)), (PG32, standard_base(PG32))):
        counter = Counter()
        for c in apartment_of(base).chambers:
            for key in panels_of(c):
                counter[key] += 1
        assert set(counter.values()) == {2}


def test_adjacency_graph_is_connected():
    for space in (PG22, PG32):
        chs = chambers_of(space)
        by_panel = {}
        for c in chs:
            for key in panels_of(c):
                by_panel.setdefault(key, []).append(c)
        seen = {chs[0]}
        frontier = [chs[0]]
        while frontier:
            c = frontier.pop()
            for key in panels_of(c):
                for other in by_panel[key]:
                    if other not in seen:
                        seen.add(other)
                        frontier.append(other)
        assert len(seen) == len(chs)


# -------------------------------------------------------------- apartments


def test_apartment_sizes_and_trace():
    ap2 = apartment_of(standard_base(PG22))
    ap3 = apartment_of(standard_base(PG32))
    assert len(ap2) == 6 and len(ap2.chamber_set) == 6
    assert len(ap3) == 24 and len(ap3.chamber_set) == 24
    assert len({m for c in ap2.chambers for m in c.masks}) == 2**3 - 2
    assert len({m for c in ap3.chambers for m in c.masks}) == 2**4 - 2
    assert ap3.chains == tuple(c.masks for c in ap3.chambers)


def test_apartment_chambers_are_chambers_of_the_space():
    ap = apartment_of(standard_base(PG32))
    assert ap.chamber_set <= set(chambers_of(PG32))


def test_complement_chamber_rejects_a_chamber_outside_the_apartment():
    ap = apartment_of(standard_base(PG22))
    foreign = next(c for c in chambers_of(PG22) if c not in ap.chamber_set)
    point, line = ap.chains[0]
    outside = next(p for p in range(PG22.size) if not (line >> p & 1 or p in ap.base.ids))
    for chamber in (
        foreign,
        # the masks of an apartment chamber, over another space
        Chamber(PG23, ap.chains[0]),
        # a chain of this space whose components hold the base points of
        # ap.chains[0], so it reads off as that permutation, with another line
        Chamber(PG22, (point, line | 1 << outside)),
    ):
        with pytest.raises(ValueError, match="chamber does not belong to this apartment"):
            complement_chamber(ap, chamber)


def test_positions_and_prefix_sets():
    ap = apartment_of(standard_base(PG22))
    k = ap.perms.index((2, 0, 1))
    assert positions(ap)[k] == (1, 2, 0)
    assert prefix_sets(ap)[k] == (frozenset({2}), frozenset({0, 2}))


# ------------------------------------------------------------------- bases


def test_base_counts():
    assert len(all_bases(PG22)) == 28 == _base_count(2, 2)
    assert len(all_bases(PG23)) == 234 == _base_count(2, 3)
    assert len(all_bases(PG32)) == 840 == _base_count(3, 2)


def test_exhaustive_sweep_keeps_the_apartment_cache_bounded():
    from bft.chamber_maps import induce, preserves_apartments
    from bft.projective import Semilinear

    eye = tuple(tuple(int(r == c) for c in range(4)) for r in range(4))
    check = preserves_apartments(induce(Semilinear.of(PG32, PG32, eye)))
    assert check.ok and check.checked == 840 > APARTMENT_CACHE_SIZE
    assert apartment_of.cache_info().currsize <= APARTMENT_CACHE_SIZE
    assert apartment_of.cache_info().maxsize == APARTMENT_CACHE_SIZE


def test_apartments_containing():
    assert len(apartments_containing(PG22, [])) == 28
    ch = chambers_of(PG22)[0]
    # 28 apartments * 6 chambers / 21 chambers = 8 through each
    assert len(apartments_containing(PG22, [ch])) == 8
    ap = apartment_of(standard_base(PG22))
    assert apartments_containing(PG22, ap.chambers) == (standard_base(PG22),)
    with pytest.raises(ValueError):
        apartments_containing(PG22, [chambers_of(PG32)[0]])


# ------------------------------------------------------------ common apts


def test_common_apartment_of_identical_chambers():
    c = chambers_of(PG22)[5]
    base = common_apartment(c, c)
    assert c in apartment_of(base).chamber_set


def test_common_apartment_matches_exhaustive_search():
    chs = chambers_of(PG22)
    rng = random.Random(3)
    for _ in range(30):
        c1, c2 = rng.choice(chs), rng.choice(chs)
        base = common_apartment(c1, c2)
        assert base in set(apartments_containing(PG22, [c1, c2]))


def test_common_apartment_on_opposite_chambers():
    chs = chambers_of(PG22)
    c1 = chs[0]
    c2 = next(
        c for c in chs if c.point != c1.point and hyperplane(c) != hyperplane(c1)
    )
    base = common_apartment(c1, c2)
    apt = apartment_of(base)
    assert c1 in apt.chamber_set and c2 in apt.chamber_set


def test_common_apartment_random_pairs_pg32():
    chs = chambers_of(PG32)
    rng = random.Random(17)
    for _ in range(100):
        c1, c2 = rng.choice(chs), rng.choice(chs)
        base = common_apartment(c1, c2)
        apt = apartment_of(base)
        assert c1 in apt.chamber_set and c2 in apt.chamber_set


def test_common_apartment_is_deterministic():
    chs = chambers_of(PG32)
    assert common_apartment(chs[10], chs[200]) == common_apartment(chs[10], chs[200])
