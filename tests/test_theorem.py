"""The paper's theorem by brute force on PG(2,2).

A chamber map that sends apartments to apartments is induced by a strong
embedding into P' or into its dual, and is a collineation when onto.  Here
every apartment-preserving map PG(2,2) -> PG(2,2) is listed by a
backtracking search, and ``analyze`` must certify each one.

The search shares no code with ``bft``'s apartment check: its bases are the
point triples of RREF rank 3, and its apartments are grown from RREF rows
(``oracle_chamber_of_perm``), not taken from ``apartment_of``.
"""

import itertools
from collections import Counter

from bft import ChamberMap, ProjSpace, analyze, points_of
from bft.buildings import Chamber
from bft.projective import Base
from conftest import oracle_chamber_of_perm
from reference import chamber_of

PG22 = ProjSpace.of(2, 2)


def oracle_apartments(space):
    """The chamber sets of every apartment, from RREF rows alone."""
    perms = list(itertools.permutations(range(space.n + 1)))
    return [
        frozenset(chamber_of(space, oracle_chamber_of_perm(base, perm)) for perm in perms)
        for base in (
            Base.of(space, points)
            for points in itertools.combinations(points_of(space), space.n + 1)
            if space.subspace(list(points)).rank == space.n + 1
        )
    ]


def apartment_preserving_maps(space):
    """Every chamber map of ``space`` to itself that sends each apartment
    onto an apartment.

    Source chambers are placed in ``Chamber.sort_key`` order.  Each source
    apartment keeps the bitset of target apartments that hold all the
    images placed in it so far; a chamber's candidates are the unused
    chambers lying in one of those for every apartment through it.
    Injectivity is a valid prune, as any two chambers share an apartment.
    A full placement puts the (n+1)! distinct images of each apartment
    inside one apartment of as many chambers, so it sends it onto that one.
    """
    apartments = oracle_apartments(space)
    chambers = sorted(set().union(*apartments), key=Chamber.sort_key)
    index = {c: i for i, c in enumerate(chambers)}
    members = [sum(1 << index[c] for c in ap) for ap in apartments]
    through = [
        [a for a, m in enumerate(members) if m >> i & 1] for i in range(len(chambers))
    ]
    through_bits = [sum(1 << a for a in aps) for aps in through]

    union = {}

    def allowed(apartment_bits):
        """The chambers of the target apartments in a bitset of them."""
        chamber_bits = union.get(apartment_bits)
        if chamber_bits is None:
            chamber_bits = 0
            for a in range(len(members)):
                if apartment_bits >> a & 1:
                    chamber_bits |= members[a]
            union[apartment_bits] = chamber_bits
        return chamber_bits

    everything = (1 << len(apartments)) - 1
    candidates = [everything] * len(apartments)
    image = [None] * len(chambers)

    def place(c, used):
        if c == len(chambers):
            yield {chambers[i]: chambers[t] for i, t in enumerate(image)}
            return
        free = ~used
        for a in through[c]:
            free &= allowed(candidates[a])
        while free:
            t = (free & -free).bit_length() - 1
            free &= free - 1
            saved = [candidates[a] for a in through[c]]
            for a in through[c]:
                candidates[a] &= through_bits[t]
            image[c] = t
            yield from place(c + 1, used | 1 << t)
            for a, bits in zip(through[c], saved):
                candidates[a] = bits

    yield from place(0, 0)


def test_every_apartment_preserving_map_of_pg22_is_certified_as_induced():
    """2·|PGL(3,2)| = 336 maps: 168 collineations and 168 correlations,
    each certified by ``analyze`` with no apartment swept."""
    labels = Counter()
    for table in apartment_preserving_maps(PG22):
        result = analyze(ChamberMap(PG22, PG22, table))
        assert result.check.ok and result.check.path == "certified"
        labels[result.label] += 1
    assert labels == {"collineation-direct": 168, "collineation-dual": 168}
