import random

from bft.gf import Subspace
from bft.projective import Base
from reference import extended_by

# The north star's ladder of spaces, as (n, q).
LADDER = [(2, 2), (3, 2), (2, 9), (3, 3), (4, 2)]
LADDER_IDS = [f"PG{n}{q}" for n, q in LADDER]


def random_invertible(gf, dim, rng: random.Random):
    """A uniformly sampled invertible dim x dim matrix over gf."""
    while True:
        rows = tuple(
            tuple(rng.randrange(gf.q) for _ in range(dim)) for _ in range(dim)
        )
        if Subspace.span(gf, dim, rows).rank == dim:
            return rows


def oracle_chamber_of_perm(base: Base, perm):
    """The parts of the chamber of an ordering of ``base``: the spans of
    its proper prefixes, grown one point at a time on RREF rows."""
    current = base.space.subspace([base.points[perm[0]]])
    parts = [current]
    for idx in perm[1:-1]:
        current = extended_by(current, base.points[idx])
        parts.append(current)
    return tuple(parts)
