import random

from bft.buildings import flags
from bft.chamber_maps import ChamberMap
from bft.gf import Subspace
from bft.projective import Base, ProjSpace, bits
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


def sweep_only_map(space: ProjSpace) -> ChamberMap:
    """A map of PG(2, q) to itself whose first chamber not induced has only
    preserved apartments.  Let c = (p, L) be the first chain of ``flags``,
    W the next line through p and x a point of W other than p.  Then
    (p, L) goes to (p, W) and (p, N) to (p, L) for N != L; for b on L
    other than p, (b, L) is fixed and (b, N) goes to (b, bx); and for y
    off L, (y, N) goes to (x, x(N meet L)).

    Every star is direct, with g fixing L pointwise and sending every
    point off L to x, so the first chamber whose image is not induced by g
    is c, yet every apartment through c is preserved.  ``reconstruct``
    names the first two points off L instead, both sent to x, and their
    apartments break; with the witness walk stubbed out, the map still
    feeds the sweep."""
    chains = list(flags(space))
    (p, L), (_, W) = chains[0], chains[1]
    x = next(k for k in bits(W) if 1 << k != p)

    def image(chain):
        point, line = chain
        if point == p:
            return p, W if line == L else L
        if point & L:
            return point, L if line == L else space.span([point.bit_length() - 1, x])
        return 1 << x, space.span([x, (line & L).bit_length() - 1])

    return ChamberMap._trusted(space, space, {c: image(c) for c in chains})
