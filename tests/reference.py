"""Reference code the tests hold ``bft`` to, which no request runs.

``bft`` computes on point-id masks, each over the one
:class:`bft.projective.ProjSpace` object of its space; these
compute the same things the slow, textbook way, or are the building's and the
paper's definitions that the tests check the core against:

* the RREF lattice of :class:`~bft.gf.Subspace`: containment, prefix spans,
  join, meet and projective dimension, and the Frobenius automorphism that
  twists a semilinear map;
* the point map a semilinear map induces;
* a chamber as RREF subspaces (``chamber_of``, ``parts``, ``hyperplane``);
* the building's checks: adjacency, panels, and a common apartment of two
  chambers, built with no enumeration;
* a chamber of an apartment by its permutation and back
  (``chamber_of_perm``, ``perm_of_chamber``), the paper's d-transform
  inside one apartment, and whether a chamber map is onto.
"""

from __future__ import annotations

from functools import reduce

from bft.buildings import Chamber, apartment_of, check_chamber
from bft.chamber_maps import ChamberMap
from bft.combinatorics import _check_pair
from bft.counts import chamber_count
from bft.gf import GF, FieldError, Subspace
from bft.projective import Base, ProjSpace, Semilinear, bits, normalize_point

# ------------------------------------------------------------ field algebra


def frobenius(gf: GF) -> tuple[int, ...]:
    """The code map of x -> x^char (identity on prime fields)."""
    out = []
    for a in range(gf.q):
        acc = 1
        for _ in range(gf.char):
            acc = gf.mul[acc][a]
        out.append(acc)
    return tuple(out)


def pdim(sub: Subspace) -> int:
    """The projective dimension, rank - 1; the zero space has -1."""
    return sub.rank - 1


def _check_mates(a: Subspace, b: Subspace):
    if a.gf != b.gf or a.ambient != b.ambient:
        raise FieldError("subspaces live over different fields or ambients")


def contains(a: Subspace, b: Subspace) -> bool:
    _check_mates(a, b)
    return all(a.contains_vector(r) for r in b.rows)


def extended_by(sub: Subspace, v) -> Subspace:
    return Subspace.span(sub.gf, sub.ambient, sub.rows + (tuple(v),))


def join(a: Subspace, b: Subspace) -> Subspace:
    _check_mates(a, b)
    return Subspace.span(a.gf, a.ambient, a.rows + b.rows)


def meet(a: Subspace, b: Subspace) -> Subspace:
    _check_mates(a, b)
    return join(a.annihilator(), b.annihilator()).annihilator()


def apply_point(semi: Semilinear, point) -> tuple[int, ...]:
    """The point ``semi`` sends ``point`` to."""
    return normalize_point(semi.target, semi.apply_vector(point))


# ----------------------------------------------------------------- chambers


def chamber_of(space: ProjSpace, subspaces) -> Chamber:
    """The chamber of a sequence of :class:`Subspace` values."""
    return Chamber(space, [space.mask_of(sub) for sub in subspaces])


def parts(chamber: Chamber) -> tuple[Subspace, ...]:
    """A chamber as its RREF subspaces, by pdim."""
    return tuple(map(chamber.space.subspace_of, chamber.masks))


def hyperplane(chamber: Chamber) -> Subspace:
    return chamber.space.subspace_of(chamber.masks[-1])


def adjacent(c1: Chamber, c2: Chamber) -> bool:
    """True when the chambers share a panel (differ in one position)."""
    if len(c1.masks) != len(c2.masks):
        raise ValueError("chambers of different rank")
    return sum(a != b for a, b in zip(c1.masks, c2.masks)) == 1


def panels_of(chamber: Chamber):
    """The n walls of a chamber, as hashable keys."""
    masks = chamber.masks
    return tuple((k, masks[:k] + masks[k + 1 :]) for k in range(len(masks)))


def common_apartment(c1: Chamber, c2: Chamber) -> Base:
    """A base whose apartment contains both chambers.

    Constructive: complete both flags with the zero and full spaces,
    take the rank matrix d[i][j] of pairwise meets, and pick one new
    point for each unit jump cell, lexicographically smallest outside
    the two neighbouring meets.  The n+1 picked points are independent
    and adapted to both chains.  Deterministic; the postcondition is
    verified before returning.
    """
    space = c1.space
    check_chamber(space, c1)
    check_chamber(space, c2)
    chain_u = [0, *c1.masks, space.full]
    chain_w = [0, *c2.masks, space.full]
    meets = [[u & w for w in chain_w] for u in chain_u]
    ranks = [[space.rank(m) for m in row] for row in meets]
    picks = []
    for i in range(1, space.ambient + 1):
        for j in range(1, space.ambient + 1):
            jump = ranks[i][j] - ranks[i - 1][j] - ranks[i][j - 1] + ranks[i - 1][j - 1]
            if jump == 1:
                boundary = reduce(space.join_point, bits(meets[i][j - 1]), meets[i - 1][j])
                picks.append(next(bits(meets[i][j] & ~boundary)))
    base = Base.of(space, [space.point(p) for p in picks])
    apt = apartment_of(base)
    if c1 not in apt.chamber_set or c2 not in apt.chamber_set:
        raise AssertionError("common apartment construction failed its postcondition")
    return base


# ------------------------------------------------------- apartments and maps


def chamber_of_perm(ap, perm) -> Chamber:
    """The chamber of ``ap`` whose base points enter in the order ``perm``."""
    return ap.chambers[ap.perms.index(tuple(perm))]


def perm_of_chamber(ap, chamber: Chamber) -> tuple[int, ...]:
    """The order in which the base points of ``ap`` enter ``chamber``."""
    return ap.perms[ap.chambers.index(chamber)]


def d_transform(ap, i: int, j: int, chamber: Chamber) -> Chamber:
    """Swap the roles of base points i and j in the chamber's permutation.

    A fixed-point-free involution of the apartment; it exchanges
    ``point_copoint_family(k, m) & residual_family(i, j)`` with its
    complement inside ``point_copoint_family(k, m)`` for k, m outside
    {i, j}.
    """
    _check_pair(ap.space.n, i, j)
    swap = {i: j, j: i}
    return chamber_of_perm(ap, [swap.get(v, v) for v in perm_of_chamber(ap, chamber)])


def is_surjective(f: ChamberMap) -> bool:
    """Onto: as many distinct images as the target has chambers."""
    return len(set(f.chains.values())) == chamber_count(f.target.n, f.target.q)
