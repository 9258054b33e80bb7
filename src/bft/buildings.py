"""Chambers and apartments of the flag complex of PG(n, q).

A chamber is a maximal flag: nested subspaces of projective dimension
0, 1, .., n-1 (a point, a line, .., a hyperplane).  Two chambers are
adjacent when they differ in exactly one position; the n-1 shared
subspaces form the common panel.  Every panel of PG(n, q) lies in
exactly q + 1 chambers, so the complex is thick.

An apartment is the set of (n+1)! chambers built from one base: each
ordering of the base points yields the chamber of its prefix spans.
That bijection with permutations is the combinatorial skeleton used by
:mod:`bft.combinatorics`.  Apartments are thin: inside one apartment
every panel lies in exactly 2 chambers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .gf import Subspace
from .projective import (
    Base,
    ProjSpace,
    Residue,
    points_of,
    points_of_subspace,
)

# Default ceilings for exhaustive sweeps; pass force=True to go beyond.
BASE_ENUM_CAP = (4, 3)  # (max n, max q) for enumerating every base


class ScaleError(RuntimeError):
    """Exhaustive enumeration was requested beyond the default caps."""


@dataclass(frozen=True)
class Chamber:
    """A maximal flag, held as its tuple of subspaces by pdim."""

    parts: tuple[Subspace, ...]

    @property
    def point(self) -> tuple[int, ...]:
        return self.parts[0].rows[0]

    @property
    def hyperplane(self) -> Subspace:
        return self.parts[-1]

    def sort_key(self):
        return tuple(p.rows for p in self.parts)

    def __repr__(self):
        return "Chamber" + repr(tuple(p.rows for p in self.parts))


def check_chamber(space: ProjSpace, chamber: Chamber):
    """Validate the chain shape: pdims 0..n-1, nested, right field."""
    parts = chamber.parts
    if len(parts) != space.n:
        raise ValueError(f"a chamber of {space!r} has {space.n} subspaces")
    prev = None
    for k, s in enumerate(parts):
        if s.gf != space.gf or s.ambient != space.ambient:
            raise ValueError("chamber subspace does not live in this space")
        if s.pdim != k:
            raise ValueError(f"expected pdim {k} at position {k}, got {s.pdim}")
        if prev is not None and not s.contains(prev):
            raise ValueError("chamber subspaces are not nested")
        prev = s
    return chamber


@lru_cache(maxsize=None)
def chambers_of(space: ProjSpace) -> tuple[Chamber, ...]:
    """Every chamber, in a fixed depth-first lexicographic order."""
    pts = points_of(space)
    out: list[Chamber] = []

    def walk(chain):
        last = chain[-1]
        if last.pdim == space.n - 1:
            out.append(Chamber(tuple(chain)))
            return
        nxt = {}
        for p in pts:
            if not last.contains_vector(p):
                t = last.extended_by(p)
                nxt.setdefault(t.rows, t)
        for key in sorted(nxt):
            walk(chain + [nxt[key]])

    for p in pts:
        walk([space.point_space(p)])
    return tuple(out)


def adjacent(c1: Chamber, c2: Chamber) -> bool:
    """True when the chambers share a panel (differ in one position)."""
    if len(c1.parts) != len(c2.parts):
        raise ValueError("chambers of different rank")
    return sum(a != b for a, b in zip(c1.parts, c2.parts)) == 1


def panels_of(chamber: Chamber):
    """The n walls of a chamber, as hashable keys."""
    parts = chamber.parts
    return tuple(
        (k, parts[:k] + parts[k + 1 :]) for k in range(len(parts))
    )


def chamber_of_perm(base: Base, perm) -> Chamber:
    """The chamber whose pdim-k subspace spans the first k+1 points of
    the ordering ``perm`` (a permutation of 0..n)."""
    space = base.space
    if sorted(perm) != list(range(space.ambient)):
        raise ValueError(f"perm must reorder 0..{space.n + 1 - 1}")
    parts = []
    current = space.point_space(base.points[perm[0]])
    parts.append(current)
    for idx in perm[1:-1]:
        current = current.extended_by(base.points[idx])
        parts.append(current)
    return Chamber(tuple(parts))


class Apartment:
    """All (n+1)! chambers over one base, with the permutation model.

    ``perms[k]`` (lexicographic order) corresponds to ``chambers[k]``;
    the dictionaries go both ways.  Equality and hashing follow the
    base, so apartments of equal bases are interchangeable.
    """

    def __init__(self, base: Base):
        self.base = base
        self.space = base.space
        self.perms = tuple(itertools.permutations(range(self.space.ambient)))
        self.chambers = tuple(chamber_of_perm(base, p) for p in self.perms)
        self.chamber_by_perm = dict(zip(self.perms, self.chambers))
        self.perm_by_chamber = dict(zip(self.chambers, self.perms))
        self.chamber_set = frozenset(self.chambers)
        self._memo: dict = {}

    def __eq__(self, other):
        return isinstance(other, Apartment) and other.base == self.base

    def __hash__(self):
        return hash(self.base)

    def __len__(self):
        return len(self.chambers)

    def __repr__(self):
        return f"Apartment({self.base.space!r}, {self.base.points})"

    def chamber_of_perm(self, perm) -> Chamber:
        try:
            return self.chamber_by_perm[tuple(perm)]
        except KeyError:
            raise ValueError(f"perm must reorder 0..{self.space.n}") from None

    def perm_of_chamber(self, chamber: Chamber) -> tuple[int, ...]:
        try:
            return self.perm_by_chamber[chamber]
        except KeyError:
            raise ValueError("chamber does not belong to this apartment") from None

    def positions(self):
        """Aligned with ``perms``: tuple p with p[i] = position of base
        point i in the ordering (0 first, n last)."""
        if "pos" not in self._memo:
            out = []
            for perm in self.perms:
                pos = [0] * len(perm)
                for k, idx in enumerate(perm):
                    pos[idx] = k
                out.append(tuple(pos))
            self._memo["pos"] = tuple(out)
        return self._memo["pos"]

    def prefix_sets(self):
        """Aligned with ``perms``: the chamber's subspaces as index
        sets, i.e. the n proper prefixes of the ordering."""
        if "prefix" not in self._memo:
            n = self.space.n
            out = []
            for perm in self.perms:
                out.append(tuple(frozenset(perm[: k + 1]) for k in range(n)))
            self._memo["prefix"] = tuple(out)
        return self._memo["prefix"]

    def trace(self) -> frozenset[Subspace]:
        if "trace" not in self._memo:
            self._memo["trace"] = trace_of(self.chambers)
        return self._memo["trace"]


@lru_cache(maxsize=None)
def apartment_of(base: Base) -> Apartment:
    return Apartment(base)


def trace_of(chambers) -> frozenset[Subspace]:
    """The set of subspaces occurring in any of the given chambers."""
    return frozenset(part for c in chambers for part in c.parts)


def _check_base_cap(space: ProjSpace, force: bool):
    max_n, max_q = BASE_ENUM_CAP
    if not force and (space.n > max_n or space.q > max_q):
        raise ScaleError(
            f"enumerating all bases of {space!r} exceeds the default cap "
            f"n <= {max_n}, q <= {max_q}; pass force=True to override"
        )


def iter_bases(space: ProjSpace, force: bool = False):
    """The bases of :func:`all_bases`, lazily; beyond the cap the first
    step raises :class:`ScaleError`."""
    _check_base_cap(space, force)
    gf, m = space.gf, space.ambient
    for combo in itertools.combinations(points_of(space), m):
        if Subspace.span(gf, m, combo).rank == m:
            yield Base(space, combo)


@lru_cache(maxsize=None)
def all_bases(space: ProjSpace, force: bool = False) -> tuple[Base, ...]:
    """Every base (independent (n+1)-point set), in lexicographic order."""
    return tuple(iter_bases(space, force))


class BuildingIndex:
    """Chamber/apartment incidence for one space, built once.

    ``base_ids_by_chamber[c]`` is the frozenset of indices into
    ``bases`` whose apartment contains c; intersecting those sets
    answers containment queries quickly.
    """

    def __init__(self, space: ProjSpace, force: bool = False):
        self.space = space
        self.bases = all_bases(space, force)
        self.apartment_sets = tuple(
            apartment_of(b).chamber_set for b in self.bases
        )
        by_chamber: dict[Chamber, set[int]] = {c: set() for c in chambers_of(space)}
        for k, chs in enumerate(self.apartment_sets):
            for c in chs:
                by_chamber[c].add(k)
        self.base_ids_by_chamber = {c: frozenset(s) for c, s in by_chamber.items()}
        self.id_by_base = {b: k for k, b in enumerate(self.bases)}


@lru_cache(maxsize=None)
def building_index(space: ProjSpace, force: bool = False) -> BuildingIndex:
    return BuildingIndex(space, force)


def apartments_containing(space: ProjSpace, chambers, force: bool = False):
    """All bases whose apartment contains every given chamber."""
    idx = building_index(space, force)
    chs = list(chambers)
    if not chs:
        return idx.bases
    try:
        sets = [idx.base_ids_by_chamber[c] for c in chs]
    except KeyError:
        raise ValueError("not a chamber of this space") from None
    ids = frozenset.intersection(*sets)
    return tuple(idx.bases[i] for i in sorted(ids))


def common_apartment(c1: Chamber, c2: Chamber) -> Base:
    """A base whose apartment contains both chambers.

    Constructive: complete both flags with the zero and full spaces,
    take the rank matrix d[i][j] of pairwise meets, and pick one new
    point for each unit jump cell, lexicographically smallest outside
    the two neighbouring meets.  The n+1 picked points are independent
    and adapted to both chains.  Deterministic; the postcondition is
    verified before returning.
    """
    gf = c1.parts[0].gf
    ambient = c1.parts[0].ambient
    space = ProjSpace(ambient - 1, gf)
    check_chamber(space, c1)
    check_chamber(space, c2)
    chain_u = [Subspace.zero(gf, ambient), *c1.parts, Subspace.full(gf, ambient)]
    chain_w = [Subspace.zero(gf, ambient), *c2.parts, Subspace.full(gf, ambient)]
    m = ambient
    meets = [[chain_u[i].meet(chain_w[j]) for j in range(m + 1)] for i in range(m + 1)]
    picks = []
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            jump = (
                meets[i][j].rank
                - meets[i - 1][j].rank
                - meets[i][j - 1].rank
                + meets[i - 1][j - 1].rank
            )
            if jump == 1:
                boundary = meets[i - 1][j].join(meets[i][j - 1])
                pt = next(
                    p
                    for p in points_of_subspace(space, meets[i][j])
                    if not boundary.contains_vector(p)
                )
                picks.append(pt)
    base = Base.of(space, picks)
    apt = apartment_of(base)
    if c1 not in apt.chamber_set or c2 not in apt.chamber_set:
        raise AssertionError("common apartment construction failed its postcondition")
    return base


def residue_chamber(res: Residue, chamber: Chamber) -> Chamber:
    """Project a chamber through the residue point to a chamber of the
    quotient space (the first subspace is dropped)."""
    if chamber.point != res.point:
        raise ValueError("chamber does not pass through the residue point")
    return Chamber(tuple(res.project(p) for p in chamber.parts[1:]))
