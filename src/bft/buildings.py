"""Chambers and apartments of the flag complex of PG(n, q).

A chamber is a maximal flag: nested subspaces of projective dimension
0, 1, .., n-1 (a point, a line, .., a hyperplane).  Two chambers are
adjacent when they differ in exactly one position; the n-1 shared
subspaces form the common panel.  Every panel of PG(n, q) lies in
exactly q + 1 chambers, so the complex is thick.

A chamber is its chain: the tuple of subspace masks over its
:class:`~bft.projective.ProjSpace` that :func:`flags` yields, which is all a
chamber map or an apartment stores.  The chains are the leaves of the flag
tree of one cover table per space, :func:`covers`.  :class:`Chamber` is a view: it wraps
a chain with its space for ``point`` and ``sort_key``, read-only views in
coordinates and canonical RREF rows, and is built only for a report, a
lemma row or a witness.

An apartment is the set of (n+1)! chambers built from one base, a
:class:`~bft.projective.Base` held as its point ids: each ordering of the
base points yields the chain of its prefix spans.  That bijection with
permutations is the combinatorial skeleton used by
:mod:`bft.combinatorics`.  Apartments are thin: inside one apartment
every panel lies in exactly 2 chambers.

The bases are enumerated with no cap, :func:`iter_bases` lazily and
:func:`all_bases` as one tuple.  A caller that walks them all bounds its
own spaces: the sweep of ``chamber_maps.analyze`` by the apartment count,
the lemma battery's apartment search to PG(2, 2) and PG(2, 3).
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache, partial

from .projective import Base, ProjSpace, bits


class Chamber:
    """A maximal flag, held as its subspace masks by pdim."""

    __slots__ = ("space", "masks", "_hash")

    def __init__(self, space: ProjSpace, masks):
        self.space = space
        self.masks = tuple(masks)
        self._hash = hash(self.masks)

    def __eq__(self, other):
        return (
            isinstance(other, Chamber)
            and self.masks == other.masks
            and self.space is other.space
        )

    def __hash__(self):
        return self._hash

    @property
    def point(self) -> tuple[int, ...]:
        return self.space.point(self.masks[0].bit_length() - 1)

    def sort_key(self):
        return tuple(map(self.space.rows, self.masks))

    def __repr__(self):
        return "Chamber" + repr(self.sort_key())


def check_chamber(space: ProjSpace, chamber: Chamber):
    """Validate the chain shape: pdims 0..n-1, nested, right space."""
    masks = chamber.masks
    if len(masks) != space.n:
        raise ValueError(f"a chamber of {space!r} has {space.n} subspaces")
    if chamber.space is not space:
        raise ValueError("chamber subspace does not live in this space")
    prev = 0
    for k, mask in enumerate(masks):
        pdim = space.rank(mask) - 1
        if pdim != k:
            raise ValueError(f"expected pdim {k} at position {k}, got {pdim}")
        if mask & prev != prev:
            raise ValueError("chamber subspaces are not nested")
        prev = mask
    return chamber


class _Covers(dict):
    """A subspace mask -> the masks of the subspaces one dimension up that
    contain it, by their RREF rows, each tuple built on first lookup.

    Each subspace is built once.  The covers of a subspace are first the
    ones already found at the next level that contain it (looked up among
    those through its last point); only the points they leave out are
    joined to it, each giving a new cover.
    """

    def __init__(self, space: ProjSpace):
        self.space = space
        # through[k][p]: the subspaces of pdim k found so far that hold point p
        self.through = [[[] for _ in range(space.size)] for _ in range(space.n)]

    def __missing__(self, last: int) -> tuple[int, ...]:
        space = self.space
        level = self.through[space.rank(last)]
        found = [t for t in level[last.bit_length() - 1] if t & last == last]
        rest = space.full & ~last
        for cover in found:
            rest &= ~cover
        while rest:
            cover = space.join_point(last, (rest & -rest).bit_length() - 1)
            found.append(cover)
            for p in bits(cover):
                level[p].append(cover)
            rest &= ~cover
        found = self[last] = tuple(sorted(found, key=space.rows))
        return found


@lru_cache(maxsize=None)
def covers(space: ProjSpace) -> _Covers:
    """The cover table of a space, one per space.  The flag tree is read
    off it: its roots are the points, and the children of a node are the
    covers of its last subspace."""
    return _Covers(space)


def flags(space: ProjSpace):
    """Every chamber as its chain of masks, in a fixed depth-first
    lexicographic order: points by coordinates, then the subspaces
    covering each by their RREF rows.  That is the order of
    :meth:`Chamber.sort_key`, and the leaf order of the flag tree of
    :func:`covers`.  Nothing is walked until the first chain is asked for.
    """
    table, ones = covers(space), {}

    def extend(chain):
        """The chain followed by each cover of its last subspace, in order."""
        last = chain[-1]
        added = ones.get(last)
        if added is None:
            added = ones[last] = tuple(zip(table[last]))  # 1-tuples
        return map(chain.__add__, added)

    # Lazy iterators, one per level: a chain passes through no Python frame.
    chains = iter([(1 << p,) for p in range(space.size)])
    for _ in range(space.n - 1):
        chains = itertools.chain.from_iterable(map(extend, chains))
    return chains


@lru_cache(maxsize=None)
def chambers_of(space: ProjSpace) -> tuple[Chamber, ...]:
    """Every chamber, in the order of :func:`flags`."""
    # a list grows in place, a tuple read from an iterator is resized
    return tuple(list(map(partial(Chamber, space), flags(space))))


@lru_cache(maxsize=None)
def _perm_prefixes(m: int):
    """All orderings of 0..m-1 in lexicographic order, and for each the
    index sets of its m-1 proper prefixes as bitmasks (sums of distinct bits)."""
    perms = tuple(itertools.permutations(range(m)))
    return perms, tuple(tuple(itertools.accumulate(1 << i for i in perm[:-1])) for perm in perms)


class Apartment:
    """All (n+1)! chambers over one base, with the permutation model.

    ``chains[k]`` is the chain of masks of the chamber in which the base
    points enter in the order ``perms[k]`` (lexicographic order): its
    prefix spans.  The spans of the 2^(n+1) - 2 proper subsets of the base
    are built once, and each chain is read off them.  ``chambers`` and
    ``chamber_set`` are the :class:`Chamber` view, built on first use.
    Equality and hashing follow the base, so apartments of equal bases are
    interchangeable.
    """

    def __init__(self, base: Base):
        self.base = base
        self.space = space = base.space
        ids = base.ids
        spans = [0] * (1 << len(ids))
        for subset in range(1, len(spans) - 1):
            top = subset.bit_length() - 1
            spans[subset] = space.join_point(spans[subset ^ 1 << top], ids[top])
        self.perms, prefixes = _perm_prefixes(len(ids))
        self.chains = tuple([tuple([spans[s] for s in subsets]) for subsets in prefixes])

    @cached_property
    def chambers(self) -> tuple[Chamber, ...]:
        return tuple(map(partial(Chamber, self.space), self.chains))

    @cached_property
    def chamber_set(self) -> frozenset:
        return frozenset(self.chambers)

    def __eq__(self, other):
        return isinstance(other, Apartment) and other.base == self.base

    def __hash__(self):
        return hash(self.base)

    def __len__(self):
        return len(self.chains)

    def __repr__(self):
        return f"Apartment({self.base.space!r}, {self.base.points})"


# A bound, so an exhaustive sweep over tens of thousands of bases holds a
# fixed number of apartments; a sweep uses each apartment right away.
APARTMENT_CACHE_SIZE = 256


@lru_cache(maxsize=APARTMENT_CACHE_SIZE)
def apartment_of(base: Base) -> Apartment:
    return Apartment(base)


def iter_bases(space: ProjSpace):
    """The bases of :func:`all_bases`, lazily, with no cap: a caller takes
    as many as it can afford.

    A depth-first walk over increasing point ids that never extends a
    dependent prefix, so it yields the independent (n+1)-subsets in the
    lexicographic order of ``itertools.combinations``.
    """
    last = space.ambient - 1

    def extend(ids, span):
        start = ids[-1] + 1 if ids else 0
        for p in range(start, space.size):
            if span >> p & 1:
                continue
            if len(ids) == last:
                yield space.base(ids + [p])
            else:
                yield from extend(ids + [p], space.join_point(span, p))

    yield from extend([], 0)


@lru_cache(maxsize=None)
def all_bases(space: ProjSpace) -> tuple[Base, ...]:
    """Every base (independent (n+1)-point set), in lexicographic order,
    held as one tuple: ``apartment_count(n, q)`` of them, with no cap."""
    return tuple(iter_bases(space))


@lru_cache(maxsize=None)
def _base_ids_by_chamber(space: ProjSpace) -> dict:
    """Each chamber -> the frozenset of indices into ``all_bases(space)``
    whose apartment contains it."""
    by_chamber: dict[Chamber, set[int]] = {c: set() for c in chambers_of(space)}
    for k, base in enumerate(all_bases(space)):
        for c in apartment_of(base).chambers:
            by_chamber[c].add(k)
    return {c: frozenset(s) for c, s in by_chamber.items()}


def apartments_containing(space: ProjSpace, chambers):
    """All bases whose apartment contains every given chamber."""
    bases = all_bases(space)
    chs = list(chambers)
    if not chs:
        return bases
    by_chamber = _base_ids_by_chamber(space)
    try:
        sets = [by_chamber[c] for c in chs]
    except KeyError:
        raise ValueError("not a chamber of this space") from None
    ids = frozenset.intersection(*sets)
    return tuple(bases[i] for i in sorted(ids))
