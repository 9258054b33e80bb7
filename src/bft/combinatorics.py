"""Chamber families inside a single apartment, and their intersection counts.

Fix an apartment on a base p_0, ..., p_n.  Each of its chambers corresponds
to a permutation ``perm`` of ``0..n`` (the order in which base points enter
the flag), so every family below is really a set of permutations.  Each
``*_bits(n, ...)`` is one, as an int whose bit k is ``Apartment.perms[k]``,
cut with & and | from the position table ``_at`` built once per n; each
``*_family(ap, ...)`` reads those bits off as chambers of ``ap``.  Indices
are 0-based positions into the base, so valid indices are ``range(n + 1)``.

Families, for distinct indices i, j:

* ``point_family(ap, i)`` -- chambers whose 0-component is the point p_i.
* ``copoint_family(ap, i)`` -- chambers whose hyperplane omits p_i.
* ``point_copoint_family(ap, i, j)`` -- both at once (empty when i == j).
* ``max_inexact_family(ap, i, j)`` -- chambers all of whose components S
  satisfy "span(p_i, p_j) <= S or p_i not in S"; the maximal subsets of the
  apartment contained in more than one apartment are exactly these.
* ``complement_family(ap, i, j)`` -- the rest of the apartment.
* ``residual_family(ap, i, j)`` -- chambers placing i strictly inside the
  permutation, before j, with j not last.

``intersection_count`` measures overlaps of two complement families by
enumeration; ``closed_form`` returns the predicted cardinality for each of
the six relative dispositions of the two index pairs.  The two are compared
by tests and by the lemma battery (:mod:`bft.lemmas`); disagreements are
reported, not patched over.

An *exact* subset of an apartment is one contained in no other apartment.
``is_exact_by_search`` decides this literally by searching all apartments;
``is_exact`` decides it from the subset's trace: for each i, the
intersection of the trace members through p_i must be the point p_i alone.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, reduce
from math import factorial

from .buildings import (
    APARTMENT_CACHE_SIZE,
    Apartment,
    Chamber,
    apartments_containing,
)

__all__ = [
    "UndefinedCountError",
    "FamilyConsistencyError",
    "point_family",
    "copoint_family",
    "point_copoint_family",
    "residual_family",
    "max_inexact_family",
    "complement_family",
    "complement_chamber",
    "disposition",
    "intersection_count",
    "closed_form",
    "complement_adjacent",
    "star_intersections",
    "classify_adjacent_family",
    "is_exact",
    "is_exact_by_search",
]


class UndefinedCountError(ValueError):
    """The requested closed-form count is undefined at this rank."""


class FamilyConsistencyError(RuntimeError):
    """A mutually adjacent family fits neither the row nor the column shape."""


def _check_index(n: int, *indices):
    for i in indices:
        if not 0 <= i <= n:
            raise ValueError(f"index {i} out of range 0..{n}")


def _check_pair(n: int, i: int, j: int):
    _check_index(n, i, j)
    if i == j:
        raise ValueError(f"indices must be distinct, got ({i}, {j})")


@lru_cache(maxsize=None)
def _at(n: int) -> tuple[tuple[int, ...], ...]:
    """``_at(n)[c][i]``: the permutations with i at position c, the one table
    every family is cut from with & and |.  The (n+1)! permutations of 0..n
    are read in ``itertools.permutations`` order as one byte string, and
    ``bytes.translate`` spells the bytes of position c as the digits of
    "holds i", one per permutation: read backwards, a base-2 int whose
    bit k is permutation k."""
    m = n + 1
    flat = bytes(itertools.chain.from_iterable(itertools.permutations(range(m))))
    digits = [bytes(b"01"[x == i] for x in range(256)) for i in range(m)]
    return tuple(tuple(int(flat[c::m].translate(d)[::-1], 2) for d in digits) for c in range(m))


def _prefixes(positions) -> tuple[tuple[int, ...], ...]:
    """The prefix sets of ``positions`` (rows of ``_at``, in the order the
    permutation is read): entry L - 1, i is the bitset of "i is among the
    first L positions read"."""
    return tuple(
        itertools.accumulate(positions, lambda members, at: tuple(map(int.__or__, members, at)))
    )


@lru_cache(maxsize=None)
def _prefix_sets(n: int) -> tuple[tuple[int, ...], ...]:
    """The proper prefix sets: ``_prefix_sets(n)[L - 1][i]`` is the bitset
    of "i is among the first L elements", for L = 1..n."""
    return _prefixes(_at(n)[:-1])


def point_bits(n: int, i: int) -> int:
    """Chambers whose 0-component is the i-th base point.  Size n!."""
    _check_index(n, i)
    return _at(n)[0][i]


def copoint_bits(n: int, i: int) -> int:
    """Chambers whose hyperplane, span(base - {p_i}), omits p_i.  Size n!."""
    _check_index(n, i)
    return _at(n)[n][i]


def point_copoint_bits(n: int, i: int, j: int) -> int:
    """Chambers through p_i whose hyperplane omits p_j.

    Size (n-1)! when i != j; empty when i == j (a point cannot lie outside
    every hyperplane of its own chamber).
    """
    _check_index(n, i, j)
    at = _at(n)
    return at[0][i] & at[n][j]


@lru_cache(maxsize=None)
def residual_bits(n: int, i: int, j: int) -> int:
    """Chambers placing i and j strictly inside the permutation, i first.

    In positions: 0 < pos(i) < pos(j) < n.  Empty when n == 2 (there is no
    room for two interior indices).
    """
    _check_pair(n, i, j)
    at = _at(n)
    pairs = itertools.combinations(range(1, n), 2)
    return reduce(int.__or__, (at[c][i] & at[d][j] for c, d in pairs), 0)


def max_inexact_bits(n: int, i: int, j: int) -> int:
    """Chambers all of whose components contain both of p_i, p_j or miss p_i.

    Checked literally on the component prefix sets: every proper prefix P of
    the permutation must satisfy ``{i, j} <= P or i not in P``, that is, j
    lies in every proper prefix that contains i.
    """
    _check_pair(n, i, j)
    return _max_inexact(n, _prefix_sets(n), i, j)


def _max_inexact(n: int, prefixes, i: int, j: int) -> int:
    """The bitset of "j is in every prefix of ``prefixes`` holding i"."""
    family = full = (1 << factorial(n + 1)) - 1
    for members in prefixes:
        family &= members[j] | full ^ members[i]
    return family


@lru_cache(maxsize=None)
def complement_bits(n: int, i: int, j: int) -> int:
    """The apartment minus ``max_inexact_bits(n, i, j)``."""
    return (1 << factorial(n + 1)) - 1 ^ max_inexact_bits(n, i, j)


def _chambers(ap: Apartment, bits: int) -> frozenset[Chamber]:
    """A bitset read off as chambers of ``ap``: bit k is ``ap.chambers[k]``."""
    flags = bin(bits)[:1:-1]  # flags[k] is bit k
    return frozenset(ap.chambers[k] for k, b in enumerate(flags) if b == "1")


def _chamber_view(bits_of):
    """The chamber family of ``bits_of`` in one apartment.  Only these views
    are cached per apartment, for at most APARTMENT_CACHE_SIZE keys."""

    @lru_cache(maxsize=APARTMENT_CACHE_SIZE)
    def family(ap: Apartment, *indices: int) -> frozenset[Chamber]:
        return _chambers(ap, bits_of(ap.space.n, *indices))

    family.__name__ = family.__qualname__ = bits_of.__name__[:-4] + "family"
    family.__doc__ = bits_of.__doc__
    return family


point_family = _chamber_view(point_bits)
copoint_family = _chamber_view(copoint_bits)
point_copoint_family = _chamber_view(point_copoint_bits)
residual_family = _chamber_view(residual_bits)
max_inexact_family = _chamber_view(max_inexact_bits)
complement_family = _chamber_view(complement_bits)


def complement_chamber(ap: Apartment, chamber: Chamber) -> Chamber:
    """The opposite chamber: component k becomes span(base - prefix_{n-k}).

    On permutations this is reversal, so it is an involution that swaps
    ``point_family(i)`` with ``copoint_family(i)`` and sends
    ``residual_family(i, j)`` onto ``residual_family(j, i)``.

    The permutation is read off the chain: base point p_i first enters the
    component of pdim n minus the number of components through it.  A
    permutation and its reversal index ``ap.chambers`` at their
    lexicographic ranks (Lehmer codes), so nothing is scanned or spanned.
    """
    m = ap.space.n + 1
    entry = [m - 1 - sum(mask >> p & 1 for mask in chamber.masks) for p in ap.base.ids]
    perm = sorted(range(m), key=entry.__getitem__)
    rank, opposite = 0, 0
    for k in range(m):
        rank = rank * (m - k) + sum(x < perm[k] for x in perm[k + 1 :])
        opposite = opposite * (m - k) + sum(x < perm[-1 - k] for x in perm[: -1 - k])
    if ap.chambers[rank] != chamber:
        raise ValueError("chamber does not belong to this apartment")
    return ap.chambers[opposite]


def _check_index_pair(pair) -> tuple[int, int]:
    i, j = pair
    if i == j:
        raise ValueError(f"index pair must have distinct entries, got {pair}")
    return i, j


def disposition(pair1, pair2) -> int:
    """Classify the relative position of two distinct index pairs, 1..6.

    With (i, j) and (k, m) both ordered pairs of distinct indices:

    1. (k, m) == (j, i)                     (the reversed pair)
    2. three indices, i == k                (same first entry)
    3. three indices, j == m                (same second entry)
    4. three indices, i == m                (first meets the other second)
    5. three indices, j == k                (second meets the other first)
    6. four distinct indices.
    """
    i, j = _check_index_pair(pair1)
    k, m = _check_index_pair(pair2)
    if (i, j) == (k, m):
        raise ValueError(f"index pairs must be distinct, got {pair1} twice")
    if (k, m) == (j, i):
        return 1
    size = len({i, j, k, m})
    if size == 4:
        return 6
    if i == k:
        return 2
    if j == m:
        return 3
    if i == m:
        return 4
    assert j == k
    return 5


def intersection_count(ap: Apartment, pair1, pair2) -> int:
    """|complement_family(pair1) & complement_family(pair2)| by enumeration."""
    disposition(pair1, pair2)  # validates the pairs
    n = ap.space.n
    return (complement_bits(n, *pair1) & complement_bits(n, *pair2)).bit_count()


def closed_form(n: int, case: int) -> int:
    """Predicted complement-family overlap for each disposition case.

    The case-6 value is undefined at n == 2, where no four distinct indices
    exist; asking for it raises :class:`UndefinedCountError`.
    """
    if n < 2:
        raise ValueError(f"rank must be at least 2, got n={n}")
    if case not in range(1, 7):
        raise ValueError(f"disposition case must be 1..6, got {case}")
    f1 = factorial(n - 1)
    if case == 1:
        return 0
    if case in (2, 3):
        value = factorial(n) + (n - 2) * f1
        if n >= 4:
            value += (n - 2) * (n - 3) * f1 // 3
        return value
    if case in (4, 5):
        value = f1 + (n - 2) * f1
        if n >= 4:
            value += (n - 2) * (n - 3) * f1 // 6
        return value
    if n == 2:
        raise UndefinedCountError("the case-6 count is not defined at n=2")
    value = factorial(n) + (n - 1) * f1
    if n >= 5:
        value += (n - 3) * (n - 4) * f1 // 4
    return value


def complement_adjacent(pair1, pair2) -> bool:
    """Whether two complement families overlap maximally: same first or same
    second index (disposition case 2 or 3)."""
    return disposition(pair1, pair2) in (2, 3)


def star_bits(n: int, i: int) -> tuple[int, int]:
    """The meets of ``complement_bits(n, i, j)`` and of
    ``complement_bits(n, j, i)`` over j != i."""
    others = [j for j in range(n + 1) if j != i]
    first = reduce(int.__and__, (complement_bits(n, i, j) for j in others))
    return first, reduce(int.__and__, (complement_bits(n, j, i) for j in others))


def star_intersections(ap: Apartment, i: int):
    """Intersections of all complement families anchored at i.

    Returns the pair ``(meet of complement_family(i, j) over j != i,
    meet of complement_family(j, i) over j != i)``; these are expected to be
    ``point_family(i)`` and ``copoint_family(i)`` and are computed purely by
    enumeration (as the meets of :func:`star_bits`) so tests can compare.
    """
    first, second = star_bits(ap.space.n, i)
    return _chambers(ap, first), _chambers(ap, second)


def classify_adjacent_family(pairs):
    """Identify a mutually adjacent family of n index pairs as a row or column.

    ``pairs`` must be n distinct, pairwise ``complement_adjacent`` index
    pairs over the index set 0..n.  The only two shapes such a family can
    take are a full row {(i, j) : j != i} or a full column {(j, i) : j != i};
    returns ``(i, "row")`` or ``(i, "column")`` accordingly and raises
    :class:`FamilyConsistencyError` for any other shape.
    """
    family = sorted(set(pairs))
    n = len(family)
    if n < 2:
        raise ValueError("need at least two index pairs")
    for pair in family:
        i, j = _check_index_pair(pair)
        if not (0 <= i <= n and 0 <= j <= n):
            raise ValueError(f"pair {pair} out of range for index set 0..{n}")
    for p1, p2 in itertools.combinations(family, 2):
        if not complement_adjacent(p1, p2):
            raise ValueError(f"pairs {p1} and {p2} are not adjacent")
    firsts = {p[0] for p in family}
    seconds = {p[1] for p in family}
    if len(firsts) == 1:
        (i,) = firsts
        if seconds == set(range(n + 1)) - {i}:
            return i, "row"
    if len(seconds) == 1:
        (i,) = seconds
        if firsts == set(range(n + 1)) - {i}:
            return i, "column"
    raise FamilyConsistencyError(
        f"family {family} is neither a full row nor a full column"
    )


# --------------------------------------------------------------- exactness


@lru_cache(maxsize=APARTMENT_CACHE_SIZE)
def _point_masks(ap: Apartment) -> tuple[int, ...]:
    """The base points of ``ap`` as one-point subspace masks."""
    return tuple(1 << p for p in ap.base.ids)


def _check_subset(ap: Apartment, chambers) -> tuple[Chamber, ...]:
    subset = tuple(chambers)
    outside = [c for c in subset if c not in ap.chamber_set]
    if outside:
        raise ValueError(f"chamber {outside[0]} is not in the apartment")
    return subset


def is_exact(ap: Apartment, chambers) -> bool:
    """Trace criterion: no other apartment contains the subset.

    For each base point p_i, intersect every component subspace of the
    subset that contains p_i; the subset is exact exactly when each such
    intersection is the single point p_i.  (With no components through p_i
    the intersection is the whole space, so small subsets come out inexact,
    including the empty one.)
    """
    subset = _check_subset(ap, chambers)
    trace = {mask for c in subset for mask in c.masks}
    full = ap.space.full
    for point in _point_masks(ap):
        meet = full
        for mask in trace:
            if mask & point:
                meet &= mask
        if meet != point:
            return False
    return True


def is_exact_by_search(ap: Apartment, chambers) -> bool:
    """Decide exactness by counting the apartments containing the subset."""
    subset = _check_subset(ap, chambers)
    space = ap.base.space
    return len(apartments_containing(space, subset)) == 1
