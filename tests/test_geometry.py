"""The mask core against the RREF oracle, on the ladder of spaces.

Every fast path of :class:`bft.projective.ProjSpace`, the one object per
space (point ids, span, meet, containment, point perps and their meets,
rank, canonical rows) and of the chamber layer built on it
(``chambers_of``, apartments, ``iter_bases``, the apartments through a
chamber that ``analyze`` searches, ``induce``) is compared with a slow
reference that works on :class:`bft.gf.Subspace` values and ``rref`` only.
The reference walks are the implementations the mask core replaced.
"""

import functools
import itertools
import operator
import random

import pytest

from bft.buildings import apartment_of, chambers_of, covers, iter_bases
from bft.chamber_maps import _witness_bases, induce
from bft.counts import gaussian_binomial
from bft.gf import GF, Subspace
from bft.projective import (
    Base,
    ProjSpace,
    Semilinear,
    bits,
    dual_subspace,
    points_of,
)
from conftest import LADDER, LADDER_IDS, oracle_chamber_of_perm, random_invertible
from reference import contains, extended_by, join, meet, parts, pdim


# ------------------------------------------------------------------ oracle


def oracle_mask(space, sub: Subspace) -> int:
    """The point set of a subspace by membership tests, as an id mask."""
    mask = 0
    for i, p in enumerate(points_of(space)):
        if sub.contains_vector(p):
            mask |= 1 << i
    return mask


def oracle_chambers(space):
    """Depth-first lexicographic chain walk on RREF subspaces."""
    pts = points_of(space)
    out = []

    def walk(chain):
        last = chain[-1]
        if pdim(last) == space.n - 1:
            out.append(tuple(s.rows for s in chain))
            return
        nxt = {}
        for p in pts:
            if not last.contains_vector(p):
                t = extended_by(last, p)
                nxt.setdefault(t.rows, t)
        for key in sorted(nxt):
            walk(chain + [nxt[key]])

    for p in pts:
        walk([space.subspace([p])])
    return out


def oracle_bases(space):
    m = space.ambient
    for combo in itertools.combinations(points_of(space), m):
        if Subspace.span(space.gf, m, combo).rank == m:
            yield combo


def random_subspaces(space, rng, count):
    pts = points_of(space)
    m = space.ambient
    identity = [tuple(int(i == j) for j in range(m)) for i in range(m)]
    subs = [Subspace(space.gf, m, ()), Subspace(space.gf, m, tuple(identity))]
    while len(subs) < count:
        k = rng.randint(1, space.ambient)
        subs.append(space.subspace(rng.sample(pts, k)))
    return subs


# --------------------------------------------------------------- mask ops


@pytest.mark.parametrize("n,q", LADDER, ids=LADDER_IDS)
def test_point_ids_follow_points_of(n, q):
    space = ProjSpace.of(n, q)
    assert ProjSpace.of(n, q) is ProjSpace.of(n, q)
    pts = points_of(space)
    assert space.size == len(pts)
    # the normalized vectors in lexicographic order, as id order lists them
    vectors = itertools.product(range(q), repeat=n + 1)
    assert [v for v in vectors if any(v) and next(filter(None, v)) == 1] == list(pts)
    assert [space.id_of(p) for p in pts] == list(range(space.size))
    # any nonzero multiple names the same point
    gf = space.gf
    for p in pts[:: max(1, len(pts) // 20)]:
        for c in range(1, q):
            assert space.id_of([gf.mul[c][x] for x in p]) == space.id_of(p)


@pytest.mark.parametrize("n,q", LADDER, ids=LADDER_IDS)
def test_mask_ops_match_subspace_ops(n, q):
    space = ProjSpace.of(n, q)
    rng = random.Random(n * 10 + q)
    subs = random_subspaces(space, rng, 14)
    masks = [oracle_mask(space, s) for s in subs]
    for sub, mask in zip(subs, masks):
        assert space.rank(mask) == sub.rank
        assert space.rows(mask) == sub.rows
        assert space.subspace_of(mask) == sub
        assert space.mask_of(sub) == mask
        ids = [i for i in range(space.size) if mask >> i & 1]
        assert space.span(ids) == mask
    for (a, ma), (b, mb) in itertools.product(zip(subs, masks), repeat=2):
        assert space.span(bits(ma | mb)) == oracle_mask(space, join(a, b))
        assert ma & mb == oracle_mask(space, meet(a, b))
        assert (ma & mb == mb) == contains(a, b)


@pytest.mark.parametrize("n,q", LADDER, ids=LADDER_IDS)
def test_perp_matches_the_dot_product(n, q):
    """Each point's perp, spanned from a basis, is the set of points whose
    dot product with it vanishes."""
    space = ProjSpace.of(n, q)
    gf, point = space.gf, space.point

    def dot(u, v):
        acc = 0
        for x, y in zip(u, v):
            acc = gf.add[acc][gf.mul[x][y]]
        return acc

    for p in range(space.size):
        expected = sum(1 << i for i in range(space.size) if not dot(point(i), point(p)))
        assert space.perp(p) == expected


@pytest.mark.parametrize("n,q", [(2, 9), (3, 3)], ids=["PG29", "PG33"])
def test_annihilator_of_every_chamber_component_matches_rref(n, q):
    """The meet of the perps of a subspace's points, which is what a dual
    map's ``_chain_image`` computes, is its RREF annihilator."""
    space = ProjSpace.of(n, q)
    masks = {m for c in chambers_of(space) for m in c.masks}
    for mask in masks:
        meet = functools.reduce(operator.and_, map(space.perp, bits(mask)), space.full)
        assert meet == oracle_mask(space, space.subspace_of(mask).annihilator())


@pytest.mark.parametrize("n,q", LADDER, ids=LADDER_IDS)
def test_lines_and_independence_match_rref(n, q):
    space = ProjSpace.of(n, q)
    pts = points_of(space)
    rng = random.Random(q * 10 + n)
    for _ in range(30):
        a, b = rng.sample(range(space.size), 2)
        line = space.line(a, b)
        assert line == oracle_mask(space, space.subspace([pts[a], pts[b]]))
        assert line.bit_count() == q + 1
        ids = rng.sample(range(space.size), rng.randint(2, space.ambient))
        rank = space.subspace([pts[i] for i in ids]).rank
        assert space.is_independent(ids) == (rank == len(ids))


# ---------------------------------------------------------- chamber layer


@pytest.mark.parametrize("n,q", LADDER, ids=LADDER_IDS)
def test_chambers_of_matches_the_rref_walk(n, q):
    """The walk's order is the ``sort_key`` order, which ``dump_map`` writes
    pairs in without sorting them."""
    space = ProjSpace.of(n, q)
    keys = [c.sort_key() for c in chambers_of(space)]
    assert keys == oracle_chambers(space)
    assert keys == sorted(keys)


@pytest.mark.parametrize("n,q", LADDER, ids=LADDER_IDS)
def test_chambers_of_builds_each_cover_once(n, q, monkeypatch):
    """One ``join_point`` per subspace of pdim 1..n-1: a cover found from
    one subspace is reused by every other subspace it covers.  The cover
    table is kept per space, so it is built afresh here."""
    space = ProjSpace.of(n, q)
    covers.cache_clear()
    calls = []
    join_point = ProjSpace.join_point

    def counted(self, mask, p):
        calls.append(p)
        return join_point(self, mask, p)

    monkeypatch.setattr(ProjSpace, "join_point", counted)
    chambers = chambers_of.__wrapped__(space)
    assert len(chambers) == len(chambers_of(space))
    assert len(calls) == sum(gaussian_binomial(n + 1, k + 1, q) for k in range(1, n))


@pytest.mark.parametrize("n,q", LADDER, ids=LADDER_IDS)
def test_apartments_match_chamber_of_perm_on_rref(n, q):
    space = ProjSpace.of(n, q)
    rng = random.Random(7)
    bases = list(itertools.islice(iter_bases(space), 3))
    pts = points_of(space)
    while len(bases) < 6:
        chosen = rng.sample(pts, space.ambient)
        if space.subspace(chosen).rank == space.ambient:
            bases.append(Base.of(space, chosen))
    for base in bases:
        ap = apartment_of(base)
        expected = [oracle_chamber_of_perm(base, perm) for perm in ap.perms]
        assert [parts(c) for c in ap.chambers] == expected
        assert len(ap.chamber_set) == len(expected)


@pytest.mark.parametrize("n,q", LADDER, ids=LADDER_IDS)
def test_iter_bases_matches_rref_independence(n, q):
    space = ProjSpace.of(n, q)
    # the whole sequence on the small spaces, a long prefix on the others
    limit = None if len(points_of(space)) <= 15 else 4000
    got = [b.points for b in itertools.islice(iter_bases(space), limit)]
    assert got == list(itertools.islice(oracle_bases(space), limit))


def oracle_through(base: Base, chamber) -> bool:
    """Whether the apartment of ``base`` holds ``chamber``: its k-th
    subspace holds exactly k + 1 base points, for every k."""
    return all(
        sum(map(part.contains_vector, base.points)) == k + 1
        for k, part in enumerate(parts(chamber))
    )


@pytest.mark.parametrize("n,q", LADDER, ids=LADDER_IDS)
def test_witness_bases_are_the_apartments_through_a_chamber(n, q):
    """Every base listed is one whose apartment holds the chamber, none
    twice, and there are q^(n(n+1)/2) of them: all the apartments through a
    chamber.  On the small spaces the set is also the one found among all
    bases."""
    space = ProjSpace.of(n, q)
    for chamber in random.Random(5).sample(chambers_of(space), 2):
        bases = list(_witness_bases(chamber))
        assert len(set(bases)) == len(bases) == q ** (n * (n + 1) // 2)
        for base in bases:
            assert space.subspace(base.points).rank == space.ambient
            assert oracle_through(base, chamber)
        if len(points_of(space)) <= 15:
            expected = {
                b for b in oracle_bases(space)
                if oracle_through(Base.of(space, b), chamber)
            }
            assert {b.points for b in bases} == expected


@pytest.mark.parametrize(
    "n,q,target_q", [(2, 2, 4), (3, 2, 2), (2, 3, 9), (2, 9, 9)],
    ids=["PG22-PG24", "PG32", "PG23-PG29", "PG29"],
)
def test_induce_matches_componentwise_rref_images(n, q, target_q):
    source, target = ProjSpace.of(n, q), ProjSpace.of(n, target_q)
    matrix = random_invertible(GF.of(q), n + 1, random.Random(n + q))
    semi = Semilinear.of(source, target, matrix)
    chambers = chambers_of(source)[:: max(1, len(chambers_of(source)) // 60)]
    for dual in (False, True):
        f = induce(semi, dual=dual)
        for c in chambers:
            images = [semi.apply_subspace(part) for part in parts(c)]
            if dual:
                images = [dual_subspace(target, part) for part in reversed(images)]
            assert parts(f(c)) == tuple(images)
