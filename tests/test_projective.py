"""Projective spaces, bases, duality, semilinear maps.

Frozen expectations derived by hand: point counts (q^(n+1)-1)/(q-1),
the lexicographic order of the points of PG(2,2), and the images of the
subfield inclusion and the Frobenius map on PG(2,4).
"""

import itertools
import random
import re
from fractions import Fraction

import pytest

from bft.gf import GF, FieldError
from bft.projective import (
    Base,
    MapError,
    ProjSpace,
    Semilinear,
    dual_subspace,
    is_independent,
    normalize_point,
    points_of,
    points_of_subspace,
    span_points,
    standard_base,
)
from conftest import LADDER, LADDER_IDS, random_invertible
from reference import apply_point, frobenius, pdim

PG22 = ProjSpace.of(2, 2)
PG32 = ProjSpace.of(3, 2)
PG23 = ProjSpace.of(2, 3)


def test_point_counts():
    assert len(points_of(PG22)) == 7
    assert len(points_of(PG32)) == 15
    assert len(points_of(PG23)) == 13
    assert len(points_of(ProjSpace.of(2, 4))) == 21
    assert len(points_of(ProjSpace.of(2, 9))) == 91


def test_points_are_normalized_and_lex_sorted():
    pts = points_of(PG22)
    assert pts[0] == (0, 0, 1)
    assert pts[-1] == (1, 1, 1)
    assert list(pts) == sorted(pts)
    for p in pts:
        assert next(x for x in p if x) == 1


def test_normalize_point():
    assert normalize_point(PG23, (0, 2, 1)) == (0, 1, 2)
    assert normalize_point(PG23, (2, 1, 0)) == (1, 2, 0)
    with pytest.raises(ValueError):
        normalize_point(PG22, (0, 0, 0))
    with pytest.raises(ValueError):
        normalize_point(PG22, (1, 0))


def test_id_of_answers_alike_on_a_fresh_and_a_warmed_space():
    """A vector's id does not depend on what was asked before: a float or a
    Fraction code is refused even once the equal int vector is in the memo,
    and bools, which are ints, are read as 0 and 1."""
    vectors = [(1.0, 0, 0), (Fraction(1), 0, 0), (2.0, 0, 0), (True, False, False),
               (1, 0, 0), (2, 0, 0)]
    fresh = [FieldError, FieldError, FieldError, 4, 4, 4]

    def answer(v):
        try:
            return PG23.id_of(v)
        except FieldError:
            return FieldError

    for order in itertools.permutations(range(len(vectors))):
        PG23._ids.clear()
        assert [answer(vectors[k]) for k in order] == [fresh[k] for k in order]
    PG23._ids.clear()


def test_low_dimension_rejected():
    with pytest.raises(ValueError):
        ProjSpace.of(1, 2)


def test_span_and_independence():
    line = span_points(PG22, [(0, 0, 1), (0, 1, 0)])
    assert pdim(line) == 1
    assert is_independent(PG22, [(0, 0, 1), (0, 1, 0), (1, 0, 0)])
    assert not is_independent(PG22, [(0, 0, 1), (0, 1, 0), (0, 1, 1)])


def test_points_of_subspace():
    line = span_points(PG22, [(0, 0, 1), (0, 1, 0)])
    assert points_of_subspace(PG22, line) == ((0, 0, 1), (0, 1, 0), (0, 1, 1))
    pg24 = ProjSpace.of(2, 4)
    line4 = span_points(pg24, [(0, 0, 1), (0, 1, 0)])
    assert len(points_of_subspace(pg24, line4)) == 5


# ------------------------------------------------------------------ bases


def test_standard_base_sorted():
    b = standard_base(PG22)
    assert b.points == ((0, 0, 1), (0, 1, 0), (1, 0, 0))


def test_base_rejects_bad_input():
    with pytest.raises(ValueError):
        Base.of(PG22, [(0, 0, 1), (0, 1, 0)])
    with pytest.raises(ValueError):
        Base.of(PG22, [(0, 0, 1), (0, 1, 0), (0, 1, 1)])
    with pytest.raises(ValueError):
        Base.of(PG22, [(0, 0, 1), (0, 1, 0), (0, 0, 1)])



@pytest.mark.parametrize("n, q", LADDER, ids=LADDER_IDS)
def test_a_base_is_its_sorted_point_ids(n, q):
    """A base holds the sorted ids of its points: ``points`` reads them back
    as the sorted normalized points, a base made on ids equals the one made
    on their points, and repeated or dependent points are refused."""
    space, rng = ProjSpace.of(n, q), random.Random(f"base:{n}:{q}")
    gf = space.gf
    for _ in range(10):
        rows = random_invertible(gf, space.ambient, rng)
        pts = [tuple(map(gf.mul[rng.randrange(1, q)].__getitem__, row)) for row in rows]
        base = Base.of(space, pts)
        assert base.points == tuple(sorted(normalize_point(space, p) for p in pts))
        ids = [space.id_of(p) for p in pts]
        rng.shuffle(ids)
        made = space.base(ids)
        assert made == Base.of(space, map(space.point, ids)) == base
        assert hash(made) == hash(base) and made.ids == tuple(sorted(ids))
        scaled = tuple(gf.mul[gf.neg[1]][x] for x in pts[0])  # -p_0 is p_0
        with pytest.raises(ValueError, match=re.escape(
            f"a base of {space!r} needs {space.ambient} distinct points"
        )):
            Base.of(space, pts[:-1] + [scaled])
        on_line = tuple(gf.add[x][y] for x, y in zip(pts[0], pts[1]))
        with pytest.raises(ValueError, match="base points are linearly dependent"):
            Base.of(space, pts[:-1] + [on_line])

# ----------------------------------------------------------------- duality


def test_dual_subspace_degrees_and_involution():
    line = span_points(PG32, [(0, 0, 0, 1), (0, 0, 1, 0)])
    d = dual_subspace(PG32, line)
    assert pdim(d) == PG32.n - pdim(line) - 1
    assert dual_subspace(PG32, d) == line


# --------------------------------------------------------------- semilinear


def _identity(space):
    return tuple(
        tuple(1 if j == i else 0 for j in range(space.ambient))
        for i in range(space.ambient)
    )


VALUES = {  # each call builds a fresh value, equal to the one the last call built
    "Subspace": lambda: PG32.subspace([(0, 1, 1, 0), (1, 0, 0, 0)]),
    "Base": lambda: standard_base(PG32),
    "Semilinear": lambda: Semilinear.of(PG22, PG22, _identity(PG22)),
}


@pytest.mark.parametrize("make", VALUES.values(), ids=VALUES.keys())
def test_values_are_equal_on_fields_and_closed_to_assignment(make):
    """Equal fields give equal values and hashes; a value never equals one
    of another class, nor the tuple of its own fields; no field can be
    assigned or deleted; and a value is no tuple, so it cannot be taken
    for one where a tuple of values is expected."""
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    fields = tuple(getattr(a, name) for name in type(a).__slots__)
    assert a != fields and not isinstance(a, tuple)
    assert all(a != other() for other in VALUES.values() if other is not make)
    for name in type(a).__slots__:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b


def test_a_space_is_one_object_closed_to_assignment():
    """``ProjSpace.of`` and the constructor return the one object of an
    (n, q), also from a GF that is not interned; ``n`` and ``gf`` can be
    neither assigned nor deleted; and a second constructor call keeps the
    lines the first object cached."""
    fresh = GF(3)
    assert fresh is not GF.of(3)
    space = ProjSpace.of(2, 3)
    assert space is ProjSpace(2, fresh) and space.gf is GF.of(3)
    assert space is not ProjSpace.of(3, 3) and space != ProjSpace.of(2, 9)
    for name in ("n", "gf"):
        with pytest.raises(AttributeError):
            setattr(space, name, getattr(space, name))
        with pytest.raises(AttributeError):
            delattr(space, name)
    line = space.line(0, 1)
    assert ProjSpace(2, fresh) is space
    assert space._lines[0 * space.size + 1] == line  # keyed a * size + b


def test_value_reprs_and_validation():
    assert repr(PG22) == "PG(2,2)"
    assert repr(VALUES["Subspace"]()) == (
        "Subspace(gf=GF(2), ambient=4, rows=((1, 0, 0, 0), (0, 1, 1, 0)))"
    )
    assert repr(standard_base(PG22)) == (
        "Base(space=PG(2,2), ids=(0, 1, 3))"
    )
    with pytest.raises(ValueError):
        ProjSpace(1, GF.of(2))
    assert PG32.subspace([(1, 0, 0, 0)]) != PG32.subspace([(0, 1, 0, 0)])


def test_identity_map_fixes_points():
    f = Semilinear.of(PG22, PG22, _identity(PG22))
    for p in points_of(PG22):
        assert apply_point(f, p) == p
    assert len({apply_point(f, p) for p in points_of(PG22)}) == len(points_of(PG22))


def test_singular_matrix_rejected():
    with pytest.raises(MapError):
        Semilinear.of(PG22, PG22, ((1, 0, 0), (0, 1, 0), (1, 1, 0)))


def test_non_square_matrix_rejected():
    with pytest.raises(MapError):
        Semilinear.of(PG22, PG22, _identity(PG22)[:2])


def test_dimension_mismatch_rejected():
    with pytest.raises(MapError):
        Semilinear.of(PG22, PG32, _identity(PG32)[:3])


def test_bad_sigma_rejected():
    with pytest.raises(MapError):
        Semilinear(PG22, PG22, (0, 0, 1), _identity(PG22))


def test_subfield_inclusion_hits_7_of_21_points():
    pg24 = ProjSpace.of(2, 4)
    f = Semilinear.of(PG22, pg24, _identity(pg24))
    images = {apply_point(f, p) for p in points_of(PG22)}
    assert len(images) == 7
    assert images < set(points_of(pg24))
    assert len(images) < len(points_of(pg24))


def test_frobenius_semilinear_map_on_pg24():
    pg24 = ProjSpace.of(2, 4)
    f = Semilinear.of(pg24, pg24, _identity(pg24), sigma=frobenius(GF.of(4)))
    images = {apply_point(f, p) for p in points_of(pg24)}
    assert len(images) == len(points_of(pg24)) == 21
    assert apply_point(f, (1, 2, 0)) == (1, 3, 0)  # x -> x^2 sends code 2 to 3


def test_semilinear_preserves_independence():
    rng = random.Random(7)
    for _ in range(20):
        m = random_invertible(GF.of(3), 3, rng)
        f = Semilinear.of(PG23, PG23, m)
        pts = rng.sample(points_of(PG23), 3)
        assert is_independent(PG23, pts) == is_independent(
            PG23, [apply_point(f, p) for p in pts]
        )


def test_apply_subspace_respects_rank():
    rng = random.Random(11)
    m = random_invertible(GF.of(2), 4, rng)
    f = Semilinear.of(PG32, PG32, m)
    line = span_points(PG32, [(0, 0, 0, 1), (0, 0, 1, 0)])
    assert f.apply_subspace(line).rank == 2
    img_pts = {apply_point(f, p) for p in points_of_subspace(PG32, line)}
    assert img_pts == set(points_of_subspace(PG32, f.apply_subspace(line)))
