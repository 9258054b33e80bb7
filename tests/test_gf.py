"""Field tables and echelon linear algebra.

Expected values below were worked out by hand before the implementation
existed: small row reductions over GF(2), the multiplication facts
forced by the chosen irreducible polynomials, and the subspace count of
GF(2)^4 from Gaussian binomials (1 + 15 + 35 + 15 + 1 = 67).
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bft.buildings import chambers_of
from bft.gf import GF, SUPPORTED_ORDERS, FieldError, Subspace, rref
from bft.projective import ProjSpace
from reference import contains, frobenius, join, meet, parts, pdim

ALL_FIELDS = [GF.of(q) for q in SUPPORTED_ORDERS]
IDENTITY_4 = [tuple(int(i == j) for j in range(4)) for i in range(4)]


# ---------------------------------------------------------------- tables


@pytest.mark.parametrize("gf", ALL_FIELDS, ids=lambda g: f"q{g.q}")
def test_field_axioms_exhaustive(gf):
    q = gf.q
    els = range(q)
    for a in els:
        assert gf.add[a][0] == a
        assert gf.mul[a][1] == a
        assert gf.mul[a][0] == 0
        assert gf.add[a][gf.neg[a]] == 0
        if a:
            assert gf.mul[a][gf.inv[a]] == 1
        for b in els:
            assert gf.add[a][b] == gf.add[b][a]
            assert gf.mul[a][b] == gf.mul[b][a]
    for a, b, c in itertools.product(els, repeat=3):
        assert gf.add[gf.add[a][b]][c] == gf.add[a][gf.add[b][c]]
        assert gf.mul[gf.mul[a][b]][c] == gf.mul[a][gf.mul[b][c]]
        assert gf.mul[a][gf.add[b][c]] == gf.add[gf.mul[a][b]][gf.mul[a][c]]


@pytest.mark.parametrize("gf", ALL_FIELDS, ids=lambda g: f"q{g.q}")
def test_no_zero_divisors(gf):
    for a in range(1, gf.q):
        for b in range(1, gf.q):
            assert gf.mul[a][b] != 0


def test_gf4_facts():
    # with modulus x^2 + x + 1: code 2 is x, code 3 is x + 1
    gf = GF.of(4)
    assert gf.mul[2][2] == 3          # x^2 = x + 1
    assert gf.mul[2][3] == 1          # x(x+1) = x^2 + x = 1
    assert gf.mul[3][3] == 2          # (x+1)^2 = x^2 + 1 = x
    assert gf.add[2][3] == 1
    assert gf.inv[2] == 3 and gf.inv[3] == 2


def test_gf8_facts():
    # with modulus x^3 + x + 1: code 2 is x
    gf = GF.of(8)
    assert gf.mul[2][2] == 4          # x^2
    assert gf.mul[2][4] == 3          # x^3 = x + 1
    assert gf.mul[4][4] == 6          # x^4 = x^2 + x
    assert gf.mul[2][5] == 1          # x(x^2+1) = x^3 + x = 1
    assert gf.inv[2] == 5


def test_gf9_facts():
    # with modulus x^2 + 1: code 3 is x, so x^2 = -1 = 2
    gf = GF.of(9)
    assert gf.mul[3][3] == 2
    assert gf.neg[1] == 2
    assert gf.char == 3 and gf.degree == 2


def test_characteristic_and_degree_of_every_order():
    expected = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2)}
    assert {gf.q: (gf.char, gf.degree) for gf in ALL_FIELDS} == expected


def test_unsupported_orders_rejected():
    for q in (0, 1, 6, 10, 11, 16, 25):
        with pytest.raises(
            FieldError, match=rf"^unsupported field order {q}; supported: 2, 3, 4, 5, 7, 8, 9$"
        ):
            GF(q)


def test_interning():
    assert GF.of(5) is GF.of(5)
    assert GF.of(4) == GF(4)


# ------------------------------------------------------------ embeddings


@pytest.mark.parametrize("src,dst", [(2, 4), (2, 8), (3, 9)])
def test_subfield_embeddings_are_ring_monomorphisms(src, dst):
    a, b = GF.of(src), GF.of(dst)
    table = a.embedding_into(b)
    assert len(set(table)) == len(table)
    assert a.is_hom_into(b, table)


def test_identity_embedding():
    gf = GF.of(7)
    assert gf.embedding_into(gf) == tuple(range(7))


@pytest.mark.parametrize("src,dst", [(2, 3), (3, 4), (4, 8), (2, 9), (5, 7), (9, 3)])
def test_non_subfield_pairs_rejected(src, dst):
    with pytest.raises(FieldError):
        GF.of(src).embedding_into(GF.of(dst))


def test_frobenius_is_automorphism():
    for q in (4, 8, 9):
        gf = GF.of(q)
        frob = frobenius(gf)
        assert gf.is_hom_into(gf, frob)
        assert sorted(frob) == list(range(q))
    assert frobenius(GF.of(5)) == tuple(range(5))


def test_is_hom_rejects_junk():
    a, b = GF.of(2), GF.of(4)
    assert not a.is_hom_into(b, (0, 2))       # sends 1 to x
    assert not a.is_hom_into(b, (1, 0))
    assert not a.is_hom_into(b, (0,))


# ---------------------------------------------------------------- rref


def test_rref_hand_example_gf2():
    gf = GF.of(2)
    # eliminate by hand: (1,1,0),(0,1,1) -> subtract second from first
    assert rref([(1, 1, 0), (0, 1, 1)], gf) == ((1, 0, 1), (0, 1, 1))


def test_rref_drops_dependent_rows():
    gf = GF.of(2)
    assert rref([(1, 1, 0), (1, 1, 0), (0, 0, 0)], gf) == ((1, 1, 0),)


def test_rref_scales_pivots_gf3():
    gf = GF.of(3)
    # 2 * (0,2,1) = (0,4,2) = (0,1,2)
    assert rref([(0, 2, 1)], gf) == ((0, 1, 2),)


def test_rref_canonical_for_equal_spans():
    gf = GF.of(2)
    a = rref([(1, 0, 1), (0, 1, 1)], gf)
    b = rref([(1, 1, 0), (0, 1, 1)], gf)
    assert a == b


def test_rref_empty_needs_ambient():
    gf = GF.of(2)
    assert rref([], gf, ambient=3) == ()
    with pytest.raises(FieldError):
        rref([], gf)


def test_rref_rejects_bad_codes_and_lengths():
    gf = GF.of(2)
    with pytest.raises(FieldError):
        rref([(0, 2, 0)], gf)
    with pytest.raises(FieldError):
        rref([(1, 0), (1, 0, 0)], gf)


# ------------------------------------------------------------- subspace


def test_join_hand_example():
    gf = GF.of(2)
    a = Subspace.span(gf, 3, [(1, 1, 0)])
    b = Subspace.span(gf, 3, [(0, 1, 1)])
    assert join(a, b).rows == ((1, 0, 1), (0, 1, 1))


def test_annihilator_hand_example():
    gf = GF.of(2)
    s = Subspace.span(gf, 3, [(1, 1, 1)])
    # solutions of y1 + y2 + y3 = 0
    assert s.annihilator().rows == ((1, 0, 1), (0, 1, 1))


def test_two_planes_in_gf2_cubed_meet_in_a_line():
    gf = GF.of(2)
    a = Subspace.span(gf, 3, [(1, 0, 0), (0, 1, 0)])
    b = Subspace.span(gf, 3, [(0, 1, 0), (0, 0, 1)])
    m = meet(a, b)
    assert m.rank == 1
    assert m.rows == ((0, 1, 0),)


def test_zero_and_full():
    gf = GF.of(3)
    z = Subspace(gf, 4, ())
    f = Subspace.span(gf, 4, IDENTITY_4)
    assert z.rank == 0 and pdim(z) == -1
    assert f.rank == 4 and pdim(f) == 3
    assert z.annihilator() == f
    assert f.annihilator() == z
    assert contains(f, z)


def test_equality_is_row_space_equality():
    gf = GF.of(2)
    a = Subspace.span(gf, 3, [(1, 1, 0), (0, 1, 1)])
    b = Subspace.span(gf, 3, [(1, 0, 1), (0, 1, 1)])
    assert a == b and hash(a) == hash(b)


def test_contains_vector():
    gf = GF.of(2)
    s = Subspace.span(gf, 3, [(1, 1, 0), (0, 0, 1)])
    assert s.contains_vector((1, 1, 1))
    assert not s.contains_vector((1, 0, 0))


def test_mismatched_operands_rejected():
    a = Subspace.span(GF.of(2), 3, [(1, 0, 0)])
    b = Subspace.span(GF.of(3), 3, [(1, 0, 0)])
    c = Subspace.span(GF.of(2), 4, [(1, 0, 0, 0)])
    with pytest.raises(FieldError):
        join(a, b)
    with pytest.raises(FieldError):
        meet(a, c)


def _subspaces_of_gf2_4():
    """Every subspace of GF(2)^4: zero, the parts of the chambers of
    PG(3,2) (each proper nonzero subspace lies in some maximal flag), and
    the full space."""
    proper = {part for c in chambers_of(ProjSpace.of(3, 2)) for part in parts(c)}
    gf = GF.of(2)
    return [Subspace(gf, 4, ()), *proper, Subspace.span(gf, 4, IDENTITY_4)]


def test_gf2_4_has_67_subspaces():
    subs = _subspaces_of_gf2_4()
    assert len(subs) == 67
    by_rank = {r: sum(1 for s in subs if s.rank == r) for r in range(5)}
    assert by_rank == {0: 1, 1: 15, 2: 35, 3: 15, 4: 1}


def test_annihilator_involution_and_reversal_on_gf2_4():
    subs = _subspaces_of_gf2_4()
    for s in subs:
        assert s.annihilator().annihilator() == s
        assert s.annihilator().rank == 4 - s.rank
    for a in subs:
        for b in subs:
            if contains(a, b):
                assert contains(b.annihilator(), a.annihilator())


# ------------------------------------------------------- property tests

_small_field = st.sampled_from([2, 3, 4, 5])


@st.composite
def _space_pair(draw):
    q = draw(_small_field)
    gf = GF.of(q)
    ambient = draw(st.integers(min_value=2, max_value=4))
    vec = st.tuples(*[st.integers(0, q - 1)] * ambient)
    rows_a = draw(st.lists(vec, min_size=0, max_size=ambient))
    rows_b = draw(st.lists(vec, min_size=0, max_size=ambient))
    a = Subspace.span(gf, ambient, rows_a)
    b = Subspace.span(gf, ambient, rows_b)
    return a, b


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_space_pair())
def test_dimension_formula(pair):
    a, b = pair
    assert join(a, b).rank + meet(a, b).rank == a.rank + b.rank


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_space_pair())
def test_join_and_meet_bounds(pair):
    a, b = pair
    j, m = join(a, b), meet(a, b)
    assert contains(j, a) and contains(j, b)
    assert contains(a, m) and contains(b, m)
    assert a.annihilator().annihilator() == a


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_space_pair())
def test_annihilator_exchanges_join_and_meet(pair):
    a, b = pair
    assert join(a, b).annihilator() == meet(a.annihilator(), b.annihilator())
