"""Induced chamber maps and the recovery of their inducing point maps."""

import functools
import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bft import chamber_maps
from bft.buildings import (
    Chamber,
    all_bases,
    apartment_of,
    chambers_of,
    iter_bases,
)
from bft.chamber_maps import (
    SWEEP_CAP,
    AnalysisError,
    ApartmentCheck,
    ChamberMap,
    DecompositionError,
    ReconstructionError,
    _witness_bases,
    analyze,
    classify,
    dual_point,
    induce,
    main_lemma_decompose,
    preserves_apartments,
    reconstruct,
    verify_strong_embedding,
)
from bft.counts import apartment_count, gaussian_binomial
from bft.gf import GF, SUPPORTED_ORDERS, Subspace
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
    standard_base,
)
from conftest import (
    oracle_chamber_of_perm,
    random_invertible,
    refuse_reconstruction,
    sweep_only_map,
)
from reference import apply_point, chamber_of, frobenius, hyperplane, is_surjective, parts

PG22 = ProjSpace.of(2, 2)
PG23 = ProjSpace.of(2, 3)
PG32 = ProjSpace.of(3, 2)
PG24 = ProjSpace.of(2, 4)
PG34 = ProjSpace.of(3, 4)
PG29 = ProjSpace.of(2, 9)
PG33 = ProjSpace.of(3, 3)
PG42 = ProjSpace.of(4, 2)


def identity_semi(space):
    m = space.ambient
    eye = tuple(tuple(1 if r == c else 0 for c in range(m)) for r in range(m))
    return Semilinear.of(space, space, eye)


def identity_map(space):
    return induce(identity_semi(space))


def swapped_identity(space, k1=0, k2=1):
    """The identity chamber map with two images exchanged."""
    f = identity_map(space)
    chs = chambers_of(space)
    c1 = chs[k1]
    c2 = next(c for c in chs if len(set(parts(c)) & set(parts(c1))) == space.n - 1)
    table = dict(f.table)
    table[c1], table[c2] = table[c2], table[c1]
    return ChamberMap(space, space, table)


def random_bijection(space, seed):
    chs = chambers_of(space)
    shuffled = list(chs)
    random.Random(seed).shuffle(shuffled)
    return ChamberMap(space, space, dict(zip(chs, shuffled)))


# ------------------------------------------------------------- construction


def test_chamber_map_validation():
    chs = chambers_of(PG22)
    with pytest.raises(MapError):
        ChamberMap(PG22, PG32, {})
    with pytest.raises(MapError):
        ChamberMap(PG22, PG22, dict(zip(chs[:-1], chs[:-1])))
    table = dict(zip(chs, chs))
    table[chambers_of(PG32)[0]] = chs[0]
    with pytest.raises(MapError):
        ChamberMap(PG22, PG22, table)
    point, line = chs[0].masks
    skew = next(c.masks[1] for c in chs if not c.masks[1] & point)
    for image in (
        chambers_of(PG32)[0],  # a chamber of another space
        Chamber(chs[0].space, (line, point)),  # pdims out of order
        Chamber(chs[0].space, (point, skew)),  # a point off the line
    ):
        table = dict(zip(chs, chs))
        table[chs[5]] = image
        with pytest.raises(MapError, match="invalid image"):
            ChamberMap(PG22, PG22, table)


@pytest.mark.parametrize(
    "source,target", [(PG22, PG22), (PG23, PG23), (PG32, PG32), (PG22, PG24)],
)
def test_induced_tables_pass_the_public_checks(source, target):
    """``induce`` builds its map without the constructor's checks; the
    table it builds passes them."""
    semi = Semilinear.of(
        source, target, random_invertible(source.gf, source.ambient, random.Random(5))
    )
    for dual in (False, True):
        f = induce(semi, dual=dual)
        assert ChamberMap(source, target, f.table).table == f.table


def test_identity_induces_identity():
    f = identity_map(PG22)
    assert all(f(c) == c for c in chambers_of(PG22))
    assert len(set(f.table.values())) == len(f.table) and is_surjective(f)


def test_correlation_reverses_roles_via_annihilators():
    f = induce(identity_semi(PG22), dual=True)
    for c in chambers_of(PG22):
        image = f(c)
        assert parts(image)[0] == dual_subspace(PG22, parts(c)[1])
        assert parts(image)[1] == dual_subspace(PG22, parts(c)[0])
    assert len(set(f.table.values())) == len(f.table) and is_surjective(f)


def test_subfield_inclusion_map():
    semi = Semilinear.of(PG22, PG24, identity_semi(PG22).matrix)
    f = induce(semi)
    assert len(chambers_of(PG24)) == 105
    assert len(set(f.table.values())) == len(f.table) == 21
    assert not is_surjective(f)


def test_induced_maps_send_apartments_to_apartments():
    semi = Semilinear.of(PG23, PG23, random_invertible(GF.of(3), 3, random.Random(11)))
    for f in (induce(semi), induce(semi, dual=True)):
        check = preserves_apartments(f)
        assert check.ok and check.path == "sweep" and check.checked == 234


# ------------------------------------------------------- apartment checking


def test_preserves_apartments_identity_exhaustive():
    check = preserves_apartments(identity_map(PG22))
    assert check == ApartmentCheck(True, "sweep", 28, None, None)


def test_swapped_images_fail_with_witness():
    check = preserves_apartments(swapped_identity(PG22))
    assert not check.ok
    assert check.witness_base is not None
    assert check.witness_image is not None
    ap = apartment_of(check.witness_base)
    assert check.witness_image != ap.chamber_set


def test_random_bijections_fail_for_all_seeds():
    for seed in range(10):
        check = preserves_apartments(random_bijection(PG22, seed))
        assert not check.ok, f"seed {seed} unexpectedly preserves apartments"


def test_preserves_apartments_checks_the_given_bases():
    bases = all_bases(PG22)
    check = preserves_apartments(identity_map(PG22), bases[3:8])
    assert check == ApartmentCheck(True, "local", 5)
    assert preserves_apartments(identity_map(PG22), []) == ApartmentCheck(True, "local", 0)
    f = swapped_identity(PG22)
    failing = preserves_apartments(f).witness_base
    check = preserves_apartments(f, [bases[0], failing, bases[1]])
    assert not check.ok and check.path == "local" and check.checked == 2
    assert check.witness_base == failing


def test_witness_bases_follow_what_the_witness_names():
    """The bases through each named source chamber come in the order the
    chambers are named, and each base is listed once."""
    chambers = chambers_of(PG32)
    named = chambers[7], chambers[40], chambers[41]
    through = {c: list(_witness_bases(c)) for c in named}
    expected = []
    for bases in through.values():
        expected += [b for b in bases if b not in expected]
    assert list(_witness_bases(*named)) == expected
    assert len(expected) < sum(map(len, through.values()))  # they share bases
    assert list(_witness_bases(chambers[7], chambers[7])) == through[chambers[7]]


def adjacent_swap_pg42():
    """The PG(4,2) identity with the images of its first chamber and of the
    first chamber on another point exchanged, and those two chambers.  They
    are adjacent at their point, so the walk through them checks 512
    preserved apartments before the one that fails."""
    f = identity_map(PG42)
    chambers = chambers_of(PG42)
    a = chambers[0]
    b = next(c for c in chambers if c.point != a.point)
    chains = dict(f.chains)
    chains[a.masks], chains[b.masks] = chains[b.masks], chains[a.masks]
    return ChamberMap._trusted(PG42, PG42, chains), a, b


def chambers_built(monkeypatch) -> list:
    """A one-item list counting the :class:`Chamber` objects built from now
    on, through ``Chamber.__init__``."""
    built, init = [0], Chamber.__init__

    def counted(self, *args):
        built[0] += 1
        init(self, *args)

    monkeypatch.setattr(Chamber, "__init__", counted)
    return built


def test_the_witness_walk_builds_chambers_only_for_witnesses(monkeypatch):
    """Of the 513 apartments ``analyze`` checks on the PG(4,2) adjacent swap,
    only the failing one is seen as chambers: at most 4 for the witness
    ``reconstruct`` names, and 5! for that apartment and 5! for its images."""
    f, _, _ = adjacent_swap_pg42()
    apartment_of.cache_clear()
    built = chambers_built(monkeypatch)
    result = analyze(f)
    assert result.label == "not-apartment-preserving" and result.check.checked == 513
    assert built[0] <= 4 + 2 * 120


def test_preserved_apartments_build_no_chamber(monkeypatch):
    f = identity_map(PG42)
    _, a, b = adjacent_swap_pg42()
    bases = list(_witness_bases(a, b))
    apartment_of.cache_clear()
    built = chambers_built(monkeypatch)
    assert preserves_apartments(f, bases) == ApartmentCheck(True, "local", 1536)
    assert built[0] == 0

@pytest.mark.parametrize("dual", [False, True], ids=["direct", "dual"])
@pytest.mark.parametrize("space", [PG22, PG23], ids=["PG22", "PG23"])
def test_every_swap_of_the_identity_fails_on_the_apartments_it_names(space, dual):
    """Each two-chamber swap of the identity fails the certificate, and an
    apartment through the source chambers its witness names breaks, so no
    sweep runs.  The apartments checked are pinned in sum, so a change in
    the order of the walk shows."""
    table = induce(identity_semi(space), dual=dual).table
    checked = 0
    for a, b in itertools.combinations(chambers_of(space), 2):
        swapped = dict(table)
        swapped[a], swapped[b] = table[b], table[a]
        result = analyze(ChamberMap(space, space, swapped))
        assert result.label == "not-apartment-preserving"
        assert result.check.path == "local"
        checked += result.check.checked
    assert checked == {2: 320, 3: 2551}[space.q]


def star_rotated(f, rng):
    """``f`` with the images inside one seeded point or hyperplane star
    rotated by a seeded nonzero shift."""
    chambers = chambers_of(f.source)
    end = rng.choice((0, -1))
    mask = rng.choice(chambers).masks[end]
    star = [c for c in chambers if c.masks[end] == mask]
    shift = rng.randrange(1, len(star))
    table = dict(f.table)
    for c, d in zip(star, star[shift:] + star[:shift]):
        table[c] = f(d)
    return ChamberMap(f.source, f.target, table)


def glued(f, g, rng):
    """``f`` on the chambers through a seeded proper set of points, ``g``
    on the rest."""
    points = sorted({c.masks[0] for c in chambers_of(f.source)})
    chosen = set(rng.sample(points, rng.randrange(1, len(points))))
    table = {c: (f if c.masks[0] in chosen else g)(c) for c in chambers_of(f.source)}
    return ChamberMap(f.source, f.target, table)


@pytest.mark.parametrize("space", [PG23, PG32], ids=["PG23", "PG32"])
def test_star_rotations_and_glued_collineations_fail_on_the_apartments_they_name(space):
    """Seeded star rotations of a collineation, and maps glued by point from
    two collineations (each direct or dual), fail on the apartments their
    witness names, so no sweep runs.  The apartments checked are pinned in
    sum, as for the swaps.  A glued map whose g is not injective is named
    at the collision, as ``reconstruct`` reads the stars, and not at the
    first chamber g does not induce, so its walk is no longer."""
    rng = random.Random(space.n * 10 + space.q)

    def collineation():
        matrix = random_invertible(space.gf, space.ambient, rng)
        return induce(Semilinear.of(space, space, matrix), dual=rng.random() < 0.5)

    maps = [star_rotated(collineation(), rng) for _ in range(20)]
    maps += [glued(collineation(), collineation(), rng) for _ in range(20)]
    checked = []
    for f in maps:
        result = analyze(f)
        assert result.label == "not-apartment-preserving"
        assert result.check.path == "local"
        checked.append(result.check.checked)
    assert (sum(checked[:20]), sum(checked[20:])) == {2: (105, 25), 3: (33, 48)}[space.q]


@pytest.mark.parametrize("dual", [False, True], ids=["direct", "dual"])
@pytest.mark.parametrize("space", [PG22, PG23, PG32], ids=["PG22", "PG23", "PG32"])
def test_a_collapsing_star_fails_on_the_first_apartment_it_names(space, dual):
    """Each point star of the identity, its images all set to one chamber,
    collapses, and the first base the walk lists fails: the first argument
    in the docstring of ``_witness_bases``."""
    f = induce(identity_semi(space), dual=dual)
    stars = {}
    for chain in f.chains:
        stars.setdefault(chain[0], []).append(chain)
    for star in stars.values():
        collapsed = ChamberMap._trusted(
            space, space, {**f.chains, **dict.fromkeys(star, f.chains[star[0]])}
        )
        with pytest.raises(ReconstructionError, match="collapse"):
            reconstruct(collapsed)
        result = analyze(collapsed)
        assert result.label == "not-apartment-preserving"
        assert result.check[:3] == (False, "local", 1)
    assert len(stars) == space.size


@pytest.mark.parametrize(
    "space, checked, base",
    [(PG22, 3, (0, 3, 5)), (PG23, 4, (0, 4, 7)), (PG24, 5, (0, 5, 9))],
    ids=["PG22", "PG23", "PG24"],
)
def test_a_non_injective_g_is_named_before_the_table(space, checked, base):
    """``reconstruct`` checks injectivity as it reads the stars, so a map
    whose stars are all direct but whose g is not injective is named by the
    first chamber of each colliding star, not by the first chamber g does
    not induce, whose apartments are all preserved.  The witness walk is
    proved complete for that kind, and finds the witness in a handful of
    apartments, where the sweep of PG(2, 4) needs 65."""
    f = sweep_only_map(space)
    with pytest.raises(ReconstructionError, match="not injective") as caught:
        reconstruct(f)
    assert str(caught.value) == "map is not injective: (1, 0, 0) and (1, 0, 1) share an image"
    assert [c.point for c in caught.value.witness] == [(1, 0, 0), (1, 0, 1)]
    result = analyze(f)
    assert result.label == "not-apartment-preserving" and result.error is None
    assert result.check[:4] == (False, "local", checked, space.base(base))


def no_witness_bases(monkeypatch):
    """Stub the witness walk to list no base, so ``analyze`` goes on to
    the sweep: no known map gets there otherwise."""
    monkeypatch.setattr(chamber_maps, "_witness_bases", lambda *chambers: iter(()))


def test_the_sweep_cap_admits_the_spaces_swept_in_seconds():
    """``analyze`` sweeps a source of at most ``SWEEP_CAP`` apartments:
    PG(4, 2), PG(3, 3) and every plane, up to PG(2, 9), are in; PG(3, 4),
    PG(4, 3) and PG(5, 2) are out."""
    inside = [(4, 2), (3, 3), (2, 9)]
    assert [apartment_count(n, q) for n, q in inside] == [83328, 63180, 110565]
    assert all(apartment_count(n, q) <= SWEEP_CAP for n, q in inside)
    assert max(apartment_count(2, q) for q in SUPPORTED_ORDERS) == apartment_count(2, 9)
    outside = [(3, 4), (4, 3), (5, 2)]
    assert [apartment_count(n, q) for n, q in outside] == [1523200, 123845436, 27998208]
    assert all(apartment_count(n, q) > SWEEP_CAP for n, q in outside)


@pytest.mark.parametrize(
    "space, base", [(PG22, 9), (PG23, 28), (PG24, 65)], ids=["PG22", "PG23", "PG24"]
)
def test_a_map_only_the_sweep_refutes(monkeypatch, space, base):
    """With the witness walk stubbed to list no base, the sweep of every
    base finds the apartment that breaks."""
    no_witness_bases(monkeypatch)
    result = analyze(sweep_only_map(space))
    assert result.label == "not-apartment-preserving" and result.error is None
    assert result.check[:3] == (False, "sweep", base)


def test_a_map_only_the_sweep_refutes_keeps_its_label_beyond_the_cap(monkeypatch):
    """With reconstruction refused and no chamber named, on PG(3, 4), above
    the sweep cap, no sweep runs, so the label stays negative with no
    witness and the error that stopped ``reconstruct``."""
    refuse_reconstruction(monkeypatch)
    result = analyze(identity_map(PG34))
    assert result.check == ApartmentCheck(True, "local", 0)
    assert result.label == "not-apartment-preserving"
    assert isinstance(result.error, ReconstructionError)


# ------------------------------------------------------------ decomposition


def test_decompose_identity():
    sigma, case = main_lemma_decompose(identity_map(PG22), standard_base(PG22))
    assert sigma == (0, 1, 2) and case == 1


def test_decompose_correlation():
    f = induce(identity_semi(PG22), dual=True)
    sigma, case = main_lemma_decompose(f, standard_base(PG22))
    assert case == 2
    assert sigma == (0, 1, 2)  # the standard base is self-dual


def test_decompose_coordinate_permutation():
    matrix = ((0, 1, 0), (0, 0, 1), (1, 0, 0))
    semi = Semilinear.of(PG22, PG22, matrix)
    f = induce(semi)
    base = standard_base(PG22)
    sigma, case = main_lemma_decompose(f, base)
    assert case == 1
    image_base = Base.of(PG22, [apply_point(semi, p) for p in base.points])
    assert sigma == tuple(image_base.points.index(apply_point(semi, p)) for p in base.points)


def test_decompose_rejects_non_preserving_map():
    with pytest.raises(DecompositionError):
        main_lemma_decompose(random_bijection(PG22, 0), standard_base(PG22))


# ------------------------------------------------------------ reconstruction


def test_reconstruct_direct_collineation():
    rng = random.Random(5)
    semi = Semilinear.of(PG23, PG23, random_invertible(GF.of(3), 3, rng))
    d = reconstruct(induce(semi))
    assert d.kind == "direct"
    assert d.g == {p: apply_point(semi, p) for p in points_of(PG23)}
    assert list(d.sigma_by_base) == list(all_bases(PG23)[:5])
    for base, (sigma, case) in d.sigma_by_base.items():
        assert case == 1
        image_base = Base.of(PG23, [apply_point(semi, p) for p in base.points])
        assert sigma == tuple(
            image_base.points.index(apply_point(semi, p)) for p in base.points
        )


def test_reconstruct_dual_map():
    f = induce(identity_semi(PG22), dual=True)
    d = reconstruct(f)
    assert d.kind == "dual"
    for p in points_of(PG22):
        assert d.g[p] == dual_subspace(PG22, PG22.subspace([p]))
    for base, (sigma, case) in d.sigma_by_base.items():
        assert case == 2
        ap = apartment_of(base)
        image_base = Base.of(PG22, {f(c).point for c in ap.chambers})
        for i, p in enumerate(base.points):
            off = [
                t
                for t, qpt in enumerate(image_base.points)
                if not d.g[p].contains_vector(qpt)
            ]
            assert off == [sigma[i]]


SIGMA_CASES = [
    (PG22, PG22, False), (PG23, PG23, False), (PG32, PG32, False),
    (PG22, PG24, False), (PG23, PG29, False),
    (PG24, PG24, True), (PG29, PG29, True),
]


@pytest.mark.parametrize("dual", [False, True], ids=["direct", "dual"])
@pytest.mark.parametrize(
    "source,target,twisted", SIGMA_CASES,
    ids=[f"PG{s.n}{s.q}-PG{t.n}{t.q}{'-frobenius' * fr}" for s, t, fr in SIGMA_CASES],
)
def test_sigma_and_point_map_match_the_main_lemma(source, target, twisted, dual):
    """``reconstruct`` reads sigma off g; on every report base it equals
    what the main lemma reads off the apartment, and the point map (g, or
    the annihilators of the hyperplanes g(p) when dual) is the semilinear
    map's.  The report bases are the first five of ``iter_bases``, on the
    Frobenius spaces too."""
    rng = random.Random(source.n * 100 + source.q * 10 + target.q + dual)
    matrix = random_invertible(source.gf, source.ambient, rng)
    twist = frobenius(source.gf) if twisted else None
    semi = Semilinear.of(source, target, matrix, sigma=twist)
    f = induce(semi, dual=dual)
    d = reconstruct(f)
    report_bases = list(itertools.islice(iter_bases(source), 5))
    assert len(report_bases) == 5 and list(d.sigma_by_base) == report_bases
    for base, sigma_case in d.sigma_by_base.items():
        assert sigma_case == main_lemma_decompose(f, base)
    assert point_map_of(d, target) == {p: apply_point(semi, p) for p in points_of(source)}


def test_reconstruct_subfield_embedding():
    semi = Semilinear.of(PG22, PG24, identity_semi(PG22).matrix)
    d = reconstruct(induce(semi))
    assert d.kind == "direct"
    assert len(set(d.g.values())) == 7
    assert len(points_of(PG24)) == 21


def test_reconstruct_rejects_random_bijection():
    with pytest.raises(ReconstructionError):
        reconstruct(random_bijection(PG22, 1))


@pytest.mark.parametrize("space", [PG22, PG32], ids=["PG22", "PG32"])
@pytest.mark.parametrize("dual", [False, True], ids=["direct", "dual"])
def test_reconstruct_names_the_first_chamber_not_induced(space, dual):
    """Two chambers on one point swap images: every point star agrees, and
    the table check names the first of them in ``chambers_of`` order,
    without its image.  They lie on the last chamber's point, so a check
    that read a dual chain the wrong way round would name an earlier one."""
    chs = chambers_of(space)
    a, *_, b = [c for c in chs if c.point == chs[-1].point]
    table = dict(induce(identity_semi(space), dual=dual).table)
    table[a], table[b] = table[b], table[a]
    with pytest.raises(ReconstructionError, match="componentwise") as info:
        reconstruct(ChamberMap(space, space, table))
    assert info.value.witness == (a,)


def test_reconstruct_star_failures_name_source_chambers():
    """A star whose images collapse names two of its chambers; one whose
    images share neither a point nor a hyperplane names the pair that
    differs in each; stars of two kinds name the first chamber of each."""
    chs = chambers_of(PG22)
    star = [c for c in chs if c.point == chs[0].point]
    off = next(c.masks[1] for c in chs if not c.masks[1] & chs[0].masks[0])
    on_one_line = [c for c in chs if c.masks[1] == off]
    first_direct = next(c for c in chs if c.point != chs[0].point)
    identity = identity_map(PG22).table
    for images, match, witness in [
        ([chs[0]] * 3, "collapse", (star[0], star[-1])),
        ([chs[0], chs[-1], chs[-1]], "neither", (star[0], star[1]) * 2),
        (on_one_line, "as dual", (first_direct, star[0])),
    ]:
        table = {**identity, **dict(zip(star, images))}
        with pytest.raises(ReconstructionError, match=match) as info:
            reconstruct(ChamberMap(PG22, PG22, table))
        assert info.value.witness == witness


# ----------------------------------------------------------- strong embeddings


def point_map_of(d, target) -> dict:
    """The point map of a decomposition: g, or when dual the annihilators
    of the hyperplanes g(p)."""
    if d.kind == "direct":
        return d.g
    return {p: dual_point(target, hyp) for p, hyp in d.g.items()}


@pytest.mark.parametrize("space", [PG23, PG32], ids=["PG23", "PG32"])
def test_dual_point_is_the_point_whose_perp_is_the_hyperplane(space):
    hyperplanes = {c.masks[-1] for c in chambers_of(space)}
    assert len(hyperplanes) == gaussian_binomial(space.ambient, space.n, space.q)
    for mask in hyperplanes:
        p = dual_point(space, space.subspace_of(mask))
        assert p == normalize_point(space, p)
        assert space.perp(space.id_of(p)) == mask


def test_dual_point_rejects_what_is_not_a_hyperplane_of_its_space():
    point = PG32.subspace([(0, 1, 0, 0)])
    line = PG32.subspace([(1, 0, 0, 0), (0, 0, 1, 1)])
    for sub in (point, line):
        with pytest.raises(ValueError, match="expected a hyperplane"):
            dual_point(PG32, sub)
    for space, other in ((PG22, PG23), (PG22, PG32)):
        hyperplane = other.subspace(standard_base(other).points[1:])
        with pytest.raises(ValueError, match="does not live in this space"):
            dual_point(space, hyperplane)


def embeds(source, target, g) -> bool:
    try:
        verify_strong_embedding(source, target, g)
    except ReconstructionError:
        return False
    return True


def test_verify_strong_embedding_identity_and_constant():
    pts = points_of(PG22)
    assert embeds(PG22, PG22, {p: p for p in pts})
    with pytest.raises(ReconstructionError, match="injective") as info:
        verify_strong_embedding(PG22, PG22, {p: pts[0] for p in pts})
    assert info.value.witness == (pts[0], pts[1])


def test_verify_strong_embedding_names_the_failing_subspace():
    pts = points_of(PG22)
    g = {p: p for p in pts}
    g[pts[0]], g[pts[1]] = pts[1], pts[0]
    with pytest.raises(ReconstructionError, match="spans rank 3") as info:
        verify_strong_embedding(PG22, PG22, g)
    assert isinstance(info.value.witness, Subspace)
    assert info.value.witness.rank == 2
    missing = dict(g)
    del missing[pts[2]]
    with pytest.raises(ReconstructionError, match="misses") as info:
        verify_strong_embedding(PG22, PG22, missing)
    assert info.value.witness == pts[2]


def test_verify_strong_embedding_round_trip():
    semi = Semilinear.of(PG22, PG24, identity_semi(PG22).matrix)
    d = reconstruct(induce(semi))
    assert embeds(PG22, PG24, d.g)


def oracle_strong_embedding(source, target, g) -> bool:
    """The slow reference: injective, every line inside a line, every
    non-collinear triple and every base kept independent."""
    pts = points_of(source)
    if set(g.keys()) != set(pts) or len(set(g.values())) != len(pts):
        return False
    lines = {source.subspace([a, b]) for a in pts for b in pts if a != b}
    for line in lines:
        image = target.subspace([g[p] for p in points_of_subspace(source, line)])
        if image.rank > 2:
            return False
    for a, b, c in itertools.combinations(pts, 3):
        if source.subspace([a, b, c]).rank == 3:
            if target.subspace([g[a], g[b], g[c]]).rank != 3:
                return False
    return all(
        is_independent(target, [g[p] for p in base.points])
        for base in all_bases(source)
    )


@pytest.mark.parametrize(
    "source,target",
    [(PG22, PG22), (PG22, PG24), (PG23, PG23), (PG32, PG32), (PG32, PG34)],
    ids=["PG22", "PG22-PG24", "PG23", "PG32", "PG32-PG34"],
)
def test_verify_strong_embedding_matches_oracle(source, target):
    rng = random.Random(source.n * 100 + source.q * 10 + target.q)
    pts, target_pts = points_of(source), points_of(target)
    verdicts = set()
    for _ in range(6):
        matrix = random_invertible(target.gf, target.ambient, rng)
        g = {p: apply_point(Semilinear.of(source, target, matrix), p) for p in pts}
        swapped = dict(g)
        a, b = rng.sample(pts, 2)
        swapped[a], swapped[b] = g[b], g[a]
        replaced = dict(g)
        replaced[rng.choice(pts)] = rng.choice(target_pts)
        for point_map in (g, swapped, replaced):
            expected = oracle_strong_embedding(source, target, point_map)
            assert embeds(source, target, point_map) == expected
            verdicts.add(expected)
    assert verdicts == {True, False}


@functools.cache
def pg22_span(ids: frozenset) -> Subspace:
    """The RREF span of a set of PG(2,2) point ids."""
    pts = points_of(PG22)
    return PG22.subspace([pts[i] for i in ids])


def pg22_point_maps_whose_lines_span_lines():
    """Every point map of PG(2,2) that fixes the first point, sends each
    line into a line it spans, and collapses no point star (the three
    lines through a point do not all span one image line)."""
    lines = {pg22_span(frozenset(ids)) for ids in itertools.combinations(range(7), 2)}
    pts = points_of(PG22)
    on = [[i for i in range(7) if line.contains_vector(pts[i])] for line in lines]
    stars = [[ids for ids in on if p in ids] for p in range(7)]
    for images in itertools.product(range(7), repeat=6):
        g = (0, *images)
        image = {tuple(ids): pg22_span(frozenset(g[i] for i in ids)) for ids in on}
        if all(s.rank == 2 for s in image.values()) and all(
            len({image[tuple(ids)] for ids in star}) > 1 for star in stars
        ):
            yield {pts[i]: pts[g[i]] for i in range(7)}


@functools.cache
def pg22_induced_tables() -> tuple:
    """``(g, direct, dual)`` for each point map of
    :func:`pg22_point_maps_whose_lines_span_lines`: the tables it induces,
    built on RREF subspaces."""
    pts = points_of(PG22)
    flags = [(c, c.point, [p for p in pts if parts(c)[1].contains_vector(p)])
             for c in chambers_of(PG22)]
    found = []
    for g in pg22_point_maps_whose_lines_span_lines():
        ids = {p: frozenset([pts.index(g[p])]) for p in pts}
        direct, dual = {}, {}
        for c, p, on in flags:
            point = pg22_span(ids[p])
            line = pg22_span(frozenset().union(*map(ids.get, on)))
            direct[c] = chamber_of(PG22, [point, line])
            dual[c] = chamber_of(PG22, [line.annihilator(), point.annihilator()])
        found.append((g, direct, dual))
    return tuple(found)


def test_reconstruct_certifies_exactly_the_strong_embeddings():
    """Over every PG(2,2) point map whose lines span lines (fixing the first
    point), the table it induces, direct or dual, passes ``reconstruct``
    exactly when ``verify_strong_embedding`` accepts the point map.  Every
    other map fails on injectivity alone and is not apartment-preserving,
    with a witness found on the apartments the failure names."""
    accepted = rejected = 0
    for g, direct, dual in pg22_induced_tables():
        embedding = embeds(PG22, PG22, g)
        for table in (direct, dual):
            f = ChamberMap(PG22, PG22, table)
            try:
                d = reconstruct(f)
            except ReconstructionError as exc:
                assert not embedding and "not injective" in str(exc)
                a, b = exc.witness  # the first chambers of two stars
                assert a.point != b.point and g[a.point] == g[b.point]
                result = analyze(f)
                assert result.label == "not-apartment-preserving"
                assert result.check.path == "local"
            else:
                assert embedding and point_map_of(d, PG22) == g
        accepted, rejected = accepted + embedding, rejected + (not embedding)
    assert (accepted, rejected) == (168 // 7, 5880 // 7)


def test_a_non_injective_map_fails_by_the_first_base_holding_both_points():
    """On each of the 1,680 non-injective tables above, the walk stops no
    later than the first base it lists through the witness's first chamber
    that holds the other colliding point, and that base fails: the second
    argument in the docstring of ``_witness_bases``.  The witness names
    the first chamber of each colliding point's star, in ``chambers_of``
    order."""
    heads = {}
    for c in chambers_of(PG22):
        heads.setdefault(c.point, c)
    tables = 0
    for g, *induced in pg22_induced_tables():
        if len(set(g.values())) == len(g):
            continue
        for table in induced:
            f = ChamberMap(PG22, PG22, table)
            with pytest.raises(ReconstructionError, match="not injective") as info:
                reconstruct(f)
            a, b = info.value.witness
            assert (a, b) == (heads[a.point], heads[b.point])
            bases = list(_witness_bases(a, b))
            other = PG22.id_of(b.point)
            k = next(k for k, base in enumerate(bases, 1) if other in base.ids)
            assert not preserves_apartments(f, bases[k - 1 : k]).ok
            check = analyze(f).check
            assert check.path == "local" and check.checked <= k
            tables += 1
    assert tables == 2 * 5880 // 7


# ------------------------------------------------------------ classification


def test_classify_labels():
    assert classify(identity_map(PG22)) == "collineation-direct"
    assert classify(induce(identity_semi(PG22), dual=True)) == "collineation-dual"
    semi = Semilinear.of(PG22, PG24, identity_semi(PG22).matrix)
    assert classify(induce(semi)) == "strong-embedding-direct"
    assert classify(induce(semi, dual=True)) == "strong-embedding-dual"
    assert classify(swapped_identity(PG22)) == "not-apartment-preserving"
    assert classify(random_bijection(PG22, 0)) == "not-apartment-preserving"


def test_analyze_record(monkeypatch):
    f = induce(identity_semi(PG22), dual=True)
    result = analyze(f)
    assert result.check == ApartmentCheck(True, "certified", 28, None, None)
    assert result.label == "collineation-dual" and result.error is None
    assert result.decomposition.kind == "dual"
    assert point_map_of(result.decomposition, PG22) == {p: p for p in points_of(PG22)}
    swapped = analyze(swapped_identity(PG22))
    assert not swapped.check.ok and swapped.check.path == "local"
    assert swapped.decomposition is None and swapped.error is None
    assert swapped.label == "not-apartment-preserving"

    # above the sweep cap, with no witness to search from, nothing is swept
    refuse_reconstruction(monkeypatch)
    beyond = analyze(identity_map(PG34))
    assert beyond.check == ApartmentCheck(True, "local", 0)
    assert isinstance(beyond.error, ReconstructionError)
    assert beyond.label == "not-apartment-preserving"
    with pytest.raises(ReconstructionError):
        classify(identity_map(PG34))


INDUCED_SPACES = [(PG22, PG22), (PG23, PG23), (PG32, PG32), (PG22, PG24), (PG23, PG29)]


@pytest.mark.parametrize("dual", [False, True], ids=["direct", "dual"])
@pytest.mark.parametrize(
    "source,target", INDUCED_SPACES,
    ids=[f"PG{s.n}{s.q}-PG{t.n}{t.q}" for s, t in INDUCED_SPACES],
)
def test_collineation_label_iff_surjective(source, target, dual):
    """The abstract's last sentence: the embedding that induces f is a
    collineation if f is surjective.  Over induced maps, the label says
    collineation exactly when the chamber map is onto."""
    rng = random.Random(source.n * 100 + source.q * 10 + target.q)
    matrix = random_invertible(source.gf, source.ambient, rng)
    f = induce(Semilinear.of(source, target, matrix), dual=dual)
    label = analyze(f).label
    assert label.endswith("-dual" if dual else "-direct")
    assert label.startswith("collineation-") == is_surjective(f)
    # both sides of the equivalence occur: only the subfield embeddings miss
    assert is_surjective(f) == (source.q == target.q)


def test_classify_dual_collineation_gf3():
    semi = Semilinear.of(PG23, PG23, random_invertible(GF.of(3), 3, random.Random(2)))
    assert classify(induce(semi, dual=True)) == "collineation-dual"


def test_frobenius_twist_is_a_collineation():
    gf4 = GF.of(4)
    eye = tuple(tuple(1 if r == c else 0 for c in range(3)) for r in range(3))
    semi = Semilinear.of(PG24, PG24, eye, sigma=frobenius(gf4))
    f = induce(semi)
    assert classify(f) == "collineation-direct"
    d = reconstruct(f)
    assert d.g == {p: apply_point(semi, p) for p in points_of(PG24)}


# ----------------------------------------------------- residue compatibility


def test_restriction_to_point_stars_respects_residue_apartments():
    semi = Semilinear.of(PG32, PG32, random_invertible(GF.of(2), 4, random.Random(9)))
    f = induce(semi)
    for p in [(0, 0, 0, 1), (1, 0, 0, 0), (1, 1, 1, 1)]:
        image_point = apply_point(semi, p)
        bases = [b for b in all_bases(PG32) if p in b.points][:5]
        assert bases
        for base in bases:
            ap = apartment_of(base)
            star_part = [c for c in ap.chambers if c.point == p]
            got = {f(c) for c in star_part}
            image_base = Base.of(PG32, [apply_point(semi, x) for x in base.points])
            expected = {
                c for c in apartment_of(image_base).chambers if c.point == image_point
            }
            assert got == expected


# ----------------------------------------- certified verdict vs sweep first


def sweep_first(f):
    """The oracle: sweep every apartment, and only if all are preserved
    reconstruct the point map and check it is a strong embedding."""
    check = preserves_apartments(f)
    if not check.ok:
        return check, "not-apartment-preserving"
    try:
        d = reconstruct(f)
    except AnalysisError:
        return check, "not-apartment-preserving"
    point_map = point_map_of(d, f.target)
    if not embeds(f.source, f.target, point_map):
        return check, "not-apartment-preserving"
    onto = len(set(point_map.values())) == len(points_of(f.target))
    return check, f"{'collineation' if onto else 'strong-embedding'}-{d.kind}"


def perturbed(f, kind, rng):
    """``f`` with images moved: all shuffled, two swapped, two chambers on
    one point and one hyperplane swapped, or one image replaced."""
    chambers = chambers_of(f.source)
    table = dict(f.table)
    if kind == "shuffle":
        images = [table[c] for c in chambers]
        rng.shuffle(images)
        table = dict(zip(chambers, images))
    elif kind == "replace":
        table[rng.choice(chambers)] = rng.choice(chambers_of(f.target))
    else:
        a = rng.choice(chambers)
        same_flag_ends = kind == "swap-same-ends"
        b = rng.choice([
            c for c in chambers
            if c != a
            and (c.point == a.point and hyperplane(c) == hyperplane(a)) == same_flag_ends
        ])
        table[a], table[b] = table[b], table[a]
    return ChamberMap(f.source, f.target, table)


def image_is_apartment(f, base) -> bool:
    """Whether ``f`` maps the apartment of ``base`` onto an apartment, from
    the RREF prefix spans of every ordering: the base of an image apartment
    can only be the points of its chambers."""
    perms = list(itertools.permutations(range(f.source.ambient)))
    image = {
        f(chamber_of(f.source, oracle_chamber_of_perm(base, perm))) for perm in perms
    }
    try:
        image_base = Base.of(f.target, {c.point for c in image})
    except ValueError:
        return False
    return {parts(c) for c in image} == {
        oracle_chamber_of_perm(image_base, perm) for perm in perms
    }


def assert_matches_sweep_first(f):
    result = analyze(f)
    check, label = sweep_first(f)
    assert result.label == label
    assert result.check.ok == check.ok
    assert (result.check.path == "certified") == (result.decomposition is not None)
    if check.ok:
        assert result.check.checked == check.checked
    else:
        base = result.check.witness_base
        assert result.check.witness_image == {f(c) for c in apartment_of(base).chambers}
        assert not image_is_apartment(f, base)


DIFFERENTIAL_SPACES = [
    (PG22, PG22, False), (PG22, PG22, True),
    (PG23, PG23, False), (PG23, PG23, True),
    (PG32, PG32, False), (PG32, PG32, True),
    (PG22, PG24, False), (PG23, PG29, False),
    (PG33, PG33, False), (PG33, PG33, True),
]


@pytest.mark.parametrize(
    "source,target,dual", DIFFERENTIAL_SPACES,
    ids=[f"PG{s.n}{s.q}-PG{t.n}{t.q}{'-dual' * d}" for s, t, d in DIFFERENTIAL_SPACES],
)
def test_certified_verdict_matches_sweep_first(source, target, dual):
    rng = random.Random(source.n * 100 + source.q * 10 + target.q + dual)
    matrix = random_invertible(source.gf, source.ambient, rng)
    f = induce(Semilinear.of(source, target, matrix), dual=dual)
    kinds = ["shuffle", "swap"] + ["swap-same-ends"] * (source.n > 2)
    maps = [perturbed(f, kind, rng) for kind in kinds]
    if source != PG33:  # sweep_first would check all 63,180 apartments of PG(3,3)
        maps.append(f)
    for g in maps:
        assert_matches_sweep_first(g)


def test_swap_on_one_point_and_hyperplane_is_caught_by_the_table_check():
    """Two chambers that share their point and their hyperplane, outside the
    five apartments ``reconstruct`` decomposes: the stars agree, so only the
    componentwise check of every chamber rejects the map, and the apartments
    through the chamber it names hold a witness."""
    f = identity_map(PG32)
    decomposed = set().union(
        *(apartment_of(b).chamber_set for b in all_bases(PG32)[:5])
    )
    free = [c for c in chambers_of(PG32) if c not in decomposed]
    a, b = next(
        (a, b) for a, b in itertools.combinations(free, 2)
        if a.point == b.point and hyperplane(a) == hyperplane(b)
    )
    table = dict(f.table)
    table[a], table[b] = table[b], table[a]
    g = ChamberMap(PG32, PG32, table)
    result = analyze(g)
    assert result.error is None and result.check.path == "local"
    assert_matches_sweep_first(g)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    space=st.sampled_from([PG22, PG23]),
    dual=st.booleans(),
    kind=st.sampled_from([None, "shuffle", "swap", "replace"]),
    seed=st.integers(0, 2**16),
)
def test_certified_verdict_matches_sweep_first_under_perturbation(
    space, dual, kind, seed
):
    rng = random.Random(seed)
    matrix = random_invertible(space.gf, space.ambient, rng)
    f = induce(Semilinear.of(space, space, matrix), dual=dual)
    assert_matches_sweep_first(f if kind is None else perturbed(f, kind, rng))
