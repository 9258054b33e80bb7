"""Maps of chamber sets and the recovery of the geometry behind them.

A :class:`ChamberMap` is a total table of mask chains, as ``flags`` yields
them, from the chambers of one projective space to chambers of another of
the same projective dimension; a :class:`Chamber` is built only as a view
or a witness.  ``induce`` produces the two honest ways to get one from a
semilinear map: each subspace goes to the span of its points' images
("direct"), or to the meet of its points' image hyperplanes, the chain read
backwards ("dual").  ``_subspace_image`` and ``_chain_image`` are that one
definition of an induced chain, for any point map; ``subspace_image``
applies it to a semilinear map, and ``jsonio.dump_map`` writes a semilinear
map from it with no table built and no chain imaged.

The analysis direction asks: given only the table, was it induced?

* ``preserves_apartments`` checks that whole apartments land on whole
  apartments, recovering each candidate image apartment from the points of
  the image chambers (so the target never needs a full base enumeration).
  It checks the bases it is given, or else every base of the source.
* ``main_lemma_decompose`` works inside a single apartment: it transports
  each complement family through the map, identifies the image as a
  complement family of the image apartment, classifies the transported
  row/column families, and reads off a base correspondence ``sigma``
  together with its orientation case (1 = direct, 2 = dual).  No request
  calls it: it is the reference for the sigma ``reconstruct`` reports.
* ``reconstruct`` is the whole certificate.  It rebuilds ``g`` from
  chamber stars: all chambers through a point must map to chambers sharing
  a 0-component (direct) or an (n-1)-component (dual), and checks that
  ``g`` is injective as it goes.  It then checks once that the whole table
  is induced by ``g`` (through ``_chain_image``); together these make the
  point map a strong embedding, so by the main theorem they certify the
  map.  It reads ``sigma`` off ``g``.
  ``verify_strong_embedding`` is the definition, which the tests hold the
  certificate to; no request calls it.
* ``analyze`` runs the whole procedure once.  When ``reconstruct``
  passes, every apartment is preserved by the converse of the main
  theorem, so the apartment verdict is certified without a sweep.  When
  it fails, the failure's witness names source chambers: the apartments
  through them are checked first, and only if all of them are preserved
  are all apartments swept, if the source has at most ``SWEEP_CAP``
  apartments.  ``classify`` returns just the label.

Failures carry witnesses (a base whose apartment breaks, or the source
chambers whose images disagree) rather than a bare boolean.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import partial, reduce
from operator import and_, itemgetter

from .buildings import (
    Apartment,
    Chamber,
    apartment_of,
    chambers_of,
    check_chamber,
    flags,
    iter_bases,
)
from .combinatorics import (
    FamilyConsistencyError,
    classify_adjacent_family,
    complement_family,
    copoint_family,
    point_family,
)
from .counts import apartment_count
from .gf import Subspace
from .projective import (
    Base,
    MapError,
    ProjSpace,
    Semilinear,
    bits,
    dual_subspace,
    points_of,
)

__all__ = [
    "AnalysisError",
    "DecompositionError",
    "ReconstructionError",
    "ChamberMap",
    "ApartmentCheck",
    "Decomposition",
    "Analysis",
    "subspace_image",
    "induce",
    "preserves_apartments",
    "main_lemma_decompose",
    "reconstruct",
    "verify_strong_embedding",
    "analyze",
    "classify",
    "dual_point",
]

# The most apartments ``analyze`` sweeps.  PG(4,2) (83,328, 12-14 s),
# PG(3,3) and every PG(2, q) are in; PG(3,4), PG(4,3) and PG(5,2) are out.
SWEEP_CAP = 2**17


class AnalysisError(RuntimeError):
    """A chamber map failed a structural check; carries a witness, ``()``
    when the check names nothing."""

    def __init__(self, message, witness=()):
        super().__init__(message)
        self.witness = witness


class DecompositionError(AnalysisError):
    """An apartment's image does not behave like an apartment."""


class ReconstructionError(AnalysisError):
    """No strong embedding's point map explains the chamber images."""


class ChamberMap:
    """A total mapping from the chambers of ``source`` to those of ``target``:
    ``chains`` maps chains of masks; ``table``, in ``chambers_of`` order, and
    calls are its :class:`Chamber` view."""

    def __init__(self, source: ProjSpace, target: ProjSpace, table):
        if source.n != target.n:
            raise MapError(
                f"chamber maps need equal projective dimension, "
                f"got {source.n} and {target.n}"
            )
        table = dict(table)
        expected = set(chambers_of(source))
        missing = expected - table.keys()
        if missing:
            raise MapError(f"table is missing {len(missing)} source chambers")
        extra = table.keys() - expected
        if extra:
            raise MapError(f"table has {len(extra)} unknown source chambers")
        for image in table.values():
            try:
                check_chamber(target, image)
            except ValueError as exc:
                raise MapError(f"invalid image chamber: {exc}") from exc
        self.source, self.target = source, target
        self.chains = {c.masks: image.masks for c, image in table.items()}

    @classmethod
    def _trusted(cls, source: ProjSpace, target: ProjSpace, chains: dict):
        """A map on chains its caller guarantees: equal dimensions, every
        chain of ``source`` once, each mapped to a chain of ``target``.
        None of it is checked again."""
        f = cls.__new__(cls)
        f.source, f.target, f.chains = source, target, chains
        return f

    @property
    def table(self) -> dict:
        target, chains = self.target, self.chains
        return {c: Chamber(target, chains[c.masks]) for c in chambers_of(self.source)}

    def __call__(self, chamber: Chamber) -> Chamber:
        return Chamber(self.target, self.chains[chamber.masks])

    def __repr__(self):
        return (
            f"ChamberMap(PG({self.source.n},{self.source.q}) -> "
            f"PG({self.target.n},{self.target.q}), {len(self.chains)} chambers)"
        )


def dual_point(space: ProjSpace, hyperplane: Subspace) -> tuple[int, ...]:
    """The normalized coordinate vector of a hyperplane's annihilator line."""
    ann = dual_subspace(space, hyperplane)
    if ann.rank != 1:
        raise ValueError(f"expected a hyperplane, got rank {hyperplane.rank}")
    return ann.rows[0]


def _subspace_image(target: ProjSpace, images, dual: bool):
    """The function sending a source subspace mask to its image under a
    point map, memoised per subspace.

    With ``dual=False`` ``images[p]`` is the id of point p's image, and a
    subspace goes to the span of its points' images.  With ``dual=True``
    ``images[p]`` is the mask of a hyperplane, and a subspace goes to the
    meet of its points' hyperplanes.
    """

    class Images(dict):
        def __missing__(self, mask):
            parts = [images[p] for p in bits(mask)]
            image = self[mask] = reduce(and_, parts) if dual else target.span(parts)
            return image

    return Images().__getitem__


def _chain_image(image, dual: bool):
    """The function sending a source chain of masks to its image chain:
    each subspace to its ``image``, the chain read backwards when ``dual``,
    so points and hyperplanes trade places."""
    order = reversed if dual else iter
    return lambda chain: tuple(map(image, order(chain)))


def subspace_image(semi: Semilinear, dual: bool = False):
    """The function sending a source subspace mask to its image under
    ``semi``: each point goes to the point ``semi`` sends it to, or with
    ``dual=True`` to that point's perp, a hyperplane.  The image of a chain
    is its subspaces' images, read backwards when dual (``_chain_image``)."""
    source, target = semi.source, semi.target
    images = [target.id_of(semi.apply_vector(source.point(p))) for p in range(source.size)]
    if dual:
        images = list(map(target.perp, images))
    return _subspace_image(target, images, dual)


def induce(semi: Semilinear, dual: bool = False) -> ChamberMap:
    """The chamber map sending each chamber to the image chain of
    :func:`subspace_image`.  A nonsingular map sends flags to flags, so the
    table is not checked again."""
    image = _chain_image(subspace_image(semi, dual), dual)
    chains = {chain: image(chain) for chain in flags(semi.source)}
    return ChamberMap._trusted(semi.source, semi.target, chains)


ApartmentCheck = namedtuple(
    "ApartmentCheck", "ok path checked witness_base witness_image", defaults=(None, None)
)
ApartmentCheck.__doc__ = """The apartment verdict.  ``path`` says how it was
reached: ``"certified"`` by reconstruction, ``"local"`` on the apartments a
witness points at, or ``"sweep"`` over every base of the source.  A failed
check names a ``witness_base`` and the ``witness_image`` chamber set."""


def _image_apartment(f: ChamberMap, ap: Apartment):
    """The target apartment of the images of ``ap``'s chambers, or None."""
    image = set(map(f.chains.__getitem__, ap.chains))
    points = {chain[0].bit_length() - 1 for chain in image}
    target = f.target
    if len(image) == len(ap) and len(points) == target.n + 1 and target.is_independent(points):
        candidate = apartment_of(target.base(points))
        if image.issuperset(candidate.chains):
            return candidate
    return None


def preserves_apartments(f: ChamberMap, bases=None) -> ApartmentCheck:
    """Check that the image of each apartment of ``bases`` is a target
    apartment; by default ``bases`` is every base of the source, in the
    order of ``iter_bases``, with no cap (:func:`analyze` sweeps only up to
    ``SWEEP_CAP`` apartments).

    The first failing base is returned as a witness together with the
    offending image chamber set.
    """
    path = "sweep" if bases is None else "local"
    if bases is None:
        bases = iter_bases(f.source)
    checked = 0
    for checked, base in enumerate(bases, start=1):
        ap = apartment_of(base)
        if _image_apartment(f, ap) is None:
            return ApartmentCheck(False, path, checked, base, frozenset(map(f, ap.chambers)))
    return ApartmentCheck(True, path, checked)


def _witness_bases(*chambers: Chamber):
    """The bases whose apartments pass through the named source chambers,
    lazily and each once, in the order the chambers are named.

    A chamber V_0 < ... < V_{n-1} lies in the apartment of a base exactly
    when the base has one point in each V_k minus V_{k-1}, with V_{-1} = 0
    and V_n the whole space, so these are listed with no base enumeration.

    For two of the failures :func:`reconstruct` names, this walk is proved
    complete: an apartment it lists is not preserved.  Both rest on counts
    in an apartment A(B): its chambers are the orderings of B, so it holds
    n! chambers through a point of B (fixed first), n! inside a hyperplane
    spanned by B (fixed last), and (n-1)! through one and inside the other.
    A preserved apartment has (n+1)! distinct images forming an apartment.

    * A collapsing star: every chamber through p maps to a chamber through
      one point x inside one hyperplane H.  Every base listed for the
      witness's first chamber holds p, so its n! chambers through p land on
      at most (n-1)! chambers of any apartment, and n! > (n-1)!: the first
      apartment listed fails.
    * A non-injective g: points p' and p have one image, a point (or when
      dual a hyperplane), and the witness names the first chambers of
      their stars, p' first.  A base through the first chamber that also
      holds p exists, as p lies in one of that chamber's layers; its 2 n!
      chambers through p' or p land on chambers through that one point (or
      inside that one hyperplane), of which an apartment holds n!.  So the
      walk stops no later than the first such base.
    """
    seen = set()
    for chamber in chambers:
        space = chamber.space
        chain = (0, *chamber.masks, space.full)
        layers = [bits(high & ~low) for low, high in zip(chain, chain[1:])]
        for base in map(space.base, itertools.product(*layers)):
            if base not in seen:
                seen.add(base)
                yield base


def main_lemma_decompose(f: ChamberMap, base: Base):
    """Read a base correspondence off one apartment's complement families.

    Returns ``(sigma, case)`` where ``sigma`` maps source base indices to
    image base indices; case 1 means point families go to point families,
    case 2 means they go to copoint families.  Raises
    :class:`DecompositionError` when any transported family fails to be a
    complement family of the image apartment, or the cases disagree.
    """
    ap = apartment_of(base)
    image_ap = _image_apartment(f, ap)
    if image_ap is None:
        raise DecompositionError(
            "the image of the apartment is not an apartment",
            witness=(base, frozenset(map(f, ap.chambers))),
        )
    n = f.source.n
    pairs = [(i, j) for i in range(n + 1) for j in range(n + 1) if i != j]
    lookup = {
        frozenset(complement_family(image_ap, k, m)): (k, m) for k, m in pairs
    }
    transported = {}
    for pair in pairs:
        image = frozenset(f(c) for c in complement_family(ap, *pair))
        match = lookup.get(image)
        if match is None:
            raise DecompositionError(
                f"the image of complement family {pair} is not a complement "
                "family of the image apartment",
                witness=(base, pair),
            )
        transported[pair] = match
    sigma = []
    orientations = set()
    for i in range(n + 1):
        family = {transported[(i, j)] for j in range(n + 1) if j != i}
        try:
            index, orientation = classify_adjacent_family(family)
        except (FamilyConsistencyError, ValueError) as exc:
            raise DecompositionError(
                f"families anchored at {i} do not transport coherently: {exc}",
                witness=(base, i),
            ) from exc
        sigma.append(index)
        orientations.add(orientation)
    if len(orientations) != 1:
        raise DecompositionError(
            "point families transport with mixed orientations",
            witness=(base, tuple(sigma)),
        )
    if sorted(sigma) != list(range(n + 1)):
        raise DecompositionError(
            f"transported indices {sigma} are not a permutation",
            witness=(base, tuple(sigma)),
        )
    case = 1 if orientations == {"row"} else 2
    for i in range(n + 1):
        star = frozenset.intersection(
            *(
                frozenset(f(c) for c in complement_family(ap, i, j))
                for j in range(n + 1)
                if j != i
            )
        )
        expected = (
            point_family(image_ap, sigma[i])
            if case == 1
            else copoint_family(image_ap, sigma[i])
        )
        if star != expected:
            raise DecompositionError(
                f"star intersection at {i} does not match the transported "
                "point family",
                witness=(base, i),
            )
    return tuple(sigma), case


Decomposition = namedtuple("Decomposition", "kind g sigma_by_base")
Decomposition.__doc__ = """A certified map: ``kind`` is "direct" or "dual"; ``g``
sends a source point to a target point (direct) or target hyperplane (dual),
whose annihilator point :func:`dual_point` gives; ``sigma_by_base`` sends a
report base to (sigma, case), as :func:`main_lemma_decompose` would."""


def reconstruct(f: ChamberMap) -> Decomposition:
    """Certify a chamber map: recover the strong embedding that induces it.

    One pass over the point stars, in point order, builds ``g``: the images
    of all chambers through a point p must share a 0-component (kind
    "direct", g(p) is that point) or an (n-1)-component (kind "dual", g(p)
    is that hyperplane), and g(p) must not be the image of an earlier point
    of its kind, so ``g`` is injective.  Then the kind must be the same for
    every point.  Last, every chamber's image must be the chain
    ``_chain_image`` induces from ``g``: each component S goes to span g(S)
    (direct), or the components, read backwards, are the meets of the image
    hyperplanes of S (dual).
    Violations raise :class:`ReconstructionError` whose witness is a tuple
    of source chambers: two or four from one star, the first chamber of
    each of two stars, or the one chamber not induced.

    The table check also settles the hyperplanes, so no hyperplane map is
    rebuilt: every chamber on a hyperplane H has the image component
    induced(H), so the chambers on H agree and h(H) = induced(H); and
    incidence holds, g(p) <= span g(H) (direct) and meet g(H) <= g(p) (dual).

    The point map (g, or the annihilators of the hyperplanes g(p) when
    dual) is then a strong embedding (:func:`verify_strong_embedding`),
    with no second look at its ranks.  Image chambers are chambers, so the
    table check gives rank span g(S) = rank S for every chamber component
    S; and no star collapses, so two different image hyperplanes (direct)
    or points (dual) make the whole space span full rank.

    Sigma is then read off g on the report bases, the first five of
    :func:`iter_bases`: base point i goes to g(p_i), or when dual to the
    meet of g(p_j), j != i, and sigma[i] is its index in the sorted image
    base.
    """
    source, target = f.source, f.target
    chains, chamber = f.chains, partial(Chamber, source)  # chambers only for witnesses
    walk = list(flags(source))  # star by star, in point order: witnesses follow it
    g, first, seen = [], {}, {}  # g[p]; each kind's, and each image's, first chain
    for head, star in itertools.groupby(walk, itemgetter(0)):
        star = list(star)
        images = [chains[c] for c in star]
        point, hyp = images[0][0], images[0][-1]
        # the first chambers whose image point, and image hyperplane, differ
        moved = next((c for c, d in zip(star, images) if d[0] != point), None)
        turned = next((c for c, d in zip(star, images) if d[-1] != hyp), None)
        p = head.bit_length() - 1
        if moved is None and turned is None:
            raise ReconstructionError(
                f"images of the chambers through {source.point(p)} collapse; "
                "no unique component map exists",
                witness=(chamber(star[0]), chamber(star[-1])),
            )
        if moved is not None and turned is not None:
            raise ReconstructionError(
                f"chambers through {source.point(p)} map to chambers sharing "
                "neither a point nor a hyperplane",
                witness=tuple(map(chamber, (star[0], moved, star[0], turned))),
            )
        first.setdefault("direct" if moved is None else "dual", star[0])
        g.append(point.bit_length() - 1 if moved is None else hyp)
        # one dict for both kinds: a hyperplane of h points has a mask of at
        # least 2^h - 1, above q h, the last point id
        other = seen.setdefault(g[-1], star[0])
        if other != star[0]:
            raise ReconstructionError(
                f"map is not injective: {chamber(other).point} and "
                f"{source.point(p)} share an image",
                witness=(chamber(other), chamber(star[0])),
            )
    if len(first) > 1:  # after every star, so a later star's failure comes first
        a, b = chamber(first["direct"]), chamber(first["dual"])
        raise ReconstructionError(
            f"point {a.point} reconstructs as direct but {b.point} as dual",
            witness=(a, b),
        )
    (kind,) = first
    dual = kind == "dual"
    image = _chain_image(_subspace_image(target, g, dual), dual)
    for c in walk:
        if chains[c] != image(c):
            raise ReconstructionError(
                "a chamber image is not componentwise induced by the point map",
                witness=(chamber(c),),
            )

    case = 1 if kind == "direct" else 2
    sigma_by_base = {}
    for base in itertools.islice(iter_bases(source), 5):
        ms = [g[p] for p in base.ids]
        if dual:  # point i goes to the meet of the other images
            ms = [reduce(and_, ms[:i] + ms[i + 1 :]) for i in range(len(ms))]
        sigma_by_base[base] = tuple(map(sorted(ms).index, ms)), case

    view = target.subspace_of if dual else target.point
    g = {source.point(p): view(m) for p, m in enumerate(g)}
    return Decomposition(kind=kind, g=g, sigma_by_base=sigma_by_base)


def verify_strong_embedding(source: ProjSpace, target: ProjSpace, g: dict) -> None:
    """Check that a point map is a strong embedding, or raise
    :class:`ReconstructionError` with a witness: the first point ``g``
    misses, two points with one image, or the failing :class:`Subspace`.
    This is the definition :func:`reconstruct` is tested against.

    The test: ``g`` is total and injective, and rank span g(S) = rank S for
    every subspace S (each chamber component, and the whole space).  For
    injective ``g`` this equals "lines land inside lines, and independent
    sets stay independent".  Both ways rest on one fact: if lines land
    inside lines and b_0..b_r is a base of S, then span g(S) = span
    g(b_0..b_r), by induction on j, because every point of span(b_0..b_j)
    lies in span(b_0..b_{j-1}), is b_j, or lies on the line through b_j and
    a point y of span(b_0..b_{j-1}), whose image lies on the line through
    the distinct g(b_j), g(y).  (<=) As g(b_0..b_r) is independent, rank
    span g(S) = r + 1.  (=>) A line keeps rank 2; an independent I spanning
    S has rank span g(I) = rank span g(S) = rank S = |I|.
    This checks ~400 subspaces on PG(4, 2) instead of its 83,328 bases.
    """
    pts = points_of(source)
    preimage = {}
    for p in pts:
        if p not in g:
            raise ReconstructionError(f"map misses point {p}", witness=p)
        other = preimage.setdefault(g[p], p)
        if other != p:
            raise ReconstructionError(
                f"map is not injective: {other} and {p} share an image",
                witness=(other, p),
            )
    image_id = [target.id_of(g[p]) for p in pts]
    masks = {m for c in chambers_of(source) for m in c.masks} | {source.full}
    for mask in sorted(masks, key=lambda m: (source.rank(m), m)):
        rank = source.rank(mask)
        image_rank = target.rank(target.span(image_id[p] for p in bits(mask)))
        if image_rank != rank:
            raise ReconstructionError(
                f"subspace {source.rows(mask)} of rank {rank} spans rank {image_rank}",
                witness=source.subspace_of(mask),
            )


Analysis = namedtuple("Analysis", "check label decomposition error", defaults=(None, None))
Analysis.__doc__ = """The one-pass verdict on a chamber map.  ``decomposition``
is set for induced maps; ``error`` is the :class:`AnalysisError` that
stopped the rest."""


def analyze(f: ChamberMap) -> Analysis:
    """Decide once where a chamber map comes from.

    :func:`reconstruct` rebuilds the point map g and certifies it: the
    table is componentwise induced by g, and g is injective.  So g is onto
    exactly when the point counts agree, which decides collineation versus
    strong embedding.  The certificate shows that every apartment is
    preserved, by the converse of the main theorem: a chamber of the
    apartment A(B) is the chain of prefix spans of an ordering of B, and as
    f is componentwise induced by the strong embedding g (which spans g(S)
    from g of any base of S, see :func:`verify_strong_embedding`), its
    image is the chain of prefix spans of the same ordering of g(B).  These
    images are distinct, so they are all (n+1)! chambers of A(g(B)).  The
    dual case is the same with annihilators.

    By the theorem, a map that fails the certificate does not preserve
    apartments.  The apartments through the source chambers its witness
    names (see :func:`_witness_bases`) are checked first, for a witness
    base of ``"not-apartment-preserving"``.  As :func:`reconstruct` checks
    the stars and injectivity, then the kinds, then the table, a g that is
    not injective is named as such, and for it, as for a collapsing star,
    that walk is proved to find a witness.  Only if every apartment it
    lists is preserved, and the source has at most ``SWEEP_CAP``
    apartments, are all apartments swept; the "neither", mixed-kinds and
    injective "not induced" failures have no such proof, but no known map
    reaches the sweep.  A sweep that finds no witness contradicts the
    theorem and is labelled ``"apartment-preserving-not-induced"``; above
    the cap no sweep runs and the map keeps ``"not-apartment-preserving"``.
    Either way ``error`` is set.
    """
    apartments = apartment_count(f.source.n, f.source.q)
    try:
        decomposition = reconstruct(f)
    except AnalysisError as exc:
        check = preserves_apartments(f, _witness_bases(*exc.witness))
        if check.ok:
            if apartments > SWEEP_CAP:
                return Analysis(check, "not-apartment-preserving", error=exc)
            check = preserves_apartments(f)
            if check.ok:
                return Analysis(check, "apartment-preserving-not-induced", error=exc)
        return Analysis(check, "not-apartment-preserving")
    check = ApartmentCheck(True, "certified", apartments)
    onto = len(decomposition.g) == f.target.size  # g is injective
    head = "collineation" if onto else "strong-embedding"
    return Analysis(check, f"{head}-{decomposition.kind}", decomposition)


def classify(f: ChamberMap) -> str:
    """The label of :func:`analyze`, raising the error that stopped it."""
    result = analyze(f)
    if result.error is not None:
        raise result.error
    return result.label
