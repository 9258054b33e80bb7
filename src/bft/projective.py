"""Finite projective spaces PG(n, q) and maps between them.

A point is a normalized coordinate tuple: the first nonzero coordinate
is 1, so each rank-1 subspace has exactly one point representative.

Each space is one :class:`ProjSpace` object per (n, q), and it is also
the core representation.  A point is an id, its index in the
lexicographic list ``points_of(space)``, and a subspace is an int mask
over point ids: meet is ``&``, containment is ``a & b == b``, the rank is
read off the popcount, and a join is a union of lines, each line computed
once from coordinates as {a + lambda b}.  A :class:`Base` is its sorted
point ids.  Coordinates enter only at the edges: the rows of a file, the
``--base`` and ``--matrix`` text, and :class:`Semilinear`.  The echelon
:class:`~bft.gf.Subspace` values of GF(q)^(n+1) are the outside view; the
space translates masks to canonical RREF rows and back for file I/O,
reports and semilinear-map input.

The dual space is materialized concretely: a hyperplane of P corresponds
to the point of the dual space given by the normalized row spanning its
annihilator, and in general ``dual_subspace`` sends a pdim-k subspace to
the pdim-(n-k-1) annihilator.  Dual objects live in the ProjSpace of the
same (n, q); the pairing is the standard dot product.
"""

from __future__ import annotations

from functools import cache, cached_property, lru_cache

from .gf import GF, Subspace, Value


class MapError(ValueError):
    """A semilinear map that is not injective or not well formed."""


def normalize_point(space: ProjSpace, vector) -> tuple[int, ...]:
    """Scale so the first nonzero coordinate is 1."""
    v = tuple(space.gf.check_code(x) for x in vector)
    if len(v) != space.ambient:
        raise ValueError(f"expected {space.ambient} coordinates, got {len(v)}")
    lead = next((x for x in v if x), None)
    if lead is None:
        raise ValueError("the zero vector is not a projective point")
    if lead == 1:
        return v
    s = space.gf.inv[lead]
    return tuple(space.gf.mul[s][x] for x in v)


@lru_cache(maxsize=None)
def points_of(space: ProjSpace) -> tuple[tuple[int, ...], ...]:
    """All points in lexicographic coordinate order, which is id order."""
    return tuple(map(space.point, range(space.size)))


def bits(mask: int):
    """The point ids of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class ProjSpace:
    """PG(n, q), the projective space of GF(q)^(n+1), on point ids and
    subspace masks.  ``ProjSpace.of(n, q)`` and ``ProjSpace(n, gf)`` return
    the one instance per (n, q), so equality and hashing are identity, and
    every attribute is closed to assignment and deletion.

    Ids are computed from coordinates arithmetically (:meth:`id_of`
    memoises them, as file rows repeat points), and lines and canonical
    rows are cached on first use, so work on one apartment builds only the
    part of the space that apartment touches.  A point perp is spanned on
    every call: a request asks for each one once.  The tables that grow
    with n are built on first use as well, so making a space costs the
    same at every n.  No table maps rows back to masks; :meth:`mask_of`
    spans them afresh.
    """

    _instances: dict = {}

    def __new__(cls, n: int, gf: GF):
        key = n, gf.q
        space = cls._instances.get(key)
        if space is None:
            if n < 2:
                raise ValueError(f"projective dimension must be >= 2, got {n}")
            space = cls._instances[key] = super().__new__(cls)
            # set up here: Python runs __init__ again on every call
            space.__dict__.update(n=n, gf=GF.of(gf.q), q=gf.q, ambient=n + 1, _ids={}, _lines={})
        return space

    @classmethod
    def of(cls, n: int, q: int) -> "ProjSpace":
        return cls(n, GF.of(q))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        return f"PG({self.n},{self.q})"

    @cached_property
    def size(self) -> int:
        """The number of points."""
        return (self.q**self.ambient - 1) // (self.q - 1)

    @cached_property
    def full(self) -> int:
        return (1 << self.size) - 1

    @cached_property
    def _offset(self) -> list:
        """Entry k: the number of points whose first nonzero coordinate is
        right of k."""
        q, m = self.q, self.ambient
        return [(q ** (m - 1 - k) - 1) // (q - 1) for k in range(m)]

    @cached_property
    def _rank_of_size(self) -> dict:
        return {(self.q**r - 1) // (self.q - 1): r for r in range(self.ambient + 1)}

    @cached_property
    def _line_slots(self) -> int:
        """A line mask takes size/8 bytes: keep at most ~64 MB of them."""
        return (1 << 29) // self.size

    def subspace(self, vectors) -> Subspace:
        return Subspace.span(self.gf, self.ambient, vectors)

    # ------------------------------------------------------------- points

    def id_of(self, vector) -> int:
        """The id of the point spanned by a nonzero vector."""
        key = tuple(vector)
        i = self._ids.get(key)
        # (1.0, 0, 0) finds the entry of (1, 0, 0): a hit stands only if the codes
        # sum to an int, which one float, Fraction or Decimal code prevents
        if i is None or type(sum(key)) is not int:
            i = self._ids[key] = self._id(normalize_point(self, key))
        return i

    def _id(self, v) -> int:
        """The id of a nonzero vector of valid codes, scaled as it goes."""
        gf, q = self.gf, self.q
        lead = next(k for k, x in enumerate(v) if x)
        scale = gf.mul[gf.inv[v[lead]]]
        i = 0
        for x in v[lead + 1 :]:
            i = i * q + scale[x]
        return i + self._offset[lead]

    @cache
    def point(self, i: int) -> tuple[int, ...]:
        """The normalized coordinates of point id ``i``."""
        q, m = self.q, self.ambient
        lead = next(k for k in range(m) if i >= self._offset[k])
        tail, digits = i - self._offset[lead], []
        for _ in range(m - 1 - lead):
            tail, x = divmod(tail, q)
            digits.append(x)
        return (0,) * lead + (1,) + tuple(reversed(digits))

    def base(self, ids) -> "Base":
        """The base on independent point ids (not checked)."""
        return Base(self, tuple(sorted(ids)))

    # ---------------------------------------------------------- subspaces

    def rank(self, mask: int) -> int:
        """Linear dimension of a subspace mask, from its point count."""
        return self._rank_of_size[mask.bit_count()]

    def line(self, a: int, b: int) -> int:
        """The mask of the line through distinct points a and b."""
        key = a * self.size + b
        mask = self._lines.get(key)
        if mask is None:
            add, mul = self.gf.add, self.gf.mul
            u, v = self.point(a), self.point(b)
            mask = 1 << a | 1 << b
            for lam in range(1, self.q):
                mask |= 1 << self._id([add[x][mul[lam][y]] for x, y in zip(u, v)])
            if len(self._lines) < self._line_slots:
                self._lines[key] = self._lines[b * self.size + a] = mask
        return mask

    def join_point(self, mask: int, p: int) -> int:
        """span(S, p): S with every line from p to a point of S."""
        if mask >> p & 1:
            return mask
        out = mask | 1 << p
        for x in bits(mask):
            out |= self.line(p, x)
        return out

    def span(self, ids) -> int:
        mask = 0
        for p in ids:
            mask = self.join_point(mask, p)
        return mask

    def is_independent(self, ids) -> bool:
        """No point lies in the span of the ones before it.  The span of
        the whole set is never built: for a base it is the full space."""
        ids = list(ids)
        mask = 0
        for k, p in enumerate(ids):
            if mask >> p & 1:
                return False
            if k + 1 < len(ids):
                mask = self.join_point(mask, p)
        return True

    def perp(self, p: int) -> int:
        """The hyperplane of points orthogonal to point p.

        With v = point(p) and v_l = 1 its lead coordinate, it is spanned by
        the m - 1 independent vectors e_j - v_j e_l, j != l.
        """
        v, neg = self.point(p), self.gf.neg
        lead = v.index(1)
        ids = []
        for j, x in enumerate(v):
            if j != lead:
                w = [0] * len(v)
                w[j], w[lead] = 1, neg[x]
                ids.append(self._id(w))
        return self.span(ids)

    # ------------------------------------------------------ RREF views

    @cache
    def rows(self, mask: int) -> tuple[tuple[int, ...], ...]:
        """The canonical RREF rows of a subspace mask.

        The pivot columns are the leading columns of the points, and row i
        is the one point whose pivot coordinates form the i-th unit vector.
        """
        pts = [self.point(i) for i in bits(mask)]
        pivots = {p.index(1) for p in pts}
        units = [p for p in pts if sum(1 for c in pivots if p[c]) == 1]
        return tuple(sorted(units, key=lambda p: p.index(1)))

    def subspace_of(self, mask: int) -> Subspace:
        """The :class:`Subspace` value of a mask."""
        return Subspace(self.gf, self.ambient, self.rows(mask))

    def mask_of(self, sub: Subspace) -> int:
        """The mask of a :class:`Subspace` of this space, spanned from the
        points of its rows on every call."""
        if sub.gf != self.gf or sub.ambient != self.ambient:
            raise ValueError("subspace does not live in this space")
        return self.span(map(self.id_of, sub.rows))


def span_points(space: ProjSpace, points) -> Subspace:
    return space.subspace(list(points))


def is_independent(space: ProjSpace, points) -> bool:
    return space.is_independent(map(space.id_of, points))


def points_of_subspace(space: ProjSpace, sub: Subspace) -> tuple[tuple[int, ...], ...]:
    """The points lying in a subspace, sorted lexicographically."""
    return tuple(map(space.point, bits(space.mask_of(sub))))


class Base(Value):
    """n + 1 points spanning the space; an unordered set of point ids
    stored sorted, so ``ids[i]`` is the i-th base point of the apartment.
    Ids ascend with coordinates, and ``points`` is their coordinate view.
    """

    __slots__ = ("space", "ids")
    space: ProjSpace
    ids: tuple[int, ...]

    @property
    def points(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(self.space.point, self.ids))

    @classmethod
    def of(cls, space: ProjSpace, points) -> "Base":
        ids = tuple(sorted(space._id(normalize_point(space, p)) for p in points))
        if len(set(ids)) != space.ambient:
            raise ValueError(f"a base of {space!r} needs {space.ambient} distinct points")
        if not space.is_independent(ids):
            raise ValueError("base points are linearly dependent")
        return cls(space, ids)


def standard_base(space: ProjSpace) -> Base:
    """The unit vectors: e_k is the first point whose lead coordinate is k."""
    return space.base(space._offset)


# ---------------------------------------------------------------- duality


def dual_subspace(space: ProjSpace, sub: Subspace) -> Subspace:
    """The annihilator, read as a subspace of the dual space.

    Inclusion-reversing and involutive; pdim k goes to pdim n - k - 1.
    """
    if sub.gf != space.gf or sub.ambient != space.ambient:
        raise ValueError("subspace does not live in this space")
    return sub.annihilator()


# ------------------------------------------------------------- semilinear


class Semilinear(Value):
    """An injective semilinear map between spaces of equal dimension.

    ``sigma`` is a field homomorphism GF(q) -> GF(q') as a code table
    (such as ``GF.embedding_into``); ``matrix`` is an
    (n+1) x (n+1) matrix over the target field, applied on the right of
    row vectors.  Construction fails if sigma is not a homomorphism or
    the matrix is singular over the target field, so every instance
    preserves linear independence and induces a strong embedding of the
    point sets.
    """

    __slots__ = ("source", "target", "sigma", "matrix")
    source: ProjSpace
    target: ProjSpace
    sigma: tuple[int, ...]
    matrix: tuple[tuple[int, ...], ...]

    def __init__(self, source: ProjSpace, target: ProjSpace, sigma, matrix):
        super().__init__(source, target, sigma, matrix)
        if self.source.n != self.target.n:
            raise MapError("source and target must have equal projective dimension")
        if not self.source.gf.is_hom_into(self.target.gf, self.sigma):
            raise MapError(
                f"sigma is not a field homomorphism GF({self.source.q}) -> GF({self.target.q})"
            )
        m = self.target.ambient
        if len(self.matrix) != m or any(len(r) != m for r in self.matrix):
            raise MapError(f"matrix must be {m} x {m}")
        if Subspace.span(self.target.gf, m, self.matrix).rank != m:
            raise MapError("matrix is singular over the target field")

    @classmethod
    def of(cls, source: ProjSpace, target: ProjSpace, matrix, sigma=None) -> "Semilinear":
        if sigma is None:
            sigma = source.gf.embedding_into(target.gf)
        return cls(source, target, tuple(sigma), tuple(tuple(r) for r in matrix))

    def apply_vector(self, v) -> tuple[int, ...]:
        gf = self.target.gf
        w = [0] * self.target.ambient
        for x, row in zip(v, self.matrix):
            s = self.sigma[x]
            if s:
                w = [gf.add[a][gf.mul[s][b]] for a, b in zip(w, row)]
        return tuple(w)

    def apply_subspace(self, sub: Subspace) -> Subspace:
        if sub.gf != self.source.gf or sub.ambient != self.source.ambient:
            raise ValueError("subspace does not live in the source space")
        return Subspace.span(
            self.target.gf,
            self.target.ambient,
            [self.apply_vector(r) for r in sub.rows],
        )
