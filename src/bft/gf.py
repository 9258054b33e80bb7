"""Exact arithmetic over the small finite fields GF(q), q <= 9, and
row-echelon linear algebra over them.

Field elements are integer codes 0..q-1.  For prime q the code is the
residue itself.  For prime powers the base-p digits of the code are the
coefficients of the polynomial representative (low degree first),
reduced modulo a fixed irreducible polynomial:

    GF(4): x^2 + x + 1      GF(8): x^3 + x + 1      GF(9): x^2 + 1

All arithmetic goes through precomputed lookup tables, so every
operation is exact and the field axioms can be checked exhaustively.
Codes 0 and 1 are always the additive and multiplicative identities,
which makes the prime subfield {0, .., p-1} sit inside every extension
as the same codes.

A :class:`Subspace` of GF(q)^m is kept in reduced row echelon form, so
two Subspace values are equal exactly when their row spaces are equal.
RREF rows are the outside view of a subspace: the chamber-map file
format, semilinear-map input, and the reference the tests check the
point-id masks of :class:`bft.projective.ProjSpace`, the one object per
space, against.  The building itself is computed on those masks.
"""

from __future__ import annotations

SUPPORTED_ORDERS = (2, 3, 4, 5, 7, 8, 9)

# Irreducible modulus per non-prime order, coefficients low degree first.
_MODULUS = {
    4: (1, 1, 1),     # x^2 + x + 1 over GF(2)
    8: (1, 1, 0, 1),  # x^3 + x + 1 over GF(2)
    9: (1, 0, 1),     # x^2 + 1 over GF(3)
}


class FieldError(ValueError):
    """Unsupported field order, invalid element code, or invalid map."""


class Value:
    """An immutable value whose fields are its ``__slots__``: equal to an
    object of the same class with equal fields, hashed on the fields, shown
    as ``Class(field=value, ...)``, and closed to assignment."""

    __slots__ = ()

    def __init__(self, *fields):
        for name, value in zip(self.__slots__, fields, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _poly_mul_mod(a, b, modulus, p):
    """Multiply two coefficient lists over GF(p) modulo a monic modulus."""
    deg = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for i in range(len(prod) - 1, deg - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for k in range(deg):
                prod[i - deg + k] = (prod[i - deg + k] - c * modulus[k]) % p
    return prod[:deg]


class GF:
    """Lookup-table arithmetic for GF(q).

    ``add`` and ``mul`` are q x q nested tuples, ``neg`` and ``inv`` are
    q-tuples (``inv[0]`` is None).  Instances are interned: ``GF.of(q)``
    returns the same object for the same q, so identity comparison is
    safe and hashing is cheap.
    """

    _instances: dict[int, "GF"] = {}

    def __init__(self, q: int):
        if q not in SUPPORTED_ORDERS:
            raise FieldError(
                f"unsupported field order {q}; supported: "
                + ", ".join(map(str, SUPPORTED_ORDERS))
            )
        self.q = q
        self.char = p = next(d for d in (2, 3, 5, 7) if q % d == 0)
        self.degree = deg = len(_MODULUS[q]) - 1 if q in _MODULUS else 1

        def digits(e):
            out = []
            for _ in range(deg):
                out.append(e % p)
                e //= p
            return out

        def code(ds):
            e = 0
            for d in reversed(ds):
                e = e * p + d
            return e

        if deg == 1:
            add = [[(a + b) % p for b in range(q)] for a in range(q)]
            mul = [[(a * b) % p for b in range(q)] for a in range(q)]
        else:
            modulus = _MODULUS[q]
            reps = [digits(e) for e in range(q)]
            add = [
                [code([(x + y) % p for x, y in zip(reps[a], reps[b])]) for b in range(q)]
                for a in range(q)
            ]
            mul = [
                [code(_poly_mul_mod(reps[a], reps[b], modulus, p)) for b in range(q)]
                for a in range(q)
            ]
        self.add = tuple(tuple(r) for r in add)
        self.mul = tuple(tuple(r) for r in mul)
        self.neg = tuple(next(b for b in range(q) if self.add[a][b] == 0) for a in range(q))
        inv = [None]
        for a in range(1, q):
            inv.append(next(b for b in range(1, q) if self.mul[a][b] == 1))
        self.inv = tuple(inv)

    @classmethod
    def of(cls, q: int) -> "GF":
        if q not in cls._instances:
            cls._instances[q] = cls(q)
        return cls._instances[q]

    def __repr__(self):
        return f"GF({self.q})"

    def __eq__(self, other):
        return isinstance(other, GF) and other.q == self.q

    def __hash__(self):
        return hash(("GF", self.q))

    def check_code(self, a) -> int:
        if not isinstance(a, int) or not 0 <= a < self.q:
            raise FieldError(f"{a!r} is not an element code of GF({self.q})")
        return a

    def embedding_into(self, other: "GF") -> tuple[int, ...]:
        """Canonical field embedding as a code map, e.g. GF(2) -> GF(4).

        Defined when the orders are equal (identity) or when self is the
        prime subfield of other.  Constants keep their codes, which is a
        ring monomorphism because codes 0..p-1 represent the constant
        polynomials in every extension.
        """
        if other.q == self.q:
            return tuple(range(self.q))
        if self.degree == 1 and other.char == self.char:
            return tuple(range(self.q))
        raise FieldError(f"GF({self.q}) is not a subfield of GF({other.q})")

    def is_hom_into(self, other: "GF", table) -> bool:
        """Check a code map for the ring homomorphism laws, exhaustively."""
        if len(table) != self.q or table[0] != 0 or table[1] != 1:
            return False
        if any(not 0 <= t < other.q for t in table):
            return False
        for a in range(self.q):
            for b in range(self.q):
                if table[self.add[a][b]] != other.add[table[a]][table[b]]:
                    return False
                if table[self.mul[a][b]] != other.mul[table[a]][table[b]]:
                    return False
        return True


def rref(vectors, gf: GF, ambient: int | None = None):
    """Reduced row echelon form of a list of vectors; zero rows dropped.

    Returns a tuple of tuples with unit pivots and zeros above and below
    each pivot, the unique canonical basis of the row space.
    """
    rows = [list(v) for v in vectors]
    if ambient is None:
        if not rows:
            raise FieldError("ambient dimension required for an empty span")
        ambient = len(rows[0])
    for v in rows:
        if len(v) != ambient:
            raise FieldError(f"expected vectors of length {ambient}, got {len(v)}")
        for x in v:
            gf.check_code(x)
    add, mul, neg, inv = gf.add, gf.mul, gf.neg, gf.inv
    r = 0
    for col in range(ambient):
        piv = next((k for k in range(r, len(rows)) if rows[k][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        lead = rows[r][col]
        if lead != 1:
            s = inv[lead]
            rows[r] = [mul[s][x] for x in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][col]:
                c = rows[k][col]
                rows[k] = [add[x][neg[mul[c][y]]] for x, y in zip(rows[k], rows[r])]
        r += 1
        if r == len(rows):
            break
    return tuple(tuple(row) for row in rows[:r])


class Subspace(Value):
    """A subspace of GF(q)^ambient held as its canonical RREF basis.

    ``rank`` is the linear dimension.  Build through :meth:`span` unless
    the rows are already canonical.
    """

    __slots__ = ("gf", "ambient", "rows")
    gf: GF
    ambient: int
    rows: tuple[tuple[int, ...], ...]

    @classmethod
    def span(cls, gf, ambient, vectors) -> "Subspace":
        return cls(gf, ambient, rref(vectors, gf, ambient))

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _pivots(self):
        return [next(c for c, x in enumerate(row) if x) for row in self.rows]

    def contains_vector(self, v) -> bool:
        if len(v) != self.ambient:
            raise FieldError("vector has wrong length")
        add, mul, neg = self.gf.add, self.gf.mul, self.gf.neg
        v = list(v)
        for row, pc in zip(self.rows, self._pivots()):
            c = v[pc]
            if c:
                v = [add[x][neg[mul[c][y]]] for x, y in zip(v, row)]
        return not any(v)

    def annihilator(self) -> "Subspace":
        """The space of vectors orthogonal to every row under the
        standard dot product.  Rank is complementary; applying it twice
        gives back the original subspace."""
        neg = self.gf.neg
        pivots = self._pivots()
        free = [c for c in range(self.ambient) if c not in pivots]
        basis = []
        for fc in free:
            v = [0] * self.ambient
            v[fc] = 1
            for row, pc in zip(self.rows, pivots):
                v[pc] = neg[row[fc]]
            basis.append(v)
        return Subspace.span(self.gf, self.ambient, basis)
