"""Closed-form counts for PG(n, q): points, subspaces, chambers, apartments."""

from __future__ import annotations

from math import factorial, prod

__all__ = ["MAX_DIMENSION", "point_count", "gaussian_binomial", "chamber_count", "apartment_count"]

# The largest n the CLI and the file reader take.  From n = 68 at q = 9,
# apartment_count has too many digits for str(); and PG(n, q) has more than
# 2**n chambers, so no file lists them all beyond it.
MAX_DIMENSION = 64


def point_count(n: int, q: int) -> int:
    return (q ** (n + 1) - 1) // (q - 1)


def gaussian_binomial(m: int, k: int, q: int) -> int:
    num = prod(q ** (m - i) - 1 for i in range(k))
    den = prod(q ** (i + 1) - 1 for i in range(k))
    return num // den


def chamber_count(n: int, q: int) -> int:
    return prod((q**k - 1) // (q - 1) for k in range(2, n + 2))


def apartment_count(n: int, q: int) -> int:
    frames = prod((q ** (n + 1) - q**i) // (q - 1) for i in range(n + 1))
    return frames // factorial(n + 1)
