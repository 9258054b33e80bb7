"""bft: type-A buildings over small finite projective spaces.

Enumerates chambers (maximal flags) and apartments of PG(n, q),
verifies the combinatorics of complement sets inside one apartment by
brute force against closed-form counts, and analyses chamber maps:
whether they carry apartments to apartments and, if so, which
collineation, duality, or strong embedding induces them.
"""

__version__ = "0.1.0"

# What perfbench/gen.py imports and the README's library tour uses; every
# other public name is imported from its own module.
from .projective import (
    Base,
    ProjSpace,
    Semilinear,
    is_independent,
    points_of,
    standard_base,
)
from .buildings import all_bases, apartment_of, chambers_of
from .combinatorics import closed_form, disposition, intersection_count, is_exact
from .chamber_maps import ChamberMap, analyze, induce
from .jsonio import dump_map

__all__ = [
    "Base", "ChamberMap", "ProjSpace", "Semilinear", "all_bases", "analyze",
    "apartment_of", "chambers_of", "closed_form", "disposition", "dump_map",
    "induce", "intersection_count", "is_exact", "is_independent", "points_of",
    "standard_base",
]
