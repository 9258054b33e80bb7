"""bft: type-A buildings over small finite projective spaces.

Enumerates chambers (maximal flags) and apartments of PG(n, q),
verifies the combinatorics of complement sets inside one apartment by
brute force against closed-form counts, and analyses chamber maps:
whether they carry apartments to apartments and, if so, which
collineation, duality, or strong embedding induces them.
"""

__version__ = "0.1.0"

from .gf import GF, FieldError, Subspace, SUPPORTED_ORDERS
from .projective import (
    Base,
    ProjSpace,
    Semilinear,
    is_independent,
    normalize_point,
    points_of,
    span_points,
    standard_base,
)
from .buildings import (
    Apartment,
    Chamber,
    ScaleError,
    all_bases,
    apartment_of,
    apartments_containing,
    chambers_of,
)
from .combinatorics import (
    FamilyConsistencyError,
    UndefinedCountError,
    classify_adjacent_family,
    closed_form,
    complement_adjacent,
    complement_chamber,
    complement_family,
    copoint_family,
    disposition,
    intersection_count,
    is_exact,
    is_exact_by_search,
    max_inexact_family,
    point_copoint_family,
    point_family,
    residual_family,
    star_intersections,
)
from .chamber_maps import (
    Analysis,
    AnalysisError,
    ChamberMap,
    Decomposition,
    analyze,
    classify,
    induce,
    main_lemma_decompose,
    preserves_apartments,
    reconstruct,
    verify_strong_embedding,
)
from .jsonio import FormatError, dump_map, load_map

__all__ = [name for name in dir() if not name.startswith("_")]
