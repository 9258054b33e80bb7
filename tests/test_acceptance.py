"""Acceptance battery: nine end-to-end checks, one pass/fail line each.

Each test prints exactly one line ``<name>: PASS`` or ``<name>: FAIL — ...``
and asserts the same condition, so the printed line and the pytest verdict
always agree.  All comparisons are exact integer / set equalities.
"""

import itertools
import random
import time
from math import factorial

import pytest

from bft.buildings import (
    all_bases,
    apartment_of,
    chambers_of,
)
from bft.chamber_maps import ChamberMap, analyze, classify, induce
from bft.combinatorics import (
    UndefinedCountError,
    closed_form,
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
from bft.gf import GF
from bft.projective import ProjSpace, Semilinear, points_of, standard_base
from conftest import random_invertible
from reference import apply_point, common_apartment, panels_of, parts

PG22 = ProjSpace.of(2, 2)
PG32 = ProjSpace.of(3, 2)
PG24 = ProjSpace.of(2, 4)


def conclude(name: str, ok: bool, detail: str = ""):
    line = f"{name}: " + ("PASS" if ok else f"FAIL — {detail}")
    print(line)
    assert ok, line


def standard_apartment(n: int, q: int = 2):
    return apartment_of(standard_base(ProjSpace.of(n, q)))


def index_pairs(n: int):
    return [(i, j) for i in range(n + 1) for j in range(n + 1) if i != j]


def identity_matrix(m: int):
    return tuple(tuple(1 if r == c else 0 for c in range(m)) for r in range(m))


# 1 ------------------------------------------------------------------------


def test_counting_sweep():
    """Brute-force complement overlaps equal the closed forms, n = 2..5."""
    start = time.monotonic()
    expected_pairs = {2: (2, 1), 3: (8, 4), 4: (40, 20), 5: (240, 120)}
    expected_case6 = {3: 10, 4: 42, 5: 228}
    mismatches = {}
    for n in (2, 3, 4, 5):
        assert closed_form(n, 1) == 0
        assert (closed_form(n, 2), closed_form(n, 4)) == expected_pairs[n]
        if n == 2:
            with pytest.raises(UndefinedCountError):
                closed_form(2, 6)
        else:
            assert closed_form(n, 6) == expected_case6[n]
        ap = standard_apartment(n)
        pairs = index_pairs(n)
        for p1, p2 in itertools.permutations(pairs, 2):
            case = disposition(p1, p2)
            if case == 6 and n == 2:
                raise AssertionError("case 6 must be unrealizable at n=2")
            enumerated = intersection_count(ap, p1, p2)
            predicted = closed_form(n, case)
            if enumerated != predicted:
                key = (n, case)
                mismatches.setdefault(
                    key, (enumerated, predicted, (p1, p2))
                )
    elapsed = time.monotonic() - start
    detail = "; ".join(
        f"n={n} case {c}: enumerated {e} != closed form {p} (e.g. {w[0]}, {w[1]})"
        for (n, c), (e, p, w) in sorted(mismatches.items())
    )
    conclude(
        "counting-sweep",
        not mismatches and elapsed < 60,
        detail or f"runtime {elapsed:.1f}s over budget",
    )


# 2 ------------------------------------------------------------------------


def test_count_distinctness():
    """The predicted case-2 count differs from cases 1, 4, 6 for n = 2..8."""
    problems = []
    for n in range(2, 9):
        n2 = closed_form(n, 2)
        others = {closed_form(n, 1), closed_form(n, 4)}
        if n >= 3:
            others.add(closed_form(n, 6))
        if n2 in others:
            problems.append(f"n={n}: {n2} collides")
    for n in range(5, 9):
        delta = closed_form(n, 2) - closed_form(n, 6)
        if delta * 12 != factorial(n - 1) * (n * n + n - 24):
            problems.append(f"n={n}: difference identity fails")
    conclude("count-distinctness", not problems, "; ".join(problems))


# 3 ------------------------------------------------------------------------


def test_residual_corner_counts():
    """Residual overlaps with point/copoint families, all indices, n = 4, 5."""
    problems = []
    for n in (4, 5):
        ap = standard_apartment(n)
        half = factorial(n - 1) // 2
        big_half = (n - 2) * factorial(n - 1) // 2
        for i, j in index_pairs(n):
            res = residual_family(ap, i, j)
            rest = [t for t in range(n + 1) if t not in (i, j)]
            for k in rest:
                if len(point_family(ap, k) & res) != big_half:
                    problems.append(f"n={n} point k={k} over ({i},{j})")
                if len(copoint_family(ap, k) & res) != big_half:
                    problems.append(f"n={n} copoint k={k} over ({i},{j})")
            for k, m in itertools.permutations(rest, 2):
                if len(point_copoint_family(ap, m, k) & res) != half:
                    problems.append(f"n={n} corner ({m},{k}) over ({i},{j})")
    conclude("residual-corner-counts", not problems, "; ".join(problems[:3]))


# 4 ------------------------------------------------------------------------


def test_star_identities():
    """Meets of anchored complement families are point/copoint families."""
    problems = []
    for n in (2, 3, 4):
        ap = standard_apartment(n)
        for i in range(n + 1):
            first, second = star_intersections(ap, i)
            if first != point_family(ap, i):
                problems.append(f"n={n} i={i} first")
            if second != copoint_family(ap, i):
                problems.append(f"n={n} i={i} second")
    conclude("star-identities", not problems, "; ".join(problems))


# 5 ------------------------------------------------------------------------


def test_maximal_inexact_classification():
    """Inexact = inside some blocked family; deciders agree on 10^4 samples."""
    ap = standard_apartment(2)
    blocked = {
        frozenset(max_inexact_family(ap, i, j)) for i, j in index_pairs(2)
    }
    problems = []
    maximal = []
    chambers = ap.chambers
    for bits in range(2 ** len(chambers)):
        subset = frozenset(c for t, c in enumerate(chambers) if bits >> t & 1)
        exact = is_exact(ap, subset)
        if exact != is_exact_by_search(ap, subset):
            problems.append(f"deciders split on {bits:06b}")
        if exact == any(subset <= x for x in blocked):
            problems.append(f"containment test wrong on {bits:06b}")
        if not exact and all(
            is_exact(ap, subset | {c}) for c in ap.chamber_set - subset
        ):
            maximal.append(subset)
    if set(maximal) != blocked or len(blocked) != 6:
        problems.append("maximal inexact sets are not the six blocked families")

    ap3 = standard_apartment(3)
    rng = random.Random(1729)
    for _ in range(10_000):
        size = rng.randrange(len(ap3.chambers) + 1)
        subset = rng.sample(ap3.chambers, size)
        if is_exact(ap3, subset) != is_exact_by_search(ap3, subset):
            problems.append(f"deciders split on a size-{size} sample")
            break
    conclude("maximal-inexact-classification", not problems, "; ".join(problems[:3]))


# 6 ------------------------------------------------------------------------


def test_collineation_round_trip():
    """Induce-then-reconstruct returns the matrix's point action, both kinds."""
    start = time.monotonic()
    problems = []
    jobs = [(2, 2, 50, 11), (2, 3, 50, 13), (3, 2, 10, 17)]
    for n, q, count, seed in jobs:
        space = ProjSpace.of(n, q)
        rng = random.Random(seed)
        for t in range(count):
            semi = Semilinear.of(
                space, space, random_invertible(GF.of(q), n + 1, rng)
            )
            result = analyze(induce(semi))
            label = result.label
            if label != "collineation-direct":
                problems.append(f"n={n} q={q} #{t}: direct label {label}")
                continue
            d = result.decomposition
            if d.g != {p: apply_point(semi, p) for p in points_of(space)}:
                problems.append(f"n={n} q={q} #{t}: point action differs")
            dual_label = classify(induce(semi, dual=True))
            if dual_label != "collineation-dual":
                problems.append(f"n={n} q={q} #{t}: dual label {dual_label}")
    elapsed = time.monotonic() - start
    ok = not problems and elapsed < 120
    conclude(
        "collineation-round-trip",
        ok,
        "; ".join(problems[:3]) or f"runtime {elapsed:.1f}s over budget",
    )


# 7 ------------------------------------------------------------------------


def test_subfield_embedding():
    """The order-2 into order-4 inclusion is a non-surjective strong embedding."""
    semi = Semilinear.of(PG22, PG24, identity_matrix(3))
    result = analyze(induce(semi))
    check, d = result.check, result.decomposition
    image = len(set(d.g.values()))
    ok = (
        check.ok
        and check.checked == 28
        and result.label == "strong-embedding-direct"
        and image == 7
        and len(points_of(PG24)) == 21
    )
    conclude(
        "subfield-embedding",
        ok,
        f"check={check.ok}/{check.checked}, image {image} points",
    )


# 8 ------------------------------------------------------------------------


def test_negative_detection():
    """Random bijections and tampered tables are caught with a witness base."""
    chambers = chambers_of(PG22)
    identity_table = {c: c for c in chambers}
    maps = []
    for seed in range(10):
        shuffled = list(chambers)
        random.Random(seed).shuffle(shuffled)
        maps.append((f"bijection-{seed}", dict(zip(chambers, shuffled))))
    for k in range(10):
        c1 = chambers[k]
        c2 = next(
            c for c in chambers if len(set(parts(c)) & set(parts(c1))) == 1
        )
        table = dict(identity_table)
        table[c1], table[c2] = table[c2], table[c1]
        maps.append((f"tamper-{k}", table))
    artifacts, problems = [], []
    for name, table in maps:
        result = analyze(ChamberMap(PG22, PG22, table))
        if result.label != "not-apartment-preserving":
            artifacts.append(f"{name} classified {result.label}")
            continue
        check = result.check
        if check.ok or check.witness_base is None:
            problems.append(f"{name} lacks a witness base")
    detail = "; ".join(problems)
    if artifacts:
        detail = (
            "research artifact, present rather than silently accepted: "
            + "; ".join(artifacts)
        )
    conclude("negative-detection", not (problems or artifacts), detail)


# 9 ------------------------------------------------------------------------


def test_building_sanity():
    """Thick building, thin apartments, connectivity, common apartments."""
    problems = []
    for space in (PG22, PG32):
        chs = chambers_of(space)
        by_panel = {}
        for c in chs:
            for key in panels_of(c):
                by_panel.setdefault(key, []).append(c)
        if {len(v) for v in by_panel.values()} != {space.q + 1}:
            problems.append(f"PG({space.n},{space.q}) is not thick")
        seen, frontier = {chs[0]}, [chs[0]]
        while frontier:
            c = frontier.pop()
            for key in panels_of(c):
                for other in by_panel[key]:
                    if other not in seen:
                        seen.add(other)
                        frontier.append(other)
        if len(seen) != len(chs):
            problems.append(f"PG({space.n},{space.q}) graph is disconnected")

    thin_bases = list(all_bases(PG22)) + list(all_bases(PG32))[:50]
    for base in thin_bases:
        counts = {}
        for c in apartment_of(base).chambers:
            for key in panels_of(c):
                counts[key] = counts.get(key, 0) + 1
        if set(counts.values()) != {2}:
            problems.append(f"apartment on {base.points} is not thin")
            break

    rng = random.Random(23)
    chs = chambers_of(PG32)
    for _ in range(1000):
        c1, c2 = rng.choice(chs), rng.choice(chs)
        base = common_apartment(c1, c2)
        ap = apartment_of(base)
        if c1 not in ap.chamber_set or c2 not in ap.chamber_set:
            problems.append(f"no common apartment for {c1} and {c2}")
            break
    conclude("building-sanity", not problems, "; ".join(problems[:3]))
