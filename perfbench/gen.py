"""Set-up child: write the chamber-map files of one workload's plan.

Run as ``python3 perfbench/gen.py WORKLOAD SEED OUTDIR`` with ``src`` on
PYTHONPATH.  Maps go through bft's public ``induce`` and ``dump_map``; the
perturbed (non-preserving) maps are induced maps with images moved.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import plan
from bft import (
    Base,
    ChamberMap,
    ProjSpace,
    Semilinear,
    all_bases,
    apartment_of,
    chambers_of,
    dump_map,
    induce,
    is_independent,
    points_of,
)


def sampled_apartments(space: ProjSpace, k: int, seed: int = 0) -> list:
    """Chamber sets of the apartments ``map analyze --mode sample`` checks,
    in order.

    Mirrors the sampler of ``preserves_apartments``; if the two ever drift
    apart, a "swap-unsampled" map is caught by the apartment check instead
    of by reconstruction, with the same label and exit code.
    """
    rng = random.Random(seed)
    pts = list(points_of(space))
    out = []
    for _ in range(k):
        while True:
            chosen = rng.sample(pts, space.n + 1)
            if is_independent(space, chosen):
                break
        out.append(apartment_of(Base.of(space, chosen)).chamber_set)
    return out


def perturbed(f: ChamberMap, recipe: dict) -> ChamberMap:
    rng = random.Random(recipe["perturb_seed"])
    kind = recipe["perturb"]
    chambers = list(chambers_of(f.source))
    table = dict(f.table)
    if kind == "shuffle":
        images = [table[c] for c in chambers]
        rng.shuffle(images)
        return ChamberMap(f.source, f.target, dict(zip(chambers, images)))
    if kind == "swap":
        if recipe["mode"] == "exhaustive":
            first = apartment_of(all_bases(f.source)[0]).chamber_set
        else:
            first = sampled_apartments(f.source, 1)[0]
        a = rng.choice(sorted(first, key=lambda c: c.sort_key()))
        rest = [c for c in chambers if c not in first and c.point != a.point]
    else:  # swap-unsampled
        hit = set().union(*sampled_apartments(f.source, recipe["sample_k"]))
        free = [c for c in chambers if c not in hit]
        a = rng.choice(free)
        rest = [c for c in free if c.point != a.point]
    b = rng.choice(rest)
    table[a], table[b] = table[b], table[a]
    return ChamberMap(f.source, f.target, table)


def write_maps(workload: str, seed: int, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    induced = {}
    for recipe in plan.build(workload, seed)["maps"]:
        key = (recipe["n"], recipe["q"], recipe["target_q"], recipe["dual"])
        if key not in induced:
            source = ProjSpace.of(recipe["n"], recipe["q"])
            target = ProjSpace.of(recipe["n"], recipe["target_q"])
            semi = Semilinear.of(source, target, recipe["matrix"])
            induced[key] = induce(semi, dual=recipe["dual"])
        f = induced[key]
        if recipe["perturb"]:
            f = perturbed(f, recipe)
        dump_map(f, out / recipe["file"], dual=recipe["dual"])


if __name__ == "__main__":
    write_maps(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
