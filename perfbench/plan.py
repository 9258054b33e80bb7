"""Seeded request plans and their known answers, without importing bft.

A plan is the list of requests one cycle of a workload sends, in order.
Each request is the bft argv a user would type plus what the answer must
be, derived from how the input was built:

* maps are recipes (space, matrix, dual or not, perturbation) that
  ``gen.py`` turns into files through bft's public ``induce``/``dump_map``;
* matrices are seeded and invertible mod p, with entries in the prime
  subfield, so they are collineations of PG(n, p) and strong embeddings
  of PG(n, p) into PG(n, p^k);
* for direct maps out of a prime field the expected point map is computed
  here with plain mod-p arithmetic (codes 0..p-1 are the prime subfield in
  every extension, so this also covers the subfield embeddings).

Everything here is deterministic in the seed.
"""

from __future__ import annotations

import itertools
import random
from math import factorial, prod

WORKLOADS = ("analyze-exhaustive", "analyze-sample", "lemmas", "induce")

# Requests per cycle: (space n, source q, target q, dual, perturbation).
# One seeded matrix serves every request of a workload on the same
# (n, q, target q, dual), so perturbed maps are the induced map of a
# positive request with images moved.  "shuffle" permutes all images;
# "swap" exchanges the images of a chamber of the first apartment the check
# visits and of a chamber off it on another point, so the check stops at
# its first apartment whatever the seed; "swap-unsampled" exchanges two
# chambers outside every apartment `--mode sample --k 50 --seed 0` checks,
# so only reconstruction can catch it.  The request the median falls on is
# repeated through the cycle (PG(3,2) dual swap in analyze-exhaustive,
# PG(3,2) direct in analyze-sample, PG(2,9) in induce), with about as many
# faster requests as slower ones around it, so request_s.p50 is the median
# of like requests spread over the whole run, not one sample of whichever
# request lands in the middle.  The two multi-second analyze-sample requests
# come last, so a run's unfinished last cycle holds the light ones whole.
_ANALYZE_EXHAUSTIVE = (
    (2, 3, 3, True, "swap"),
    (3, 2, 2, True, "swap"),
    (2, 2, 2, False, None),
    (2, 2, 4, False, None),
    (3, 2, 2, True, "swap"),
    (3, 2, 2, False, "shuffle"),
    (2, 3, 3, True, None),
    (3, 2, 2, True, "swap"),
    (2, 3, 9, False, None),
    (3, 2, 2, False, None),
    (3, 2, 2, True, "swap"),
    (3, 2, 2, True, None),
    (3, 2, 2, True, "swap"),
)
_ANALYZE_SAMPLE = (
    (3, 2, 2, False, None),
    (2, 3, 9, False, None),
    (3, 2, 2, True, "swap"),
    (3, 2, 2, False, None),
    (3, 2, 2, True, None),
    (2, 9, 9, False, "swap-unsampled"),
    (3, 2, 2, False, None),
    (3, 3, 3, False, "shuffle"),
    (3, 2, 2, True, "swap"),
    (3, 2, 2, False, None),
    (3, 3, 3, False, "swap-unsampled"),
    (3, 2, 2, False, None),
    (3, 2, 2, False, None),
    (3, 3, 3, False, None),
    (2, 9, 9, False, None),
)
_LEMMAS = ((5, 2), (5, 3), (6, 2))
_INDUCE = (
    (2, 9, 9, True),
    (2, 3, 9, False),
    (2, 9, 9, False),
    (3, 2, 2, False),
    (2, 9, 9, True),
    (3, 3, 3, False),
    (2, 9, 9, False),
    (4, 2, 2, False),
    (2, 9, 9, True),
    (3, 2, 2, True),
    (2, 9, 9, False),
    (3, 3, 3, True),
    (4, 2, 2, True),
)

SAMPLE_K = 50
# Overlap of two complement families, as a share of the (n+1)! chambers of
# an apartment, for disposition cases 1..6.  Case 6 is where the recorded
# closed form disagrees with enumeration; the report must keep showing it.
OVERLAP_SHARE = {1: (0, 1), 2: (1, 3), 3: (1, 3), 4: (1, 6), 5: (1, 6), 6: (1, 4)}


def char_of(q: int) -> int:
    return next(p for p in (2, 3, 5, 7) if q % p == 0)


def chamber_count(n: int, q: int) -> int:
    return prod((q**k - 1) // (q - 1) for k in range(2, n + 2))


def overlap_count(n: int, case: int) -> int:
    num, den = OVERLAP_SHARE[case]
    return factorial(n + 1) * num // den


def _rank_mod_p(rows, p: int) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        piv = next((k for k in range(rank, len(rows)) if rows[k][col] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for k in range(len(rows)):
            if k != rank and rows[k][col] % p:
                c = rows[k][col]
                rows[k] = [(x - c * y) % p for x, y in zip(rows[k], rows[rank])]
        rank += 1
    return rank


def random_matrix(rng: random.Random, m: int, p: int):
    """A uniformly random invertible m x m matrix over GF(p)."""
    while True:
        rows = [[rng.randrange(p) for _ in range(m)] for _ in range(m)]
        if _rank_mod_p(rows, p) == m:
            return rows


def matrix_arg(rows) -> str:
    return ";".join(",".join(map(str, r)) for r in rows)


def point_action(n: int, p: int, rows):
    """Sorted [point, image] pairs of v -> vM on PG(n, p), normalized so the
    first nonzero coordinate is 1 (the package's point convention)."""

    def normalize(v):
        lead = next(x for x in v if x)
        inv = pow(lead, p - 2, p)
        return [x * inv % p for x in v]

    out = []
    for v in itertools.product(range(p), repeat=n + 1):
        if any(v) and next(x for x in v if x) == 1:
            image = [sum(v[i] * rows[i][j] for i in range(n + 1)) % p for j in range(n + 1)]
            out.append([list(v), normalize(image)])
    return sorted(out)


def _label(q, tq, dual, perturb):
    if perturb:
        return "not-apartment-preserving"
    head = "collineation" if q == tq else "strong-embedding"
    return f"{head}-{'dual' if dual else 'direct'}"


def build(workload: str, seed: int) -> dict:
    """The cycle of requests for one workload and seed.

    Returns ``{"maps": [recipe, ...], "requests": [request, ...]}``; paths
    in argv are relative to the work directory the files are written to.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    maps, requests = [], []
    if workload.startswith("analyze-"):
        sample = workload == "analyze-sample"
        table = _ANALYZE_SAMPLE if sample else _ANALYZE_EXHAUSTIVE
        matrices = {}
        for idx, (n, q, tq, dual, perturb) in enumerate(table):
            p = char_of(q)
            key = (n, q, tq, dual)
            if key not in matrices:
                matrices[key] = random_matrix(rng, n + 1, p)
            rows = matrices[key]
            name = f"pg{n}{q}-{tq}-{'dual' if dual else 'direct'}-{perturb or 'induced'}.json"
            argv = ["map", "analyze", name]
            if sample:
                argv += ["--mode", "sample", "--k", str(SAMPLE_K)]
            expect = {
                "kind": "analyze",
                "label": _label(q, tq, dual, perturb),
                "mode": "sample" if sample else "exhaustive",
                "points": (q ** (n + 1) - 1) // (q - 1),
            }
            if not dual and not perturb:
                expect["g"] = point_action(n, p, rows) if q == p else None
            requests.append({"name": f"{idx}-{name[:-5]}", "argv": argv, "expect": expect})
            if any(m["file"] == name for m in maps):
                continue  # a repeated request reads the same file
            maps.append(
                {
                    "file": name,
                    "n": n,
                    "q": q,
                    "target_q": tq,
                    "matrix": rows,
                    "dual": dual,
                    "perturb": perturb,
                    "perturb_seed": rng.randrange(2**31),
                    "mode": "sample" if sample else "exhaustive",
                    "sample_k": SAMPLE_K,
                }
            )
    elif workload == "lemmas":
        order = list(_LEMMAS)
        rng.shuffle(order)
        for n, q in order:
            argv = ["lemmas", "--n", str(n), "--q", str(q), "--all"]
            if n > 5:
                argv.append("--force")
            overlaps = {f"case-{k}-overlap": overlap_count(n, k) for k in range(1, 7)}
            requests.append(
                {
                    "name": f"lemmas-n{n}-q{q}",
                    "argv": argv,
                    "expect": {"kind": "lemmas", "overlaps": overlaps},
                }
            )
    else:
        for idx, (n, q, tq, dual) in enumerate(_INDUCE):
            rows = random_matrix(rng, n + 1, char_of(q))
            name = f"{idx}-pg{n}{q}-{tq}-{'dual' if dual else 'direct'}.json"
            argv = ["map", "induce", "--n", str(n), "--q", str(q)]
            if tq != q:
                argv += ["--target-q", str(tq)]
            argv += ["--matrix", matrix_arg(rows)]
            if dual:
                argv.append("--dual")
            argv += ["--out", name]
            requests.append(
                {
                    "name": name[:-5],
                    "argv": argv,
                    "expect": {
                        "kind": "induce",
                        "out": name,
                        "pairs": chamber_count(n, q),
                        "source": {"n": n, "q": q},
                        "target": {"n": n, "q": tq, "dual": dual},
                    },
                }
            )
    return {"maps": maps, "requests": requests}
