"""Command-line front door.

Commands::

    bft space --n 2 --q 2 [--format json|csv]
    bft apartment --n 2 --q 2 [--base "0,0,1;0,1,0;1,0,0"] [--force]
                  [--format json|csv]
    bft lemmas --n 3 --q 2 [--all | --case K] [--force] [--format json|csv]
    bft map induce --n 2 --q 2 --matrix "1,0,0;0,1,0;0,0,1" [--target-q Q]
                   [--dual] [--force] --out FILE
    bft map analyze FILE [--mode exhaustive|sample] [--k K] [--seed S]
                    [--format json|csv]

The commands only parse, call the library and render: ``lemmas`` runs the
battery of :mod:`bft.lemmas`.  ``map analyze`` certifies its verdict by
reconstructing the point map, checking that it induces every chamber image
and that it is injective; a map that fails that is checked on the
apartments through the source chambers its failure names, then, if none
fails, swept over every base within the cap, to find a witness base.
``--mode``, ``--k`` and ``--seed`` select nothing: they are accepted and
echoed in the report so that existing command lines keep working.

Exit codes are stable across commands: 0 when every check passes, 1 when a
mathematical check fails (the first witness is printed to stderr), 2 for
invalid input.  Each input rule has one owner, whose error the commands map
to an exit code: ``GF`` owns the field orders (``--q``, ``--target-q``),
``Semilinear`` the matrix's element codes, the subfield and (exit 1) its
rank, ``jsonio`` the ``--base``/``--matrix`` text and the map files, and
``Base`` the independence of base points.  The commands check only the
dimension range, the caps ``--force`` lifts, the matrix shape and ``--k``.
Reports go to stdout as JSON (default) or CSV, byte-identical for identical
inputs and seeds; wall-clock timing goes to stderr only.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from math import factorial

from .buildings import apartment_of
from .chamber_maps import analyze
from .counts import MAX_DIMENSION, apartment_count, chamber_count, gaussian_binomial, point_count
from .gf import GF, FieldError
from .jsonio import FormatError, dump_map, encode_chamber, load_map, parse_rows
from .lemmas import CheckRow, case_row, structural_rows
from .projective import Base, MapError, ProjSpace, Semilinear, standard_base

__all__ = ["main", "RunReport", "CheckRow"]

RANK_CAP = 5  # dimensions beyond this need --force
PAIR_CAP = 2**22  # map induce writes more chambers than this only with --force


# ------------------------------------------------------------- run reports


class RunReport:
    def __init__(self, command: str, params: dict, seed: int | None = None):
        self.command, self.params, self.seed = command, params, seed
        self.checks, self.details = [], {}

    def add(self, name, expected, actual, passed, note=""):
        self.checks.append(CheckRow(name, expected, actual, bool(passed), note))

    def passed(self) -> bool:
        return all(row.passed for row in self.checks)

    def first_failure(self):
        return next((row for row in self.checks if not row.passed), None)

    def to_dict(self) -> dict:
        out = {"command": self.command, "params": self.params}
        if self.seed is not None:
            out["seed"] = self.seed
        out["checks"] = [
            {
                "name": row.name,
                "expected": row.expected,
                "actual": row.actual,
                "pass": row.passed,
                **({"note": row.note} if row.note else {}),
            }
            for row in self.checks
        ]
        out["passed"] = self.passed()
        if self.details:
            out["details"] = self.details
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["name", "expected", "actual", "pass", "note"])
        for row in self.checks:
            writer.writerow(
                [row.name, row.expected, row.actual, row.passed, row.note]
            )
        return buf.getvalue()


def _emit(report: RunReport, fmt: str) -> None:
    sys.stdout.write(report.to_json() if fmt == "json" else report.to_csv())


def _fail(message: str) -> None:
    sys.stderr.write(message.rstrip() + "\n")


# ------------------------------------------------------------------ helpers


def _check_space_args(n: int, q: int, force: bool = True) -> str | None:
    if n < 2:
        return f"projective dimension must be at least 2, got {n}"
    if n > MAX_DIMENSION:
        return f"projective dimension must be at most {MAX_DIMENSION}, got {n}"
    try:
        GF.of(q)
    except FieldError as exc:
        return str(exc)
    if n > RANK_CAP and not force:
        return f"dimension {n} exceeds the cap {RANK_CAP}; use --force"
    return None


def _encode_base(base: Base) -> list:
    return [list(p) for p in base.points]


# ----------------------------------------------------------------- commands


def cmd_space(args) -> int:
    n, q = args.n, args.q
    report = RunReport("space", {"n": n, "q": q})
    for name, value in [
        ("points", point_count(n, q)),
        ("lines", gaussian_binomial(n + 1, 2, q)),
        ("hyperplanes", gaussian_binomial(n + 1, n, q)),
        ("chambers", chamber_count(n, q)),
        ("apartments", apartment_count(n, q)),
    ]:
        report.add(name, None, value, True)
    _emit(report, args.format)
    return 0


def cmd_apartment(args) -> int:
    space = ProjSpace.of(args.n, args.q)
    try:
        base = standard_base(space) if args.base is None else Base.of(space, parse_rows(args.base))
    except (FormatError, ValueError) as exc:
        _fail(f"bad base: {exc}")
        return 2
    ap = apartment_of(base)
    report = RunReport("apartment", {"n": args.n, "q": args.q})
    # distinct chains: len(ap) is (n+1)! by construction, whatever the chains
    chambers, expected = len(set(ap.chains)), factorial(args.n + 1)
    report.add("chambers", expected, chambers, chambers == expected)
    report.details["base"] = _encode_base(base)
    report.details["chambers"] = [
        {"perm": list(perm), "parts": encode_chamber(chamber)}
        for perm, chamber in zip(ap.perms, ap.chambers)
    ]
    _emit(report, args.format)
    return 0 if report.passed() else 1


def cmd_lemmas(args) -> int:
    n, q = args.n, args.q
    cases = [args.case] if args.case else list(range(1, 7))
    report = RunReport(
        "lemmas", {"n": n, "q": q, "cases": cases, "all": args.case is None}
    )
    report.checks.extend(case_row(n, c) for c in cases)
    if args.case is None:
        report.checks.extend(structural_rows(n, q))
    _emit(report, args.format)
    failure = report.first_failure()
    if failure:
        _fail(
            f"FAIL {failure.name}: expected {failure.expected}, "
            f"got {failure.actual}"
            + (f" ({failure.note})" if failure.note else "")
        )
        return 1
    return 0


def cmd_map_induce(args) -> int:
    pairs = chamber_count(args.n, args.q)
    if pairs > PAIR_CAP and not args.force:
        _fail(f"PG({args.n},{args.q}) has {pairs} chambers, more than the cap {PAIR_CAP}; "
              "use --force")
        return 2
    try:
        matrix = parse_rows(args.matrix)
    except FormatError as exc:
        _fail(f"bad matrix: {exc}")
        return 2
    m = args.n + 1
    if len(matrix) != m or any(len(r) != m for r in matrix):
        _fail(f"matrix must be {m}x{m} for n={args.n}")
        return 2
    target_q = args.target_q if args.target_q is not None else args.q
    try:
        semi = Semilinear.of(ProjSpace.of(args.n, args.q), ProjSpace.of(args.n, target_q), matrix)
    except FieldError as exc:
        _fail(str(exc))
        return 2
    except MapError as exc:
        _fail(f"matrix does not induce a strong embedding: {exc}")
        return 1
    try:
        written = dump_map(semi, args.out, dual=args.dual)
    except OSError as exc:
        _fail(f"cannot write {args.out}: {exc}")
        return 2
    report = RunReport(
        "map induce",
        {
            "n": args.n,
            "q": args.q,
            "target_q": target_q,
            "dual": bool(args.dual),
            "out": args.out,
        },
    )
    report.add("pairs-written", pairs, written, written == pairs)
    _emit(report, "json")
    return 0 if report.passed() else 1


def cmd_map_analyze(args) -> int:
    if args.k < 1:
        _fail(f"--k must be at least 1, got {args.k}")
        return 2
    try:
        f = load_map(args.path)
    except OSError as exc:
        _fail(f"cannot read {args.path}: {exc}")
        return 2
    except FormatError as exc:
        _fail(f"malformed chamber-map file: {exc}")
        return 2
    result = analyze(f)
    check = result.check
    report = RunReport(
        "map analyze",
        {
            "path": args.path,
            "source": {"n": f.source.n, "q": f.source.q},
            "target": {"n": f.target.n, "q": f.target.q},
            "mode": args.mode,
            "k": args.k,
        },
        seed=args.seed,
    )
    if check.path == "certified":
        note = f"{check.checked} apartments preserved " + (
            "(certified: induced by a strong embedding)"
        )
    else:
        note = f"{check.checked} apartments checked ({check.path})"
    report.add("apartments-preserved", True, check.ok, check.ok, note)
    decomposition = result.decomposition
    if decomposition is not None:
        direct = decomposition.kind == "direct"
        report.details["kind"] = decomposition.kind
        report.details["g"] = [  # a dual g sends points to hyperplanes (RREF rows)
            [list(p), list(img) if direct else [list(r) for r in img.rows]]
            for p, img in sorted(decomposition.g.items())
        ]
        report.details["sigma_by_base"] = [
            {
                "base": _encode_base(base),
                "sigma": list(sigma),
                "case": case,
            }
            for base, (sigma, case) in sorted(
                decomposition.sigma_by_base.items(),
                key=lambda kv: kv[0].ids,
            )
        ]
    report.add("classification", "induced", result.label, decomposition is not None)
    _emit(report, args.format)
    if result.error is not None:
        _fail(f"reconstruction failed: {result.error}")
        return 1
    if not check.ok:
        _fail(
            "witness base: "
            + ";".join(",".join(map(str, p)) for p in check.witness_base.points)
        )
        return 1
    return 0


# -------------------------------------------------------------- arg parsing


def _add_common(parser):
    parser.add_argument(
        "--format", choices=("json", "csv"), default="json",
        help="report format on stdout",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bft",
        description=(
            "Chambers, apartments, and chamber-map analysis for projective "
            "spaces over small finite fields."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    nq = argparse.ArgumentParser(add_help=False)
    nq.add_argument("--n", type=int, required=True)
    nq.add_argument("--q", type=int, required=True)

    p = sub.add_parser("space", parents=[nq], help="print counting data for PG(n, q)")
    _add_common(p)
    p.set_defaults(func=cmd_space)

    p = sub.add_parser("apartment", parents=[nq], help="dump one apartment's chambers")
    p.add_argument("--base", help='base points, e.g. "0,0,1;0,1,0;1,0,0"')
    p.add_argument("--force", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_apartment)

    p = sub.add_parser("lemmas", parents=[nq], help="verify the apartment counting lemmas")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--case", type=int, choices=range(1, 7))
    group.add_argument("--all", action="store_true", default=False)
    p.add_argument("--force", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_lemmas)

    p = sub.add_parser("map", help="induce or analyze chamber maps")
    map_sub = p.add_subparsers(dest="subcommand", required=True)

    pi = map_sub.add_parser("induce", parents=[nq], help="write the chamber map of a matrix")
    pi.add_argument("--target-q", type=int, dest="target_q")
    pi.add_argument("--matrix", required=True)
    pi.add_argument("--dual", action="store_true")
    pi.add_argument("--out", required=True)
    pi.add_argument("--force", action="store_true")
    pi.set_defaults(func=cmd_map_induce)

    pa = map_sub.add_parser("analyze", help="classify a chamber-map file")
    pa.add_argument("path")
    pa.add_argument("--mode", choices=("exhaustive", "sample"), default="exhaustive")
    pa.add_argument("--k", type=int, default=50)
    pa.add_argument("--seed", type=int, default=0)
    _add_common(pa)
    pa.set_defaults(func=cmd_map_analyze)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        force = getattr(args, "force", True)  # space has no --force and no rank cap
        problem = hasattr(args, "n") and _check_space_args(args.n, args.q, force)
        if problem:
            _fail(problem)
            return 2
        return args.func(args)
    finally:
        elapsed = (time.perf_counter() - start) * 1000
        sys.stderr.write(f"elapsed {elapsed:.0f} ms\n")


if __name__ == "__main__":
    sys.exit(main())
