"""End-to-end command-line behavior: reports, exit codes, determinism."""

import json
import os
import subprocess
import sys

import pytest

import bft
from bft import cli
from bft.counts import chamber_count
from conftest import refuse_reconstruction, sweep_only_map

IDENTITY = "1,0,0;0,1,0;0,0,1"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


# -------------------------------------------------------------------- space


def test_space_counts(capsys):
    code, report, _ = run_json(capsys, "space", "--n", "3", "--q", "2")
    assert code == 0
    values = {row["name"]: row["actual"] for row in report["checks"]}
    assert values == {
        "points": 15,
        "lines": 35,
        "hyperplanes": 15,
        "chambers": 315,
        "apartments": 840,
    }


def test_space_rejects_unsupported_order(capsys):
    code, out, err = run(capsys, "space", "--n", "2", "--q", "11")
    assert code == 2 and out == ""
    assert "supported: 2, 3, 4, 5, 7, 8, 9" in err


def test_space_rejects_small_dimension(capsys):
    code, _, err = run(capsys, "space", "--n", "1", "--q", "2")
    assert code == 2
    assert "at least 2" in err


def test_space_bounds_the_dimension(capsys):
    """apartment_count(68, 9) has more digits than int -> str allows; every
    dimension up to the bound prints."""
    code, out, err = run(capsys, "space", "--n", "68", "--q", "9")
    assert code == 2 and out == ""
    assert "at most 64" in err and "Traceback" not in err
    code, report, _ = run_json(capsys, "space", "--n", "64", "--q", "9")
    assert code == 0 and report["checks"][-1]["name"] == "apartments"


# ---------------------------------------------------------------- apartment


def test_apartment_dump(capsys):
    code, report, _ = run_json(capsys, "apartment", "--n", "2", "--q", "2")
    assert code == 0
    assert report["details"]["base"] == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    chambers = report["details"]["chambers"]
    assert len(chambers) == 6
    assert chambers[0]["perm"] == [0, 1, 2]
    # second part is span{(0,0,1), (0,1,0)} with rows in echelon order
    assert chambers[0]["parts"] == [[[0, 0, 1]], [[0, 1, 0], [0, 0, 1]]]


def test_apartment_custom_and_bad_base(capsys):
    code, report, _ = run_json(
        capsys, "apartment", "--n", "2", "--q", "2", "--base", "1,1,1;0,1,0;1,0,0"
    )
    assert code == 0
    assert [0, 1, 0] in report["details"]["base"]
    code, _, err = run(
        capsys, "apartment", "--n", "2", "--q", "2", "--base", "1,1,1;0,1,0;1,0,1"
    )
    assert code == 2 and "bad base" in err
    # an empty --base is a bad base, not the standard one
    code, out, err = run(capsys, "apartment", "--n", "2", "--q", "2", "--base", "")
    assert (code, out) == (2, "")
    assert err.startswith("bad base: empty row in ''\n")


# ------------------------------------------------------------------- lemmas


def test_lemmas_all_pass_at_n2(capsys):
    code, report, _ = run_json(capsys, "lemmas", "--n", "2", "--q", "2", "--all")
    assert code == 0 and report["passed"]
    names = [row["name"] for row in report["checks"]]
    assert "case-2-overlap" in names
    assert "maximal-inexact-classification" in names
    case6 = next(r for r in report["checks"] if r["name"] == "case-6-overlap")
    assert case6["expected"] == "undefined"
    assert case6["actual"] == "unrealizable"
    assert case6["pass"]


def test_lemmas_single_case(capsys):
    code, report, _ = run_json(capsys, "lemmas", "--n", "3", "--q", "2", "--case", "2")
    assert code == 0
    (row,) = report["checks"]
    assert row["expected"] == row["actual"] == 8


def test_lemmas_case2_n5(capsys):
    code, report, _ = run_json(capsys, "lemmas", "--n", "5", "--q", "2", "--case", "2")
    assert code == 0
    assert report["checks"][0]["actual"] == 240


def test_lemmas_reports_case6_mismatch(capsys):
    code, report, err = run_json(capsys, "lemmas", "--n", "3", "--q", "2", "--all")
    assert code == 1 and not report["passed"]
    case6 = next(r for r in report["checks"] if r["name"] == "case-6-overlap")
    assert case6 == {
        "name": "case-6-overlap",
        "expected": 10,
        "actual": 6,
        "pass": False,
        "note": "pairs (0, 1) and (2, 3) overlap in 6 chambers",
    }
    others = [r for r in report["checks"] if r["name"] != "case-6-overlap"]
    assert all(r["pass"] for r in others)
    assert "FAIL case-6-overlap" in err


def _replace_everywhere(monkeypatch, original, replacement):
    """Put ``replacement`` in every ``bft`` namespace that holds ``original``."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "bft":
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def test_lemmas_builds_no_apartment_above_n2(capsys, monkeypatch):
    """The battery counts permutation bitsets; only the n = 2, q <= 3
    classification row needs the chambers of a real apartment."""
    from bft import buildings

    built = []
    original, init = buildings.apartment_of, buildings.Apartment.__init__

    def counted(base):
        built.append(base)
        return original(base)

    def counted_init(self, base):
        built.append(base)
        init(self, base)

    _replace_everywhere(monkeypatch, original, counted)
    monkeypatch.setattr(buildings.Apartment, "__init__", counted_init)
    code, report, _ = run_json(capsys, "lemmas", "--n", "4", "--q", "9", "--all")
    assert code == 1
    assert [c["name"] for c in report["checks"] if not c["pass"]] == ["case-6-overlap"]
    assert built == []
    code, report, _ = run_json(capsys, "lemmas", "--n", "2", "--q", "3", "--all")
    assert code == 0 and report["checks"][-1]["name"] == "maximal-inexact-classification"
    assert built


def test_lemmas_n6_q9_force_finishes_quickly():
    done = _bft_subprocess("lemmas", "--n", "6", "--q", "9", "--all", "--force",
                           timeout=10)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    report = json.loads(done.stdout)
    assert [c["name"] for c in report["checks"] if not c["pass"]] == ["case-6-overlap"]


def test_lemmas_n7_force_finishes_quickly():
    done = _bft_subprocess("lemmas", "--n", "7", "--q", "2", "--all", "--force",
                           timeout=10)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    report = json.loads(done.stdout)
    assert [c["name"] for c in report["checks"] if not c["pass"]] == ["case-6-overlap"]


def test_lemmas_csv_format(capsys):
    code, out, _ = run(
        capsys, "lemmas", "--n", "2", "--q", "2", "--case", "1", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "name,expected,actual,pass,note"
    assert lines[1].startswith("case-1-overlap,0,0,True")


def test_lemmas_rank_cap(capsys):
    code, _, err = run(capsys, "lemmas", "--n", "6", "--q", "2", "--case", "1")
    assert code == 2 and "--force" in err


# ------------------------------------------------------------------ map cmd


def test_map_induce_and_analyze_identity(capsys, tmp_path):
    out_path = str(tmp_path / "map.json")
    code, report, _ = run_json(
        capsys,
        "map", "induce", "--n", "2", "--q", "2", "--matrix", IDENTITY,
        "--out", out_path,
    )
    assert code == 0
    assert report["checks"][0]["actual"] == 21

    code, report, _ = run_json(capsys, "map", "analyze", out_path)
    assert code == 0
    rows = {r["name"]: r for r in report["checks"]}
    assert rows["classification"]["actual"] == "collineation-direct"
    assert report["details"]["kind"] == "direct"
    assert [[0, 0, 1], [0, 0, 1]] in report["details"]["g"]
    assert report["details"]["sigma_by_base"][0]["case"] == 1


def test_map_induce_dual_analyzes_as_dual(capsys, tmp_path):
    out_path = str(tmp_path / "dual.json")
    code, _, _ = run_json(
        capsys,
        "map", "induce", "--n", "2", "--q", "2", "--matrix", IDENTITY,
        "--dual", "--out", out_path,
    )
    assert code == 0
    assert json.load(open(out_path))["target"]["dual"] is True
    code, report, _ = run_json(capsys, "map", "analyze", out_path)
    assert code == 0
    rows = {r["name"]: r for r in report["checks"]}
    assert rows["classification"]["actual"] == "collineation-dual"


def test_map_induce_subfield_target(capsys, tmp_path):
    out_path = str(tmp_path / "embed.json")
    code, _, _ = run_json(
        capsys,
        "map", "induce", "--n", "2", "--q", "2", "--target-q", "4",
        "--matrix", IDENTITY, "--out", out_path,
    )
    assert code == 0
    code, report, _ = run_json(capsys, "map", "analyze", out_path)
    assert code == 0
    rows = {r["name"]: r for r in report["checks"]}
    assert rows["classification"]["actual"] == "strong-embedding-direct"


def test_map_induce_error_paths(capsys, tmp_path):
    out_path = str(tmp_path / "x.json")
    code, _, err = run(
        capsys,
        "map", "induce", "--n", "2", "--q", "2",
        "--matrix", "0,0,0;0,1,0;0,0,1", "--out", out_path,
    )
    assert code == 1 and "singular" in err
    code, _, err = run(
        capsys, "map", "induce", "--n", "2", "--q", "2",
        "--matrix", "1,0;0,1", "--out", out_path,
    )
    assert code == 2 and "3x3" in err
    code, _, err = run(
        capsys, "map", "induce", "--n", "2", "--q", "2",
        "--matrix", "1,x,0;0,1,0;0,0,1", "--out", out_path,
    )
    assert code == 2
    code, _, err = run(
        capsys, "map", "induce", "--n", "2", "--q", "3", "--target-q", "2",
        "--matrix", IDENTITY, "--out", out_path,
    )
    assert code == 2 and "not a subfield" in err
    for argv, message in [
        (["--target-q", "6", "--matrix", IDENTITY],
         "unsupported field order 6; supported: 2, 3, 4, 5, 7, 8, 9"),
        (["--matrix", "5,0,0;0,1,0;0,0,1"], "5 is not an element code of GF(3)"),
        (["--matrix", "1,0,0;0,-1,0;0,0,1"], "-1 is not an element code of GF(3)"),
        # joined by "=": argparse reads a separate "-1,..." as an option
        (["--matrix=-1,0,0;0,1,0;0,0,1"], "-1 is not an element code of GF(3)"),
    ]:
        code, out, err = run(
            capsys, "map", "induce", "--n", "2", "--q", "3", "--out", out_path, *argv
        )
        lines = [line for line in err.splitlines() if not line.startswith("elapsed ")]
        assert (code, out, lines) == (2, "", [message])  # so no traceback either


@pytest.mark.parametrize(
    "argv, usage",
    [
        (["apartment"], "usage: bft apartment [-h] --n N --q Q [--base BASE] [--force]\n"
                        "                     [--format {json,csv}]"),
        (["lemmas"],
         "usage: bft lemmas [-h] --n N --q Q [--case {1,2,3,4,5,6} | --all] [--force]\n"
         "                  [--format {json,csv}]"),
        (["map", "induce"],
         "usage: bft map induce [-h] --n N --q Q [--target-q TARGET_Q] --matrix MATRIX\n"
         "                      [--dual] --out OUT [--force]"),
    ],
)
def test_help_usage_keeps_the_option_order(capsys, monkeypatch, argv, usage):
    """--n and --q come from one shared parent parser, and still come first."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.split("\n\n")[0] == usage


def test_map_analyze_tampered_file(capsys, tmp_path):
    out_path = str(tmp_path / "map.json")
    run(capsys, "map", "induce", "--n", "2", "--q", "2", "--matrix", IDENTITY,
        "--out", out_path)
    data = json.load(open(out_path))
    data["pairs"][0][1], data["pairs"][1][1] = (
        data["pairs"][1][1],
        data["pairs"][0][1],
    )
    with open(out_path, "w") as fh:
        json.dump(data, fh)
    code, report, err = run_json(capsys, "map", "analyze", out_path)
    assert code == 1
    rows = {r["name"]: r for r in report["checks"]}
    assert rows["classification"]["actual"] == "not-apartment-preserving"
    assert "witness base" in err


def test_map_analyze_malformed_and_missing(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": "chamber-map/1"}')
    code, _, err = run(capsys, "map", "analyze", str(bad))
    assert code == 2 and "malformed" in err
    code, _, err = run(capsys, "map", "analyze", str(tmp_path / "none.json"))
    assert code == 2


def test_map_analyze_bad_subspace_index_exits_2(tmp_path):
    path = tmp_path / "map.json"
    made = _bft_subprocess("map", "induce", "--n", "2", "--q", "2",
                           "--matrix", IDENTITY, "--out", str(path))
    assert made.returncode == 0
    data = json.loads(path.read_text())
    assert data["schema"] == "chamber-map/2"
    data["pairs"][3][1][0] = len(data["subspaces"]["target"])
    path.write_text(json.dumps(data))
    done = _bft_subprocess("map", "analyze", str(path))
    assert done.returncode == 2 and done.stdout == ""
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("malformed chamber-map file: a target chamber must be 2 "
                                  "indices below 14, got [14, ")


@pytest.mark.parametrize("k", ["0", "-3"])
def test_map_analyze_rejects_k_below_one(capsys, tmp_path, k):
    out_path = str(tmp_path / "map.json")
    run(capsys, "map", "induce", "--n", "2", "--q", "2", "--matrix", IDENTITY,
        "--out", out_path)
    code, out, err = run(
        capsys, "map", "analyze", out_path, "--mode", "sample", "--k", k
    )
    assert code == 2 and out == ""
    assert "--k must be at least 1" in err


def _bft_subprocess(*argv, timeout=120):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bft.__file__)))
    return subprocess.run(
        [sys.executable, "-m", "bft.cli", *argv],
        env=env, capture_output=True, text=True, timeout=timeout,
    )


def test_import_cli_adds_only_bft_to_the_stdlib_it_runs():
    """Without ``site`` (``-S``), which may load modules of its own,
    ``import bft.cli`` adds to the stdlib modules the commands run only
    ``bft`` and ``__future__``: no ``dataclasses``, ``inspect``, ``typing``
    or ``pathlib``.  (That it loads every ``bft`` module is
    ``test_import_cli_loads_every_module``.)"""
    code = (
        "import sys\n"
        "import argparse, json, csv, io, time, math, itertools, functools, operator\n"
        "before = set(sys.modules)\n"
        "import bft.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bft.__file__)))
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    added = set(done.stdout.split())
    assert {m for m in added if m.split(".")[0] != "bft"} <= {"__future__"}


def _pg34_identity(tmp_path) -> str:
    out_path = str(tmp_path / "pg34.json")
    made = _bft_subprocess("map", "induce", "--n", "3", "--q", "4",
                           "--matrix", _identity(3), "--out", out_path)
    assert made.returncode == 0
    return out_path


def test_map_analyze_exhaustive_beyond_the_cap_is_certified(tmp_path):
    """PG(3, 4) has more apartments than the sweep cap; ``--mode
    exhaustive`` selects nothing, and the certificate needs no sweep."""
    done = _bft_subprocess("map", "analyze", _pg34_identity(tmp_path),
                           "--mode", "exhaustive")
    assert done.returncode == 0 and "Traceback" not in done.stderr
    report = json.loads(done.stdout)
    assert report["params"]["mode"] == "exhaustive"
    assert report["checks"][0]["note"] == (
        "1523200 apartments preserved (certified: induced by a strong embedding)"
    )


def test_map_analyze_swap_beyond_the_cap_names_a_witness_base(tmp_path):
    """Above the sweep cap, the apartments through the chambers a failure
    names still hold a witness base."""
    path = _pg34_identity(tmp_path)
    data = json.load(open(path))
    data["pairs"][0][1], data["pairs"][1][1] = data["pairs"][1][1], data["pairs"][0][1]
    with open(path, "w") as fh:
        json.dump(data, fh)
    done = _bft_subprocess("map", "analyze", path)
    assert done.returncode == 1 and "Traceback" not in done.stderr
    report = json.loads(done.stdout)
    assert report["checks"][-1]["actual"] == "not-apartment-preserving"
    assert report["checks"][0]["note"].endswith("apartments checked (local)")
    assert "witness base: " in done.stderr


def test_map_analyze_names_a_witness_for_a_late_swap_on_pg42(capsys, tmp_path):
    """The images of the last two chambers are swapped.  Only the
    componentwise check of the table rejects the map, and the apartments
    through the chamber it names hold a witness base."""
    space = bft.ProjSpace.of(4, 2)
    eye = [[int(r == c) for c in range(5)] for r in range(5)]
    table = dict(bft.induce(bft.Semilinear.of(space, space, eye)).table)
    a, b = bft.chambers_of(space)[-2:]
    table[a], table[b] = table[b], table[a]
    out_path = tmp_path / "pg42.json"
    bft.dump_map(bft.ChamberMap(space, space, table), out_path)
    code, report, err = run_json(capsys, "map", "analyze", str(out_path))
    assert code == 1
    assert report["checks"][-1]["actual"] == "not-apartment-preserving"
    assert report["checks"][0]["note"].endswith("apartments checked (local)")
    assert "witness base: " in err


@pytest.mark.parametrize("q, checked", [(2, 3), (4, 5)], ids=["PG22", "PG24"])
def test_map_analyze_names_a_non_injective_g(capsys, tmp_path, q, checked):
    """``reconstruct`` names the two points g sends to one image, and the
    apartments through their stars hold a witness base: on PG(2, 4) the
    fifth, where the sweep finds its first at the 65th."""
    out_path = tmp_path / "map.json"
    bft.dump_map(sweep_only_map(bft.ProjSpace.of(2, q)), out_path)
    code, report, err = run_json(capsys, "map", "analyze", str(out_path))
    assert code == 1 and not report["passed"]
    assert report["checks"][0]["note"] == f"{checked} apartments checked (local)"
    assert report["checks"][-1]["actual"] == "not-apartment-preserving"
    assert "witness base: 0,0,1;1,0,0;1,1,0" in err and "reconstruction failed" not in err


@pytest.mark.parametrize(
    "n, q, note, stderr",
    [
        (2, 2, "9 apartments checked (sweep)", "witness base: 0,0,1;1,0,0;1,1,0"),
        (2, 4, "65 apartments checked (sweep)", "witness base: 0,0,1;1,0,0;1,1,0"),
        (3, 4, "0 apartments checked (local)", "reconstruction failed: refused"),
    ],
    ids=["sweep", "sweep-PG24", "beyond-cap"],
)
def test_map_analyze_a_map_only_the_sweep_refutes(
    capsys, monkeypatch, tmp_path, n, q, note, stderr
):
    """With the witness walk stubbed to list no base, the sweep finds the
    witness base of ``sweep_only_map`` on PG(2, 2) and PG(2, 4).  PG(3, 4)
    has more apartments than the sweep cap: with reconstruction refused,
    its identity map is not swept and keeps the negative label with no
    witness base."""
    monkeypatch.setattr(bft.chamber_maps, "_witness_bases", lambda *chambers: iter(()))
    out_path = tmp_path / "map.json"
    space = bft.ProjSpace.of(n, q)
    if n == 2:
        bft.dump_map(sweep_only_map(space), out_path)
    else:  # sweep_only_map builds planes only
        refuse_reconstruction(monkeypatch)
        eye = [[int(r == c) for c in range(n + 1)] for r in range(n + 1)]
        bft.dump_map(bft.Semilinear.of(space, space, eye), out_path)
    code, report, err = run_json(capsys, "map", "analyze", str(out_path))
    assert code == 1 and not report["passed"]
    assert report["checks"][0]["note"] == note
    assert report["checks"][-1]["actual"] == "not-apartment-preserving"
    assert stderr in err and ("witness base: " in err) == (n == 2)


def test_map_induce_unwritable_out_exits_2(tmp_path):
    out_path = str(tmp_path / "missing-dir" / "x.json")
    done = _bft_subprocess("map", "induce", "--n", "2", "--q", "2",
                           "--matrix", IDENTITY, "--out", out_path)
    assert done.returncode == 2 and done.stdout == ""
    assert "Traceback" not in done.stderr
    assert "cannot write" in done.stderr


@pytest.mark.parametrize("where", ["missing-dir/x.json", "."], ids=["missing-dir", "directory"])
def test_map_induce_opens_out_before_walking_any_flag(capsys, monkeypatch, tmp_path, where):
    """The writer and ``flags`` walk the flag tree of one cover table, so a
    stubbed ``covers`` refuses every walk."""
    from bft import buildings

    def refuse(space):
        raise AssertionError("a flag was walked")

    _replace_everywhere(monkeypatch, buildings.covers, refuse)
    argv = ["map", "induce", "--n", "2", "--q", "2", "--matrix", IDENTITY, "--out"]
    code, out, err = run(capsys, *argv, str(tmp_path / where))
    assert code == 2 and out == ""
    assert "cannot write" in err
    with pytest.raises(AssertionError, match="a flag was walked"):
        cli.main([*argv, str(tmp_path / "x.json")])  # the stub is the one called


@pytest.mark.parametrize("n, q, target_q", [(3, 2, 2), (2, 3, 9), (4, 2, 2)],
                         ids=["PG32", "PG23-to-PG29", "PG42"])
@pytest.mark.parametrize("dual", [False, True], ids=["direct", "dual"])
def test_map_induce_builds_no_chamber_and_maps_each_subspace_once(
    capsys, monkeypatch, tmp_path, n, q, target_q, dual
):
    """``map induce`` writes straight off the flag walk: no ``chambers_of``,
    no chamber and no chamber map.  The image of each source subspace is
    taken once: spanned from its point images, or, dual, the meet of its
    points' image hyperplanes."""
    from bft import buildings, chamber_maps
    from bft.counts import gaussian_binomial
    from bft.projective import ProjSpace

    def refuse(*args):
        raise AssertionError("a chamber was built")

    _replace_everywhere(monkeypatch, buildings.chambers_of, refuse)
    monkeypatch.setattr(buildings.Chamber, "__init__", refuse)
    monkeypatch.setattr(chamber_maps.ChamberMap, "_trusted", refuse)
    target = ProjSpace.of(n, target_q)
    calls = {"span": 0, "meet": 0}

    def span(self, ids, _original=ProjSpace.span):
        if self is target:
            calls["span"] += 1
        return _original(self, ids)

    monkeypatch.setattr(ProjSpace, "span", span)

    def meet(function, parts, _reduce=chamber_maps.reduce):
        calls["meet"] += 1
        return _reduce(function, parts)

    monkeypatch.setattr(chamber_maps, "reduce", meet)
    argv = ["map", "induce", "--n", str(n), "--q", str(q), "--target-q", str(target_q),
            "--matrix", ";".join(",".join(str(int(r == c)) for c in range(n + 1))
                                 for r in range(n + 1)),
            "--out", str(tmp_path / "m.json")] + ["--dual"] * dual
    code, report, _ = run_json(capsys, *argv)
    assert code == 0 and report["checks"][0]["pass"]
    subspaces = sum(gaussian_binomial(n + 1, k + 1, q) for k in range(n))
    if dual:  # a dual run also spans the perps of target points
        assert calls["meet"] == subspaces
    else:
        assert calls == {"span": subspaces, "meet": 0}


@pytest.mark.parametrize("n, q, target_q", [(3, 2, 2), (2, 3, 9)], ids=["PG32", "PG23-to-PG29"])
@pytest.mark.parametrize("dual", [False, True], ids=["direct", "dual"])
def test_certified_map_analyze_and_induce_build_no_chamber(
    capsys, monkeypatch, tmp_path, n, q, target_q, dual
):
    """A chamber map is its table of mask chains.  ``map analyze`` reads an
    induced file and certifies it with no ``chambers_of`` and no chamber,
    and ``induce`` fills the table off the flag walk."""
    from bft import buildings
    from bft.counts import chamber_count
    from bft.jsonio import dump_map

    source, target = bft.ProjSpace.of(n, q), bft.ProjSpace.of(n, target_q)
    eye = [[int(r == c) for c in range(n + 1)] for r in range(n + 1)]
    semi = bft.Semilinear.of(source, target, eye)
    path = tmp_path / "m.json"
    dump_map(semi, path, dual=dual)

    def refuse(*args):
        raise AssertionError("a chamber was built")

    _replace_everywhere(monkeypatch, buildings.chambers_of, refuse)
    monkeypatch.setattr(buildings.Chamber, "__init__", refuse)
    code, report, _ = run_json(capsys, "map", "analyze", str(path))
    head = "collineation" if q == target_q else "strong-embedding"
    assert code == 0
    assert report["checks"][-1]["actual"] == f"{head}-{'dual' if dual else 'direct'}"
    assert report["checks"][0]["note"].endswith("(certified: induced by a strong embedding)")
    f = bft.induce(semi, dual=dual)
    assert len(f.chains) == chamber_count(n, q)
    with pytest.raises(AssertionError, match="a chamber was built"):
        f.table  # the refusal is live: the Chamber view builds chambers


@pytest.mark.parametrize("i, j", [(0, 1), (0, 100), (3, 250)])
def test_map_analyze_witness_does_not_follow_the_order_of_pairs(capsys, tmp_path, i, j):
    """Pairs listed in reverse ``chambers_of`` order give the report, exit
    code and stderr witness of the same pairs in order: reconstruction
    walks the flags, not the file."""
    path = tmp_path / "map.json"
    run(capsys, "map", "induce", "--n", "3", "--q", "2",
        "--matrix", "1,1,0,0;0,1,0,0;0,0,1,1;0,0,0,1", "--out", str(path))
    data = json.loads(path.read_text())
    pairs = data["pairs"]
    pairs[i][1], pairs[j][1] = pairs[j][1], pairs[i][1]
    results = []
    for order in (pairs, pairs[::-1]):
        path.write_text(json.dumps({**data, "pairs": order}))
        code, out, err = run(capsys, "map", "analyze", str(path))
        witness = [line for line in err.splitlines() if not line.startswith("elapsed ")]
        results.append((code, out, witness))
    assert results[0] == results[1]
    code, _, witness = results[0]
    assert code == 1 and witness[0].startswith("witness base: ")


def test_map_induce_reports_the_pairs_it_wrote(capsys, monkeypatch, tmp_path):
    """``pairs-written`` is the count of pairs in the file, checked against
    the chamber count: a writer that came up short fails it."""
    out_path = tmp_path / "m.json"
    argv = ["map", "induce", "--n", "3", "--q", "2", "--matrix",
            "1,1,0,0;0,1,0,0;0,0,1,1;0,0,0,1", "--dual", "--out", str(out_path)]
    code, report, _ = run_json(capsys, *argv)
    pairs = len(json.loads(out_path.read_text())["pairs"])
    assert code == 0 and report["checks"] == [
        {"name": "pairs-written", "expected": 315, "actual": pairs, "pass": True}
    ]
    dump_map = cli.dump_map
    monkeypatch.setattr(cli, "dump_map", lambda *a, **k: dump_map(*a, **k) - 1)
    code, report, _ = run_json(capsys, *argv)
    assert code == 1 and report["checks"][0]["actual"] == 314
    assert not report["checks"][0]["pass"] and not report["passed"]


def test_map_analyze_non_utf8_file_exits_2(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"schema": "chamber-map/1", "note": "caf\xe9"}')
    done = _bft_subprocess("map", "analyze", str(path))
    assert done.returncode == 2 and done.stdout == ""
    assert "Traceback" not in done.stderr
    assert "malformed chamber-map file" in done.stderr


def test_map_analyze_over_long_integer_exits_2(tmp_path):
    """An integer of more digits than Python converts is not valid JSON."""
    path = tmp_path / "long-int.json"
    path.write_text('{"pairs":[' + "1" * 5000 + "]}")
    done = _bft_subprocess("map", "analyze", str(path))
    assert done.returncode == 2 and done.stdout == ""
    assert "malformed chamber-map file: not valid JSON: Exceeds the limit" in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("n, q", [(30, 2), (6, 9)])
def test_map_analyze_short_file_of_a_large_space_exits_2(tmp_path, n, q):
    """The pair count is checked before any chamber of the space is built."""
    path = tmp_path / "empty.json"
    space = {"n": n, "q": q}
    path.write_text(json.dumps(
        {"schema": "chamber-map/1", "source": space, "target": space, "pairs": []}
    ))
    done = _bft_subprocess("map", "analyze", str(path), timeout=10)
    assert done.returncode == 2 and done.stdout == ""
    assert "Traceback" not in done.stderr
    assert "source chambers are missing a pair" in done.stderr


def test_map_analyze_float_order_exits_2(capsys, tmp_path):
    out_path = tmp_path / "map.json"
    run(capsys, "map", "induce", "--n", "2", "--q", "2", "--matrix", IDENTITY,
        "--out", str(out_path))
    data = json.loads(out_path.read_text())
    data["source"]["q"] = 2.0
    out_path.write_text(json.dumps(data))
    code, out, err = run(capsys, "map", "analyze", str(out_path))
    assert code == 2 and out == ""
    assert "malformed chamber-map file" in err and "order 2.0 unsupported" in err


@pytest.mark.parametrize(
    "n, q, label, note",
    [
        (2, 2, "apartment-preserving-not-induced", "28 apartments checked (sweep)"),
        (3, 4, "not-apartment-preserving", "0 apartments checked (local)"),
    ],
    ids=["exhaustive-apartment-preserving-not-induced", "beyond-cap-not-apartment-preserving"],
)
def test_map_analyze_labels_a_preserving_map_that_fails_reconstruction(
    capsys, tmp_path, monkeypatch, n, q, label, note
):
    """A full sweep that passes while reconstruction fails contradicts the
    theorem, and is never reported as a pass; above the sweep cap (PG(3, 4))
    no sweep runs, so a map whose witness names no apartment keeps the
    negative label."""
    out_path = str(tmp_path / "map.json")
    run(capsys, "map", "induce", "--n", str(n), "--q", str(q), "--matrix", _identity(n),
        "--out", out_path)
    refuse_reconstruction(monkeypatch)
    code, report, err = run_json(capsys, "map", "analyze", out_path)
    assert code == 1 and not report["passed"]
    rows = {r["name"]: r for r in report["checks"]}
    assert rows["apartments-preserved"]["pass"]
    assert rows["apartments-preserved"]["note"] == note
    assert rows["classification"] == {
        "name": "classification", "expected": "induced", "actual": label, "pass": False,
    }
    assert "reconstruction failed: refused" in err


def test_map_analyze_certified_note(capsys, tmp_path):
    out_path = str(tmp_path / "map.json")
    run(capsys, "map", "induce", "--n", "2", "--q", "3", "--matrix", IDENTITY,
        "--out", out_path)
    for argv in ([], ["--mode", "sample", "--k", "3"]):
        code, report, _ = run_json(capsys, "map", "analyze", out_path, *argv)
        assert code == 0
        row = report["checks"][0]
        assert row["name"] == "apartments-preserved" and row["pass"]
        assert row["note"] == (
            "234 apartments preserved (certified: induced by a strong embedding)"
        )
        assert report["params"]["mode"] == ("sample" if argv else "exhaustive")


@pytest.mark.parametrize(
    "argv, mode",
    [([], "exhaustive"), (["--mode", "sample", "--k", "50"], "sample")],
    ids=["default", "sample-k50"],
)
def test_map_analyze_keeps_the_benchmark_command_lines(capsys, tmp_path, argv, mode):
    """``perfbench/plan.py`` sends these two command lines and checks the
    echoed mode, the label and the exit code; the flags select nothing."""
    out_path = str(tmp_path / "map.json")
    run(capsys, "map", "induce", "--n", "3", "--q", "2",
        "--matrix", "1,1,0,0;0,1,0,0;0,0,1,1;0,0,0,1", "--out", out_path)
    data = json.load(open(out_path))
    data["pairs"][0][1], data["pairs"][9][1] = data["pairs"][9][1], data["pairs"][0][1]
    swapped_path = str(tmp_path / "swapped.json")
    with open(swapped_path, "w") as fh:
        json.dump(data, fh)
    for path, label, exit_code in [
        (out_path, "collineation-direct", 0),
        (swapped_path, "not-apartment-preserving", 1),
    ]:
        code, report, _ = run_json(capsys, "map", "analyze", path, *argv)
        assert code == exit_code
        assert report["params"]["mode"] == mode
        assert report["checks"][-1]["actual"] == label


def test_map_induce_over_rank_cap_exits_2(tmp_path):
    identity = ";".join(
        ",".join("1" if r == c else "0" for c in range(31)) for r in range(31)
    )
    done = _bft_subprocess("map", "induce", "--n", "30", "--q", "2",
                           "--matrix", identity, "--out", str(tmp_path / "x.json"),
                           timeout=10)
    assert done.returncode == 2 and done.stdout == ""
    assert "Traceback" not in done.stderr
    assert "dimension 30 exceeds the cap 5; use --force" in done.stderr
    assert not (tmp_path / "x.json").exists()


def _identity(n: int) -> str:
    return ";".join(",".join("1" if r == c else "0" for c in range(n + 1)) for r in range(n + 1))


@pytest.mark.parametrize("n, q", [(4, 5), (5, 3), (4, 9)])
def test_map_induce_of_too_many_chambers_exits_2_before_writing(tmp_path, n, q):
    """In rank but over the chamber cap: refused without ``--force``, with
    no file written."""
    out = tmp_path / "x.json"
    done = _bft_subprocess("map", "induce", "--n", str(n), "--q", str(q),
                           "--matrix", _identity(n), "--out", str(out), timeout=10)
    assert done.returncode == 2 and done.stdout == ""
    assert "Traceback" not in done.stderr
    count = chamber_count(n, q)
    assert f"PG({n},{q}) has {count} chambers, more than the cap 4194304; use --force" in (
        done.stderr
    )
    assert not out.exists()


def test_map_induce_chamber_cap_keeps_the_largest_spaces_in_cap(capsys, monkeypatch, tmp_path):
    """PG(5,2), PG(4,3), PG(3,9) and PG(4,4) are written without ``--force``,
    and a forced PG(4,5) is not refused (the writer is replaced, so nothing
    is walked)."""
    monkeypatch.setattr(cli, "dump_map",
                        lambda semi, out, dual: chamber_count(semi.source.n, semi.source.q))
    for n, q, *force in [(5, 2), (4, 3), (3, 9), (4, 4), (4, 5, "--force")]:
        code, report, _ = run_json(capsys, "map", "induce", "--n", str(n), "--q", str(q),
                                   "--matrix", _identity(n), "--out", str(tmp_path / "m.json"),
                                   *force)
        assert code == 0 and report["checks"][0]["actual"] == chamber_count(n, q)


def test_map_induce_accepts_force_in_cap(capsys, tmp_path):
    out_path = str(tmp_path / "map.json")
    code, report, _ = run_json(capsys, "map", "induce", "--n", "2", "--q", "2",
                               "--matrix", IDENTITY, "--force", "--out", out_path)
    assert code == 0 and report["checks"][0]["actual"] == 21


def test_map_analyze_truncated_files_exit_2(tmp_path):
    """Any prefix of a valid file is malformed: exit 2, never a traceback."""
    full = tmp_path / "map.json"
    made = _bft_subprocess("map", "induce", "--n", "2", "--q", "2",
                           "--matrix", IDENTITY, "--out", str(full))
    assert made.returncode == 0
    data = full.read_bytes()
    for cut in (0, 1, 10, 40, 100, len(data) // 2, len(data) - 20, len(data) - 2):
        path = tmp_path / f"cut{cut}.json"
        path.write_bytes(data[:cut])
        done = _bft_subprocess("map", "analyze", str(path))
        assert done.returncode == 2 and done.stdout == "", cut
        assert "Traceback" not in done.stderr, cut
        assert "malformed chamber-map file" in done.stderr, cut


def test_map_analyze_runs_each_stage_once(capsys, tmp_path, monkeypatch):
    """Reconstruction, the whole certificate, runs once per analysis and
    never hands the point map to ``verify_strong_embedding``; the main
    lemma and ``dual_point`` never run.
    The apartment sweep runs only when the certificate fails, and then
    once."""
    from bft import buildings, chamber_maps

    matrix = "1,1,0,0;0,1,0,0;0,0,1,1;0,0,0,1"
    out_path = str(tmp_path / "pg32.json")
    run(capsys, "map", "induce", "--n", "3", "--q", "2",
        "--matrix", matrix, "--out", out_path)
    dual_path = str(tmp_path / "pg32-dual.json")
    run(capsys, "map", "induce", "--n", "3", "--q", "2",
        "--matrix", matrix, "--dual", "--out", dual_path)
    data = json.load(open(out_path))
    data["pairs"][0][1], data["pairs"][1][1] = data["pairs"][1][1], data["pairs"][0][1]
    swapped_path = tmp_path / "swapped.json"
    swapped_path.write_text(json.dumps(data))
    calls = {}
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "bft"]
    stages = [
        (chamber_maps, "preserves_apartments"),
        (chamber_maps, "reconstruct"),
        (chamber_maps, "verify_strong_embedding"),
        (chamber_maps, "main_lemma_decompose"),
        (chamber_maps, "dual_point"),
        (buildings, "all_bases"),
    ]
    for owner, name in stages:
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)

    for path, label in [(out_path, "collineation-direct"),
                        (dual_path, "collineation-dual")]:
        calls.update(dict.fromkeys([name for _, name in stages], 0))
        code, report, _ = run_json(capsys, "map", "analyze", path)
        assert code == 0
        assert report["checks"][-1]["actual"] == label
        assert calls == {
            "preserves_apartments": 0,
            "reconstruct": 1,
            "verify_strong_embedding": 0,
            "main_lemma_decompose": 0,
            "dual_point": 0,
            "all_bases": 0,
        }

    calls.update(dict.fromkeys([name for _, name in stages], 0))
    code, report, _ = run_json(capsys, "map", "analyze", str(swapped_path))
    assert code == 1
    assert report["checks"][-1]["actual"] == "not-apartment-preserving"
    assert calls["preserves_apartments"] == 1 and calls["reconstruct"] == 1
    assert calls["main_lemma_decompose"] == 0
    assert calls["all_bases"] == 0  # the sweep walks iter_bases lazily


def test_reports_are_byte_identical(capsys, tmp_path):
    out_path = str(tmp_path / "map.json")
    run(capsys, "map", "induce", "--n", "2", "--q", "2", "--matrix", IDENTITY,
        "--out", out_path)
    _, out1, _ = run(capsys, "map", "analyze", out_path, "--seed", "7")
    _, out2, _ = run(capsys, "map", "analyze", out_path, "--seed", "7")
    assert out1 == out2
    _, lem1, _ = run(capsys, "lemmas", "--n", "2", "--q", "2", "--all")
    _, lem2, _ = run(capsys, "lemmas", "--n", "2", "--q", "2", "--all")
    assert lem1 == lem2


def test_timing_goes_to_stderr_not_stdout(capsys):
    code, out, err = run(capsys, "space", "--n", "2", "--q", "2")
    assert code == 0
    assert "elapsed" in err and "elapsed" not in out
