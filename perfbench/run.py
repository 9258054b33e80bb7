"""End-to-end benchmark of the bft CLI, as a user runs it.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
    python3 perfbench/run.py --compare OLD.jsonl NEW.jsonl

One client, closed loop: every request is one child process
(``python3 -m bft.cli ...`` with ``src`` on PYTHONPATH), started only after
the previous one exited, one at a time.  A workload is a fixed cycle of
requests (``plan.py``); the loop runs one whole cycle, then goes on in
cycle order while the next request is expected to end inside
``--seconds``.  Each answer is checked against what the input was
built to give.  Set-up (seeded input generation in a child, ``gen.py``) is
timed twice before the loop and twice after it; the median is ``setup_s``.

``--trace 1`` runs every request twice, plain and then through
``traced.py``, and reports per-layer metrics averaged per request over the
run's whole cycles, plus the traced/plain wall-time ratio.  The last
stdout line is the result object; the lines before it are a per-request
table and the environment.
``--out FILE`` also appends one JSON record per run, which ``--compare``
reads; a traced run appends its spans to ``FILE.spans.jsonl``.  See
NOTES.md for why the workloads are what they are.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import plan

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 4
STARTUP_PROBES = 5
REQUEST_TIMEOUT_S = 60.0
SETUP_TIMEOUT_S = 120.0
clock = time.perf_counter


def child_env() -> dict:
    """The pinned environment of every child: no thread knob, fixed hashes,
    and no inherited PYTHON* setting (PYTHONDONTWRITEBYTECODE, for one,
    would make every request recompile the package, which no installed
    copy does)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.pop("BFT_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv, cwd: Path, stdout: Path, stderr: Path, timeout: float) -> dict:
    """Run one child to exit; wall time from spawn to exit, and its own
    peak RSS from the rusage ``wait4`` returns for that pid alone."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = clock()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        waited = {}

        def reap():
            waited["status"] = os.wait4(proc.pid, 0)
            waited["end"] = clock()

        reaper = threading.Thread(target=reap)
        reaper.start()
        reaper.join(timeout)
        timed_out = reaper.is_alive()
        if timed_out:
            proc.kill()
            reaper.join()
    _, status, usage = waited["status"]
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": waited["end"] - start,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "code": proc.returncode,
        "timed_out": timed_out,
    }


# ------------------------------------------------------------ known answers


def check(request: dict, run: dict, out_text: str, err_text: str, cwd: Path) -> str | None:
    """None when the answer is the one the input was built to give, else why not."""
    if run["timed_out"]:
        return f"timed out after {REQUEST_TIMEOUT_S:.0f} s"
    if "Traceback" in err_text:
        return "traceback on stderr"
    try:
        report = json.loads(out_text)
    except json.JSONDecodeError:
        return f"exit {run['code']} without a JSON report"
    rows = {row["name"]: row for row in report.get("checks", [])}
    expect = request["expect"]
    kind = expect["kind"]
    code = run["code"]
    if kind == "analyze":
        label = rows.get("classification", {}).get("actual")
        induced = expect["label"] != "not-apartment-preserving"
        if label != expect["label"]:
            return f"label {label!r}, expected {expect['label']!r}"
        if code != (0 if induced else 1):
            return f"exit {code} for label {label!r}"
        if report["params"]["mode"] != expect["mode"]:
            return f"mode {report['params']['mode']!r}, expected {expect['mode']!r}"
        if induced:
            details = report.get("details", {})
            if details.get("kind") != expect["label"].rsplit("-", 1)[1]:
                return f"kind {details.get('kind')!r} does not match {expect['label']!r}"
            if len(details.get("g", ())) != expect["points"]:
                return "point map does not cover every point"
            if expect.get("g") is not None and details["g"] != expect["g"]:
                return "point map differs from the matrix's point action"
        return None
    if kind == "lemmas":
        if code != 1:
            return f"exit {code}; the case-6 row must fail (exit 1)"
        for name, count in expect["overlaps"].items():
            if rows.get(name, {}).get("actual") != count:
                return f"{name} actual {rows.get(name, {}).get('actual')!r}, enumeration gives {count}"
        failing = sorted(name for name, row in rows.items() if not row["pass"])
        if failing != ["case-6-overlap"]:
            return f"failing rows {failing}, expected exactly ['case-6-overlap']"
        return None
    # induce
    if code != 0:
        return f"exit {code}"
    written = rows.get("pairs-written", {}).get("actual")
    if written != expect["pairs"]:
        return f"pairs-written {written!r}, expected {expect['pairs']}"
    path = cwd / expect["out"]
    try:
        summary = summarize_map(path, cwd)
    finally:
        path.unlink(missing_ok=True)
    if summary is None:
        return "cannot read the written map"
    if summary["source"] != expect["source"] or summary["target"] != expect["target"]:
        return "written map names the wrong spaces"
    if summary["pairs"] != expect["pairs"]:
        return f"written map holds {summary['pairs']} pairs, expected {expect['pairs']}"
    return None


# Parsing a written map takes ~100 MB for PG(4,2).  It runs in a child of
# its own: a child started later would otherwise inherit this process's
# peak RSS in its own ru_maxrss (the spawn shares this address space until
# exec), which would hide a smaller peak in the program under test.
SUMMARIZE = (
    "import json, sys\n"
    "d = json.load(open(sys.argv[1], encoding='utf-8'))\n"
    "print(json.dumps({'source': d.get('source'), 'target': d.get('target'),"
    " 'pairs': len(d.get('pairs', ()))}))\n"
)


def summarize_map(path: Path, cwd: Path) -> dict | None:
    out, err = cwd / "summary.out", cwd / "summary.err"
    run = spawn([sys.executable, "-c", SUMMARIZE, str(path)], cwd, out, err, REQUEST_TIMEOUT_S)
    if run["code"] != 0 or run["timed_out"]:
        return None
    return json.loads(out.read_text(encoding="utf-8"))


# --------------------------------------------------------------------- runs


def setup(workload: str, seed: int, work: Path, target: Path):
    """Write the seeded inputs to a fresh ``target``; the plan and the
    seconds it took."""
    shutil.rmtree(target, ignore_errors=True)
    start = clock()
    cycle = plan.build(workload, seed)
    run = spawn(
        [sys.executable, str(HERE / "gen.py"), workload, str(seed), str(target)],
        work, work / "setup.out", work / "setup.err", SETUP_TIMEOUT_S,
    )
    took = clock() - start
    if run["code"] != 0 or run["timed_out"]:
        err = (work / "setup.err").read_text(encoding="utf-8", errors="replace")
        raise RuntimeError(f"set-up failed (exit {run['code']}):\n{err}")
    return cycle, took


def request(req: dict, cwd: Path, traced: bool, trace_out: Path | None, counter: int) -> dict:
    if traced:
        argv = [sys.executable, str(HERE / "traced.py"), str(trace_out), str(counter), "--", *req["argv"]]
    else:
        argv = [sys.executable, "-m", "bft.cli", *req["argv"]]
    out, err = cwd / "request.out", cwd / "request.err"
    run = spawn(argv, cwd, out, err, REQUEST_TIMEOUT_S)
    out_text = out.read_text(encoding="utf-8", errors="replace")
    err_text = err.read_text(encoding="utf-8", errors="replace")
    run["name"] = req["name"]
    run["traced"] = traced
    run["error"] = check(req, run, out_text, err_text, cwd)
    return run


def loop(cycle: dict, cwd: Path, seconds: float, trace: bool) -> list:
    """Requests in cycle order, round and round.  The first cycle always runs
    whole; after it the loop stops at the first request not expected to end
    inside ``seconds`` (by its median time so far), so a run measures for
    its whole time however long one cycle is."""
    requests = cycle["requests"]
    runs, took = [], [[] for _ in requests]
    start = clock()
    for k in itertools.count():
        pos = k % len(requests)
        if k >= len(requests) and clock() - start + statistics.median(took[pos]) > seconds:
            return runs
        began = clock()
        runs.append(request(requests[pos], cwd, False, None, len(runs)))
        if trace:
            trace_out = cwd / f"trace{len(runs)}.json"
            runs.append(request(requests[pos], cwd, True, trace_out, len(runs)))
            if trace_out.exists():
                runs[-1]["trace"] = json.loads(trace_out.read_text(encoding="utf-8"))
                trace_out.unlink()
                runs[-1]["spans"] = runs[-1]["trace"].pop("spans")
                runs[-1]["calls"] = {name: v for name, v in runs[-1]["trace"]["calls"].items() if v}
        took[pos].append(clock() - began)


def startup_s(cwd: Path) -> float:
    walls = [
        spawn([sys.executable, "-c", "import bft.cli"], cwd, cwd / "probe.out", cwd / "probe.err", REQUEST_TIMEOUT_S)["wall_s"]
        for _ in range(STARTUP_PROBES)
    ]
    return statistics.median(walls)


def git_sha() -> str:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


# ------------------------------------------------------------------ metrics


def end_to_end(runs, setup_time: float) -> dict:
    plain = [r for r in runs if not r["traced"]]
    ok = [r for r in plain if r["error"] is None]
    walls = {}
    for r in plain:
        walls.setdefault(r["name"], []).append(r["wall_s"])
    # a cycle of median requests: one slow outlier does not move it
    cycle_s = sum(statistics.median(w) for w in walls.values())
    return {
        "requests_per_s": (len(walls) / cycle_s * len(ok) / len(plain), "1/s"),
        "request_s.p50": (statistics.median(r["wall_s"] for r in plain), "s"),
        "peak_rss_mb": (max(r["rss_mb"] for r in plain), "MB"),
        "ok_ratio": (len(ok) / len(plain), "ratio"),
        "setup_s": (setup_time, "s"),
    }


def per_layer(runs, cycle_len: int, startup: float) -> dict:
    # counts per request over whole cycles only, so they repeat exactly
    # across runs of one seed however far the last cycle got
    traced = [r for r in runs if r["traced"]]
    traces = [r["trace"] for r in traced[: len(traced) // cycle_len * cycle_len] if "trace" in r]
    n = max(len(traces), 1)

    def total(section, key):
        return sum(t[section].get(key, 0) for t in traces)

    def cache(name, field):
        return sum(t["caches"][name][field] for t in traces)

    out = {}
    for layer in ("gf", "projective", "buildings", "combinatorics", "chamber_maps", "jsonio", "cli"):
        out[f"{layer}.self_s"] = (total("self_s", layer) / n, "s/req")
    for key in (
        "gf.rref", "projective.points_of_subspace", "projective.is_independent",
        "combinatorics.intersection_count", "chamber_maps.preserves_apartments",
        "chamber_maps.reconstruct", "chamber_maps.main_lemma_decompose",
    ):
        out[f"{key}.calls"] = (total("calls", key) / n, "count/req")
    for key in (
        "gf.rref", "buildings.chambers_of", "buildings.all_bases", "chamber_maps.reconstruct",
        "chamber_maps.verify_strong_embedding", "chamber_maps.induce", "jsonio.load_map",
        "jsonio.dump_map",
    ):
        out[f"{key}.s"] = (total("seconds", key) / n, "s/req")
    for key in (
        "chamber_maps.apartments_checked", "buildings.all_bases.bases",
        "jsonio.load_map.bytes", "jsonio.dump_map.bytes",
    ):
        out[key] = (total("counts", key) / n, "B/req" if key.endswith("bytes") else "count/req")
    hits, misses = cache("buildings.apartment_of", "hits"), cache("buildings.apartment_of", "misses")
    out["buildings.apartment_of.misses"] = (misses / n, "count/req")
    out["buildings.apartment_of.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    out["combinatorics.family_cache.misses"] = (cache("combinatorics.family_cache", "misses") / n, "count/req")
    out["cli.startup_s"] = (startup, "s")
    plain = sum(r["wall_s"] for r in runs if not r["traced"])
    traced = sum(r["wall_s"] for r in runs if r["traced"])
    out["trace.overhead_ratio"] = (traced / plain, "ratio")
    return out


def by_request(runs) -> list:
    rows = {}
    for r in runs:
        rows.setdefault((r["name"], r["traced"]), []).append(r)
    return [
        {
            "request": name,
            "traced": traced,
            "n": len(rs),
            "wall_s.median": statistics.median(r["wall_s"] for r in rs),
            "rss_mb.max": max(r["rss_mb"] for r in rs),
            "failed": sum(r["error"] is not None for r in rs),
            **({"calls": rs[0]["calls"]} if "calls" in rs[0] else {}),
        }
        for (name, traced), rs in rows.items()
    ]


def bench(args) -> int:
    if not (SRC / "bft" / "cli.py").is_file():
        print(f"perfbench: no bft sources under {SRC}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        # half the set-ups before the timed loop and half after it, so their
        # median is not set by whatever the machine did in one moment
        inputs, times = work / "inputs", []
        for _ in range(SETUP_REPEATS // 2):
            cycle, took = setup(args.workload, args.seed, work, inputs)
            times.append(took)
        runs = loop(cycle, inputs, args.seconds, bool(args.trace))
        for _ in range(SETUP_REPEATS // 2):
            times.append(setup(args.workload, args.seed, work, work / "spare")[1])
        setup_time = statistics.median(times)
        startup = startup_s(work)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    failed = [r for r in runs if r["error"] is not None]
    for row in by_request(runs):
        print("# " + json.dumps(row))
    for r in failed:
        print(f"# FAILED {r['name']} (traced={r['traced']}): {r['error']}")
    env = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cli.startup_s": startup,
        "failed_ratio": len(failed) / len(runs),
        # every child's ru_maxrss is at least this (see SUMMARIZE)
        "runner_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print("# env " + json.dumps(env))
    if args.trace:
        metrics = per_layer(runs, len(cycle["requests"]), startup)
    else:
        metrics = end_to_end(runs, setup_time)
    result = {
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.out:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "env": env,
            "requests": by_request(runs),
            "result": result,
        }
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        if args.trace:
            with open(f"{args.out}.spans.jsonl", "a", encoding="utf-8") as fh:
                for r in runs:
                    if "spans" in r:
                        line = {"workload": args.workload, "seed": args.seed, "request": r["name"], "spans": r["spans"]}
                        fh.write(json.dumps(line) + "\n")
    print(json.dumps(result))
    return 0


# ------------------------------------------------------------------ compare


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(old_path: str, new_path: str) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["end_to_end"]

    def load(path):
        out = {}
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            if line.strip():
                rec = json.loads(line)
                if not rec["trace"]:
                    out.setdefault(rec["workload"], []).append(rec["result"]["metrics"])
        return out

    old, new = load(old_path), load(new_path)
    print("new/old median ratio per metric; '!' worse than its bound, "
          "'?' unresolved (a side's quartile spread exceeds the bound)")
    print("workload (runs old/new) | " + " | ".join(m["name"] for m in metrics))
    for workload in [w for w in plan.WORKLOADS if w in old and w in new]:
        cells = []
        for m in metrics:
            a = [r[m["name"]]["value"] for r in old[workload]]
            b = [r[m["name"]]["value"] for r in new[workload]]
            ratio = statistics.median(b) / statistics.median(a)
            worse = ratio - 1 if m["better"] == "lower" else 1 - ratio
            if max(spread(a), spread(b)) > m["bound"]:
                mark = "?"
            elif worse > m["bound"]:
                mark = "!"
            else:
                mark = ""
            cells.append(f"{ratio:.3f}{mark}")
        print(f"{workload} ({len(old[workload])}/{len(new[workload])}) | " + " | ".join(cells))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=plan.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append a JSON record of this run to FILE")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required unless --compare is given")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
