"""Traced child: one bft CLI request with spans around calls into each layer.

Usage::

    python3 perfbench/traced.py OUT.json REQUEST_ID -- <bft argv...>

with ``src`` on PYTHONPATH.  Before calling ``bft.cli.main(argv)`` it
replaces the public functions listed in ``TRACED`` with timing wrappers, in
every ``bft.*`` namespace that holds them (the defining module and every
module that imported the name), so nothing under ``src/`` changes.  The
report on stdout, the exit code and stderr are the untraced ones.

Each wrapper keeps an exact stack of open calls.  A span's self time is its
duration minus the time of the wrapped calls directly inside it, and is
added to its layer.  Spans of coarse calls are kept in memory as
``(name, start, end, parent, request)``; spans of the hot leaf calls
(``rref`` alone runs ~400k times in one PG(3,3) sample analysis) are folded
into per-function totals and into their parent's child time instead of
being stored one by one.  Everything is written to OUT.json at exit.
"""

from __future__ import annotations

import json
import os
import sys
import time
from functools import wraps

clock = time.perf_counter

# layer -> [(attribute path, keep each span)]; a dotted path names a method.
TRACED = {
    "gf": [
        ("rref", False),
        ("Subspace.contains_vector", False),
        ("Subspace.annihilator", False),
    ],
    "projective": [
        ("points_of", True),
        ("points_of_subspace", False),
        ("is_independent", False),
        ("span_points", False),
        ("dual_subspace", False),
        ("Semilinear.apply_subspace", False),
    ],
    "buildings": [
        ("chambers_of", True),
        ("apartment_of", True),
        ("all_bases", True),
        ("check_chamber", False),
    ],
    "combinatorics": [
        ("intersection_count", True),
        ("star_intersections", True),
        ("point_family", False),
        ("copoint_family", False),
        ("point_copoint_family", False),
        ("residual_family", False),
        ("max_inexact_family", False),
        ("complement_family", False),
        ("complement_chamber", False),
        ("classify_adjacent_family", False),
    ],
    "chamber_maps": [
        ("induce", True),
        ("preserves_apartments", True),
        ("main_lemma_decompose", True),
        ("reconstruct", True),
        ("verify_strong_embedding", True),
        ("classify", True),
        ("dual_point", False),
    ],
    "jsonio": [
        ("load_map", True),
        ("decode_map", True),
        ("dump_map", True),
        ("encode_map", True),
    ],
    "cli": [("main", True)],
}

# Caches whose cache_info() is reported, by counter name.
CACHES = {
    "buildings.apartment_of": ("buildings", ["apartment_of"]),
    "combinatorics.family_cache": (
        "combinatorics",
        [
            "point_family",
            "copoint_family",
            "point_copoint_family",
            "residual_family",
            "max_inexact_family",
            "complement_family",
            "_point_masks",
        ],
    ),
}


class Tracer:
    def __init__(self, request: str):
        self.request = request
        self.spans: list = []
        self.stack: list = []  # open calls: [id children point to, child seconds]
        self.calls: dict = {}
        self.seconds: dict = {}
        self.self_s: dict = {}
        self.counts = {
            "chamber_maps.apartments_checked": 0,
            "buildings.all_bases.bases": 0,
            "jsonio.load_map.bytes": 0,
            "jsonio.dump_map.bytes": 0,
        }
        self._bases_seen: set = set()
        self._caches: dict = {}

    def _observe(self, key, args, kwargs, result):
        if key == "chamber_maps.preserves_apartments":
            self.counts["chamber_maps.apartments_checked"] += result.checked
        elif key == "buildings.all_bases" and id(result) not in self._bases_seen:
            # cached calls return the same tuple: count each enumeration once
            self._bases_seen.add(id(result))
            self.counts["buildings.all_bases.bases"] += len(result)
        elif key == "jsonio.load_map":
            self.counts["jsonio.load_map.bytes"] += os.path.getsize(args[0])
        elif key == "jsonio.dump_map":
            path = args[1] if len(args) > 1 else kwargs["path"]
            self.counts["jsonio.dump_map.bytes"] += os.path.getsize(path)

    def wrap(self, layer: str, name: str, fn, keep: bool):
        key = f"{layer}.{name.split('.')[-1]}"
        self.calls[key] = 0
        self.seconds[key] = 0.0
        self.self_s.setdefault(layer, 0.0)
        stack, spans = self.stack, self.spans

        @wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            span_id = len(spans) if keep else None
            if keep:
                spans.append(None)
            frame = [span_id if keep else parent, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.self_s[layer] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                self.calls[key] += 1
                self.seconds[key] += duration
                if keep:
                    spans[span_id] = (key, start, end, parent, self.request)
            self._observe(key, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "bft" or name.startswith("bft.")
        }
        for counter, (layer, names) in CACHES.items():
            owner = modules[f"bft.{layer}"]
            self._caches[counter] = [getattr(owner, n) for n in names]
        for layer, entries in TRACED.items():
            owner = modules[f"bft.{layer}"]
            for path, keep in entries:
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(owner, cls_name)
                    setattr(cls, attr, self.wrap(layer, path, getattr(cls, attr), keep))
                    continue
                original = getattr(owner, path)
                wrapper = self.wrap(layer, path, original, keep)
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def dump(self, path: str) -> None:
        caches = {}
        for counter, fns in self._caches.items():
            infos = [fn.cache_info() for fn in fns]
            caches[counter] = {
                "hits": sum(i.hits for i in infos),
                "misses": sum(i.misses for i in infos),
            }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "request": self.request,
                    "calls": self.calls,
                    "seconds": self.seconds,
                    "self_s": self.self_s,
                    "counts": self.counts,
                    "caches": caches,
                    "spans": [s for s in self.spans if s is not None],
                },
                fh,
            )


def main() -> int:
    out, request, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced.py OUT.json REQUEST_ID -- <bft argv...>")
    import bft.cli  # noqa: F401  (loads every bft module before patching)

    tracer = Tracer(request)
    tracer.install()
    try:
        return bft.cli.main(argv)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
