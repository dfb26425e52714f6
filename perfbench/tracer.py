"""Outside-in tracer: wraps the public functions and methods of every
``hqmap`` module from the benchmark's side, records one span per call, and
turns the spans of a pass into per-layer metrics.

A layer is an ``hqmap`` module (``maps``, ``poisson``, ...).  Every binding
callers actually use is replaced, not only the defining one: ``from .x
import y`` copies a function into other modules (``adaptive_quad`` lives in
``quadrature`` but is called through ``radial`` and ``poisson``), so each
module attribute that *is* a traced function gets the wrapper.  Methods are
wrapped on their classes (``HarmonicMap.value``, ``SeriesPart.d1``, ...).

A span is (name, start, end, parent, n, key).  ``n`` is a work count read
from the arguments or the result (points evaluated, intervals used) and
``key`` identifies repeated requests (the same (map, eps) Poisson scan).
Spans stay in memory and are written to a ``.npz`` file when the traced
process exits; nothing in ``hqmap`` is edited.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from collections import defaultdict

import numpy as np

NO_KEY = -1


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _points(index, name):
    def probe(args, kwargs, out):
        z = _arg(args, kwargs, index, name)
        return getattr(z, "size", None) or int(np.size(z)), None
    return probe


# qualified name -> probe(args, kwargs, result) -> (work count, request key)
PROBES = {
    "maps.HarmonicMap.value": _points(1, "z"),
    "maps.HarmonicMap.wirtinger": _points(1, "z"),
    "maps.SeriesPart.value": _points(1, "z"),
    "maps.SeriesPart.d1": _points(1, "z"),
    "maps.SeriesPart.d2": _points(1, "z"),
    "maps.CatalogPart.value": _points(1, "z"),
    "maps.CatalogPart.d1": _points(1, "z"),
    "maps.CatalogPart.d2": _points(1, "z"),
    "geometry.boundary_distances": _points(1, "ws"),
    "geometry.boundary_distance": _points(1, "w"),
    "geometry.set_diameter": _points(0, "points"),
    "poisson.poisson_functional":
        lambda a, k, out: (int(_arg(a, k, 2, "profile").n), None),
    "poisson.poisson_scan":
        lambda a, k, out: (0, ("scan", _arg(a, k, 0, "m"), float(_arg(a, k, 1, "eps")))),
    "geometry.ring_image":
        lambda a, k, out: (0, ("ring", _arg(a, k, 0, "m"), float(_arg(a, k, 1, "eps")),
                               int(_arg(a, k, 2, "n")))),
    "quadrature.adaptive_quad":
        lambda a, k, out: (int(out.intervals), "converged" if out.converged else "unconverged"),
    "suites.run_suite": lambda a, k, out: (0, str(_arg(a, k, 0, "name"))),
}


class Tracer:
    """Records spans for every traced call made after ``install``."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.keys = {}
        self._stack = [-1]

    def _key_id(self, key) -> int:
        if key is None:
            return NO_KEY
        return self.keys.setdefault(key, len(self.keys))

    def _wrap(self, fn, qualname):
        name_id = len(self.names)
        self.names.append(qualname)
        probe = PROBES.get(qualname)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        if probe is None:
            def traced(*args, **kwargs):
                idx = len(spans)
                spans.append(None)
                parent = stack[-1]
                stack.append(idx)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    spans[idx] = (name_id, t0, clock(), parent, 0, NO_KEY)
                    stack.pop()
        else:
            def traced(*args, **kwargs):
                idx = len(spans)
                spans.append(None)
                parent = stack[-1]
                stack.append(idx)
                t0 = clock()
                out = None
                try:
                    out = fn(*args, **kwargs)
                    return out
                finally:
                    t1 = clock()
                    stack.pop()
                    n, key = probe(args, kwargs, out) if out is not None else (0, None)
                    spans[idx] = (name_id, t0, t1, parent, n, self._key_id(key))

        return functools.update_wrapper(traced, fn)

    def install(self, package) -> None:
        """Wrap every public function and method of the package's modules
        and rebind every module attribute that refers to one of them."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        wrappers = {}
        for mod in modules[1:]:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{name}")
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, f"{layer}.{name}")
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    setattr(mod, name, wrappers[id(obj)])

    def _wrap_methods(self, cls, prefix):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if inspect.isfunction(attr):
                setattr(cls, name, self._wrap(attr, f"{prefix}.{name}"))
            elif isinstance(attr, staticmethod):
                setattr(cls, name, staticmethod(self._wrap(attr.__func__, f"{prefix}.{name}")))
            elif isinstance(attr, property) and attr.fget is not None:
                # e.g. WirtingerPair.dnorm: array work owned by maps, not by the caller
                setattr(cls, name, property(self._wrap(attr.fget, f"{prefix}.{name}"),
                                            attr.fset, attr.fdel, attr.__doc__))

    def dump(self, path, pass_id: int) -> None:
        """Write the spans of the finished pass ``pass_id``."""
        cols = np.array(self.spans, dtype=float).reshape(-1, 6)
        key_names = [""] * len(self.keys)
        for key, idx in self.keys.items():
            key_names[idx] = key if isinstance(key, str) else ""
        np.savez(
            path,
            pass_id=np.int64(pass_id),
            names=np.array(self.names, dtype=str),
            key_names=np.array(key_names, dtype=str),
            name_id=cols[:, 0].astype(np.int64),
            start=cols[:, 1],
            end=cols[:, 2],
            parent=cols[:, 3].astype(np.int64),
            n=cols[:, 4].astype(np.int64),
            key=cols[:, 5].astype(np.int64),
        )


# ---------------------------------------------------------------------------
# spans -> metrics

LAYERS = ("cli", "corpus", "suites", "bounds", "johndisk", "poisson", "radial",
          "geometry", "transforms", "quadrature", "maps")
SUITE_NAMES = ("analytic-classical", "harmonic-advisory", "geometry", "radial-growth")


def _load(path) -> dict:
    with np.load(path) as z:
        return {k: z[k] for k in z.files}


def span_metrics(paths) -> dict:
    """Per-layer metrics of one pass, from the span files of its
    invocations (one traced process each).  Self time is a span's duration
    minus the durations of its direct children."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    incl = defaultdict(float)
    count = defaultdict(int)
    work = defaultdict(int)
    distinct = defaultdict(int)
    suite_s = defaultdict(float)
    crit3_value_calls = 0
    unconverged = 0
    for path in paths:
        s = _load(path)
        names = [str(x) for x in s["names"]]
        key_names = [str(x) for x in s["key_names"]]
        name_id, parent, key = s["name_id"], s["parent"], s["key"]
        dur = s["end"] - s["start"]
        nested = parent >= 0
        own = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        per_name = [np.bincount(name_id, weights=w, minlength=len(names))
                    for w in (None, own, dur, s["n"])]
        for i, qn in enumerate(names):
            k = int(per_name[0][i])
            if not k:
                continue
            layer = qn.split(".", 1)[0]
            calls[layer] += k
            self_s[layer] += float(per_name[1][i])
            incl[qn] += float(per_name[2][i])
            count[qn] += k
            work[qn] += int(per_name[3][i])
            if qn in ("poisson.poisson_scan", "geometry.ring_image"):
                distinct[qn] += len(np.unique(key[name_id == i]))
        if "unconverged" in key_names:
            unconverged += int(np.sum(key == key_names.index("unconverged")))
        if "suites.run_suite" in names:
            sel = name_id == names.index("suites.run_suite")
            for kid, d in zip(key[sel], dur[sel]):
                suite_s[key_names[kid]] += float(d)
        if "johndisk.criterion_iii" in names and "maps.HarmonicMap.value" in names:
            par = parent[name_id == names.index("maps.HarmonicMap.value")]
            par = par[par >= 0]
            crit3_value_calls += int(np.sum(name_id[par] == names.index("johndisk.criterion_iii")))

    def ratio(a, b):
        return a / b if b else 0.0

    map_calls = count["maps.HarmonicMap.value"] + count["maps.HarmonicMap.wirtinger"]
    map_points = work["maps.HarmonicMap.value"] + work["maps.HarmonicMap.wirtinger"]
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
    out.update({
        "maps.points": map_points,
        "maps.points_per_call": ratio(map_points, map_calls),
        "maps.series.points": sum(work[f"maps.SeriesPart.{m}"] for m in ("value", "d1", "d2")),
        "maps.catalog.points": sum(work[f"maps.CatalogPart.{m}"] for m in ("value", "d1", "d2")),
        "poisson.scan.calls": count["poisson.poisson_scan"],
        "poisson.scan.unique_ratio": ratio(distinct["poisson.poisson_scan"],
                                           count["poisson.poisson_scan"]),
        "poisson.functional.calls": count["poisson.poisson_functional"],
        "poisson.kernel_points": work["poisson.poisson_functional"],
        "poisson.profile_s": incl["poisson.boundary_profile"],
        "johndisk.criterion_ii_s": incl["johndisk.criterion_ii"],
        "johndisk.criterion_iii_s": incl["johndisk.criterion_iii"],
        "johndisk.decay_fit_s": incl["johndisk.decay_fit"],
        "johndisk.criterion_iii.value_calls": crit3_value_calls,
        "geometry.dist_points": work["geometry.boundary_distances"]
                                + work["geometry.boundary_distance"],
        "geometry.ring_image.unique_ratio": ratio(distinct["geometry.ring_image"],
                                                  count["geometry.ring_image"]),
        "geometry.diameter_points": work["geometry.set_diameter"],
        "quadrature.intervals": work["quadrature.adaptive_quad"],
        "quadrature.unconverged": unconverged,
        "quadrature.golden_calls": count["quadrature.golden_max"],
        "corpus.validate_s": incl["corpus.validate_corpus"],
    })
    for name in SUITE_NAMES:
        out[f"suites.{name}_s"] = suite_s[name]
    return out
