"""Span tracing of nlgap's layers without editing the package.

`Tracer.install` rebinds every attribute of every `nlgap` module that is
one of the traced function objects (so both `poincare.gamma_exact` and
`extrapolation.gamma_exact`) to a recording wrapper, and wraps methods on
their class. Calls between traced functions then nest as child spans, for
example models -> `canonical_form` or `lambda2` -> `spectrum`. Spans stay
in flat in-memory arrays and are written when the round ends.
"""
from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array

# Layers are nlgap's modules; each lists the functions traced in it.
TRACED = {
    "graphs": ("enumerate_regular_graphs", "canonical_form", "cheeger_exact",
               "random_regular", "random_connected_regular", "spectrum", "lambda2",
               "distance_matrix", "bfs_distances", "multi_source_distances"),
    "metrics": ("random_euclidean_metric", "linf_grid", "well_conditioned_reduction",
                "validate"),
    "poincare": ("gamma_exact", "enumerate_map_statistics", "gamma_lower_search",
                 "gamma_of_map"),
    "extrapolation": ("check_extrapolation",),
    "embeddings": ("witness_certificate", "jls_embedding", "embedding_distortion",
                   "GridMap.image_distance_matrix"),
    "models": ("distribution_equality_mc", "matching_avoidance_mc",
               "restriction_concentration_mc", "random_perfect_matching",
               "typical_sets_experiment", "draw_model", "seed_map_h"),
    "rng": ("derive_rng",),
    "io": ("CsvDocument.render",),
    "svg": ("emit_svg",),
    "cli": ("main",),
}

# Traced functions that call other traced functions; only these get .self_s.
COMPOSITE = (
    "graphs.enumerate_regular_graphs", "graphs.random_regular",
    "graphs.random_connected_regular", "graphs.lambda2", "graphs.distance_matrix",
    "metrics.random_euclidean_metric", "metrics.linf_grid",
    "metrics.well_conditioned_reduction",
    "poincare.gamma_exact", "poincare.gamma_lower_search",
    "extrapolation.check_extrapolation",
    "embeddings.witness_certificate", "embeddings.jls_embedding",
    "embeddings.embedding_distortion",
    "models.distribution_equality_mc", "models.matching_avoidance_mc",
    "models.restriction_concentration_mc", "models.typical_sets_experiment",
    "models.draw_model", "models.seed_map_h",
    "cli.main",
)


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _trials(args, kwargs, result) -> int:
    return result.trials


# Work counted at the layer boundary, from each call's arguments and result.
COUNTERS = {
    "poincare.gamma_exact": (
        ("poincare.gamma_exact.maps", lambda a, k, r: r.maps_evaluated),),
    "poincare.enumerate_map_statistics": (
        ("poincare.enumerate_map_statistics.maps",
         lambda a, k, r: _arg(a, k, 1, "metric").size ** _arg(a, k, 0, "g").n),),
    "poincare.gamma_lower_search": (
        ("poincare.gamma_lower_search.steps", lambda a, k, r: r.maps_evaluated),),
    "models.distribution_equality_mc": (("models.trials", _trials),),
    "models.matching_avoidance_mc": (("models.trials", _trials),),
    "models.restriction_concentration_mc": (("models.trials", _trials),),
    "embeddings.jls_embedding": (
        ("embeddings.jls_embedding.attempts", lambda a, k, r: r.attempts),
        ("embeddings.jls_embedding.successes", lambda a, k, r: int(r.success))),
}
COUNT_NAMES = tuple(dict.fromkeys(key for spec in COUNTERS.values() for key, _ in spec))


def traced_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]


class Tracer:
    """Records one span per traced call: name, start, end, parent span and job."""

    def __init__(self):
        self.names: list[str] = []
        self.jobs: list[str] = ["setup"]
        self.job_id = 0
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_outer = array("b")     # 1 unless nested in a span of the same name
        self.span_start = array("d")
        self.span_end = array("d")
        self.errors = {layer: 0 for layer in TRACED}
        self.counts = {name: 0 for name in COUNT_NAMES}
        self.originals: dict[str, object] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._active: list[int] = []
        self._last_error: BaseException | None = None
        self._undo: list[tuple[object, str, object]] = []

    def set_job(self, label: str) -> None:
        self.jobs.append(label)
        self.job_id = len(self.jobs) - 1

    def wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        self._active.append(0)
        layer = name.split(".", 1)[0]
        counters = COUNTERS.get(name, ())
        stack, active, clock = self._stack, self._active, time.perf_counter
        s_name, s_parent, s_job = self.span_name, self.span_parent, self.span_job
        s_outer, s_start, s_end = self.span_outer, self.span_start, self.span_end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(s_start)
            s_name.append(idx)
            s_parent.append(stack[-1] if stack else -1)
            s_job.append(self.job_id)
            s_outer.append(active[idx] == 0)
            s_end.append(0.0)
            active[idx] += 1
            stack.append(sid)
            s_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if exc is not self._last_error:    # count an error once, where it is raised
                    self._last_error = exc
                    self.errors[layer] += 1
                raise
            finally:
                s_end[sid] = clock()
                stack.pop()
                active[idx] -= 1
            for key, count in counters:
                self.counts[key] += count(args, kwargs, result)
            return result

        for attr in ("cache_info", "cache_clear", "cache_parameters"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def install(self) -> None:
        import importlib
        modules = {layer: importlib.import_module(f"nlgap.{layer}") for layer in TRACED}
        package = [m for key, m in sys.modules.items()
                   if m is not None and (key == "nlgap" or key.startswith("nlgap."))]
        for name in traced_names():
            layer, _, attr = name.partition(".")
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                cls = getattr(modules[layer], cls_name, None)
                orig = cls.__dict__.get(method) if cls is not None else None
                if orig is None:
                    self.missing.append(name)
                    continue
                self.originals[name] = orig
                self._rebind(cls, method, orig, self.wrap(name, orig))
                continue
            orig = getattr(modules[layer], attr, None)
            if orig is None:
                self.missing.append(name)
                continue
            self.originals[name] = orig
            wrapper = self.wrap(name, orig)
            for module in package:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        self._rebind(module, key, orig, wrapper)

    def _rebind(self, owner, key: str, orig, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def layer_metrics(self) -> dict[str, float]:
        """calls, busy_s and self_s per traced function, errors per layer and
        the work counts. busy_s counts a span only when it is not nested in
        another span of the same function; self_s subtracts direct children."""
        import numpy as np
        n_names = len(self.names)
        name = np.asarray(self.span_name, dtype=np.int64)
        parent = np.asarray(self.span_parent, dtype=np.int64)
        outer = np.asarray(self.span_outer, dtype=bool)
        dur = np.asarray(self.span_end) - np.asarray(self.span_start)
        calls = np.bincount(name, minlength=n_names)
        busy = np.bincount(name[outer], weights=dur[outer], minlength=n_names)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = np.bincount(name, weights=dur - child, minlength=n_names)
        out: dict[str, float] = {}
        for i, fn in enumerate(self.names):
            out[f"{fn}.calls"] = int(calls[i])
            out[f"{fn}.busy_s"] = float(busy[i])
            if fn in COMPOSITE:
                out[f"{fn}.self_s"] = float(own[i])
        for fn in self.missing:
            out[f"{fn}.calls"] = 0
            out[f"{fn}.busy_s"] = 0.0
            if fn in COMPOSITE:
                out[f"{fn}.self_s"] = 0.0
        for layer, count in self.errors.items():
            out[f"{layer}.errors"] = count
        out.update(self.counts)
        return out

    def dump(self, path, run_id: str) -> None:
        """Write every span as gzip'd column-wise JSON."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"run_id": run_id, "names": self.names, "jobs": self.jobs,
                       "missing": self.missing,
                       "name": self.span_name.tolist(), "parent": self.span_parent.tolist(),
                       "job": self.span_job.tolist(), "start": self.span_start.tolist(),
                       "end": self.span_end.tolist()}, fh)
