"""The benchmark's definition: workloads, end-to-end and per-layer metrics.

`python3 -m perfbench.spec` prints the `BENCHMARK.json` that this module
describes; a self-test keeps the two equal.
"""
from __future__ import annotations

import json

from .tracing import COMPOSITE, COUNT_NAMES, TRACED, traced_names

COMMAND = ["python3", "perfbench/run.py"]
RUN_SECONDS = 20

WORKLOADS = {
    "exhaustive": "map-universe kernel and brute-force canonical form: "
                  "hundreds of tiny universes plus 3^12 and 5^8 maps",
    "montecarlo": "Python-loop-bound Monte Carlo gates of the models layer "
                  "with almost no kernel or spectral work",
    "scale": "graph layer at large n (pairing sampler, dense eigvalsh, BFS) "
             "plus local search and embeddings",
}

# name, unit, better, bound (share of the parent's median it may worsen by).
# Timings get the largest bound because the 2-core machine the baseline was
# measured on drifts by tens of percent over minutes (see baseline.json).
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("work_per_s", "1/s", "higher", 0.25),
)

# What work_per_s counts on each workload.
WORK_UNIT = {"exhaustive": "maps_per_s", "montecarlo": "trials_per_s",
             "scale": "search_steps_per_s"}


def per_layer() -> list[tuple[str, str, str]]:
    out = []
    for fn in traced_names():
        out.append((f"{fn}.calls", "count", "lower"))
        out.append((f"{fn}.busy_s", "s", "lower"))
        if fn in COMPOSITE:
            out.append((f"{fn}.self_s", "s", "lower"))
    out += [(f"{layer}.errors", "count", "lower") for layer in TRACED]
    out += [(name, "count", "higher" if name.endswith("successes") else "lower")
            for name in COUNT_NAMES]
    out += [("graphs.canonical_form.cache_misses", "count", "lower"),
            ("graphs.distance_matrix.cache_misses", "count", "lower"),
            ("graphs.draw.p50_ms", "ms", "lower"),
            ("graphs.draw.p90_ms", "ms", "lower"),
            ("setup.import_s", "s", "lower"),
            ("setup.inputs_s", "s", "lower"),
            ("trace.wall_s", "s", "lower"),
            ("trace.overhead_s", "s", "lower")]
    return out


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": k, "why": v} for k, v in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in per_layer()],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
