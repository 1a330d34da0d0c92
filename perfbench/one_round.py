"""One measured round of a workload, in a fresh interpreter.

Started by `perfbench/run.py` as `python3 -m perfbench.one_round ...` from
the repository root. A fresh interpreter means the `lru_cache`s on
`canonical_form` and `distance_matrix` and the permutation tables start
cold, as they do for a user of the CLI; nothing warms them before timing.
Prints one JSON record as its last line of output.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def monotonic() -> float:
    """System-wide monotonic clock, comparable with the parent's reading."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _cache_info(graphs) -> dict:
    out = {}
    for name in ("canonical_form", "distance_matrix"):
        info = getattr(getattr(graphs, name, None), "cache_info", None)
        out[name] = info()._asdict() if info is not None else None
    out["perm_tables"] = sorted(getattr(graphs, "_perm_tables", {}))
    return out


def _versions() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": os.cpu_count()}


def run_round(workload: str, seed: int, size: str, traced: bool, tmp: Path,
              spawned_at: float, spans: Path | None = None) -> dict:
    root = Path(__file__).resolve().parent.parent
    if str(root / "src") not in sys.path:
        sys.path.insert(0, str(root / "src"))
    t_import = monotonic()
    import nlgap  # noqa: F401
    import nlgap.cli  # noqa: F401
    t_imported = monotonic()

    from nlgap import graphs

    from .tracing import Tracer
    from .workloads import WORKLOADS, Ledger

    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    setup, jobs = WORKLOADS[workload]
    inputs = setup(seed, size, tmp)
    job_list = jobs(inputs)
    t_ready = monotonic()

    ledger = Ledger()
    job_s = {}
    for name, job in job_list:
        if tracer is not None:
            tracer.set_job(name)
        t0 = time.perf_counter()
        try:
            job(ledger)
        except Exception:      # a job that raises counts as one failed check
            traceback.print_exc()
            ledger.check(False, f"job {name} raised")
        job_s[name] = time.perf_counter() - t0
    t_done = monotonic()

    wall_s = t_done - t_ready
    record = {
        "workload": workload, "seed": seed, "size": size, "traced": traced,
        "setup_s": t_ready - spawned_at, "import_s": t_imported - t_import,
        "inputs_s": t_ready - t_imported, "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "work": ledger.work,
        # search steps are timed over the search call alone; other work over wall_s
        "work_per_s": ledger.work / (ledger.work_seconds or wall_s),
        "attempted": ledger.attempted, "failed": ledger.failed,
        "failures": ledger.failures[:20],
        "job_s": job_s, "draws_ms": ledger.draws_ms,
        "result_digest": ledger.digest.hexdigest(),
        "cache_info": _cache_info(graphs), "versions": _versions(),
    }
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.layer_metrics()
        info = record["cache_info"]
        for name in ("canonical_form", "distance_matrix"):
            layers[f"graphs.{name}.cache_misses"] = (info[name] or {}).get("misses", 0)
        layers["setup.import_s"] = record["import_s"]
        layers["setup.inputs_s"] = record["inputs_s"]
        record["layers"] = layers
        if spans is not None:
            tracer.dump(spans, run_id=f"{workload}-seed{seed}-{spans.stem}")
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full", choices=["full", "smoke"])
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)
    record = run_round(args.workload, args.seed, args.size, bool(args.trace), Path(args.tmp),
                       args.spawned_at, Path(args.spans) if args.spans else None)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
