"""Run every workload at several seeds and summarize each metric.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json
    python3 perfbench/baseline.py --seeds 1-2 --trace 1 --out perfbench/baseline_trace.json

For each workload and metric (the end-to-end ones, or with `--trace 1` the
per-layer ones) it records the per-seed values, their median, quartiles
(`statistics.quantiles(values, n=4)`) and the quartile spread as a share of
the median, which is what a metric's bound in BENCHMARK.json is compared
with. Runs go one at a time, in workload-major order.
"""
from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import spec  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    names = [m[0] for m in (spec.per_layer() if args.trace else spec.END_TO_END)]
    report: dict = {"machine": None, "run_seconds": spec.RUN_SECONDS, "trace": args.trace,
                    "workloads": {}}
    for workload in spec.WORKLOADS:
        values: dict[str, list[float]] = {name: [] for name in names}
        failed = attempted = 0
        started = time.monotonic()
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec.RUN_SECONDS),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += result["failed"]
            attempted += result["attempted"]
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            if report["machine"] is None:
                record = (ROOT / ".perfbench" / "records"
                          / f"{workload}-seed{seed}-trace{args.trace}.json")
                report["machine"] = {**json.loads(record.read_text())["versions"],
                                     "cpu": platform.processor() or platform.machine()}
        report["workloads"][workload] = {
            "seconds": time.monotonic() - started, "attempted": attempted, "failed": failed,
            "metrics": {name: summarize(v) for name, v in values.items()},
        }
        shown = ["trace.wall_s", "trace.overhead_s"] if args.trace else names
        for name in shown:
            s = report["workloads"][workload]["metrics"][name]
            print(f"{workload} {name}: median {s['median']:.6g}, spread {s['spread']}")
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
