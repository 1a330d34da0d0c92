"""Run one benchmark workload at one seed and print its metrics.

    python3 perfbench/run.py --workload exhaustive --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports nlgap from `src/`. A run is a
sequence of rounds, each a fresh interpreter (`perfbench/one_round.py`)
that sets the workload up from the seed, runs its jobs and checks every
output. Rounds start until `--seconds` have passed, and at least
MIN_ROUNDS untraced ones run; the end-to-end metrics are the medians over
the untraced rounds.

With `--trace 1` untraced and traced rounds alternate. The traced rounds
give the per-layer metrics (medians) and write their spans; the tracing
overhead is the traced minus the untraced median of wall_s.

The last line of output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. The lines before it print every metric
with its unit, the workload's own name for work_per_s, failed_frac and the
result digest. The full run record goes to `.perfbench/records/`.
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import spec  # noqa: E402
from perfbench.oracles import percentile  # noqa: E402

MIN_ROUNDS = 3           # untraced rounds per run; 2 of each kind with --trace 1
RUN_LIMIT_S = 165.0      # start no round that would end after this
ROUND_TIMEOUT_S = 170.0


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn_round(args, traced: bool, index: int, out: Path) -> tuple[dict | None, float]:
    """Run one round in a fresh interpreter; (record or None, seconds taken)."""
    tmp = Path(tempfile.mkdtemp(prefix="round-", dir=out / "tmp"))
    spans = out / "spans" / f"{args.workload}-seed{args.seed}-round{index}.json.gz"
    cmd = [sys.executable, "-m", "perfbench.one_round", "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--trace", str(int(traced)),
           "--tmp", str(tmp)]
    if traced:
        cmd += ["--spans", str(spans)]
    t0 = monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(t0)], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:     # run() has killed and reaped the child
        print(f"round {index} timed out", file=sys.stderr)
        return None, monotonic() - t0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    taken = monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"round {index} exited {proc.returncode}", file=sys.stderr)
        return None, taken
    return json.loads(lines[-1]), taken


def plan_rounds(args, out: Path) -> tuple[list[dict], int]:
    """Run rounds until the time is up; returns the records and crashed count."""
    start = monotonic()
    records, crashed, longest = [], 0, 0.0
    need = {False: MIN_ROUNDS} if not args.trace else {False: 2, True: 2}
    done = {False: 0, True: 0}
    index = 0
    while True:
        traced = bool(args.trace) and index % 2 == 1
        record, taken = spawn_round(args, traced, index, out)
        longest = max(longest, taken)
        index += 1
        if record is None:
            crashed += 1
        else:
            records.append(record)
            done[traced] += 1
        elapsed = monotonic() - start
        if elapsed + longest > RUN_LIMIT_S:
            break
        if elapsed >= args.seconds and all(done[k] >= n for k, n in need.items()):
            break
        if crashed > 2:
            break
    return records, crashed


def median_of(records: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in records)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--size", default="full", choices=["full", "smoke"],
                    help="smoke: tiny inputs for the benchmark's self-tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "nlgap" / "__init__.py").is_file():
        print(f"perfbench: no nlgap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out = ROOT / ".perfbench"
    for sub in ("tmp", "spans", "records"):
        (out / sub).mkdir(parents=True, exist_ok=True)

    records, crashed = plan_rounds(args, out)
    plain = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    if not plain or (args.trace and not traced):
        print("perfbench: no round completed", file=sys.stderr)
        return 1

    digests = {r["result_digest"] for r in records}
    attempted = sum(r["attempted"] for r in records) + crashed + len(records) - 1
    failed = sum(r["failed"] for r in records) + crashed + len(digests) - 1
    units = {name: unit for name, unit, _, _ in spec.END_TO_END}
    e2e = {name: median_of(plain, name) for name in units}

    if args.trace:
        layers = {name: statistics.median(r["layers"].get(name, 0) for r in traced)
                  for name, _, _ in spec.per_layer()}
        draws = sorted(x for r in traced for x in r["draws_ms"])
        layers["graphs.draw.p50_ms"] = statistics.median(draws) if draws else 0.0
        layers["graphs.draw.p90_ms"] = percentile(draws, 0.9) if draws else 0.0
        layers["trace.wall_s"] = median_of(traced, "wall_s")
        layers["trace.overhead_s"] = layers["trace.wall_s"] - e2e["wall_s"]
        metric_units = {name: unit for name, unit, _ in spec.per_layer()}
        metrics = {k: {"value": layers[k], "unit": metric_units[k]} for k in metric_units}
    else:
        metrics = {k: {"value": e2e[k], "unit": units[k]} for k in units}

    draws = sorted(x for r in plain for x in r["draws_ms"])
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "size": args.size, "rounds": len(records), "crashed_rounds": crashed,
        "result_digest": sorted(digests)[0] if len(digests) == 1 else sorted(digests),
        "failed_frac": failed / attempted if attempted else 0.0,
        "failures": [f for r in records for f in r["failures"]][:20],
        "end_to_end": e2e, "metrics": metrics,
        "draws": {"samples": len(draws), "p50_ms": statistics.median(draws) if draws else None,
                  "p90_ms": percentile(draws, 0.9) if draws else None},
        "versions": records[0]["versions"], "round_records": records,
    }
    record_path = out / "records" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(summary, indent=1))

    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced "
          f"and {len(traced)} traced rounds, {crashed} crashed")
    for name, value in e2e.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"{spec.WORK_UNIT[args.workload]} {e2e['work_per_s']:.6g} (work_per_s)")
    if draws:
        print(f"draw_p50_ms {summary['draws']['p50_ms']:.6g} ms, draw_p90_ms "
              f"{summary['draws']['p90_ms']:.6g} ms over {len(draws)} draws")
    if args.trace:
        print(f"tracing overhead {layers['trace.overhead_s']:.4g} s on wall_s "
              f"{e2e['wall_s']:.4g} s")
    print(f"failed_frac {summary['failed_frac']:.6g} ({failed} of {attempted} checks failed)")
    for failure in summary["failures"]:
        print(f"  failed: {failure}")
    print(f"result_digest {summary['result_digest']}")
    print(f"record {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
