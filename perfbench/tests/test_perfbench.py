"""Self-tests of the benchmark: the tracer, the metric names, smoke runs of
every workload, and the refusal to run without the package sources.

    python3 -m pytest perfbench/tests -q
"""
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import oracles, spec
from perfbench.tracing import Tracer

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_wrapped_function_returns_the_identical_object_and_keeps_its_cache():
    from nlgap import embeddings, graphs, models
    tracer = Tracer()
    tracer.install()
    try:
        original = tracer.originals["graphs.distance_matrix"]
        g = graphs.cycle_graph(7)
        hits = graphs.distance_matrix.cache_info().hits
        first = graphs.distance_matrix(g)
        assert graphs.distance_matrix(g) is first
        assert original(g) is first
        assert graphs.distance_matrix.cache_info().hits == hits + 2
        # every module binding of the same function object is rebound
        assert models.canonical_form is graphs.canonical_form
        assert graphs.canonical_form is not tracer.originals["graphs.canonical_form"]
        canon = graphs.canonical_form(g)
        assert graphs.canonical_form(g) is canon
        # methods are wrapped on their class
        grid = embeddings.GridMap(first[:, :3].copy())
        assert (grid.image_distance_matrix() ==
                tracer.originals["embeddings.GridMap.image_distance_matrix"](grid)).all()
        graphs.lambda2(g)       # lambda2 -> spectrum nests as a child span
        with pytest.raises(graphs.GraphError):
            graphs.bfs_distances(g, 99)
        layers = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert graphs.distance_matrix is tracer.originals["graphs.distance_matrix"]
    assert models.canonical_form is tracer.originals["graphs.canonical_form"]
    assert layers["graphs.distance_matrix.calls"] == 2
    assert layers["embeddings.GridMap.image_distance_matrix.calls"] == 1
    assert layers["graphs.spectrum.calls"] == 1
    assert 0 <= layers["graphs.lambda2.self_s"] < layers["graphs.lambda2.busy_s"]
    assert layers["graphs.errors"] == 1


def test_names_and_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc == spec.benchmark_json()
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in doc[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(m["unit"]) for key in ("end_to_end", "per_layer") for m in doc[key])
    assert len(doc["per_layer"]) <= 128
    assert any(m["name"] == "setup_s" for m in doc["end_to_end"])


def test_oracles():
    counts = [sum(1 for n, _ in oracles.connected_graphs_up_to(5) if n == k) for k in range(2, 6)]
    assert counts == [1, 2, 6, 21]                       # OEIS A001349
    assert oracles.double_factorial_odd(6) == 15
    assert oracles.percentile(list(range(100)), 0.9) == 89   # ten samples beyond it
    assert oracles.two_point_gamma(4, [(0, 1), (1, 2), (2, 3), (0, 3)]) == 1


@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_smoke_run_has_no_failed_check(workload):
    for trace, expected in ((0, [m[0] for m in spec.END_TO_END]),
                            (1, [m[0] for m in spec.per_layer()])):
        proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "0",
                         "--trace", str(trace), "--size", "smoke")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert sorted(result["metrics"]) == sorted(expected)
        assert all(NAME.fullmatch(n) for n in result["metrics"])
        if trace == 0:
            assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = run_bench("--workload", "exhaustive", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
