"""The three benchmark workloads: exhaustive, montecarlo and scale.

Each workload has a set-up step, which makes every input from the workload
seed, and a list of jobs. A job calls nlgap's public functions, checks each
output against an oracle in `oracles`, adds its work count and feeds the
deterministic outputs into the round's result digest. Inputs come from
`random.Random(seed)`, not from nlgap's own streams, so a change to
`nlgap.rng` changes the digest but not the inputs.

Why these three: `exhaustive` is the map-universe kernel and the brute-force
canonical form (hundreds of tiny universes and two large ones),
`montecarlo` is the Python-loop-bound Monte Carlo layer of `models`, and
`scale` is the graph layer at large n (pairing sampler, dense eigensolver,
BFS) plus local search and embeddings. Each is the no-change side for an
optimisation aimed at the others.
"""
from __future__ import annotations

import csv
import hashlib
import io as _io
import itertools
import math
import random
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

import nlgap.cli
from nlgap import embeddings, graphs, metrics, models, poincare

from . import oracles

TAU_HALF = Fraction(1, 2)
REL_TOL = 1e-12


@dataclass
class Ledger:
    """What one round observed: checks, work, timing samples and the digest."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    work: float = 0.0            # maps, trials or search steps, by workload
    work_seconds: float = 0.0    # time the work was done in, when not wall_s
    draws_ms: list = field(default_factory=list)
    digest: object = field(default_factory=hashlib.sha256)

    def check(self, ok, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def record(self, *values) -> None:
        self.digest.update(repr(values).encode())
        self.digest.update(b"\n")


def _seeds(rng: random.Random, count: int) -> list[int]:
    return [rng.randrange(1 << 31) for _ in range(count)]


def _rescored(ledger: Ledger, g, result, q: float, what: str) -> None:
    """The witness of an exact or searched optimum, scored again on its own."""
    ratio = poincare.gamma_of_map(g, result.witness, q).ratio
    ledger.check(oracles.rel_close(ratio, result.gamma, REL_TOL),
                 f"{what}: witness ratio {ratio!r} != gamma {result.gamma!r}")


def _best_cut(ledger: Ledger, g, result) -> None:
    """On the uniform 2-point metric the optimum is the best vertex cut."""
    e = oracles.edge_list(g)
    ledger.check(oracles.witness_two_point_ratio(g.n, e, result.witness.assignment)
                 == oracles.two_point_gamma(g.n, e),
                 f"two-point witness on n={g.n} is not the best cut")


def _csv_body(path: Path) -> list[list[str]]:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return list(csv.reader(_io.StringIO("\n".join(lines))))


def _decode(index: int, n: int, n_points: int) -> tuple[int, ...]:
    """Map number `index` in base-N counter order, vertex 0 most significant."""
    digits = []
    for _ in range(n):
        index, r = divmod(index, n_points)
        digits.append(r)
    return tuple(reversed(digits))


# ---------------------------------------------------------------- exhaustive

EXHAUSTIVE = {
    "full": dict(cubic_n=(4, 6, 8), metrics_per_size=10, crit5_n=5,
                 large=((12, 3), (8, 5))),
    "smoke": dict(cubic_n=(4, 6), metrics_per_size=2, crit5_n=3,
                  large=((6, 3), (4, 4))),
}


def exhaustive_setup(seed: int, size: str, tmp: Path) -> dict:
    p = EXHAUSTIVE[size]
    rng = random.Random(seed)
    k = p["metrics_per_size"]
    mseeds = _seeds(rng, 2 * k)
    crit5_seeds = _seeds(rng, 4)
    large = []
    for (n, n_points), gs, ms in zip(p["large"], _seeds(rng, 2), _seeds(rng, 2)):
        large.append((graphs.random_connected_regular(n, 3, gs),
                      metrics.random_euclidean_metric(n_points, ms)))
    return {
        "cubic_n": p["cubic_n"],
        "metrics": ([metrics.random_euclidean_metric(2, s) for s in mseeds[:k]]
                    + [metrics.random_euclidean_metric(3, s) for s in mseeds[k:]]),
        "two_point_extra": graphs.random_connected_regular(10, 3, rng.randrange(1 << 31)),
        "crit5_graphs": [graphs.graph_from_edges(n, e)
                         for n, e in oracles.connected_graphs_up_to(p["crit5_n"])],
        "crit5_metrics": [metrics.uniform_metric(2), metrics.uniform_metric(3)]
                         + [metrics.random_euclidean_metric(2, s) for s in crit5_seeds[:2]]
                         + [metrics.random_euclidean_metric(3, s) for s in crit5_seeds[2:]],
        "large": large,
        "desk_seed": rng.randrange(1 << 20),
        "tmp": tmp,
    }


def exhaustive_jobs(inp: dict) -> list:
    state: dict = {}

    def enumerate_cubic(ledger: Ledger) -> None:
        state["cubic"] = []
        for n in inp["cubic_n"]:
            found = graphs.enumerate_regular_graphs(n, 3)
            ledger.check(len(found) == oracles.CUBIC_COUNTS[n],
                         f"{len(found)} connected cubic graphs on {n} vertices, "
                         f"OEIS A002851 has {oracles.CUBIC_COUNTS[n]}")
            for g in found:
                e = oracles.edge_list(g)
                ledger.check(g.n == n and oracles.is_simple_regular(n, e, 3)
                             and oracles.is_connected(n, e), f"n={n}: not a connected cubic graph")
                ledger.record("cubic", n, tuple(e))
            state["cubic"].extend(found)

    def cheeger(ledger: Ledger) -> None:
        for g in state["cubic"]:
            h = graphs.cheeger_exact(g)
            ledger.check(h == oracles.cheeger(g.n, oracles.edge_list(g)),
                         f"cheeger_exact {h} differs from brute force on n={g.n}")
            ledger.record("cheeger", str(h))

    def map_statistics(ledger: Ledger) -> None:
        for g, metric in itertools.product(state["cubic"], inp["metrics"]):
            stats = poincare.enumerate_map_statistics(g, metric, qs=(1.0, 2.0, 3.0),
                                                      taus=(TAU_HALF,))
            ledger.work += metric.size ** g.n
            for q in (1.0, 2.0, 3.0):
                ratio = np.where(stats.nondegenerate,
                                 stats.ave[q] / np.where(stats.nondegenerate,
                                                         stats.dirichlet[q], 1.0),
                                 -np.inf)
                best = int(np.argmax(ratio))
                from_stats = float(ratio[best])
                if q < 3.0:
                    res = poincare.gamma_exact(g, metric, q)
                    ledger.work += res.maps_evaluated
                    _rescored(ledger, g, res, q, f"gamma_exact n={g.n} N={metric.size} q={q}")
                    ledger.check(oracles.rel_close(from_stats, res.gamma, REL_TOL),
                                 f"map statistics max {from_stats!r} != gamma_exact {res.gamma!r}")
                    ledger.record("gamma", q, res.gamma, res.witness.assignment)
                else:
                    f = poincare.VertexMap(metric, _decode(best, g.n, metric.size))
                    rep = poincare.gamma_of_map(g, f, q)
                    ledger.check(oracles.rel_close(rep.ratio, from_stats, REL_TOL)
                                 and float(stats.quantile[TAU_HALF][best]) == rep.quantile_tau,
                                 f"map statistics at q={q} disagree with gamma_of_map")
                    ledger.record("stats", q, from_stats, f.assignment)

    def two_point(ledger: Ledger) -> None:
        uniform2 = metrics.uniform_metric(2)
        for g in state["cubic"] + [inp["two_point_extra"]]:
            res = poincare.gamma_exact(g, uniform2, 1.0)
            ledger.work += res.maps_evaluated
            _best_cut(ledger, g, res)
            _rescored(ledger, g, res, 1.0, f"two-point n={g.n}")
            ledger.record("two-point", res.gamma, res.witness.assignment)

    def reduction(ledger: Ledger) -> None:
        for g, metric in itertools.product(inp["crit5_graphs"], inp["crit5_metrics"]):
            red = metrics.well_conditioned_reduction(metric, g.n)
            dist = red.metric.dist
            positive = dist[dist > 0]
            ledger.check(metric.size <= red.metric.size <= metric.size ** 3,
                         f"reduction size {red.metric.size} outside [N, N^3]")
            ledger.check(float(positive.max() / positive.min()) <= g.n ** 4 * (1 + REL_TOL),
                         f"reduction aspect ratio above n^4 on n={g.n}")
            base = poincare.gamma_exact(g, metric, 1.0)
            reduced = poincare.gamma_exact(g, red.metric, 1.0)
            ledger.work += base.maps_evaluated + reduced.maps_evaluated
            _rescored(ledger, g, base, 1.0, f"criterion 5 base n={g.n}")
            _rescored(ledger, g, reduced, 1.0, f"criterion 5 reduced n={g.n}")
            ledger.check(base.gamma <= 2.0 * reduced.gamma,
                         f"gamma {base.gamma} > 2 * {reduced.gamma} on n={g.n}")
            if metric is inp["crit5_metrics"][0]:  # uniform 2-point metric
                _best_cut(ledger, g, base)
            ledger.record("reduction", base.gamma, reduced.gamma)

    def desk_suite(ledger: Ledger) -> None:
        out = inp["tmp"] / "desk.csv"
        code = nlgap.cli.main(["extrapolate", "--suite", "desk",
                               "--seed", str(inp["desk_seed"]), "--out", str(out)])
        ledger.check(code == 0, f"nlgap extrapolate --suite desk exited {code}")
        rows = _csv_body(out)
        header, body = rows[0], rows[1:]
        expected = (oracles.CUBIC_COUNTS[4] + oracles.CUBIC_COUNTS[6]) * 5 * 3
        ledger.check(len(body) == expected, f"desk suite has {len(body)} verdicts, not {expected}")
        col = header.index("pass")
        ledger.check(all(r[col] == "1" for r in body), "a desk-suite verdict failed")
        ledger.record("desk", tuple(map(tuple, rows)))

    def large_universes(ledger: Ledger) -> None:
        for g, metric in inp["large"]:
            res = poincare.gamma_exact(g, metric, 1.0)
            ledger.work += res.maps_evaluated
            ledger.check(res.maps_evaluated == metric.size ** g.n,
                         f"{res.maps_evaluated} maps evaluated, universe has {metric.size ** g.n}")
            _rescored(ledger, g, res, 1.0, f"universe {metric.size}^{g.n}")
            ledger.record("large", res.gamma, res.witness.assignment)

    return [("enumerate", enumerate_cubic), ("cheeger", cheeger),
            ("map_statistics", map_statistics), ("two_point", two_point),
            ("reduction", reduction), ("desk_suite", desk_suite),
            ("large_universes", large_universes)]


# ---------------------------------------------------------------- montecarlo

MONTECARLO = {
    "full": dict(dist_eq_trials=10 ** 5, matching_trials=10 ** 5,
                 uniformity_draws=10 ** 5, uniformity_tol=0.01,
                 restriction_n=10 ** 4, restriction_trials=10 ** 4, typical_trials=3),
    "smoke": dict(dist_eq_trials=4000, matching_trials=2000,
                  uniformity_draws=5000, uniformity_tol=0.05,
                  restriction_n=2000, restriction_trials=500, typical_trials=1),
}
ELL_MATCHING, EPS, C = 20, 0.2, 0.1
RESTRICTION_POINTS, RESTRICTION_K, RESTRICTION_EPS = 100, 62, Fraction(1, 31)


def montecarlo_setup(seed: int, size: str, tmp: Path) -> dict:
    p = MONTECARLO[size]
    rng = random.Random(seed)
    pairs = list(itertools.combinations(range(ELL_MATCHING), 2))
    y = sorted(set(pairs) - set(rng.sample(pairs, round(EPS * len(pairs)))))
    assignment = [v % RESTRICTION_POINTS for v in range(p["restriction_n"])]
    rng.shuffle(assignment)
    return {
        **p,
        "seeds": dict(zip(("dist_eq", "matching", "uniformity", "restriction", "typical"),
                          _seeds(rng, 5))),
        "y": y,
        "restriction_map": poincare.VertexMap(metrics.uniform_metric(RESTRICTION_POINTS),
                                              tuple(assignment)),
    }


def montecarlo_jobs(inp: dict) -> list:
    seeds = inp["seeds"]

    def dist_eq(ledger: Ledger) -> None:
        for ell in (1, 2):
            r = models.distribution_equality_mc(6, 3, ell, trials=inp["dist_eq_trials"],
                                                seed=seeds["dist_eq"] + ell)
            ledger.work += r.trials
            cells = oracles.LABELLED_CUBIC_6 * math.comb(9, ell)
            ledger.check(r.trials == inp["dist_eq_trials"] and r.cells == cells,
                         f"dist-eq ell={ell}: {r.cells} cells, the law has {cells}")
            ledger.check(r.p_value > 0.001, f"dist-eq ell={ell}: p = {r.p_value}")
            ledger.record("dist-eq", ell, r.chi2, r.p_value)

    def matching(ledger: Ledger) -> None:
        r = models.matching_avoidance_mc(ELL_MATCHING, inp["y"], c=C, trials=inp["matching_trials"],
                                         seed=seeds["matching"], eps=EPS)
        ledger.work += r.trials
        bound = min(r.analytic_bound, 1.0)
        sigma = math.sqrt(max(bound * (1 - bound), 0.0) / r.trials)
        ledger.check(r.trials == inp["matching_trials"]
                     and r.empirical <= r.analytic_bound + 3 * sigma,
                     f"matching avoidance {r.empirical} above bound {r.analytic_bound}")
        ledger.record("matching", r.empirical, r.analytic_bound)

    def uniformity(ledger: Ledger) -> None:
        gen = np.random.Generator(np.random.Philox(seeds["uniformity"]))
        draws = inp["uniformity_draws"]
        for ell in (4, 6):
            counts: dict = {}
            for _ in range(draws):
                key = tuple(sorted(models.random_perfect_matching(range(ell), gen)))
                counts[key] = counts.get(key, 0) + 1
            total = oracles.double_factorial_odd(ell)
            ledger.check(all(oracles.is_perfect_matching(k, range(ell)) for k in counts)
                         and len(counts) == total,
                         f"ell={ell}: {len(counts)} distinct matchings drawn, {total} exist")
            worst = max(abs(c / draws - 1 / total) for c in counts.values())
            ledger.check(worst <= inp["uniformity_tol"],
                         f"ell={ell}: matching frequency off uniform by {worst}")
            ledger.record("uniformity", ell, sorted(counts.items()))

    def restriction(ledger: Ledger) -> None:
        r = models.restriction_concentration_mc(inp["restriction_map"], eps=RESTRICTION_EPS,
                                                k=RESTRICTION_K, trials=inp["restriction_trials"],
                                                seed=seeds["restriction"])
        ledger.work += r.trials
        ledger.check(r.hypothesis_met and r.frequency >= r.bound,
                     f"restriction frequency {r.frequency} vs bound {r.bound}")
        ledger.record("restriction", r.frequency, r.bound, r.ave)

    def typical(ledger: Ledger) -> None:
        n, d, big_k, m = 500, 3, 20.0, 3
        rows = models.typical_sets_experiment(n, d, big_k, m, trials=inp["typical_trials"],
                                              seed=seeds["typical"])
        ell0, k0 = int(d * n // (big_k * m)), min(int(big_k * n // (d - 1) ** m), n)
        ledger.check(len(rows) == inp["typical_trials"], "typical sets: wrong row count")
        for r in rows:
            ledger.check(r.ell0 == ell0 and r.k0 == k0
                         and r.v_prime_size <= r.v_size and r.v_dprime_size <= r.v_size,
                         f"typical sets trial {r.trial}: inconsistent sizes")
            ledger.record("typical", r.v_size, r.v_prime_size, r.v_dprime_size,
                          r.f1, r.f2, r.f3)

    return [("dist_eq", dist_eq), ("matching", matching), ("uniformity", uniformity),
            ("restriction", restriction), ("typical", typical)]


# ---------------------------------------------------------------- scale

SCALE = {
    "full": dict(draws=50, draw_n=1000, search_n=200, search_steps=400,
                 witness_n=(64, 256, 1024), witness_per_size=3, cli_trials=2,
                 jls_cycle_seeds=20, jls_n=100),
    "smoke": dict(draws=10, draw_n=100, search_n=30, search_steps=50,
                  witness_n=(64, 128), witness_per_size=1, cli_trials=1,
                  jls_cycle_seeds=2, jls_n=20),
}
FRIEDMAN = 2.1 * math.sqrt(2)    # lambda2 threshold for d = 3
LOG_N_POINTS = 100 * math.log(10.0)


def scale_setup(seed: int, size: str, tmp: Path) -> dict:
    p = SCALE[size]
    rng = random.Random(seed)
    witness = [graphs.random_connected_regular(n, 3, s)
               for n in p["witness_n"] for s in _seeds(rng, p["witness_per_size"])]
    return {
        **p,
        "draw_seeds": _seeds(rng, p["draws"]),
        "search_graph": graphs.random_connected_regular(p["search_n"], 3, rng.randrange(1 << 31)),
        "grid": metrics.linf_grid(1, 2),
        "search_seed": rng.randrange(1 << 31),
        "witness_graphs": witness,
        "cli_seed": rng.randrange(1 << 20),
        "jls_seeds": _seeds(rng, p["jls_cycle_seeds"]),
        "jls_graph": graphs.random_connected_regular(p["jls_n"], 3, rng.randrange(1 << 31)),
        "jls_seed": rng.randrange(1 << 31),
        "tmp": tmp,
    }


def _lipschitz(g, coords: np.ndarray) -> bool:
    """Every coordinate moves by at most 1 across every edge, which makes it
    1-Lipschitz for the graph's path metric."""
    e = np.asarray(oracles.edge_list(g))
    c = coords.astype(np.int64)
    return bool((np.abs(c[e[:, 0]] - c[e[:, 1]]) <= 1).all())


def _distortion(g, coords: np.ndarray) -> float:
    """lip / colip of the sup-norm image, against BFS distances."""
    c = coords.astype(np.int64)
    img = np.abs(c[:, None, :] - c[None, :, :]).max(axis=2).astype(np.float64)
    gd = np.array([oracles.bfs(g.n, g.edges, v) for v in range(g.n)], dtype=np.float64)
    lip = max(float(img[u, v]) for u, v in g.edges)
    off = ~np.eye(g.n, dtype=bool)
    colip = float((img[off] / gd[off]).min())
    return lip / colip if colip > 0 else math.inf


def scale_jobs(inp: dict) -> list:
    def spectral_draws(ledger: Ledger) -> None:
        n, good = inp["draw_n"], 0
        for s in inp["draw_seeds"]:
            t0 = time.perf_counter()
            g = graphs.random_regular(n, 3, s)
            lam2 = graphs.lambda2(g)
            ledger.draws_ms.append((time.perf_counter() - t0) * 1e3)
            ledger.check(g.n == n and oracles.is_simple_regular(n, oracles.edge_list(g), 3),
                         f"random_regular({n}, 3) is not simple cubic")
            good += lam2 <= FRIEDMAN
            ledger.record("lambda2", lam2)
        frac = good / len(inp["draw_seeds"])
        ledger.check(frac >= 0.95, f"only {frac:.2f} of draws have lambda2 <= 2.1 sqrt 2")

    def local_search(ledger: Ledger) -> None:
        g, steps = inp["search_graph"], inp["search_steps"]
        t0 = time.perf_counter()
        res = poincare.gamma_lower_search(g, inp["grid"], 1.0, iters=steps, seed=inp["search_seed"])
        ledger.work_seconds += time.perf_counter() - t0
        ledger.work += res.maps_evaluated
        ledger.check(res.maps_evaluated == steps, f"search took {res.maps_evaluated} steps")
        _rescored(ledger, g, res, 1.0, "gamma_lower_search")
        ledger.record("search", res.gamma, res.witness.assignment)

    def witness(ledger: Ledger) -> None:
        for g in inp["witness_graphs"]:
            r = embeddings.witness_certificate(g, LOG_N_POINTS, q=1.0)
            ledger.check(r.max_edge_cost <= 1 and 0 < r.ratio < math.inf,
                         f"witness on n={g.n}: edge cost {r.max_edge_cost}, ratio {r.ratio}")
            ledger.record("witness", g.n, r.ratio)

    def witness_cli(ledger: Ledger) -> None:
        out, svg = inp["tmp"] / "witness.csv", inp["tmp"] / "witness.svg"
        sizes = ",".join(map(str, inp["witness_n"]))
        code = nlgap.cli.main(["witness", "--sizes", sizes, "--trials", str(inp["cli_trials"]),
                               "--seed", str(inp["cli_seed"]), "--out", str(out),
                               "--svg", str(svg)])
        ledger.check(code == 0, f"nlgap witness exited {code}")
        rows = _csv_body(out)
        col = rows[0].index("max_edge_cost")
        ledger.check(len(rows) - 1 == len(inp["witness_n"]) * inp["cli_trials"]
                     and all(int(r[col]) <= 1 for r in rows[1:]),
                     "witness CLI rows missing or an edge cost above 1")
        ledger.check(ET.fromstring(svg.read_text()).tag.endswith("svg"), "witness SVG malformed")
        ledger.record("witness-cli", tuple(map(tuple, rows)))

    def jls(ledger: Ledger) -> None:
        cycle = graphs.cycle_graph(16)
        for s in inp["jls_seeds"]:
            r = embeddings.jls_embedding(cycle, 3.0, 1.0, seed=s, retries=50)
            ledger.check(_lipschitz(cycle, r.grid.coords), "JLS coordinate not 1-Lipschitz")
            ledger.check(oracles.rel_close(_distortion(cycle, r.grid.coords),
                                           r.report.distortion, REL_TOL),
                         "JLS distortion differs from the BFS recomputation")
            ledger.record("jls-cycle", r.attempts, r.success, r.report.distortion)
        g = inp["jls_graph"]
        r = embeddings.jls_embedding(g, 4.0, 1.0, seed=inp["jls_seed"], retries=1)
        ledger.check(_lipschitz(g, r.grid.coords), "JLS coordinate not 1-Lipschitz")
        ledger.record("jls", g.n, r.attempts, r.report.distortion)

    return [("spectral_draws", spectral_draws), ("local_search", local_search),
            ("witness", witness), ("witness_cli", witness_cli), ("jls", jls)]


WORKLOADS = {
    "exhaustive": (exhaustive_setup, exhaustive_jobs),
    "montecarlo": (montecarlo_setup, montecarlo_jobs),
    "scale": (scale_setup, scale_jobs),
}
