"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; the whole suite is also part of the default pytest run.
"""
import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from nlgap.embeddings import jls_embedding, witness_certificate
from nlgap.extrapolation import constants, nonconc_params, one_sided_gamma
from nlgap.graphs import (canonical_form, cheeger_bounds, cheeger_exact,
                          complete_graph, cycle_graph, distance_matrix,
                          enumerate_regular_graphs, graph_from_edges,
                          is_connected, lambda2, random_connected_regular,
                          random_regular, spectrum)
from nlgap.metrics import (aspect_ratio, random_euclidean_metric, uniform_metric,
                           well_conditioned_reduction)
from nlgap.models import (distribution_equality_mc, matching_avoidance_mc,
                          random_perfect_matching, restriction_concentration_mc)
from nlgap.poincare import (VertexMap, enumerate_map_statistics, gamma_exact)
from nlgap.rng import derive_rng
from oracles import (all_perfect_matchings, matching_avoidance_law, two_point_oracle,
                     two_point_ratio)

TAU_HALF = Fraction(1, 2)


_started = 0.0


@pytest.fixture(autouse=True)
def _clock():
    """Record when each test starts; module-scoped fixtures are built before."""
    global _started
    _started = time.perf_counter()


def report(cid: int, name: str, ok: bool, detail: str = ""):
    wall = time.perf_counter() - _started
    print(f"\n[acceptance {cid:2d}] {name}: {'PASS' if ok else 'FAIL'} {detail} ({wall:.2f} s)")
    assert ok, f"criterion {cid} ({name}) failed: {detail}"


def informative(bound: float) -> str:
    """Whether a probability bound can fail: only one inside (0, 1) can."""
    if bound >= 1:
        return "bound uninformative: >= 1"
    if bound <= 0:
        return "bound uninformative: <= 0"
    return "bound informative"


# ---------------------------------------------------------------- universe

@pytest.fixture(scope="module")
def cubic_universe():
    """Every connected 3-regular graph on 4, 6, 8 vertices (up to isomorphism)
    with 20 seeded random valid metrics of 2 and 3 points, plus bulk map
    statistics at exponents 1, 2, 3."""
    graphs = []
    for n in (4, 6, 8):
        graphs.extend(enumerate_regular_graphs(n, 3))
    assert [g.n for g in graphs].count(4) == 1
    assert [g.n for g in graphs].count(6) == 2
    assert [g.n for g in graphs].count(8) == 5
    metrics = [random_euclidean_metric(2, seed=40 + t) for t in range(10)]
    metrics += [random_euclidean_metric(3, seed=80 + t) for t in range(10)]
    entries = []
    for gi, g in enumerate(graphs):
        h = float(cheeger_exact(g))
        for mi, metric in enumerate(metrics):
            stats = enumerate_map_statistics(g, metric, qs=(1.0, 2.0, 3.0),
                                             taus=(TAU_HALF,))
            gammas = {q: float(stats.ratio(q).max()) for q in (1.0, 2.0, 3.0)}
            entries.append({"gid": gi, "mid": mi, "g": g, "metric": metric,
                            "h": h, "stats": stats, "gammas": gammas})
    return entries


def test_criterion_1_extrapolation_soundness(cubic_universe):
    checked = 0
    worst = math.inf
    for e in cubic_universe:
        d = 3
        for (p, q) in ((1.0, 1.0), (1.0, 2.0), (1.0, 3.0), (2.0, 3.0)):
            c = constants(d, e["h"], p, q)
            gp, gq = e["gammas"][p], e["gammas"][q]
            lhs1 = math.log(gp)
            rhs1 = max(c.log_c1, c.log_c2 + max(0.0, math.log(gq)))
            lhs2 = math.log(gq)
            rhs2 = max(c.log_c3, c.log_c4 + (q / p) * math.log(gp))
            if lhs1 > rhs1 or lhs2 > rhs2:
                report(1, "extrapolation soundness", False,
                       f"violated at graph {e['gid']} metric {e['mid']} (p,q)=({p},{q})")
            worst = min(worst, rhs1 - lhs1, rhs2 - lhs2)
            checked += 1
    report(1, "extrapolation soundness", True,
           f"{checked} inequality pairs, min slack_log {worst:.3f}")


def test_criterion_2_nonconcentrated_bound(cubic_universe):
    checked = 0
    worst = math.inf
    for e in cubic_universe:
        stats = e["stats"]
        quant = stats.quantile[TAU_HALF]
        for q in (1.0, 2.0):
            c_r = 5.0 ** q
            params = nonconc_params(3, e["h"], q, 0.5, c_r)
            nonconc = stats.ave[q] > c_r * quant ** q
            ave = stats.ave[q][nonconc]
            dir_ = stats.dirichlet[q][nonconc]
            if (dir_ == 0).any():
                report(2, "non-concentrated bound", False,
                       "non-concentrated map with zero edge sum")
            bad = np.log(ave) > params.log_bound + np.log(dir_)
            if bad.any():
                report(2, "non-concentrated bound", False,
                       f"{int(bad.sum())} violations at graph {e['gid']} metric {e['mid']}")
            slack = params.log_bound + np.log(dir_) - np.log(ave)
            worst = min(worst, slack.min(initial=math.inf))
            checked += int(nonconc.sum())
    report(2, "non-concentrated bound", True,
           f"{checked} non-concentrated maps checked, min slack_log {worst:.3f}")


def test_criterion_3_one_sided_functional(cubic_universe):
    checked = 0
    worst = math.inf
    for e in cubic_universe:
        stats = e["stats"]
        for (p, q) in ((1.0, 1.0), (1.0, 2.0), (1.0, 3.0), (2.0, 3.0)):
            ratio_p = stats.ratio(p)
            for c in (1.0, 2.0):
                log_gamma = one_sided_gamma(3, e["h"], p, q, c)
                sel = stats.nondegenerate & (ratio_p <= c)
                ave_q = stats.ave[q][sel]
                dir_q = stats.dirichlet[q][sel]
                with np.errstate(divide="ignore"):
                    bad = np.log(ave_q) > log_gamma + np.log(dir_q)
                if bad.any():
                    report(3, "one-sided functional extrapolation", False,
                           f"{int(bad.sum())} violations at graph {e['gid']}")
                slack = log_gamma + np.log(dir_q) - np.log(ave_q)
                worst = min(worst, slack.min(initial=math.inf))
                checked += int(sel.sum())
    report(3, "one-sided functional extrapolation", True,
           f"{checked} maps checked, min slack_log {worst:.3f}")


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_two_point_cheeger_oracle(corpus):
    graphs = {name: g for name, g in corpus.items() if g.n <= 10}
    for s in range(4):
        g = random_connected_regular(8, 3, seed=300 + s)
        graphs[f"rand8-{s}"] = g
    for name, g in sorted(graphs.items()):
        res = gamma_exact(g, uniform_metric(2), 1.0)
        exact = two_point_ratio(g, [v for v, a in enumerate(res.witness.assignment) if a])
        oracle = two_point_oracle(g)
        if exact != oracle:
            report(4, "two-point subset oracle", False,
                   f"{name}: witness ratio {exact} != oracle {oracle}")
    report(4, "two-point subset oracle", True, f"{len(graphs)} graphs, exact equality")


def test_universe_at_q1_is_the_two_point_value(cubic_universe):
    """Every universe metric has 2 or 3 points, and such metrics embed
    isometrically in L1, so each gamma at q = 1 equals the graph's two-point
    value.  Criteria 1-3 only bound these gammas; a kernel fault shows here."""
    two_point = {}
    for e in cubic_universe:
        if e["gid"] not in two_point:
            two_point[e["gid"]] = float(two_point_oracle(e["g"]))
        want = two_point[e["gid"]]
        assert e["gammas"][1.0] == pytest.approx(want, rel=1e-12, abs=0), (e["gid"], e["mid"])


# ---------------------------------------------------------------- criterion 5

def connected_graphs_up_to(n_max: int):
    out = []
    for n in range(2, n_max + 1):
        pairs = list(itertools.combinations(range(n), 2))
        seen = set()
        for bits in range(1, 1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            g = graph_from_edges(n, edges)
            if not is_connected(g):
                continue
            key = canonical_form(g).edges
            if key not in seen:
                seen.add(key)
                out.append(graph_from_edges(n, key))
    return out


def test_criterion_5_well_conditioned_reduction():
    graphs = connected_graphs_up_to(5)
    metrics = [uniform_metric(2), uniform_metric(3),
               random_euclidean_metric(2, seed=501), random_euclidean_metric(2, seed=502),
               random_euclidean_metric(3, seed=503), random_euclidean_metric(3, seed=504)]
    count = 0
    for g in graphs:
        for metric in metrics:
            red = well_conditioned_reduction(metric, g.n)
            big_n = metric.size
            if not big_n <= red.metric.size <= big_n ** 3:
                report(5, "well-conditioned reduction", False,
                       f"size bound violated: {red.metric.size}")
            if aspect_ratio(red.metric) > g.n ** 4 + 1e-9:
                report(5, "well-conditioned reduction", False,
                       f"aspect ratio {aspect_ratio(red.metric)} > n^4")
            gamma = gamma_exact(g, metric, 1.0).gamma
            gamma_red = gamma_exact(g, red.metric, 1.0).gamma
            if gamma > 2.0 * gamma_red:
                report(5, "well-conditioned reduction", False,
                       f"gamma {gamma} > 2 * {gamma_red} on n={g.n}, N={big_n}")
            count += 1
    report(5, "well-conditioned reduction", True,
           f"{len(graphs)} graphs x {len(metrics)} metrics = {count} instances")


# ---------------------------------------------------------------- criterion 6

def test_criterion_6_friedman_frequency():
    draws = 100
    good = 0
    bound = 2.1 * math.sqrt(2)
    for t in range(draws):
        g = random_regular(1000, 3, seed=9000 + t)
        good += lambda2(g) <= bound
    frac = good / draws
    report(6, "second-eigenvalue frequency", frac >= 0.95,
           f"fraction {frac:.2f} at n=1000, d=3")


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_matching_lemma():
    # uniformity, exact enumeration targets
    for ell, tol in ((4, 0.01), (6, 0.01)):
        matchings = all_perfect_matchings(ell)
        gen = derive_rng(71, "uniformity", ell)
        draws = 10 ** 5
        counts = {mu: 0 for mu in matchings}
        for _ in range(draws):
            counts[tuple(sorted(random_perfect_matching(range(ell), gen)))] += 1
        for mu, c in counts.items():
            if abs(c / draws - 1 / len(matchings)) > tol:
                report(7, "matching avoidance", False,
                       f"ell={ell}: matching frequency {c / draws:.4f} off uniform")
    # the avoidance probability against the analytic bound
    pairs = list(itertools.combinations(range(20), 2))
    gen = derive_rng(72, "y-set")
    drop = set(int(x) for x in gen.choice(len(pairs), size=38, replace=False))
    y = [p for i, p in enumerate(pairs) if i not in drop]
    r = matching_avoidance_mc(20, y, c=0.1, trials=10 ** 5, seed=73, eps=0.2)
    sigma = math.sqrt(max(min(r.analytic_bound, 1.0) * (1 - min(r.analytic_bound, 1.0)), 0.0)
                      / r.trials)
    ok = r.empirical <= r.analytic_bound + 3 * sigma
    exact = matching_avoidance_law(20, y, 0.1)
    report(7, "matching avoidance", ok,
           f"empirical {r.empirical:.5f} (exact {exact} = {float(exact):.3g}) "
           f"vs bound {r.analytic_bound:.3g} ({informative(r.analytic_bound)}); "
           "uniformity exact")


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_restriction_concentration():
    details = []
    ok = True
    # k = 62 meets the hypothesis k >= 2/eps; the bound is above 0 from k = 14,416
    for n, k, trials in ((10 ** 4, 62, 10 ** 4), (10 ** 5, 20_000, 2000)):
        points, eps = 100, Fraction(1, 31)
        f = VertexMap(uniform_metric(points), tuple(v % points for v in range(n)))
        r = restriction_concentration_mc(f, eps=eps, k=k, trials=trials, seed=81)
        ok &= r.hypothesis_met and r.frequency >= r.bound
        details.append(f"k={k}: frequency {r.frequency:.4f} vs bound {r.bound:.4f} "
                       f"({informative(r.bound)}) "
                       f"(hypothesis {'met' if r.hypothesis_met else 'NOT met'})")
    report(8, "restriction concentration", ok, "; ".join(details))


# ---------------------------------------------------------------- criterion 9

def test_criterion_9_model_distribution():
    details = []
    ok = True
    for ell in (1, 2):
        r = distribution_equality_mc(6, 3, ell, trials=10 ** 6, seed=90 + ell)
        details.append(f"ell={ell}: chi2={r.chi2:.1f} over {r.cells} cells, p={r.p_value:.4f}")
        ok &= r.p_value > 0.001
    report(9, "model distributional equality", ok, "; ".join(details))


# ---------------------------------------------------------------- criterion 10

def test_criterion_10_witness_growth():
    log_n_points = 100 * math.log(10.0)
    medians = []
    for n in (64, 256, 1024):
        ratios = []
        for s in range(10):
            g = random_connected_regular(n, 3, seed=1000 * n + s)
            r = witness_certificate(g, log_n_points, q=1.0)
            if r.max_edge_cost > 1:
                report(10, "witness growth", False, f"edge cost {r.max_edge_cost} > 1")
            ratios.append(r.ratio)
        medians.append(sorted(ratios)[len(ratios) // 2])
    increasing = medians[0] < medians[1] < medians[2]
    report(10, "witness growth", increasing,
           "medians " + " -> ".join(f"{m:.3f}" for m in medians))


# ---------------------------------------------------------------- criterion 11

def test_criterion_11_jls_embedding():
    # exact 1-Lipschitz check on assorted constructions
    for seed, g in ((1, cycle_graph(12)), (2, random_connected_regular(14, 3, seed=5)),
                    (3, complete_graph(6))):
        res = jls_embedding(g, 4.0, 1.0, seed=seed, retries=3)
        gd = distance_matrix(g)
        c = res.grid.coords
        diffs = np.abs(c[:, None, :] - c[None, :, :]).max(axis=2)
        if not (diffs <= gd).all():
            report(11, "grid embedding", False, "a coordinate exceeded 1-Lipschitz")
    trials = 100
    wins = 0
    for t in range(trials):
        res = jls_embedding(cycle_graph(16), 3.0, 1.0, seed=5000 + t, retries=50)
        wins += res.success
    report(11, "grid embedding", wins / trials >= 0.9,
           f"success {wins}/{trials} on the 16-cycle at distortion 3")


# ---------------------------------------------------------------- criterion 12

def test_criterion_12_numerics(regular_corpus):
    for n in range(3, 65):
        eig = spectrum(cycle_graph(n))
        expect = np.sort([2 * math.cos(2 * math.pi * j / n) for j in range(n)])
        if np.abs(eig - expect).max() >= 1e-8:
            report(12, "numerics", False, f"cycle spectrum off at n={n}")
    for n in range(2, 65):
        eig = spectrum(complete_graph(n))
        expect = np.sort([n - 1.0] + [-1.0] * (n - 1))
        if np.abs(eig - expect).max() >= 1e-8:
            report(12, "numerics", False, f"complete spectrum off at n={n}")
    for name, g in regular_corpus.items():
        lo, hi = cheeger_bounds(g)
        h = float(cheeger_exact(g))
        if not lo - 1e-9 <= h <= hi + 1e-9:
            report(12, "numerics", False, f"{name}: h={h} outside [{lo}, {hi}]")
    report(12, "numerics", True,
           "spectra match closed forms to 1e-8; exact cut ratios inside spectral bracket")
