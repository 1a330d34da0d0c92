import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlgap.graphs import (complete_graph, cycle_graph, graph_from_edges, path_graph,
                          random_connected_regular)
from nlgap.metrics import (MetricError, cost_matrix, linf_grid, random_euclidean_metric,
                           uniform_metric, validate)
from nlgap.embeddings import embedding_distortion
from nlgap.poincare import (CapExceeded, VertexMap, dirichlet,
                            empirical_average, empirical_quantile, enumerate_map_statistics,
                            gamma_exact, gamma_lower_search, gamma_of_map, is_concentrated,
                            _low_block, _map_blocks)
from nlgap import metrics, poincare
from nlgap.rng import derive_rng
from oracles import (complete_bipartite_graph, disjoint_union, gamma_euclidean_sq, path_metric,
                     relabel, two_point_oracle, two_point_ratio)


def half_half_map(n, metric=None):
    metric = metric or uniform_metric(2)
    return VertexMap(metric, tuple(0 if v < n // 2 else 1 for v in range(n)))


class TestEmpiricalAverage:
    def test_half_half(self):
        assert empirical_average(half_half_map(4), 1) == pytest.approx(0.5)

    def test_constant(self):
        f = VertexMap(uniform_metric(2), (0, 0, 0))
        assert empirical_average(f, 1) == 0.0

    def test_two_vertices_distance_three(self):
        m = validate([[0, 3], [3, 0]])
        f = VertexMap(m, (0, 1))
        assert empirical_average(f, 2) == pytest.approx(4.5)


class TestEmpiricalQuantile:
    def test_half_half_median_zero(self):
        assert empirical_quantile(half_half_map(4), Fraction(1, 2)) == 0.0

    def test_half_half_three_quarters(self):
        assert empirical_quantile(half_half_map(4), Fraction(3, 4)) == 1.0

    def test_constant_always_zero(self):
        f = VertexMap(uniform_metric(2), (1, 1, 1, 1))
        for tau in (0.1, 0.5, 0.9):
            assert empirical_quantile(f, tau) == 0.0

    @given(st.integers(2, 6), st.integers(2, 4), st.data())
    @settings(max_examples=80, deadline=None)
    def test_counting_definition(self, n, big_n, data):
        metric = random_euclidean_metric(big_n, seed=data.draw(st.integers(0, 10 ** 6)))
        assign = tuple(data.draw(st.integers(0, big_n - 1)) for _ in range(n))
        tau = data.draw(st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(9, 10)]))
        f = VertexMap(metric, assign)
        q = empirical_quantile(f, tau)
        dists = sorted(metric.dist[assign[v], assign[u]]
                       for v in range(n) for u in range(n))
        count_leq = sum(1 for d in dists if d <= q)
        assert count_leq * tau.denominator >= tau.numerator * n * n
        if q > 0:
            smaller = max([d for d in dists if d < q], default=0.0)
            count_below = sum(1 for d in dists if d <= smaller)
            assert count_below * tau.denominator < tau.numerator * n * n


def quantile_reference(f, tau):
    """empirical_quantile as it was: the pairs at distance 0 first, then one
    mask of the positive distances up to t for each level t."""
    def meets(count):
        if isinstance(tau, Fraction):
            return count * tau.denominator >= tau.numerator * nsq
        return count >= tau * nsq

    nsq = f.n * f.n
    cnt = f.point_counts()
    count = int((cnt.astype(np.int64) ** 2).sum())
    if meets(count):
        return 0.0
    dist = f.target.dist
    for t in [float(v) for v in np.unique(dist) if v > 0]:
        mask = (dist > 0) & (dist <= t)
        if meets(count + int(cnt @ mask.astype(np.int64) @ cnt)):
            return t
    raise AssertionError("unreachable: total pair count always reaches tau * n^2")


class TestQuantileAgainstReference:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_maps(self, seed):
        gen = derive_rng(seed, "quantile-case")
        metrics = [uniform_metric(3), path_metric(path_graph(5)),
                   random_euclidean_metric(4, seed=seed)]
        for _ in range(150):
            metric = metrics[int(gen.integers(0, len(metrics)))]
            n = int(gen.integers(1, 13))
            f = VertexMap(metric, tuple(int(x) for x in gen.integers(0, metric.size, size=n)))
            den = int(gen.integers(2, 2 * n * n + 2))
            # Fractions whose tau * n^2 may land exactly on a level's count,
            # and floats near them
            num = int(gen.integers(1, den))
            for tau in (Fraction(num, den), num / den, float(gen.uniform(0.01, 0.99))):
                assert empirical_quantile(f, tau) == quantile_reference(f, tau), (f, tau)


class TestConcentration:
    def test_constant_is_concentrated(self):
        f = VertexMap(uniform_metric(2), (0, 0, 0))
        assert is_concentrated(f, 5, 1, Fraction(1, 2))

    def test_half_half_not_concentrated(self):
        assert not is_concentrated(half_half_map(4), 5, 1, Fraction(1, 2))

    def test_balanced_many_points_concentrated(self):
        metric = uniform_metric(3)
        f = VertexMap(metric, (0, 1, 2) * 2)
        # zero pairs 3 * 4 = 12 < 18 = n^2/2, so the median is 1
        assert is_concentrated(f, 5, 1, Fraction(1, 2))


class TestDirichlet:
    def test_single_edge(self):
        f = VertexMap(uniform_metric(2), (0, 1))
        assert dirichlet(path_graph(2), f, 1) == pytest.approx(1.0)

    def test_constant(self):
        f = VertexMap(uniform_metric(2), (0, 0, 0, 0))
        assert dirichlet(cycle_graph(4), f, 1) == 0.0

    def test_alternating_cycle(self):
        f = VertexMap(uniform_metric(2), (0, 1, 0, 1))
        assert dirichlet(cycle_graph(4), f, 1) == pytest.approx(1.0)

    def test_adds_the_edges_one_by_one_in_edge_order(self):
        # the exact search and the heuristic search compare ratios built on
        # this sum, so it must round as the edge loop does
        gen = derive_rng(3, "dirichlet-order")
        for t in range(20):
            g = random_connected_regular(60, 3 + t % 2, seed=t)
            metric = random_euclidean_metric(7, seed=t)
            q = float(gen.uniform(0.5, 3.0))
            a = tuple(int(x) for x in gen.integers(0, 7, size=g.n))
            costs = cost_matrix(metric, q)
            loop = float(sum(costs[a[u], a[v]] for u, v in g.edges)) / g.m
            assert dirichlet(g, VertexMap(metric, a), q) == loop


class TestGammaOfMap:
    def test_single_edge_report(self):
        f = VertexMap(uniform_metric(2), (0, 1))
        r = gamma_of_map(path_graph(2), f, 1)
        assert r.ave == pytest.approx(0.5)
        assert r.dirichlet == pytest.approx(1.0)
        assert r.ratio == pytest.approx(0.5)

    def test_c4_adjacent_indicator(self):
        f = VertexMap(uniform_metric(2), (1, 1, 0, 0))
        r = gamma_of_map(cycle_graph(4), f, 1)
        assert r.ave == pytest.approx(0.5)
        assert r.dirichlet == pytest.approx(0.5)
        assert r.ratio == pytest.approx(1.0)

    def test_disconnected_infinite_ratio(self):
        g = disjoint_union(path_graph(2), path_graph(2))
        f = VertexMap(uniform_metric(2), (0, 0, 1, 1))
        r = gamma_of_map(g, f, 1)
        assert r.dirichlet == 0.0 and r.ave > 0
        assert math.isinf(r.ratio)

    def test_constant_degenerate(self):
        f = VertexMap(uniform_metric(2), (0, 0, 0, 0))
        r = gamma_of_map(cycle_graph(4), f, 1)
        assert (r.ave, r.dirichlet) == (0.0, 0.0) and math.isnan(r.ratio)


class TestGammaExact:
    def test_c4_uniform_two(self):
        r = gamma_exact(cycle_graph(4), uniform_metric(2), 1)
        assert r.gamma == pytest.approx(1.0)
        S = {v for v, a in enumerate(r.witness.assignment) if a == 1}
        assert len(S) in (1, 2, 3)

    @pytest.mark.parametrize("n", [4, 5])
    def test_complete_closed_form(self, n):
        r = gamma_exact(complete_graph(n), uniform_metric(2), 1)
        assert r.gamma == pytest.approx((n - 1) / n)

    def test_single_point_target_degenerate(self):
        m = validate(np.zeros((1, 1)))
        r = gamma_exact(cycle_graph(4), m, 1)
        assert r.gamma is None and r.witness is None

    def test_cap(self):
        # 3^17 maps lie above the exhaustive cap of 10^8; the check runs
        # before any map is evaluated
        with pytest.raises(CapExceeded, match="3\\^17 = 129140163 maps exceeds"):
            gamma_exact(cycle_graph(17), uniform_metric(3), 1)
        with pytest.raises(CapExceeded, match="exceed bulk-statistics cap"):
            enumerate_map_statistics(cycle_graph(15), uniform_metric(3), qs=(1.0,))

    def test_statistics_cap_message_is_short(self):
        # the count 2^20000 has 6,021 digits, past Python's limit for
        # converting an integer to a string
        with pytest.raises(CapExceeded) as refused:
            enumerate_map_statistics(cycle_graph(20000), uniform_metric(2), qs=(1.0,))
        assert str(refused.value) == "2^20000 maps exceed bulk-statistics cap 10000000"

    def test_two_point_subset_oracle(self, corpus):
        graphs = [corpus[name] for name in
                  ("P3", "C4", "C5", "C6", "K4", "star6", "prism", "petersen")]
        from nlgap.graphs import random_connected_regular
        graphs += [cycle_graph(12), cycle_graph(14),
                   random_connected_regular(12, 3, seed=31),
                   random_connected_regular(14, 3, seed=32)]
        for g in graphs:
            r = gamma_exact(g, uniform_metric(2), 1)
            oracle = two_point_oracle(g)
            S = [v for v, a in enumerate(r.witness.assignment) if a]
            assert two_point_ratio(g, S) == oracle
            assert r.gamma == pytest.approx(float(oracle))

    def test_sup_dominates_every_map(self):
        g = cycle_graph(5)
        m = random_euclidean_metric(3, seed=4)
        best = gamma_exact(g, m, 2).gamma
        gen = np.random.Generator(np.random.Philox(12))
        for _ in range(50):
            f = VertexMap(m, tuple(int(x) for x in gen.integers(0, 3, size=5)))
            r = gamma_of_map(g, f, 2)
            if not math.isnan(r.ratio):
                assert r.ratio <= best + 1e-9

    def test_invariant_under_relabelling(self):
        g = cycle_graph(6)
        m = random_euclidean_metric(3, seed=8)
        base = gamma_exact(g, m, 1).gamma
        gen = np.random.Generator(np.random.Philox(5))
        for _ in range(5):
            perm = tuple(int(x) for x in gen.permutation(6))
            assert gamma_exact(relabel(g, perm), m, 1).gamma == pytest.approx(base)

    def test_invariant_under_point_permutation(self):
        g = cycle_graph(5)
        m = random_euclidean_metric(3, seed=9)
        base = gamma_exact(g, m, 1).gamma
        perm = [2, 0, 1]
        permuted = validate(m.dist[np.ix_(perm, perm)])
        assert gamma_exact(g, permuted, 1).gamma == pytest.approx(base)


class TestGammaLowerSearch:
    def test_never_exceeds_exact_and_usually_matches(self):
        hits = 0
        cases = 0
        for seed in range(50):
            pick = seed % 4
            if pick == 0:
                g = cycle_graph(4 + seed % 4)
            elif pick == 1:
                g = complete_graph(4 + seed % 2)
            elif pick == 2:
                g = complete_bipartite_graph(2, 2 + seed % 2)
            else:
                g = random_connected_regular(6 + 2 * (seed % 2), 3, seed=seed)
            m = random_euclidean_metric(2 + seed % 2, seed=seed)
            exact = gamma_exact(g, m, 1).gamma
            found = gamma_lower_search(g, m, 1, iters=2000, seed=seed).gamma
            # the two sum the costs in different orders
            assert found <= exact * (1 + 4 * np.finfo(float).eps)
            cases += 1
            hits += abs(found - exact) < 1e-9
        assert hits / cases >= 0.8

    def test_deterministic(self):
        g = cycle_graph(6)
        m = random_euclidean_metric(3, seed=1)
        a = gamma_lower_search(g, m, 1, iters=50, seed=3)
        b = gamma_lower_search(g, m, 1, iters=50, seed=3)
        assert a.gamma == b.gamma and a.witness.assignment == b.witness.assignment

    def test_step_peak_memory(self):
        # a step keeps a few n x N tables, 640 kB each here; gathering the
        # costs along all 2m arcs at once would take 2m x N floats, 127 MB
        g, m = complete_graph(200), uniform_metric(400)
        tracemalloc.start()
        try:
            gamma_lower_search(g, m, 1.0, iters=3, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    def test_peak_below_five_tables(self):
        # the step keeps its neighbour-cost table between moves and works in
        # place; five n x N float tables are what the working-set refusal allows
        n, grid = 20_000, linf_grid(4, 2)
        g = random_connected_regular(n, 3, seed=5)
        tracemalloc.start()
        try:
            gamma_lower_search(g, grid, 1.0, iters=5, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 8 * n * grid.size

    def test_working_set_refused_before_allocation(self, monkeypatch):
        # five 160 MB tables are one byte over the budget: refused before the
        # first is allocated
        g, m = cycle_graph(20_000), uniform_metric(1000)
        monkeypatch.setattr(metrics, "_METRIC_BYTES", 5 * 8 * 20_000 * 1000 - 1)
        tracemalloc.start()
        try:
            with pytest.raises(MetricError, match=r"^the search tables of n = 20000 vertices "
                                                  r"by N = 1000 points exceed the "
                                                  r"799999999-byte budget$"):
                gamma_lower_search(g, m, 1.0, iters=5, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        # exactly five tables fit
        monkeypatch.setattr(metrics, "_METRIC_BYTES", 5 * 8 * 40 * 2)
        assert gamma_lower_search(cycle_graph(40), uniform_metric(2), 1.0, iters=5,
                                  seed=0).maps_evaluated == 5

    @pytest.mark.parametrize("n", [0, 1])
    def test_edgeless_graph_refused(self, n):
        # n = 0 once divided by zero
        with pytest.raises(ValueError, match="graph has no edges"):
            gamma_lower_search(graph_from_edges(n, []), uniform_metric(2), 1, iters=5, seed=0)


def search_reference(g, metric, q, iters, seed):
    """The search as one Python loop over the vertices per step; the slow
    reference for gamma_lower_search, which must follow it move for move."""
    n, n_points = g.n, metric.size
    costs = cost_matrix(metric, q)
    scale = g.m / (n * n)

    def full_sums(a):
        cnt = np.bincount(a, minlength=n_points).astype(np.float64)
        pair = float(cnt @ costs @ cnt)
        edge = float(sum(costs[a[u], a[v]] for u, v in g.edges))
        return cnt, pair, edge

    def ratio(pair, edge):
        return scale * pair / edge if edge > 0 else -math.inf

    def fresh(restart):
        gen = derive_rng(seed, "gamma-search", restart)
        a = gen.integers(0, n_points, size=n)
        if len(set(a.tolist())) <= 1 and n_points > 1:
            a[int(gen.integers(0, n))] = (a[0] + 1) % n_points
        return a

    current = fresh(0)
    cnt, pair, edge = full_sums(current)
    best = ratio(pair, edge)
    best_map = current.copy()
    restart = 0
    steps = 0
    while steps < iters:
        base = ratio(pair, edge)
        move = None
        move_ratio = base
        for v in range(n):
            old = int(current[v])
            nbr_vals = current[[u for u in g.adjacency[v]]]
            pair_new = pair + 2.0 * (costs @ cnt - costs[old] @ cnt - costs[:, old])
            # nbr[x] adds costs[x, current[u]] over the neighbours u of v;
            # at x = old it is v's own cost
            nbr = costs[:, nbr_vals].sum(axis=1)
            edge_new = edge + nbr - nbr[old]
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(edge_new > 0, scale * pair_new / edge_new, -math.inf)
            ratios[old] = -math.inf
            x = int(np.argmax(ratios))
            if ratios[x] > move_ratio:
                move_ratio = float(ratios[x])
                move = (v, x, float(pair_new[x]), float(edge_new[x]))
        if move is not None:
            v, x, pair, edge = move
            cnt[current[v]] -= 1
            cnt[x] += 1
            current[v] = x
            steps += 1
            if move_ratio > best:
                cnt, pair, edge = full_sums(current)
                exact_now = ratio(pair, edge)
                if exact_now > best:
                    best, best_map = exact_now, current.copy()
        else:
            restart += 1
            steps += 1
            current = fresh(restart)
            cnt, pair, edge = full_sums(current)
            r = ratio(pair, edge)
            if r > best:
                best, best_map = r, current.copy()
    if best == -math.inf:
        return None, None, steps
    return best, tuple(int(x) for x in best_map), steps


def tree_with_chords(n, chords, gen):
    """A random recursive tree on n vertices plus the given number of extra
    edges: its leaves, path vertices and hubs give it many distinct degrees."""
    edges = {(int(gen.integers(v)), v) for v in range(1, n)}
    while len(edges) < n - 1 + chords:
        edges.add(tuple(sorted(gen.choice(n, 2, replace=False).tolist())))
    return graph_from_edges(n, edges)


def oracle_instance(seed):
    """A small seeded (graph, metric, q) case; complete graphs reach
    degree 11, complete bipartite ones mix two degrees and trees with
    chords more.  A third of the targets are uniform, where moves tie."""
    gen = np.random.default_rng(seed)
    kind = seed % 5
    if kind == 0:
        g = cycle_graph(int(gen.integers(3, 13)))
    elif kind == 1:
        g = complete_graph(int(gen.integers(2, 13)))
    elif kind == 2:
        g = random_connected_regular(2 * int(gen.integers(2, 7)), 3, seed=seed)
    elif kind == 3:
        g = complete_bipartite_graph(int(gen.integers(1, 4)), int(gen.integers(2, 10)))
    else:
        g = tree_with_chords(int(gen.integers(4, 13)), int(gen.integers(0, 4)), gen)
    n_points = int(gen.integers(2, 7))
    if seed % 6 < 2:
        metric = uniform_metric(n_points)
    else:
        metric = random_euclidean_metric(n_points, seed=seed)
    q = (1.0, 1.5, 2.0)[seed % 3]
    return g, metric, q


class TestSearchAgainstReference:
    @pytest.mark.parametrize("seed", range(50))
    def test_small_instances(self, seed):
        g, metric, q = oracle_instance(seed)
        got = gamma_lower_search(g, metric, q, iters=100, seed=seed)
        assert (got.gamma, got.witness.assignment, got.maps_evaluated) == \
            search_reference(g, metric, q, 100, seed)

    @pytest.mark.parametrize("seed", range(8))
    def test_long_runs(self, seed):
        # n >= 30 and 300 steps, so that many moves, each re-summing only the
        # rows of the moved vertex's neighbours, fall between restarts
        gen = np.random.default_rng(seed)
        n = int(gen.integers(30, 48))
        if seed % 2:
            g = tree_with_chords(n, 6, gen)
            assert len(set(g.degrees())) >= 3
        else:
            g = random_connected_regular(n + n % 2, 3 + seed % 4 // 2, seed=seed)
        metric = uniform_metric(2 + seed % 4) if seed % 3 else linf_grid(1, 2)
        q = (1.0, 2.0, 0.5)[seed % 3]
        got = gamma_lower_search(g, metric, q, iters=300, seed=seed)
        assert (got.gamma, got.witness.assignment, got.maps_evaluated) == \
            search_reference(g, metric, q, 300, seed)

    def test_constant_first_draw(self):
        # seed 3 draws the constant map (1, 1, 1) for restart 0, and fresh()
        # moves the vertex it draws next, vertex 2, to the other point
        g, m = cycle_graph(3), uniform_metric(2)
        assert derive_rng(3, "gamma-search", 0).integers(0, 2, size=3).tolist() == [1, 1, 1]
        got = gamma_lower_search(g, m, 1.0, iters=1, seed=3)
        assert got.witness.assignment == (1, 1, 0)
        assert (got.gamma, got.witness.assignment, got.maps_evaluated) == \
            search_reference(g, m, 1.0, 1, 3)

    def test_large_grid_instance(self):
        g = random_connected_regular(200, 3, seed=7)
        grid = linf_grid(1, 2)
        got = gamma_lower_search(g, grid, 1.0, iters=100, seed=11)
        assert (got.gamma, got.witness.assignment, got.maps_evaluated) == \
            search_reference(g, grid, 1.0, 100, 11)


@pytest.mark.parametrize("q", [0, -1, math.nan, math.inf])
@pytest.mark.parametrize("run", [
    lambda g, m, q: gamma_exact(g, m, q),
    lambda g, m, q: dirichlet(g, VertexMap(m, (0, 1, 0, 1)), q),
    lambda g, m, q: gamma_lower_search(g, m, q, iters=5, seed=0),
    lambda g, m, q: enumerate_map_statistics(g, m, qs=(q,)),
], ids=["gamma_exact", "dirichlet", "gamma_lower_search", "enumerate_map_statistics"])
def test_nonpositive_exponent_rejected(run, q):
    with pytest.raises(MetricError):
        run(cycle_graph(4), uniform_metric(2), q)


class TestGammaEuclidean:
    """Two points on a line are a squared-Euclidean target at q = 2, so the
    exact gamma into uniform:2 is a ratio the constant must reach or bound."""

    @pytest.mark.parametrize("name,value", [("C4", 1.0), ("K4", 0.75), ("K33", 1.0),
                                            ("prism", 1.5), ("petersen", 1.5)])
    def test_attained_by_a_two_point_map(self, regular_corpus, name, value):
        g = regular_corpus[name]
        assert gamma_euclidean_sq(g) == pytest.approx(value, rel=1e-9)
        assert gamma_exact(g, uniform_metric(2), 2.0).gamma == pytest.approx(value, rel=1e-9)

    def test_bounds_every_two_point_map(self, regular_corpus):
        for name, g in regular_corpus.items():
            exact = gamma_exact(g, uniform_metric(2), 2.0).gamma
            assert exact <= gamma_euclidean_sq(g) * (1 + 1e-9), name


class TestHolderAndQuantileBounds:
    def test_median_lower_bound_on_average(self):
        # ave(f, p) >= (1/2) Q_{1/2}(f)^p for every map
        gen = np.random.Generator(np.random.Philox(3))
        m = random_euclidean_metric(4, seed=6)
        for _ in range(100):
            f = VertexMap(m, tuple(int(x) for x in gen.integers(0, 4, size=6)))
            for p in (1.0, 2.0):
                q_half = empirical_quantile(f, Fraction(1, 2))
                assert empirical_average(f, p) >= 0.5 * q_half ** p - 1e-12

    def test_holder_chain(self):
        gen = np.random.Generator(np.random.Philox(4))
        m = random_euclidean_metric(4, seed=7)
        for _ in range(100):
            f = VertexMap(m, tuple(int(x) for x in gen.integers(0, 4, size=5)))
            for p, q in ((1.0, 2.0), (1.0, 3.0), (2.0, 3.0)):
                lhs = empirical_average(f, p)
                rhs = empirical_average(f, q) ** (p / q)
                assert lhs <= rhs + 1e-10


class TestEdgeLipschitz:
    def test_matches_the_edge_loop(self):
        """embedding_distortion's lip is the largest image distance across
        an edge; the random graphs are trees plus chords, so connected."""
        gen = derive_rng(5, "edge-lipschitz")
        for _ in range(60):
            n = int(gen.integers(2, 12))
            g = random_irregular_graph(n, gen)
            metric = random_euclidean_metric(int(gen.integers(2, 6)), seed=int(gen.integers(0, 99)))
            f = VertexMap(metric, tuple(int(x) for x in gen.integers(0, metric.size, size=n)))
            img = f.image_distances()
            lip = max(float(img[u, v]) for u, v in g.edges)
            assert embedding_distortion(g, img).lip == lip
            assert embedding_distortion(g, img.astype(np.int64) * 3).lip == max(
                float(3 * int(img[u, v])) for u, v in g.edges)

    def test_image_distances(self):
        m = path_metric(path_graph(4))
        img = VertexMap(m, (3, 0, 0)).image_distances()
        assert img.tolist() == [[0, 3, 3], [3, 0, 0], [3, 0, 0]]


class TestBulkStatistics:
    def test_matches_single_map_functions(self):
        g = cycle_graph(4)
        m = random_euclidean_metric(3, seed=13)
        stats = enumerate_map_statistics(g, m, qs=(1.0, 2.0), taus=(Fraction(1, 2),))
        total = 3 ** 4
        for idx in range(0, total, 7):
            digits = []
            rem = idx
            for _ in range(4):
                digits.append(rem % 3)
                rem //= 3
            assign = tuple(reversed(digits))
            f = VertexMap(m, assign)
            for q in (1.0, 2.0):
                assert stats.ave[q][idx] == pytest.approx(empirical_average(f, q))
                assert stats.dirichlet[q][idx] == pytest.approx(dirichlet(g, f, q))
            assert stats.quantile[Fraction(1, 2)][idx] == pytest.approx(
                empirical_quantile(f, Fraction(1, 2)))


def random_irregular_graph(n, gen):
    """A random tree on n vertices plus a few random chords."""
    edges = {(int(gen.integers(0, v)), v) for v in range(1, n)}
    for _ in range(int(gen.integers(0, n))):
        u, v = sorted(int(x) for x in gen.choice(n, size=2, replace=False))
        edges.add((u, v))
    return graph_from_edges(n, sorted(edges))


def gathered_edge_sums(g, n_points, costs):
    """The edge sums of every map of g in counter order, by the kernel's
    former per-edge gathers: over the low block of b vertices, one gather of
    c[low[u], low[v]] per inner edge, added to zeros in edge order; then per
    outer assignment, one row or scalar gather per edge at an outer vertex."""
    n, b = g.n, 0
    while b < n and n_points ** (b + 1) <= poincare._BLOCK_MAPS:
        b += 1
    outer, size = n - b, n_points ** b
    low = np.indices((n_points,) * b).reshape(b, size)
    inner = [(u - outer, v - outer) for u, v in g.edges if u >= outer]
    touching = [(u, v) for u, v in g.edges if u < outer]
    out = []
    for c in costs:
        base = sum((c[low[u], low[v]] for u, v in inner), np.zeros(size))
        blocks = []
        for head in itertools.product(range(n_points), repeat=outer):
            points = [*head, *low]
            edge = base.copy()
            for u, v in touching:
                edge += c[points[u]][points[v]]
            blocks.append(edge)
        out.append(np.concatenate(blocks))
    return out


def universe_instance(seed):
    """A seeded (graph, metric, q, tau) case for the map-universe kernel.
    Seeds 0 and 1 have more maps than one block holds (3^10 and 2^15), so
    the loop over the outer vertices runs; the rest fit in one block."""
    gen = np.random.default_rng(seed)
    if seed == 0:
        g, n_points = cycle_graph(10), 3
    elif seed == 1:
        g, n_points = random_irregular_graph(15, gen), 2
    else:
        kind = seed % 3
        if kind == 0:
            g = cycle_graph(int(gen.integers(3, 8)))
        elif kind == 1:
            g = random_connected_regular(2 * int(gen.integers(2, 4)), 3, seed=seed)
        else:
            g = random_irregular_graph(int(gen.integers(3, 7)), gen)
        n_points = int(gen.integers(2, 6))
        while n_points > 2 and n_points ** g.n > 5000:
            n_points -= 1
    metric = random_euclidean_metric(n_points, seed=seed)
    q = (0.5, 1.0, 2.0, 3.0)[seed % 4]
    tau = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))[seed % 3]
    return g, metric, q, tau


class TestMapUniverseKernel:
    @pytest.mark.parametrize("seed", range(30))
    def test_against_one_map_at_a_time(self, seed):
        g, metric, q, tau = universe_instance(seed)
        stats = enumerate_map_statistics(g, metric, qs=(q,), taus=(tau,))
        rows = []
        for a in itertools.product(range(metric.size), repeat=g.n):
            f = VertexMap(metric, a)
            rows.append((empirical_average(f, q), dirichlet(g, f, q),
                         empirical_quantile(f, tau)))
        ave, diri, quant = np.array(rows).T
        np.testing.assert_allclose(stats.ave[q], ave, rtol=1e-12, atol=0)
        np.testing.assert_allclose(stats.dirichlet[q], diri, rtol=1e-12, atol=0)
        assert np.array_equal(stats.quantile[tau], quant)
        res = gamma_exact(g, metric, q)
        ratio = stats.ratio(q)
        assert res.maps_evaluated == metric.size ** g.n == ratio.size
        assert res.gamma == ratio.max()
        first = np.ravel_multi_index(res.witness.assignment, (metric.size,) * g.n)
        assert first == np.argmax(ratio)

    @pytest.mark.parametrize("tau", [0, 1, Fraction(3, 2)])
    def test_quantile_level_out_of_range(self, tau):
        with pytest.raises(ValueError, match="quantile level"):
            enumerate_map_statistics(cycle_graph(4), uniform_metric(2), qs=(1.0,), taus=(tau,))

    def test_cached_low_block_forms_equal_full_einsum(self):
        # a graph on b vertices with N^b <= 2^14 is one low block with no
        # outer vertex, so its form sums are the low-block forms themselves
        gen = derive_rng(3, "low-block-forms")
        for n_points, b in itertools.product(range(1, 7), range(15)):
            if n_points ** b <= 1 << 14:
                low = np.indices((n_points,) * b).reshape(b, n_points ** b)
                cnt = (low[:, :, None] == np.arange(n_points)).sum(axis=0).astype(np.float64)
                metric = random_euclidean_metric(n_points, seed=int(gen.integers(1 << 30)))
                forms = [cost_matrix(metric, q) for q in (0.5, 1.0, 1.5, 2.0, 3.0)]
                forms += [(metric.dist <= t).astype(np.float64) for t in np.unique(metric.dist)]
                w = gen.random((n_points, n_points))
                forms.append(w + w.T)
                (block, sums, _), = _map_blocks(graph_from_edges(b, []), n_points, forms, [])
                assert block == slice(0, n_points ** b)
                for f, got in zip(forms, sums, strict=True):
                    assert np.array_equal(got, np.einsum("mx,xy,my->m", cnt, f, cnt))

    def test_low_block_cache_is_read_only_and_narrow(self):
        cnt, rows, row_of = _low_block(8, 3)
        assert (cnt.dtype, row_of.dtype) == (np.uint8,) * 2
        assert len(rows) == 45 and row_of.shape == (3 ** 8,)
        assert np.array_equal(rows[row_of], cnt)
        assert not any(a.flags.writeable for a in (cnt, rows, row_of))

    @pytest.mark.parametrize("case", [*range(30), "C10 into 3", "5 vertices into 9",
                                      "cubic 12 into 3"])
    def test_edge_sums_equal_per_edge_gathers(self, case):
        # three multi-block shapes: 9 heads of 3^8 maps, 9 heads of 9^4 maps
        # and 81 heads of 3^8 maps; the non-symmetric cost array tells the
        # two ends of an edge apart
        if case == "C10 into 3":
            g, n_points = cycle_graph(10), 3
        elif case == "5 vertices into 9":
            g, n_points = graph_from_edges(5, [(0, 1), (0, 3), (1, 2), (1, 4), (2, 4), (3, 4)]), 9
        elif case == "cubic 12 into 3":
            g, n_points = random_connected_regular(12, 3, seed=4), 3
        else:
            g, metric = universe_instance(case)[:2]
            n_points = metric.size
        gen = derive_rng(5, "edge-sums", str(case))
        metric = random_euclidean_metric(n_points, seed=int(gen.integers(1 << 30)))
        costs = [cost_matrix(metric, q) for q in (0.5, 1.0, 3.0)] + [gen.random((n_points,) * 2)]
        got = [np.concatenate(sums) for sums in zip(*(e for _, _, e in _map_blocks(
            g, n_points, [], costs)))]
        for have, want in zip(got, gathered_edge_sums(g, n_points, costs), strict=True):
            assert np.array_equal(have, want)

    def test_two_point_witness_is_best_cut_on_every_small_graph(self):
        # the uniform 2-point metric: gamma_exact's witness, read in Fraction
        # arithmetic, attains the best cut on every connected graph up to
        # isomorphism on 2..6 vertices (networkx's atlas is the test-only list)
        import networkx as nx
        checked = 0
        for h in nx.graph_atlas_g():
            if not 2 <= h.number_of_nodes() <= 6 or not nx.is_connected(h):
                continue
            g = graph_from_edges(h.number_of_nodes(), h.edges())
            r = gamma_exact(g, uniform_metric(2), 1)
            S = [v for v, a in enumerate(r.witness.assignment) if a]
            assert two_point_ratio(g, S) == two_point_oracle(g)
            checked += 1
        assert checked == 1 + 2 + 6 + 21 + 112  # OEIS A001349

    def test_gamma_exact_peak_memory(self):
        g = random_connected_regular(14, 3, seed=1)
        tracemalloc.start()
        try:
            gamma_exact(g, uniform_metric(3), 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 10 ** 6

    def test_statistics_peak_memory(self):
        g = random_connected_regular(12, 3, seed=1)
        tracemalloc.start()
        try:
            stats = enumerate_map_statistics(g, random_euclidean_metric(3, seed=2),
                                             qs=(1.0, 2.0, 3.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arrays = [*stats.ave.values(), *stats.dirichlet.values(),
                  *stats.quantile.values(), stats.nondegenerate]
        assert peak < 2 * sum(a.nbytes for a in arrays)
