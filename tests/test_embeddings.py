import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from nlgap.embeddings import (GridMap, embedding_distortion, default_delta,
                              grid_embedding_width, jls_embedding, universal_space_size,
                              witness_certificate, witness_map, witness_params)
from nlgap.graphs import (bfs_distances, complete_graph, cycle_graph, distance_matrix,
                          graph_from_edges, multi_source_distances, path_graph,
                          petersen_graph, random_connected_regular)
from nlgap.metrics import _SUP_BLOCK, MetricError, sup_distance_blocks, uniform_metric
from nlgap.poincare import VertexMap
from nlgap.rng import derive_rng
from oracles import diameter, path_metric, trunc


class TestTrunc:
    @pytest.mark.parametrize("level,x,expected", [
        (3, 5, 3), (3, -5, -3), (3, 2, 2), (0, 7, 0), (2, -1, -1), (4, 0, 0),
    ])
    def test_values(self, level, x, expected):
        assert trunc(level, x) == expected


class TestWitnessParams:
    def test_k4_large_target(self):
        p = witness_params(complete_graph(4), math.log(1e9))
        assert (p.k, p.s, p.s0, p.r0) == (3, 10, 4, 0)

    def test_needs_degree_three(self):
        with pytest.raises(Exception):
            witness_params(cycle_graph(8), math.log(1e9))

    def test_small_target_rejected(self):
        with pytest.raises(ValueError):
            witness_params(complete_graph(4), 2.0)

    @pytest.mark.parametrize("log_n_points", [math.inf, math.nan])
    def test_params_reject_non_finite_cardinality(self, log_n_points):
        with pytest.raises(ValueError, match="finite"):
            witness_params(complete_graph(4), log_n_points)


class TestWitnessMap:
    def test_edge_costs_at_most_one(self):
        # exact assertion across 500 random regular instances
        for seed in range(500):
            n = (8, 12, 16, 24)[seed % 4]
            g = random_connected_regular(n, 3 + (seed % 2), seed=seed)
            grid, _ = witness_map(g, math.log(10.0) * 50)
            assert max(grid.edge_costs(g)) <= 1

    def test_edge_costs_match_image_distances(self):
        g = random_connected_regular(24, 3, seed=2)
        grid, _ = witness_map(g, math.log(10.0) * 50)
        img = grid.image_distance_matrix()
        assert grid.edge_costs(g) == [int(img[u, v]) for u, v in g.edges]
        assert GridMap(np.zeros((5, 0), dtype=np.int16)).edge_costs(cycle_graph(5)) == [0] * 5

    def test_seed_vertex_coordinate(self):
        g = random_connected_regular(32, 3, seed=3)
        grid, p = witness_map(g, math.log(10.0) * 100)
        for i in range(min(4, p.s0)):
            assert grid.coords[i, i] == trunc(p.k, -p.r0)

    def test_certificate_dirichlet_bounded(self):
        g = random_connected_regular(16, 3, seed=1)
        r = witness_certificate(g, math.log(10.0) * 100)
        assert r.dirichlet <= 1.0 + 1e-12
        assert r.max_edge_cost <= 1

    def test_k4_certificate_nonnegative(self):
        r = witness_certificate(complete_graph(4), math.log(1e9))
        assert r.ratio >= 0.0

    @pytest.mark.parametrize("q", [math.nan, -1.0, 0.0])
    def test_certificate_rejects_bad_exponent(self, q):
        with pytest.raises(MetricError, match="cost exponent"):
            witness_certificate(complete_graph(4), math.log(1e9), q=q)

    def test_certificate_refuses_overflowing_costs(self):
        # N = 10^1000 gives k = 7, so sup distances up to 14, and 14^441 overflows
        g = random_connected_regular(64, 3, seed=1)
        assert math.isfinite(witness_certificate(g, math.log(10.0) * 1000, q=100).ratio)
        with pytest.raises(MetricError, match="q = 441"):
            witness_certificate(g, math.log(10.0) * 1000, q=441)

    def test_growth_trend(self):
        log_n_points = math.log(10.0) * 100
        medians = []
        for n in (64, 256):
            ratios = []
            for s in range(3):
                g = random_connected_regular(n, 3, seed=100 + s)
                ratios.append(witness_certificate(g, log_n_points).ratio)
            medians.append(sorted(ratios)[1])
        assert medians[1] > medians[0]


class TestWitnessMapOracle:
    """The vectorized witness coordinates equal the scalar trunc loop."""

    @pytest.mark.parametrize("n,d,seed,log_n_points", [
        (16, 3, 1, math.log(10.0) * 100), (24, 4, 2, math.log(10.0) * 50),
        (64, 3, 3, math.log(1e9)), (100, 3, 4, math.log(10.0) * 300),
        (16, 3, 1, math.exp(64.5)),   # k = 64: differences up to 128 need int16
    ])
    def test_matches_scalar_loop(self, n, d, seed, log_n_points):
        g = random_connected_regular(n, d, seed=seed)
        grid, p = witness_map(g, log_n_points)
        ref = np.zeros((n, p.s0), dtype=np.int16)
        for i in range(p.s0):
            row = bfs_distances(g, i)
            for v in range(n):
                ref[v, i] = int(trunc(p.k, row[v] - p.r0))
        assert grid.coords.dtype == (np.int8 if p.k <= 63 else np.int16)
        assert np.array_equal(grid.coords, ref)

    def test_dense_graph_gather_is_blocked(self):
        # K_300 at N = 10^1000: d = 299 and s0 = 300, so gathering the whole
        # frontier at once would hold n * d * s0 = 27 M booleans
        g = complete_graph(300)
        log_n_points = math.log(10.0) * 1000
        p = witness_params(g, log_n_points)
        assert (g.regular_degree(), p.s0) == (299, 300)
        tables = g.n * p.s0   # bytes of one (n, s0) table of int8 or bool
        neighbours = g.n * g.regular_degree() * np.dtype(np.intp).itemsize
        tracemalloc.start()
        try:
            grid, _ = witness_map(g, log_n_points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * tables + neighbours + _SUP_BLOCK
        assert np.array_equal(grid.coords, 1 - np.eye(g.n, dtype=np.int8))


class TestWitnessAverage:
    """ave is the mean cost over all ordered pairs, correctly rounded."""

    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0, 3.7])
    @pytest.mark.parametrize("n,seed", [(16, 1), (24, 2), (40, 3)])
    def test_correctly_rounded_mean(self, n, seed, q):
        g = random_connected_regular(n, 3, seed=seed)
        log_n_points = math.log(10.0) * 100
        r = witness_certificate(g, log_n_points, q=q)
        coords = witness_map(g, log_n_points)[0].coords
        c = coords.astype(np.int64)
        dense = np.abs(c[:, None, :] - c[None, :, :]).max(axis=2)
        costs = np.power(dense.astype(np.float64), q).ravel().tolist()
        assert r.ave == float(sum(map(Fraction, costs)) / (n * n))
        if q in (1.0, 2.0):
            # integer costs: the per-block float sums are exact as well
            per_block = sum(float(np.power(b.astype(np.float64), q).sum())
                            for b in sup_distance_blocks(coords)) / (n * n)
            assert r.ave == per_block


class TestDistortion:
    def test_identity_isometry(self, corpus):
        for name in ("P5", "C6", "K4", "petersen"):
            g = corpus[name]
            f = VertexMap(path_metric(g), tuple(range(g.n)))
            r = embedding_distortion(g, f.image_distances())
            assert r.distortion == pytest.approx(1.0)
            assert r.colip == pytest.approx(1.0)

    def test_collapsed_pair_infinite(self):
        g = cycle_graph(4)
        f = VertexMap(uniform_metric(2), (0, 1, 0, 1))
        r = embedding_distortion(g, f.image_distances())
        assert math.isinf(r.distortion)
        assert r.colip == 0.0

    def test_single_vertex_refused(self):
        from nlgap.graphs import GraphError
        with pytest.raises(GraphError, match="at least two vertices"):
            embedding_distortion(complete_graph(1), np.zeros((1, 1)))

    def test_c6_folding_matches_pair_scan(self):
        g = cycle_graph(6)
        line = path_metric(path_graph(4))
        f = VertexMap(line, tuple(min(v, 6 - v) for v in range(6)))
        img = f.image_distances()
        r = embedding_distortion(g, img)
        gd = distance_matrix(g)
        lip = max(img[u, v] for u, v in g.edges)
        colip = min(img[u, v] / gd[u, v] for u in range(6) for v in range(6) if u != v)
        assert r.lip == pytest.approx(lip)
        assert r.colip == pytest.approx(colip)
        expected = lip / colip if colip > 0 else math.inf
        assert r.distortion == expected


class TestJls:
    def test_width_n16(self):
        assert grid_embedding_width(16, 3, 1.0) == (5, 445, 89)

    def test_universal_size_frozen(self):
        width, log_size = universal_space_size(16, 31, 3, 1.0)
        assert width == 445
        assert log_size == pytest.approx(445 * math.log(32))

    def test_universal_size_large_distortion_limit(self):
        # with a huge distortion budget the n^(3/D) factor disappears
        m, width, r = grid_embedding_width(16, 1e9, 1.0)
        assert r == math.ceil(2 * math.log(16))

    def test_log_size_quadruples_when_log_n_doubles(self):
        w16 = universal_space_size(16, 31, 1e9, 1.0)[1]
        w256 = universal_space_size(256, 31, 1e9, 1.0)[1]
        assert w256 / w16 == pytest.approx(4.0, rel=0.15)

    def test_coordinates_lipschitz_and_in_range(self):
        g = cycle_graph(16)
        res = jls_embedding(g, 3.0, 1.0, seed=4, retries=5)
        gd = distance_matrix(g)
        diam = diameter(g)
        c = res.grid.coords
        assert c.min() >= 0 and c.max() <= diam <= default_delta(16)
        diffs = np.abs(c[:, None, :] - c[None, :, :]).max(axis=2)
        assert (diffs <= gd).all()   # 1-Lipschitz over every pair

    def test_c16_success(self):
        ok = 0
        trials = 20
        for t in range(trials):
            res = jls_embedding(cycle_graph(16), 3.0, 1.0, seed=1000 + t, retries=50)
            ok += res.success
        assert ok / trials >= 0.9

    @pytest.mark.parametrize("retries", [0, -1])
    def test_retries_below_one_rejected(self, retries):
        with pytest.raises(ValueError, match="retries"):
            jls_embedding(cycle_graph(16), 3.0, 1.0, seed=0, retries=retries)

    def test_diameter_guard(self):
        from nlgap.graphs import GraphError
        with pytest.raises(GraphError):
            jls_embedding(cycle_graph(16), 3.0, 1.0, seed=0, delta=4)

    @pytest.mark.parametrize("distortion,c1,match", [
        (math.nan, 1.0, "distortion"), (3.0, math.nan, "c1"), (3.0, math.inf, "c1"),
        (3.0, 0.0, "c1"), (3.0, 1e-320, "repetitions"),
    ])
    def test_width_rejects_out_of_domain(self, distortion, c1, match):
        with pytest.raises(ValueError, match=match):
            grid_embedding_width(16, distortion, c1)

    @pytest.mark.parametrize("c1,width", [(1e-300, r"4\.44e\+302"), (1e-306, r"4\.44e\+308")])
    def test_coordinate_budget_refused_before_allocation(self, c1, width):
        """The width is named in three digits, also beyond the float range."""
        with pytest.raises(ValueError, match=f"width {width} at n = 16 exceed"):
            jls_embedding(cycle_graph(16), 3.0, c1, seed=0)


def _jls_reference_coords(g, distortion, c1, seed):
    """One BFS per coordinate, drawing the sets exactly as jls_embedding does."""
    m, width, r = grid_embedding_width(g.n, distortion, c1)
    gen = derive_rng(seed, "jls", 1)   # the first attempt
    cols = [multi_source_distances(g, gen.choice(g.n, size=min(2 ** k, g.n),
                                                 replace=False).tolist())
            for k in range(m) for _ in range(r)]
    return np.array(cols, dtype=np.int64).T


_IRREGULAR = graph_from_edges(9, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (3, 4),
                                  (4, 5), (5, 6), (6, 7), (5, 8), (8, 7)])


class TestJlsOracle:
    @pytest.mark.parametrize("g", [
        cycle_graph(9), cycle_graph(16),
        random_connected_regular(20, 3, seed=1), random_connected_regular(32, 3, seed=2),
        random_connected_regular(18, 4, seed=3), random_connected_regular(30, 4, seed=4),
        complete_graph(6), petersen_graph(), _IRREGULAR, path_graph(12),
    ], ids=["C9", "C16", "cubic20", "cubic32", "quartic18", "quartic30", "K6",
            "petersen", "irregular9", "P12"])
    def test_coordinates_match_bfs_reference(self, g):
        res = jls_embedding(g, 4.0, 2.0, seed=17, retries=1)
        assert res.grid.coords.dtype == np.int8
        assert np.array_equal(res.grid.coords, _jls_reference_coords(g, 4.0, 2.0, 17))
        img = res.grid.image_distance_matrix()
        assert img.dtype == np.int64
        assert res.report == embedding_distortion(g, img)

    @pytest.mark.parametrize("g,delta,dtype", [
        (cycle_graph(256), 128, np.int16), (cycle_graph(254), 127, np.int8),
        (cycle_graph(256), 32768, np.int16), (cycle_graph(256), 10 ** 30, np.int16),
    ], ids=["C256-128", "C254-127", "C256-32768", "C256-huge"])
    def test_coordinates_at_diameter_delta(self, g, delta, dtype):
        """diam(g) filling the signed range of a type still fits the coordinates;
        on a cycle every singleton set reaches the antipode, so the image
        distances attain the diameter."""
        res = jls_embedding(g, 4.0, 20.0, seed=5, retries=1, delta=delta)
        assert res.grid.coords.dtype == dtype
        ref = _jls_reference_coords(g, 4.0, 20.0, 5)
        assert np.array_equal(res.grid.coords, ref)
        img = res.grid.image_distance_matrix()
        assert np.array_equal(img, GridMap(ref).image_distance_matrix())
        assert res.report == embedding_distortion(g, GridMap(ref).image_distance_matrix())
        assert img.max() == diameter(g)

    @pytest.mark.parametrize("n,budget_mib", [(100, 48), (400, 64)])
    def test_traced_memory_bounded(self, n, budget_mib):
        g = random_connected_regular(n, 3, seed=n)
        tracemalloc.start()
        try:
            res = jls_embedding(g, 4.0, 1.0, seed=1, retries=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.attempts == 1
        assert peak < budget_mib * 2 ** 20


class TestDistortionGammaConsistency:
    def test_average_bounds(self):
        """ave(f,1) >= colip * mean graph distance and dirichlet(f,1) <= lip."""
        from nlgap.poincare import dirichlet, empirical_average
        g = cycle_graph(8)
        m = path_metric(path_graph(5))
        gen = np.random.Generator(np.random.Philox(9))
        gd = distance_matrix(g)
        mean_dist = gd.sum() / (g.n * g.n)
        for _ in range(40):
            f = VertexMap(m, tuple(int(x) for x in gen.integers(0, 5, size=8)))
            img = f.image_distances()
            r = embedding_distortion(g, img)
            assert empirical_average(f, 1) >= r.colip * mean_dist - 1e-9
            assert dirichlet(g, f, 1) <= r.lip + 1e-9
