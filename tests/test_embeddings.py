import math

import numpy as np
import pytest

from nlgap.embeddings import (GridMap, embedding_distortion, default_delta,
                              grid_embedding_width, jls_embedding, trunc,
                              universal_space_size, vertex_map_image_distances,
                              witness_certificate, witness_map, witness_params)
from nlgap.graphs import (complete_graph, cycle_graph, diameter, distance_matrix,
                          path_graph, random_connected_regular)
from nlgap.metrics import path_metric, uniform_metric
from nlgap.poincare import VertexMap


class TestTrunc:
    @pytest.mark.parametrize("level,x,expected", [
        (3, 5, 3), (3, -5, -3), (3, 2, 2), (0, 7, 0), (2, -1, -1), (4, 0, 0),
    ])
    def test_values(self, level, x, expected):
        assert trunc(level, x) == expected

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            trunc(-1, 2)


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


class TestDistortion:
    def test_identity_isometry(self, corpus):
        for name in ("P5", "C6", "K4", "petersen"):
            g = corpus[name]
            f = VertexMap(path_metric(g), tuple(range(g.n)))
            r = embedding_distortion(g, vertex_map_image_distances(f))
            assert r.distortion == pytest.approx(1.0)
            assert r.scale == pytest.approx(1.0)

    def test_collapsed_pair_infinite(self):
        g = cycle_graph(4)
        f = VertexMap(uniform_metric(2), (0, 1, 0, 1))
        r = embedding_distortion(g, vertex_map_image_distances(f))
        assert math.isinf(r.distortion)
        assert r.colip == 0.0

    def test_c6_folding_matches_pair_scan(self):
        g = cycle_graph(6)
        line = path_metric(path_graph(4))
        f = VertexMap(line, tuple(min(v, 6 - v) for v in range(6)))
        img = vertex_map_image_distances(f)
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
            img = vertex_map_image_distances(f)
            r = embedding_distortion(g, img)
            assert empirical_average(f, 1) >= r.colip * mean_dist - 1e-9
            assert dirichlet(g, f, 1) <= r.lip + 1e-9
