import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlgap.graphs import cycle_graph, path_graph
from nlgap.metrics import (_SUP_BLOCK, MetricError, aspect_ratio, cost_matrix, linf_grid,
                           random_euclidean_metric, snowflake, sup_distance_blocks,
                           uniform_metric, validate, well_conditioned_reduction)
from oracles import lift_assignment, path_metric


class TestValidate:
    def test_two_points(self):
        m = validate([[0, 1], [1, 0]])
        assert m.size == 2

    def test_triangle_violation_named(self):
        with pytest.raises(MetricError,
                           match=r"^dist\[0,2\] = 3\.0 > dist\[0,1\] \+ dist\[1,2\] = 2\.0$"):
            validate([[0, 1, 3], [1, 0, 1], [3, 1, 0]])

    def test_asymmetry_named(self):
        with pytest.raises(MetricError, match=r"^dist\[0,1\] != dist\[1,0\]$"):
            validate([[0, 1], [2, 0]])

    def test_zero_off_diagonal_named(self):
        with pytest.raises(MetricError, match=r"^dist\[0,1\] = 0 for i != j$"):
            validate([[0, 0], [0, 0]])

    def test_negative_named(self):
        with pytest.raises(MetricError, match=r"^dist\[0,1\] = -1\.0 < 0$"):
            validate([[0, -1], [-1, 0]])

    @pytest.mark.parametrize("x", [math.inf, math.nan])
    def test_non_finite_named(self, x):
        # inf once reached the triangle check, whose inf - inf warned
        with pytest.raises(MetricError, match=rf"^dist\[0,1\] = {x} is not finite$"):
            validate([[0, x], [x, 0]])

    def test_path_metrics_are_valid(self, corpus):
        for name, g in corpus.items():
            path_metric(g)  # validates internally


class TestSnowflake:
    def test_square_root(self):
        m = validate([[0, 4], [4, 0]])
        assert snowflake(m, 0.5).dist[0, 1] == pytest.approx(2.0)

    def test_tiny_eps_is_identity(self):
        m = random_euclidean_metric(5, seed=3)
        out = snowflake(m, 1e-9)
        assert np.abs(out.dist - m.dist).max() < 1e-6

    def test_uniform_unchanged(self):
        m = uniform_metric(4)
        assert (snowflake(m, 0.3).dist == m.dist).all()

    def test_eps_out_of_range(self):
        with pytest.raises(MetricError):
            snowflake(uniform_metric(3), 1.0)

    @given(st.integers(0, 10 ** 6), st.floats(0.01, 0.99))
    @settings(max_examples=200, deadline=None)
    def test_always_validates(self, seed, eps):
        m = random_euclidean_metric(5, seed=seed)
        snowflake(m, eps)  # raises on any axiom failure

    @given(st.integers(2, 12), st.integers(0, 10 ** 6), st.integers(1, 4),
           st.floats(0.01, 0.99), st.floats(0.5, 8.0))
    @settings(max_examples=100, deadline=None)
    def test_costs_equal_costs_at_the_reduced_exponent(self, n, seed, dim, eps, q):
        """(rho^(1-eps))^q = rho^((1-eps) q), up to rounding."""
        m = random_euclidean_metric(n, seed=seed, dim=dim)
        np.testing.assert_allclose(cost_matrix(snowflake(m, eps), q),
                                   cost_matrix(m, (1 - eps) * q), rtol=1e-12, atol=0)


class TestAspectRatio:
    def test_three_collinear_points(self):
        m = validate([[0, 1, 3], [1, 0, 2], [3, 2, 0]])
        assert aspect_ratio(m) == pytest.approx(3.0)
        assert aspect_ratio(m) <= math.exp(m.size)

    def test_two_point_spaces_always_well_conditioned(self):
        # one positive distance, so the aspect ratio is 1 <= e^2
        m = validate([[0, math.exp(3)], [math.exp(3), 0]])
        assert aspect_ratio(m) == 1.0
        assert aspect_ratio(m) <= math.exp(m.size)

    def test_threshold_is_exp_of_size(self):
        # aspect ratio e^4 > e^3 fails the bound at N=3
        big = math.exp(4)
        m = validate([[0, 1, big], [1, 0, big], [big, big, 0]])
        assert aspect_ratio(m) == pytest.approx(big)
        assert aspect_ratio(m) > math.exp(m.size)

    def test_graph_metrics_well_conditioned(self, corpus):
        for g in corpus.values():
            m = path_metric(g)
            assert aspect_ratio(m) <= math.exp(m.size)


class TestGridAndUniform:
    def test_grid_line(self):
        m = linf_grid(1, 1)
        assert m.size == 3
        points = list(itertools.product(range(-1, 2), repeat=1))
        i, j = points.index((-1,)), points.index((1,))
        assert m.dist[i, j] == 2

    def test_grid_sup_norm(self):
        m = linf_grid(2, 2)
        points = list(itertools.product(range(-2, 3), repeat=2))
        i, j = points.index((0, 0)), points.index((1, 2))
        assert m.dist[i, j] == 2

    def test_grid_nine_points(self):
        m = linf_grid(1, 2)
        assert m.size == 9
        assert m.diam() == 2

    def test_grid_cap(self):
        # 33^2 = 1089 is the smallest point count of a plane grid above the cap
        with pytest.raises(MetricError, match="1089 exceeds cap 1000"):
            linf_grid(16, 2)
        with pytest.raises(MetricError, match="exceeds cap 1000"):
            linf_grid(10, 10)

    def test_grid_default_cap(self):
        # 3^7 = 2187 points: the smallest k = 1 grid above the cap
        with pytest.raises(MetricError, match="2187 exceeds cap 1000"):
            linf_grid(1, 7)

    @pytest.mark.parametrize("build, fragment", [
        (lambda: linf_grid(0, 10 ** 9), "need k >= 1 and s >= 1"),
        (lambda: uniform_metric(1), "uniform metric needs N >= 2"),
        (lambda: random_euclidean_metric(0, seed=0), "random metric needs N >= 1"),
    ])
    def test_degenerate_size_refused(self, build, fragment):
        with pytest.raises(MetricError, match=fragment):
            build()

    @pytest.mark.parametrize("build, fragment", [
        (lambda: uniform_metric(1001), "N = 1001 points needing 8016008 bytes"),
        (lambda: random_euclidean_metric(1001, seed=0), "N = 1001 points needing 16032016 bytes"),
        (lambda: random_euclidean_metric(10, seed=0, dim=10 ** 8),
         "N = 10 points needing 80000000000 bytes"),
    ])
    def test_point_cap_refused_before_allocation(self, build, fragment):
        with pytest.raises(MetricError, match=f"{fragment} exceeds cap 1000 points"):
            build()

    def test_uniform(self):
        m = uniform_metric(3)
        assert (m.dist[~np.eye(3, dtype=bool)] == 1).all()

    # uniform_metric and linf_grid skip validate's triangle pass; it stays their oracle
    @pytest.mark.parametrize("n_points", [2, 3, 4, 7, 16, 65, 200])
    def test_uniform_validates(self, n_points):
        m = uniform_metric(n_points)
        assert m.dist.dtype == np.float64 and not m.dist.flags.writeable
        assert np.array_equal(validate(m.dist).dist, m.dist)

    @pytest.mark.parametrize("k, s", [(1, 1), (5, 1), (1, 2), (2, 2), (7, 2), (1, 3),
                                      (2, 3), (3, 3), (1, 4), (1, 5)])
    def test_grid_validates(self, k, s):
        m = linf_grid(k, s)
        assert m.dist.dtype == np.float64 and not m.dist.flags.writeable
        assert np.array_equal(validate(m.dist).dist, m.dist)

    def test_path_metric_c4(self):
        assert path_metric(cycle_graph(4)).diam() == 2

    def test_path_metric_p3(self):
        m = path_metric(path_graph(3))
        assert aspect_ratio(m) == pytest.approx(2.0)
        assert aspect_ratio(m) <= math.exp(m.size)


class TestSupDistanceBlocks:
    """The stacked row blocks equal the dense sup-norm formula."""

    @pytest.mark.parametrize("n,width,dtype,rows", [
        (3, (_SUP_BLOCK // 3) + 1, np.int8, 1),              # one row exceeds the block
        (2100, 1, np.int16, _SUP_BLOCK // 2100),             # many rows per block
        (5, 0, np.int16, _SUP_BLOCK),                        # no coordinates at all
    ])
    def test_blocks_match_dense(self, n, width, dtype, rows):
        gen = np.random.Generator(np.random.Philox(n))
        c = gen.integers(-50, 51, size=(n, width)).astype(dtype)
        blocks = list(sup_distance_blocks(c))
        assert [len(b) for b in blocks] == [min(rows, n - a) for a in range(0, n, rows)]
        dense = np.abs(c[:, None, :] - c[None, :, :]).max(axis=2, initial=0)
        assert np.array_equal(np.concatenate(blocks), dense)
        if width == 0:
            assert not dense.any()

    @pytest.mark.parametrize("n,width,lo,hi", [
        (1024, 96, -5, 5),      # the witness shape: coordinate-major
        (100, 2336, 0, 100),    # the distance-to-set shape: point-major
        (300, 40, -64, 63),     # differences of 127, the largest int8
    ])
    def test_int8_blocks_match_dense(self, n, width, lo, hi):
        gen = np.random.Generator(np.random.Philox(width))
        c = gen.integers(lo, hi + 1, size=(n, width), dtype=np.int8)
        c[:2, 0] = lo, hi
        rows = max(1, _SUP_BLOCK // (n * width))
        a = 0
        for block in sup_distance_blocks(c):
            assert block.dtype == np.int8 and len(block) == min(rows, n - a)
            # the dense formula, in int16 so that no difference wraps
            dense = np.abs(c[a:a + rows, None, :].astype(np.int16) - c[None, :, :]).max(axis=2)
            assert np.array_equal(block, dense)
            if a == 0:
                assert block[0, 1] == hi - lo
            a += len(block)
        assert a == n

    def test_traced_peak_is_one_difference_block(self):
        # the witness shape: n=1024 points, 96 int16 coordinates
        n, width = 1024, 96
        c = np.random.Generator(np.random.Philox(1)).integers(-9, 10, size=(n, width),
                                                              dtype=np.int16)
        rows = _SUP_BLOCK // (n * width)
        block_bytes = rows * n * width * c.itemsize
        tracemalloc.start()
        try:
            for _ in sup_distance_blocks(c):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * block_bytes


class TestCostMatrix:
    def test_power_monotone_below_one(self):
        m = random_euclidean_metric(5, seed=2)
        scaled = validate(m.dist / m.dist.max())
        for p, q in [(1, 2), (1.5, 3), (2, 2.5)]:
            cp = cost_matrix(scaled, p)
            cq = cost_matrix(scaled, q)
            assert (cq <= cp + 1e-12).all()

    @pytest.mark.parametrize("distance", [1e10, 1e-10])
    def test_overflow_and_underflow_refused(self, distance):
        m = validate([[0, distance], [distance, 0]])
        assert cost_matrix(m, 20)[0, 1] == distance ** 20
        with pytest.raises(MetricError, match="q = 40 "):
            cost_matrix(m, 40)

    def test_subnormal_cost_kept(self):
        m = validate([[0, 1e-10], [1e-10, 0]])
        assert 0 < cost_matrix(m, 31)[0, 1] < 1e-300


class TestReduction:
    def test_within_cluster_formula(self):
        m = uniform_metric(2)
        red = well_conditioned_reduction(m, 2)
        assert red.metric.dist[0, 1] == pytest.approx(min(4, 1 + 0.25))

    def test_cross_cluster_distance(self):
        m = validate([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        red = well_conditioned_reduction(m, 3)
        # two scales, 1 and 2, of three points each
        assert red.metric.size == 6
        assert red.metric.dist[0, 3] == 9.0

    def test_single_scale_two_points(self):
        red = well_conditioned_reduction(uniform_metric(2), 2)
        assert red.metric.size == 2
        assert aspect_ratio(red.metric) <= 16

    def test_size_and_aspect_bounds(self):
        for seed in range(8):
            m = random_euclidean_metric(2 + seed % 3, seed=seed)
            n = 2 + seed % 4
            red = well_conditioned_reduction(m, n)
            big_n = m.size
            assert big_n <= red.metric.size <= big_n ** 3
            assert red.metric.diam() <= n * n + 1e-12
            assert red.metric.min_distance() >= 1 / (n * n) - 1e-12
            assert aspect_ratio(red.metric) <= n ** 4 + 1e-9

    def test_refused_before_allocation(self):
        # 50 points with 1225 distinct distances: 61250^2 float64 entries, 28 GiB
        m = random_euclidean_metric(50, seed=1)
        with pytest.raises(MetricError, match="N = 61250 points needing 30012500000 bytes "
                                              "exceeds cap"):
            well_conditioned_reduction(m, 10)

    def test_lift_lands_in_max_scale_cluster(self):
        m = validate([[0, 1, 3], [1, 0, 2], [3, 2, 0]])
        lifted = lift_assignment((0, 1, 2, 0), m)
        cluster = 2  # the scales are 1 < 2 < 3
        assert all(cluster * 3 <= x < (cluster + 1) * 3 for x in lifted)

    def test_lift_two_point_image(self):
        m = validate([[0, 5, 7], [5, 0, 4], [7, 4, 0]])
        lifted = lift_assignment((0, 1, 0), m)
        cluster = 1  # the scales are 4 < 5 < 7
        assert lifted == [cluster * 3, cluster * 3 + 1, cluster * 3]


class TestLiftRatioComparison:
    def test_factor_two_map_inequality_exhaustive(self):
        """Every non-constant map of a small connected graph satisfies the
        per-map two-sided comparison after lifting: the edge-to-pair cost
        ratio at most doubles."""
        from nlgap.graphs import graph_from_edges
        graphs = [path_graph(3), cycle_graph(4), cycle_graph(5),
                  graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 2)])]
        metrics = [uniform_metric(2), uniform_metric(3),
                   random_euclidean_metric(3, seed=11)]
        for g in graphs:
            gd_pairs = None
            for m in metrics:
                red = well_conditioned_reduction(m, g.n)
                for assign in itertools.product(range(m.size), repeat=g.n):
                    if len(set(assign)) <= 1:
                        continue
                    lifted = lift_assignment(assign, m)
                    base_edges = sum(m.dist[assign[u], assign[v]] for u, v in g.edges)
                    base_pairs = sum(m.dist[assign[u], assign[v]]
                                     for u in range(g.n) for v in range(g.n))
                    red_edges = sum(red.metric.dist[lifted[u], lifted[v]] for u, v in g.edges)
                    red_pairs = sum(red.metric.dist[lifted[u], lifted[v]]
                                    for u in range(g.n) for v in range(g.n))
                    assert red_edges / red_pairs <= 2 * base_edges / base_pairs + 1e-12
