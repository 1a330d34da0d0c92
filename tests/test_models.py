import itertools
import math
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from nlgap import models
from nlgap.graphs import (GraphError, bfs_distances, canonical_form, cycle_graph,
                          diameter, disjoint_union, graph_from_edges, path_graph,
                          random_regular, relabel)
from nlgap.metrics import uniform_metric
from nlgap.models import (all_perfect_matchings, check_matching_ell,
                          distribution_equality_mc, draw_model,
                          equitable_decomposition, is_invariant_generator,
                          matching_avoidance_bound, matching_avoidance_mc,
                          order_rank_from_permutation, random_perfect_matching,
                          restriction_concentration_mc, seed_map_g, seed_map_h,
                          typical_sets_experiment, typical_vertex_sets)
from nlgap.poincare import VertexMap, empirical_average
from nlgap.rng import derive_rng


# ----------------------------------------------------------------------
# references: the per-trial loops the block-drawn verifiers replaced
# ----------------------------------------------------------------------

def matching_draw_reference(items, gen):
    """random_perfect_matching as it was: the forced last partner is drawn
    too, with gen.integers(0, 1)."""
    pool = sorted(items)
    out = []
    while pool:
        a = pool.pop(0)
        b = pool.pop(int(gen.integers(0, len(pool))))
        out.append((a, b) if a < b else (b, a))
    return out


def matching_reference(ell, y_pairs, c, trials, seed):
    """Empirical frequency of matching_avoidance_mc, one matching at a time."""
    y = {tuple(sorted(p)) for p in y_pairs}
    gen = derive_rng(seed, "matching-mc", ell)
    hits = 0
    for _ in range(trials):
        inter = sum(1 for p in matching_draw_reference(range(ell), gen) if p in y)
        hits += inter <= c * ell / 2.0
    return hits / trials


def restriction_reference(f, eps, k, trials, seed):
    """Frequency of restriction_concentration_mc, one sample at a time."""
    gen = derive_rng(seed, "restriction-mc", k)
    assign = np.asarray(f.assignment)
    cutoff = empirical_average(f, 1.0) / 5.0
    need = (1.0 - 2.0 * float(eps)) * (k * (k - 1) // 2)
    iu = np.triu_indices(k, 1)
    hits = 0
    for _ in range(trials):
        pts = assign[gen.choice(f.n, size=k, replace=False)]
        block = f.target.dist[pts[:, None], pts[None, :]]
        hits += int((block[iu] >= cutoff).sum()) >= need
    return hits / trials


def assign_reference(g, m, seeds_by_priority):
    """Seed assignment with one full BFS per seed."""
    out = [None] * g.n
    for s in seeds_by_priority:
        row = bfs_distances(g, s)
        for v in range(g.n):
            if out[v] is None and row[v] == m:
                out[v] = s
    return out


def philox_state(gen):
    state = gen.bit_generator.state
    return (state["state"]["counter"].tolist(), state["state"]["key"].tolist(),
            state["buffer"].tolist(), state["buffer_pos"], state["has_uint32"],
            state["uinteger"])


def matching_case(ell, seed):
    """Y with at least half of the pairs (so eps = 1/2 is valid), c in
    [0.25, 0.49) and a trial count that is a multiple of neither block size
    in use (7 and 2^13)."""
    pairs = list(itertools.combinations(range(ell), 2))
    gen = derive_rng(seed, "matching-case", ell)
    size = math.ceil(len(pairs) / 2) + int(gen.integers(0, len(pairs) // 8 + 1))
    y = [pairs[i] for i in gen.choice(len(pairs), size=size, replace=False)]
    return y, float(gen.uniform(0.25, 0.49)), 7 * int(gen.integers(40, 200)) + 3


def restriction_case(seed):
    """A map onto a uniform metric with 14-20 points and an eps near the
    expected share of same-point pairs, so that the frequency is interior."""
    gen = derive_rng(seed, "restriction-case")
    points = int(gen.integers(14, 21))
    n = int(gen.integers(3 * points, 8 * points))
    assignment = tuple(int(x) for x in gen.permutation(np.arange(n) % points))
    eps = float(gen.uniform(0.5, 1.5)) / (2 * points)
    k = int(gen.integers(6, 17))
    return VertexMap(uniform_metric(points), assignment), eps, k, 2 * int(gen.integers(100, 300)) + 1


class TestCanonicalRep:
    def test_invariant_under_relabelling(self):
        gen = derive_rng(2, "canon")
        for g in (cycle_graph(6), random_regular(6, 3, seed=5)):
            base = canonical_form(g).edges
            for _ in range(100):
                perm = tuple(int(x) for x in gen.permutation(g.n))
                assert canonical_form(relabel(g, perm)).edges == base


class TestDrawModel:
    def test_full_deletion_empties_the_graph(self):
        d = draw_model(6, 3, 9, seed=1)
        assert d.h_minus.m == 0

    def test_deleted_subset_of_u(self):
        for seed in range(10):
            d = draw_model(6, 3, 2, seed=seed)
            assert set(d.deleted) <= set(d.u.edges)
            assert len(d.deleted) == 2
            assert d.h.m - d.h_minus.m == 2
            assert d.h.regular_degree() == 3

    def test_deterministic(self):
        a, b = draw_model(6, 3, 2, seed=7), draw_model(6, 3, 2, seed=7)
        assert a.h.edges == b.h.edges and a.deleted == b.deleted and a.pi == b.pi

    def test_u_is_canonical(self):
        d = draw_model(6, 3, 1, seed=3)
        assert d.u.edges == canonical_form(d.g).edges
        assert relabel(d.u, d.pi).edges == d.h.edges

    def test_domain(self):
        with pytest.raises(GraphError):
            draw_model(6, 3, 10, seed=0)
        with pytest.raises(GraphError):
            draw_model(5, 3, 1, seed=0)


class TestSeedMapG:
    def test_p5_example(self):
        t = seed_map_g(path_graph(5), m=2, k=1)
        assert t.assignment == (None, None, 0, None, None)

    def test_radius_beyond_diameter(self):
        g = cycle_graph(6)
        t = seed_map_g(g, m=diameter(g) + 1, k=3)
        assert all(s is None for s in t.assignment)

    def test_all_seeds_radius_one(self):
        g = cycle_graph(5)
        t = seed_map_g(g, m=1, k=5)
        for v in range(5):
            assert t.assignment[v] == min(g.adjacency[v])

    def test_distance_invariant(self):
        for seed in range(5):
            g = random_regular(12, 3, seed=seed)
            t = seed_map_g(g, m=2, k=4)
            for v, s in enumerate(t.assignment):
                if s is not None:
                    assert bfs_distances(g, v)[s] == 2


class TestSeedMapH:
    def test_natural_order_matches_g_version(self):
        g = random_regular(10, 3, seed=4)
        k = 4
        tg = seed_map_g(g, m=2, k=k)
        th = seed_map_h(g, m=2, seed_set=range(k), order_rank=range(k))
        assert tg.assignment == th.assignment

    def test_reversed_order_picks_other_candidate(self):
        g = path_graph(5)
        # sphere(2, 2) = {0, 4}; seeds {0, 4}
        natural = seed_map_h(g, 2, [0, 4], [0, 1])
        reversed_ = seed_map_h(g, 2, [0, 4], [1, 0])
        assert natural.assignment[2] == 0
        assert reversed_.assignment[2] == 4

    def test_uniform_order_gives_uniform_choice(self):
        g = cycle_graph(8)
        # sphere(0, 2) = {2, 6}; seeds {2, 6} both at distance 2
        gen = derive_rng(6, "alpha")
        counts = Counter()
        draws = 4000
        for _ in range(draws):
            rank = tuple(int(x) for x in gen.permutation(2))
            t = seed_map_h(g, 2, [2, 6], rank)
            counts[t.assignment[0]] += 1
        chi2 = sum((counts[s] - draws / 2) ** 2 / (draws / 2) for s in (2, 6))
        assert stats.chi2.sf(chi2, df=1) > 0.01

    @pytest.mark.parametrize("m", [0, -1, 7])
    def test_radius_out_of_range_rejected(self, m):
        with pytest.raises(GraphError, match="1 <= m <= n"):
            seed_map_h(cycle_graph(6), m, [0, 3], [0, 1])

    @pytest.mark.parametrize("n,k,m", [(24, 5, 2), (100, 8, 3)])
    def test_seed_consistency_with_permutation(self, n, k, m):
        """The natural-order seed map of the relabelled graph is the
        permutation image of the order-adjusted seed map of the original."""
        for seed in range(10):
            u = random_regular(n, 3, seed=seed)
            gen = derive_rng(seed, "consistency")
            pi = tuple(int(x) for x in gen.permutation(n))
            h = relabel(u, pi)
            inv = sorted(range(n), key=lambda v: pi[v])
            r_set = sorted(inv[:k])
            rank = order_rank_from_permutation(pi, k)
            th = seed_map_g(h, m, k)
            tu = seed_map_h(u, m, r_set, rank)
            for v in range(n):
                lhs = th.assignment[v]
                pre = tu.assignment[inv[v]]
                rhs = None if pre is None else pi[pre]
                assert lhs == rhs


class TestEquitableDecomposition:
    def test_spread_out_set_rebalanced(self):
        g = cycle_graph(12)
        w = [0, 6]  # distance 6 >= 2*1+1: no conflicts
        dec = equitable_decomposition(g, w, m=1)
        assert dec.equitable
        sizes = sorted(len(p) for p in dec.parts)
        assert sum(sizes) == 2

    def test_c12_all_vertices(self):
        g = cycle_graph(12)
        dec = equitable_decomposition(g, range(12), m=1)
        for part in dec.parts:
            for a, b in itertools.combinations(part, 2):
                assert bfs_distances(g, a)[b] >= 3
        assert dec.equitable

    def test_separation_exact_on_random_instances(self):
        gen = derive_rng(11, "dec")
        for trial in range(200):
            g = random_regular(14, 3, seed=trial)
            size = int(gen.integers(2, 12))
            w = sorted(int(x) for x in gen.choice(14, size=size, replace=False))
            m = 1 + trial % 2
            dec = equitable_decomposition(g, w, m=m)
            for part in dec.parts:
                for a, b in itertools.combinations(part, 2):
                    assert bfs_distances(g, a)[b] >= 2 * m + 1

    def test_degree_bound_enforced(self):
        with pytest.raises(GraphError):
            equitable_decomposition(cycle_graph(6), range(6), m=1, d=1)


class TestMatchings:
    def test_enumeration_counts(self):
        assert len(all_perfect_matchings(4)) == 3
        assert len(all_perfect_matchings(6)) == 15

    def test_sampler_uniform_small(self):
        gen = derive_rng(8, "match")
        counts = Counter()
        draws = 30000
        for _ in range(draws):
            counts[tuple(sorted(random_perfect_matching(range(4), gen)))] += 1
        for mu in all_perfect_matchings(4):
            assert abs(counts[mu] / draws - 1 / 3) < 0.01

    def test_avoidance_impossible_event(self):
        pairs = [p for p in itertools.combinations(range(4), 2) if p != (1, 2)]
        r = matching_avoidance_mc(4, pairs, c=0.4, trials=2000, seed=5, eps=0.4)
        assert r.empirical == 0.0

    def test_empirical_below_bound_when_informative(self):
        pairs = list(itertools.combinations(range(20), 2))
        gen = derive_rng(3, "drop")
        drop = set(int(x) for x in gen.choice(len(pairs), size=38, replace=False))
        y = [p for i, p in enumerate(pairs) if i not in drop]
        r = matching_avoidance_mc(20, y, c=0.1, trials=5000, seed=2, eps=0.2)
        if r.analytic_bound <= 1.0:
            assert r.empirical <= r.analytic_bound + 3 * math.sqrt(
                r.analytic_bound * (1 - r.analytic_bound) / r.trials)
        assert 0.0 <= r.empirical <= 1.0

    def test_parity_rejected(self):
        with pytest.raises(GraphError):
            matching_avoidance_mc(5, [], c=0.1, trials=10, seed=0, eps=0.2)

    def test_pair_table_budget(self):
        check_matching_ell(2048)  # the largest ell whose table fits
        with pytest.raises(GraphError, match="byte budget"):
            check_matching_ell(2050)
        with pytest.raises(GraphError, match="byte budget"):
            matching_avoidance_mc(2050, [], c=0.1, trials=10, seed=0, eps=0.2)

    def test_bound_formula(self):
        val = matching_avoidance_bound(20, 0.2, 0.1)
        expected = math.exp(-(0.8 / 4) * math.log(0.8 / (16 * math.e * 0.2)) * 20)
        assert val == pytest.approx(expected)


class TestRestrictionMC:
    def test_constant_map_frequency_one(self):
        f = VertexMap(uniform_metric(2), (0,) * 50)
        r = restriction_concentration_mc(f, eps=1 / 31, k=10, trials=200, seed=1)
        assert r.frequency == 1.0

    def test_uniform_image_many_points(self):
        m = uniform_metric(40)
        f = VertexMap(m, tuple(v % 40 for v in range(400)))
        r = restriction_concentration_mc(f, eps=1 / 31, k=62, trials=300, seed=2)
        assert r.hypothesis_met
        assert r.frequency >= max(r.bound, 0.0)

    def test_deterministic(self):
        m = uniform_metric(40)
        f = VertexMap(m, tuple(v % 40 for v in range(200)))
        a = restriction_concentration_mc(f, eps=1 / 31, k=62, trials=100, seed=9)
        b = restriction_concentration_mc(f, eps=1 / 31, k=62, trials=100, seed=9)
        assert a.frequency == b.frequency

    def test_hypothesis_flag(self):
        f = VertexMap(uniform_metric(2), (0, 1) * 50)  # quantile 0, not concentrated
        r = restriction_concentration_mc(f, eps=1 / 31, k=62, trials=50, seed=3)
        assert not r.hypothesis_met


class TestTypicalVertexSets:
    def test_zero_deletion_makes_v_empty(self):
        d = draw_model(6, 3, 0, seed=2)
        v, vp, vpp = typical_vertex_sets(d, m=1, seed_set=range(3),
                                         order_rank=range(3), j_pairs=())
        assert v == set() and vp == set() and vpp == set()

    def test_all_pairs_in_j_empties_v_prime(self):
        d = draw_model(8, 3, 3, seed=4)
        all_pairs = list(itertools.combinations(range(8), 2))
        v, vp, vpp = typical_vertex_sets(d, m=1, seed_set=range(4),
                                         order_rank=range(4), j_pairs=all_pairs)
        assert vp == set()
        assert vp <= v and vpp <= v

    def test_membership_conditions(self):
        d = draw_model(8, 3, 3, seed=6)
        u_minus = d.u_minus()
        v, vp, vpp = typical_vertex_sets(d, m=2, seed_set=range(4),
                                         order_rank=range(4), j_pairs=())
        table = seed_map_h(u_minus, 2, range(4), range(4))
        for x in v:
            assert u_minus.degree(x) == 2
            assert table.assignment[x] is not None

    def test_experiment_runs(self):
        rows = typical_sets_experiment(n=120, d=3, big_k=6.0, m=3, trials=3, seed=5)
        assert len(rows) == 3
        for row in rows:
            assert 0 <= row.v_prime_size <= row.v_size
            assert 0 <= row.v_dprime_size <= row.v_size


class TestInvariance:
    def test_distance_pairs_generator_is_invariant(self):
        u = random_regular(8, 3, seed=1)

        def gen_pairs(base, pi):
            h = relabel(base, pi)
            return {(a, b) for a in range(8) for b in range(a + 1, 8)
                    if bfs_distances(h, a)[b] == 2}

        assert is_invariant_generator(gen_pairs, u, seed=3)

    def test_fixed_pairs_generator_is_not(self):
        u = random_regular(8, 3, seed=1)
        assert not is_invariant_generator(lambda base, pi: {(0, 1)}, u, seed=3)


class TestDistributionEquality:
    def test_cells_are_the_labelled_scan(self, labelled_regular):
        # every (labelled graph, deleted edges) cell, in the order the
        # chi-square sums them: the graphs in combinations order of their
        # edge subsets, then the deletions in combinations order of their edges
        assert len(labelled_regular(6, 3)) == 70
        for n in range(1, 7):
            for d in range(n):
                if n * d % 2:
                    continue
                top = n * (n - 1) // 2
                m = n * d // 2
                for ell in sorted({0, min(2, m), m}):
                    want = [key << top | sum(gone)
                            for key in labelled_regular(n, d)
                            for gone in itertools.combinations(
                                [1 << i for i in reversed(range(top)) if key >> i & 1], ell)]
                    assert models._dist_eq_law(n, d, ell)[2] == want

    @pytest.mark.parametrize("n, d, ell", [(4, 3, 6), (2, 1, 0), (2, 1, 1)])
    def test_one_cell_law_fits_exactly(self, n, d, ell):
        r = distribution_equality_mc(n, d, ell, trials=2000, seed=0)
        assert (r.cells, r.chi2, r.p_value) == (1, 0.0, 1.0)

    def test_staged_sampler_matches_direct_law(self):
        r = distribution_equality_mc(6, 3, 1, trials=40000, seed=12)
        assert r.cells == 630
        assert r.p_value > 0.001
        # bit for bit: the draws, the cell order and the chi2 summation order fix these
        assert r.chi2 == 651.0334999999998
        assert r.p_value == 0.26341542340173324

    def test_two_deletions_pinned(self):
        r = distribution_equality_mc(6, 3, 2, trials=20000, seed=5)
        assert r.cells == 2520
        assert r.chi2 == 2671.1800000000276

    @pytest.mark.parametrize("ell", [-1, 10])
    def test_deletions_out_of_range(self, ell):
        with pytest.raises(GraphError, match="ell"):
            distribution_equality_mc(6, 3, ell, trials=10, seed=0)


class TestTrialCount:
    def test_matchings(self):
        with pytest.raises(ValueError, match="trials"):
            matching_avoidance_mc(8, itertools.combinations(range(8), 2), c=0.1,
                                  trials=0, seed=0, eps=0.2)

    def test_restriction(self):
        f = VertexMap(uniform_metric(2), (0, 1) * 5)
        with pytest.raises(ValueError, match="trials"):
            restriction_concentration_mc(f, eps=1 / 31, k=4, trials=0, seed=0)

    def test_dist_eq(self):
        with pytest.raises(ValueError, match="trials"):
            distribution_equality_mc(6, 3, 1, trials=0, seed=0)

    def test_typical(self):
        with pytest.raises(ValueError, match="trials"):
            typical_sets_experiment(n=120, d=3, big_k=6.0, m=3, trials=0, seed=0)


class TestBlockDrawnAgainstReference:
    """The block-drawn verifiers give the old loops' results on the same
    random streams."""

    def test_perfect_matching_keeps_the_stream(self):
        for ell in (2, 4, 6, 20):
            fast, ref = derive_rng(ell, "state"), derive_rng(ell, "state")
            for _ in range(50):
                assert (random_perfect_matching(range(ell), fast)
                        == matching_draw_reference(range(ell), ref))
            assert philox_state(fast) == philox_state(ref)

    def test_matching_frequencies(self):
        interior = 0
        for ell in (4, 8, 20, 32):
            for seed in range(7):
                y, c, trials = matching_case(ell, seed)
                r = matching_avoidance_mc(ell, y, c=c, trials=trials, seed=seed, eps=0.5)
                assert r.empirical == matching_reference(ell, y, c, trials, seed)
                interior += 0 < r.empirical < 1
        assert interior >= 20

    def test_matching_across_default_blocks(self):
        trials = 2 * models._MC_BLOCK + 101
        y, c, _ = matching_case(8, 1)
        r = matching_avoidance_mc(8, y, c=c, trials=trials, seed=3, eps=0.5)
        assert 0 < r.empirical < 1
        assert r.empirical == matching_reference(8, y, c, trials, 3)

    def test_matching_with_tiny_blocks(self, monkeypatch):
        monkeypatch.setattr(models, "_MC_BLOCK", 7)
        for ell in (4, 8, 20):
            for seed in range(2):
                y, c, trials = matching_case(ell, seed)
                r = matching_avoidance_mc(ell, y, c=c, trials=trials, seed=seed, eps=0.5)
                assert r.empirical == matching_reference(ell, y, c, trials, seed)

    def test_restriction_frequencies(self):
        interior = 0
        for seed in range(24):
            f, eps, k, trials = restriction_case(seed)
            r = restriction_concentration_mc(f, eps=eps, k=k, trials=trials, seed=seed)
            assert r.frequency == restriction_reference(f, eps, k, trials, seed)
            interior += 0 < r.frequency < 1
        assert interior >= 20

    def test_restriction_with_small_blocks(self, monkeypatch):
        # 200 pairs per block: from 1 sample (k = 16) to 13 samples (k = 6)
        monkeypatch.setattr(models, "_RESTRICTION_PAIRS", 200)
        for seed in range(6):
            f, eps, k, trials = restriction_case(seed)
            r = restriction_concentration_mc(f, eps=eps, k=k, trials=trials, seed=seed)
            assert r.frequency == restriction_reference(f, eps, k, trials, seed)

    def test_integer_thresholds(self):
        """Thresholds a count can equal exactly, where <= and < part ways."""
        for ell, c in ((4, 0.5), (8, 0.25), (20, 0.4), (32, 0.375)):
            y, _, trials = matching_case(ell, 0)
            # a perfect matching inside Y exceeds every threshold here, so the
            # frequency is below 1 whatever the drawn pairs (at ell = 4 three
            # pairs can hold none: a star at one vertex meets each matching once)
            y = set(y) | {(i, i + 1) for i in range(0, ell, 2)}
            r = matching_avoidance_mc(ell, y, c=c, trials=trials, seed=0, eps=0.5)
            assert 0 < r.empirical < 1
            assert r.empirical == matching_reference(ell, y, c, trials, 0)
        for points in (14, 16):
            f = VertexMap(uniform_metric(points), tuple(v % points for v in range(6 * points)))
            # at least (1 - 1/16) * C(32, 2) = 465 pairs must stay far
            r = restriction_concentration_mc(f, eps=1 / 32, k=32, trials=301, seed=points)
            assert 0 < r.frequency < 1
            assert r.frequency == restriction_reference(f, 1 / 32, 32, 301, points)

    def test_seed_assignment(self):
        graphs = [random_regular(14, 3, seed=s) for s in range(3)]
        graphs += [disjoint_union(random_regular(8, 3, seed=s), cycle_graph(5)) for s in range(2)]
        graphs += [graph_from_edges(9, [(0, 1), (1, 2), (4, 5)]), path_graph(7)]
        gen = derive_rng(5, "assign")
        for g in graphs:
            for m in range(g.n + 2):
                k = int(gen.integers(1, g.n + 1))
                order = [int(x) for x in gen.choice(g.n, size=k, replace=False)]
                assert models._assign_by_priority(g, m, order) == assign_reference(g, m, order)


class TestVerifierDomains:
    def test_matching_bound_at_c_one_half(self):
        assert matching_avoidance_bound(20, 0.5, 0.5) == 1.0
        assert matching_avoidance_bound(20, 0.5, 0.5 - 1e-12) == pytest.approx(1.0)
        pairs = list(itertools.combinations(range(8), 2))
        r = matching_avoidance_mc(8, pairs[:14], c=0.5, trials=100, seed=1, eps=0.5)
        assert r.analytic_bound == 1.0

    @pytest.mark.parametrize("eps", [0, -0.1, math.nan, math.inf, 1e-320])
    def test_restriction_eps(self, eps):
        f = VertexMap(uniform_metric(2), (0, 1) * 5)
        with pytest.raises(GraphError, match="eps"):
            restriction_concentration_mc(f, eps=eps, k=4, trials=10, seed=0)

    @pytest.mark.parametrize("kwargs,name", [
        (dict(m=0), "m"), (dict(m=-2), "m"), (dict(d=1), "d"), (dict(d=0), "d"),
        (dict(big_k=0.0), "big_k"), (dict(big_k=-3.0), "big_k"),
        (dict(big_k=math.nan), "big_k"), (dict(big_k=math.inf), "big_k"),
        (dict(big_k=1e-320, m=1), "big_k"), (dict(big_k=1e308), "big_k"),
        (dict(m=100_000), "m"), (dict(d=4, m=647), "m"),
    ])
    def test_typical_parameters(self, kwargs, name):
        args = dict(n=120, d=3, big_k=6.0, m=3, trials=1, seed=0) | kwargs
        with pytest.raises(GraphError, match=rf"\b{name}="):
            typical_sets_experiment(**args)
