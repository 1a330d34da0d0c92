import itertools
import math
from collections import Counter

import pytest
from scipy import stats

from nlgap.graphs import (GraphError, bfs_distances, canonical_form, cycle_graph,
                          diameter, path_graph, random_regular, relabel)
from nlgap.metrics import uniform_metric
from nlgap.models import (all_perfect_matchings, distribution_equality_mc, draw_model,
                          enumerate_labeled_regular_masks,
                          equitable_decomposition, is_invariant_generator,
                          matching_avoidance_bound, matching_avoidance_mc,
                          order_rank_from_permutation, random_perfect_matching,
                          restriction_concentration_mc, seed_map_g, seed_map_h,
                          typical_sets_experiment, typical_vertex_sets)
from nlgap.poincare import VertexMap
from nlgap.rng import derive_rng


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
    def test_labeled_enumeration_count(self):
        assert len(enumerate_labeled_regular_masks(6, 3)) == 70

    def test_staged_sampler_matches_direct_law(self):
        r = distribution_equality_mc(6, 3, 1, trials=40000, seed=12)
        assert r.cells == 630
        assert r.p_value > 0.001
        # bit for bit: the draws, the cell order and the chi2 summation order fix these
        assert r.chi2 == 626.7784999999993
        assert r.p_value == 0.5175096114525949

    def test_two_deletions_pinned(self):
        r = distribution_equality_mc(6, 3, 2, trials=20000, seed=5)
        assert r.cells == 2520
        assert r.chi2 == 2536.8640000000346

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
