import itertools
import math
import signal
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy import special, stats

from nlgap import graphs, models
from nlgap.graphs import (GraphError, bfs_distances, canonical_form, cycle_graph,
                          graph_from_edges, path_graph, random_regular)
from nlgap.metrics import random_euclidean_metric, uniform_metric
from nlgap.models import (check_matching_ell, distribution_equality_mc, draw_model,
                          matching_avoidance_bound, matching_avoidance_mc,
                          random_perfect_matching, restriction_concentration_mc, seed_map_h,
                          typical_sets_experiment, typical_vertex_sets)
from nlgap.poincare import VertexMap, empirical_average
from nlgap.rng import derive_rng
from oracles import (all_perfect_matchings, diameter, disjoint_union, matching_avoidance_law,
                     relabel)


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


def restriction_reference(f, subset):
    """The far pairs of a sample of the domain, scored pair by pair: those
    whose image distance is at least ave/5."""
    pts = np.asarray(f.assignment)[list(subset)]
    block = f.target.dist[pts[:, None], pts[None, :]]
    return int((block[np.triu_indices(len(pts), 1)] >= empirical_average(f, 1.0) / 5.0).sum())


def restriction_law(f, eps, k):
    """The exact frequency of restriction_concentration_mc over all C(n, k)
    subsets, and how many subsets sit exactly on the threshold."""
    need = (1 - 2 * Fraction(eps)) * math.comb(k, 2)
    far = [restriction_reference(f, s) for s in itertools.combinations(range(f.n), k)]
    return Fraction(sum(x >= need for x in far), len(far)), far.count(need)


def dist_eq_reference(n, d, ell, trials, seed):
    """distribution_equality_mc's chi2 with every trial kept: all sampled
    graph keys, then each stage's draws in one call, counted by np.unique."""
    law = models._dist_eq_law(n, d, ell)
    pid, weights = graphs._pairs(n)[1], graphs._pair_weights(n)
    gen = derive_rng(seed, "dist-eq", n, d, ell)
    keys = np.concatenate([weights[pid[lo, hi]].sum(axis=1)
                           for lo, hi in graphs._simple_pairings(n, d, trials, gen)])
    perm = derive_rng(seed, "dist-eq-pi", n, d, ell).integers(0, math.factorial(n), size=trials)
    combo = derive_rng(seed, "dist-eq-del", n, d, ell).integers(
        0, math.comb(n * d // 2, ell), size=trials)
    ids, freq = np.unique(law.cell_ids(keys, perm, combo), return_counts=True)
    counts = dict(zip(ids.tolist(), freq.tolist()))
    expected = trials / len(law.cells)
    return sum((counts.get(i, 0) - expected) ** 2 / expected for i in range(len(law.cells)))


def odd_factorial(m):
    """(2m - 1)!!, the number of perfect matchings of 2m points."""
    return math.factorial(2 * m) // (2 ** m * math.factorial(m))


def matchings_sharing(ell, j):
    """The perfect matchings of [ell] sharing exactly j pairs with a fixed
    one, M0: C(ell/2, j) D(ell/2 - j), where D(m), the matchings of 2m
    points avoiding a fixed one, is sum_i (-1)^i C(m, i) (2m - 2i - 1)!! by
    inclusion and exclusion."""
    m = ell // 2 - j
    avoiding = sum((-1) ** i * math.comb(m, i) * odd_factorial(m - i) for i in range(m + 1))
    return math.comb(ell // 2, j) * avoiding


def assign_reference(g, m, seeds_by_priority):
    """Seed assignment with one full BFS per seed, in true distances:
    bfs_distances gives an unreachable vertex the value n, which is no
    distance."""
    out = [None] * g.n
    for s in seeds_by_priority:
        row = bfs_distances(g, s)
        for v in range(g.n):
            if out[v] is None and row[v] == m < g.n:
                out[v] = s
    return out


def matching_case(ell, seed):
    """Y with at least half of the pairs (so eps = 1/2 is valid), c in
    [0.25, 0.49) and a trial count that is no multiple of 7 matchings, the
    tiny block size in use."""
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


_INVARIANCE_SAMPLES = 20


def is_invariant_generator(generator, u, seed):
    """Check L(U, pi) = pi(L(U, id)) on _INVARIANCE_SAMPLES sampled permutations.

    generator(u, pi) must return a set of vertex pairs; pi is a tuple with
    pi[v] the new label of v.
    """
    identity = tuple(range(u.n))
    base = {tuple(sorted(p)) for p in generator(u, identity)}
    gen = derive_rng(seed, "invariance")
    for _ in range(_INVARIANCE_SAMPLES):
        pi = tuple(int(x) for x in gen.permutation(u.n))
        lhs = {tuple(sorted(p)) for p in generator(u, pi)}
        rhs = {tuple(sorted((pi[a], pi[b]))) for a, b in base}
        if lhs != rhs:
            return False
    return True


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
        _, g_minus = draw_model(6, 3, 9, seed=1)
        assert g_minus.m == 0

    def test_deletes_ell_edges_of_g(self):
        for seed in range(10):
            g, g_minus = draw_model(6, 3, 2, seed=seed)
            assert g.regular_degree() == 3
            assert set(g_minus.edges) < set(g.edges)
            assert g.m - g_minus.m == 2

    def test_deterministic(self):
        a, b = draw_model(6, 3, 2, seed=7), draw_model(6, 3, 2, seed=7)
        assert a == b

    def test_domain(self):
        with pytest.raises(GraphError):
            draw_model(6, 3, 10, seed=0)
        with pytest.raises(GraphError):
            draw_model(5, 3, 1, seed=0)


class TestSeedMapG:
    """The natural order: seed_map_h on the seeds [k] in increasing order."""

    def test_p5_example(self):
        t = seed_map_h(path_graph(5), 2, range(1))
        assert t == (None, None, 0, None, None)

    def test_radius_beyond_diameter(self):
        g = cycle_graph(6)
        t = seed_map_h(g, diameter(g) + 1, range(3))
        assert all(s is None for s in t)

    def test_unreachable_vertices_get_no_seed(self):
        # at m = n the vertices 2 and 3, which seed 0 cannot reach, are at no
        # distance from it
        assert seed_map_h(graph_from_edges(4, [(0, 1)]), 4, [0]) == (None,) * 4

    def test_all_seeds_radius_one(self):
        g = cycle_graph(5)
        t = seed_map_h(g, 1, range(5))
        for v in range(5):
            assert t[v] == min(g.adjacency[v])

    def test_distance_invariant(self):
        for seed in range(5):
            g = random_regular(12, 3, seed=seed)
            t = seed_map_h(g, 2, range(4))
            for v, s in enumerate(t):
                if s is not None:
                    assert bfs_distances(g, v)[s] == 2


class TestSeedMapH:
    def test_natural_order_matches_reference(self):
        g = random_regular(10, 3, seed=4)
        k = 4
        th = seed_map_h(g, m=2, seeds=range(k))
        assert th == tuple(assign_reference(g, 2, range(k)))

    def test_reversed_order_picks_other_candidate(self):
        g = path_graph(5)
        # sphere(2, 2) = {0, 4}; seeds {0, 4}
        natural = seed_map_h(g, 2, [0, 4])
        reversed_ = seed_map_h(g, 2, [4, 0])
        assert natural[2] == 0
        assert reversed_[2] == 4

    def test_uniform_order_gives_uniform_choice(self):
        g = cycle_graph(8)
        # sphere(0, 2) = {2, 6}; seeds {2, 6} both at distance 2
        gen = derive_rng(6, "alpha")
        counts = Counter()
        draws = 4000
        for _ in range(draws):
            t = seed_map_h(g, 2, np.array([2, 6])[gen.permutation(2)])
            counts[t[0]] += 1
        chi2 = sum((counts[s] - draws / 2) ** 2 / (draws / 2) for s in (2, 6))
        assert stats.chi2.sf(chi2, df=1) > 0.01

    @pytest.mark.parametrize("m", [0, -1, 7])
    def test_radius_out_of_range_rejected(self, m):
        with pytest.raises(GraphError, match="1 <= m <= n"):
            seed_map_h(cycle_graph(6), m, [0, 3])

    @pytest.mark.parametrize("n,k,m", [(24, 5, 2), (100, 8, 3)])
    def test_seed_consistency_with_permutation(self, n, k, m):
        """The natural-order seed map of the relabelled graph is the
        permutation image of the seed map of the original with the seeds
        R = pi^{-1}([k]) in the pulled-back order pi^{-1}(0), pi^{-1}(1), ..."""
        for seed in range(10):
            u = random_regular(n, 3, seed=seed)
            gen = derive_rng(seed, "consistency")
            pi = tuple(int(x) for x in gen.permutation(n))
            h = relabel(u, pi)
            inv = sorted(range(n), key=lambda v: pi[v])  # pi^{-1}
            th = seed_map_h(h, m, range(k))
            tu = seed_map_h(u, m, inv[:k])
            for v in range(n):
                lhs = th[v]
                pre = tu[inv[v]]
                rhs = None if pre is None else pi[pre]
                assert lhs == rhs


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

    @pytest.mark.parametrize("ell", [4, 6, 8])
    def test_exact_law_against_enumeration(self, ell):
        pairs = list(itertools.combinations(range(ell), 2))
        gen = derive_rng(ell, "law-enumeration")
        for _ in range(6):
            y = {pairs[i] for i in gen.choice(len(pairs), size=len(pairs) // 2, replace=False)}
            c = float(gen.uniform(0, 1))
            matchings = all_perfect_matchings(ell)
            meet = sum(sum(p in y for p in mu) <= c * ell / 2 for mu in matchings)
            assert matching_avoidance_law(ell, y, c) == Fraction(meet, len(matchings))

    @pytest.mark.parametrize("ell", [12, 16, 20])
    def test_frequency_near_exact_law(self, ell):
        pairs = list(itertools.combinations(range(ell), 2))
        gen = derive_rng(ell, "half-pairs")
        y = [pairs[i] for i in gen.choice(len(pairs), size=math.ceil(len(pairs) / 2),
                                          replace=False)]
        p = matching_avoidance_law(ell, y, 0.5)
        assert 0.6 < p < 0.7
        trials = 10 ** 5
        r = matching_avoidance_mc(ell, y, c=0.5, trials=trials, seed=ell, eps=0.5)
        assert abs(r.empirical - p) <= 4 * math.sqrt(p * (1 - p) / trials)

    @pytest.mark.parametrize("ell", [8, 10, 12])
    def test_sharing_counts_against_exact_law(self, ell):
        # Y^c is the perfect matching M0 = {(i, i + ell/2)}; a matching sharing
        # j pairs with M0 meets Y ell/2 - j times
        half = ell // 2
        m0 = {(i, i + half) for i in range(half)}
        y = [p for p in itertools.combinations(range(ell), 2) if p not in m0]
        for meets in range(half + 1):
            c = (2 * meets + 1) / ell  # threshold meets + 1/2
            want = Fraction(sum(matchings_sharing(ell, j) for j in range(half + 1)
                                if half - j <= c * ell / 2), odd_factorial(half))
            assert matching_avoidance_law(ell, y, c) == want

    @pytest.mark.parametrize("ell, bound", [(100, 0.094), (200, 8.8e-3), (400, 7.8e-5)])
    def test_exact_below_an_informative_bound(self, ell, bound):
        eps = c = 0.02
        half = ell // 2
        # Y = all pairs but one perfect matching keeps 1 - eps of them
        assert math.comb(ell, 2) - half >= (1 - eps) * math.comb(ell, 2)
        analytic = matching_avoidance_bound(ell, eps, c)
        assert analytic == pytest.approx(bound, rel=0.03)
        hits = sum(matchings_sharing(ell, j) for j in range(half + 1) if half - j <= c * ell / 2)
        assert math.log(hits) - math.log(odd_factorial(half)) <= math.log(analytic)

    def test_parity_rejected(self):
        with pytest.raises(GraphError):
            matching_avoidance_mc(5, [], c=0.1, trials=10, seed=0, eps=0.2)

    @pytest.mark.parametrize("ell,y,eps,pair", [
        # 200 pairs reach |Y| >= (1 - eps) C(20, 2) = 152, none of them in [20]
        (20, [(a, a + 100) for a in range(200)], 0.2, r"\(0, 100\)"),
        # three pairs reach (1 - eps) C(4, 2) = 3, but two are loops
        (4, [(0, 1), (0, 0), (1, 1)], 0.5, r"\(0, 0\)"),
        (4, [(0, 1), (0, 2), (-1, 3)], 0.5, r"\(-1, 3\)"),
    ], ids=["outside", "loops", "negative"])
    def test_pair_not_in_ell_refused(self, ell, y, eps, pair):
        with pytest.raises(GraphError, match=rf"pair {pair} of Y is not two distinct "
                                             rf"elements of 0\.\.{ell - 1}"):
            matching_avoidance_mc(ell, y, c=0.1, trials=10, seed=1, eps=eps)

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


class TestRestrictionScorer:
    """The count-vector scorer against pair-by-pair scoring and the exact law."""

    def test_far_pairs_match_pair_scoring(self):
        maps = [restriction_case(seed)[0] for seed in range(6)]
        maps += [VertexMap(uniform_metric(3), (1,) * 40),
                 VertexMap(random_euclidean_metric(5, seed=2), tuple(v % 5 for v in range(30)))]
        gen = derive_rng(4, "restriction-scorer")
        constant = 0
        for f in maps:
            ave = empirical_average(f, 1.0)
            constant += ave == 0
            far = (f.target.dist >= ave / 5.0).astype(np.float64)
            assign = np.asarray(f.assignment)
            # one block of 20 samples, each of its own size
            subsets = [gen.choice(f.n, size=int(gen.integers(2, f.n + 1)), replace=False)
                       for _ in range(20)]
            counts = np.stack([np.bincount(assign[s], minlength=f.target.size) for s in subsets])
            assert (models.far_pair_counts(far, counts).tolist()
                    == [restriction_reference(f, s) for s in subsets])
        assert constant == 1

    @pytest.mark.parametrize("metric,k,eps,on_threshold", [
        (random_euclidean_metric(4, seed=3), 6, 1 / 8, False),
        # need = (1 - 1/4) C(8, 2) = 21 far pairs, met exactly by counts (3, 3, 2)
        (uniform_metric(3), 8, 1 / 8, True),
    ], ids=["euclidean", "threshold"])
    def test_exact_law(self, metric, k, eps, on_threshold):
        f = VertexMap(metric, tuple(v % metric.size for v in range(12)))
        p, equal = restriction_law(f, eps, k)
        assert 0 < p < 1 and (equal > 0) == on_threshold
        trials = 200_000
        r = restriction_concentration_mc(f, eps=eps, k=k, trials=trials, seed=k)
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(r.frequency - p) <= 4 * sigma

    def test_small_blocks_keep_the_frequencies(self, monkeypatch):
        cases = [restriction_case(seed) for seed in range(6)]
        default = [restriction_concentration_mc(f, eps=eps, k=k, trials=trials, seed=s).frequency
                   for s, (f, eps, k, trials) in enumerate(cases)]
        assert sum(0 < x < 1 for x in default) >= 4
        # 40 counts per block: 2 samples at 14-20 points
        monkeypatch.setattr(graphs, "_BLOCK_ENTRIES", 40)
        for s, (f, eps, k, trials) in enumerate(cases):
            r = restriction_concentration_mc(f, eps=eps, k=k, trials=trials, seed=s)
            assert r.frequency == default[s]


class TestTypicalVertexSets:
    def test_zero_deletion_makes_v_empty(self):
        g, g_minus = draw_model(6, 3, 0, seed=2)
        v, vp, vpp = typical_vertex_sets(g, g_minus, m=1, seeds=range(3))
        assert v == set() and vp == set() and vpp == set()

    def test_membership_conditions(self):
        g, g_minus = draw_model(8, 3, 3, seed=6)
        v, vp, vpp = typical_vertex_sets(g, g_minus, m=2, seeds=range(4))
        seeds_minus = seed_map_h(g_minus, 2, range(4))
        seeds_full = seed_map_h(g, 2, range(4))
        assert vp <= v and vpp <= v
        for x in v:
            assert len(g_minus.adjacency[x]) == 2
            assert seeds_minus[x] is not None
            assert (x in vp) == (seeds_full[x] == seeds_minus[x])

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

    def test_graph_outside_the_law_is_refused(self, monkeypatch):
        # the first nine pairs of [6]: vertex 0 has degree 5
        lo = np.array([[0, 0, 0, 0, 0, 1, 1, 1, 1]])
        hi = np.array([[1, 2, 3, 4, 5, 2, 3, 4, 5]])
        monkeypatch.setattr(models, "_simple_pairings", lambda n, d, want, gen: iter([(lo, hi)]))
        with pytest.raises(AssertionError, match="1 graphs outside the law"):
            distribution_equality_mc(6, 3, 1, trials=1, seed=0)

    @pytest.mark.parametrize("n, d, ell", [(4, 3, 6), (2, 1, 0), (2, 1, 1)])
    def test_one_cell_law_fits_exactly(self, n, d, ell):
        r = distribution_equality_mc(n, d, ell, trials=2000, seed=0)
        assert (r.cells, r.chi2, r.p_value) == (1, 0.0, 1.0)

    def test_staged_sampler_matches_direct_law(self):
        r = distribution_equality_mc(6, 3, 1, trials=40000, seed=12)
        assert r.cells == 630
        assert r.p_value > 0.001
        # bit for bit: the draws, the cell order and the chi2 summation order fix these
        assert r.chi2 == 606.3034999999994
        assert r.p_value == 0.7352985347190648

    def test_two_deletions_pinned(self):
        r = distribution_equality_mc(6, 3, 2, trials=20000, seed=5)
        assert r.cells == 2520
        assert r.chi2 == 2538.6280000000365

    @pytest.mark.parametrize("ell", range(10))
    def test_every_cell_once_per_relabelling(self, ell, labelled_regular):
        """The exact law through the verifier's own key-to-cell mapping: each
        of the 70 labelled cubic graphs on 6 vertices once, under every one of
        the 6! relabellings and every deletion, hits each of the 70 C(9, ell)
        (labelled graph, deletion) cells exactly 6! times.

        A wrong class column for a key, deleted edges left in the
        representative's labels, or fewer than n! relabellings fail it.
        Skipping the canonical map would not: (pi(G), pi(s)) is uniform too,
        so that mutation leaves the law uniform and no test of it can fail."""
        law = models._dist_eq_law(6, 3, ell)
        combos, perms = math.comb(9, ell), math.factorial(6)
        perm = np.repeat(np.arange(perms), combos)
        combo = np.tile(np.arange(combos), perms)
        tally = np.zeros(len(law.cells), dtype=np.int64)
        keys = labelled_regular(6, 3)
        assert len(keys) == 70
        for key in keys:
            tally += np.bincount(law.cell_ids(np.full(len(perm), key), perm, combo),
                                 minlength=len(tally))
        assert len(tally) == 70 * combos
        assert (tally == perms).all()
        # so many distinct cells, each a labelled graph with ell of its own
        # edges deleted, are every cell of the direct construction
        top = math.comb(6, 2)
        for cell in law.cells:
            graph, gone = cell >> top, cell & ((1 << top) - 1)
            assert graph in keys and gone & ~graph == 0 and gone.bit_count() == ell

    @pytest.mark.parametrize("n, d, ell, trials, seed", [
        (6, 3, 1, 40000, 12), (6, 3, 2, 20000, 5), (4, 3, 1, 3000, 1), (6, 3, 9, 5000, 2)])
    def test_batches_match_one_shot_draws(self, n, d, ell, trials, seed):
        # bounded integer draws are block-invariant, so drawing each
        # pairing batch's stages as it comes equals drawing them all at once
        r = distribution_equality_mc(n, d, ell, trials=trials, seed=seed)
        assert r.chi2 == dist_eq_reference(n, d, ell, trials, seed)

    def test_small_blocks_keep_the_result(self, monkeypatch):
        default = distribution_equality_mc(6, 3, 2, trials=5000, seed=7)
        monkeypatch.setattr(graphs, "_BLOCK_ENTRIES", 7 * 18)  # 7 pairings per block
        assert distribution_equality_mc(6, 3, 2, trials=5000, seed=7) == default

    def test_memory_does_not_grow_with_trials(self):
        # keeping every trial's outcome peaked at 1.8 MB at 2*10^4 trials and
        # 11.6 MB at 2*10^5
        distribution_equality_mc(6, 3, 1, trials=1, seed=0)  # fill the caches
        peaks = []
        for trials in (2 * 10 ** 4, 2 * 10 ** 5):
            tracemalloc.start()
            try:
                distribution_equality_mc(6, 3, 1, trials=trials, seed=0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]

    @pytest.mark.parametrize("ell", [-1, 10])
    def test_deletions_out_of_range(self, ell):
        with pytest.raises(GraphError, match="ell"):
            distribution_equality_mc(6, 3, ell, trials=10, seed=0)


def chi2_sf_reference(df, x):
    """Q(df/2, x/2) from mpmath at 200 bits; a 70-digit decimal string
    rounds to the nearest float, subnormals included."""
    with mpmath.workprec(200):
        q = mpmath.gammainc(mpmath.mpf(df) / 2, mpmath.mpf(x) / 2, mpmath.inf,
                            regularized=True)
        return float(mpmath.nstr(q, 70, min_fixed=1, max_fixed=0))


CHI2_DFS = [1, 2, 3, 69, 629, 2519, 8819, 13859]


def chi2_grid(df, sigmas):
    """x at df + k sqrt(2 df) for k in sigmas, at the branch point x = df + 2
    (y = a + 1) and its two float neighbours, and at 1e-300 and 1e12."""
    edge = df + 2.0
    bulk = {df + k * math.sqrt(2 * df) for k in sigmas}
    return sorted({x for x in bulk if x > 0}
                  | {edge, math.nextafter(edge, 0), math.nextafter(edge, math.inf), 1e-300, 1e12})


class TestChi2Tail:
    """models._chi2_sf, the dist-eq p-value, against mpmath and scipy."""

    @pytest.fixture(autouse=True)
    def time_limit(self):
        """A loop that never converges fails the test instead of hanging it."""
        def overtime(signum, frame):
            raise TimeoutError("the chi-square tail ran past 30 s")

        previous = signal.signal(signal.SIGALRM, overtime)
        signal.setitimer(signal.ITIMER_REAL, 30)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @pytest.mark.parametrize("df", CHI2_DFS)
    def test_correctly_rounded(self, df):
        for x in chi2_grid(df, (-5, -3, -1, -0.3, 0.3, 1, 2, 3, 5, 8, 12, 20, 40)):
            assert models._chi2_sf(df, x) == chi2_sf_reference(df, x), x

    @pytest.mark.parametrize("df", CHI2_DFS)
    def test_within_scipy(self, df):
        # scipy's chdtrc drifts by about 1.5e-12 relative at 40 sigma (values
        # near 1e-206 to 1e-268), where the mpmath test above still holds
        for x in chi2_grid(df, (-5, -3, -1, -0.3, 0.3, 1, 2, 3, 5, 8, 12, 20)):
            want = float(special.chdtrc(df, x))
            if want > 1e-300:
                assert models._chi2_sf(df, x) == pytest.approx(want, rel=1e-12, abs=0), x

    @pytest.mark.parametrize("df", [0, *CHI2_DFS])
    def test_zero_gives_one(self, df):
        assert models._chi2_sf(df, 0.0) == 1.0

    @pytest.mark.parametrize("df", CHI2_DFS)
    def test_far_tail_gives_zero(self, df):
        assert models._chi2_sf(df, 1e12) == models._chi2_sf(df, 1e308) == 0.0

    @pytest.mark.parametrize("df", [1, 2, 3, 69, 629])
    def test_non_increasing(self, df):
        xs = np.linspace(0, df + 20 * math.sqrt(2 * df), 300)
        q = [models._chi2_sf(df, float(x)) for x in xs]
        assert all(a >= b for a, b in zip(q, q[1:]))
        assert q[0] == 1.0 and q[-1] < 1e-6

    @pytest.mark.parametrize("df", [8819, 13859, 14000])
    def test_each_call_is_fast(self, df):
        for x in chi2_grid(df, (-3, 0, 3, 40)):
            started = time.perf_counter()
            models._chi2_sf(df, x)
            assert time.perf_counter() - started < 0.1, x


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

    def test_perfect_matching_keeps_the_stream(self, philox_state):
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
        trials = 2 * (graphs._BLOCK_ENTRIES // 8) + 101
        y, c, _ = matching_case(8, 1)
        r = matching_avoidance_mc(8, y, c=c, trials=trials, seed=3, eps=0.5)
        assert 0 < r.empirical < 1
        assert r.empirical == matching_reference(8, y, c, trials, 3)

    def test_matching_with_tiny_blocks(self, monkeypatch):
        for ell in (4, 8, 20):
            monkeypatch.setattr(graphs, "_BLOCK_ENTRIES", 7 * ell)
            for seed in range(2):
                y, c, trials = matching_case(ell, seed)
                r = matching_avoidance_mc(ell, y, c=c, trials=trials, seed=seed, eps=0.5)
                assert r.empirical == matching_reference(ell, y, c, trials, seed)

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

    def test_seed_assignment(self):
        """seed_map_h over every radius it accepts, m = 1..n, including m = n,
        where the unreachable vertices get no seed."""
        graphs = [random_regular(14, 3, seed=s) for s in range(3)]
        graphs += [disjoint_union(random_regular(8, 3, seed=s), cycle_graph(5)) for s in range(2)]
        graphs += [graph_from_edges(9, [(0, 1), (1, 2), (4, 5)]), path_graph(7)]
        gen = derive_rng(5, "assign")
        for g in graphs:
            for m in range(1, g.n + 1):
                k = int(gen.integers(1, g.n + 1))
                order = [int(x) for x in gen.choice(g.n, size=k, replace=False)]
                assert seed_map_h(g, m, order) == tuple(assign_reference(g, m, order))


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
