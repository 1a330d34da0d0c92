import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlgap import graphs
from nlgap.graphs import (ExpansionResult, Graph, GraphError, adjacency_matrix, ball,
                          bfs_distances, canonical_form, cheeger_bounds, cheeger_exact,
                          complete_bipartite_graph, complete_graph, cube_graph,
                          cut_size, cycle_graph, diameter, disjoint_union,
                          distance_matrix, enumerate_regular_graphs,
                          expansion_holds, graph_from_edges, is_connected, lambda2,
                          multi_source_distances, path_graph, random_connected_regular,
                          random_regular, relabel, spectrum, sphere, star_graph,
                          tree_like_set)
from nlgap.models import distribution_equality_mc
from nlgap.rng import derive_rng


def brute_force_distances(g, sources):
    """Independent oracle: grow one adjacency step at a time, assigning the
    conventional distance n to vertices never reached."""
    dist = {v: g.n for v in range(g.n)}
    current = set(sources)
    step = 0
    while current:
        for v in current:
            dist[v] = min(dist[v], step)
        step += 1
        nxt = set()
        for v in current:
            for u in g.adjacency[v]:
                if dist[u] == g.n:
                    nxt.add(u)
        current = nxt
    return [dist[v] for v in range(g.n)]


def brute_force_canonical(g):
    """Independent oracle: the smallest sorted relabelled edge list."""
    return min(tuple(sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in g.edges))
               for p in itertools.permutations(range(g.n)))


def edge_key(n, edges):
    """A graph's key as the code defines it: bit P-1-i for the pair of
    lexicographic index i among the P pairs, so pair 0 is the top bit."""
    index = {p: i for i, p in enumerate(itertools.combinations(range(n), 2))}
    return sum(1 << (len(index) - 1 - index[tuple(sorted(e))]) for e in edges)


@functools.lru_cache(maxsize=None)
def relabelled_pair_bits(n):
    """bits[u, v, p]: the key bit of the pair {perm[u], perm[v]} for the p-th
    permutation of [n], from this file's own tables (zero on the diagonal)."""
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64).reshape(-1, n)
    top = n * (n - 1) // 2 - 1
    bit = np.zeros((n, n), dtype=np.int64)
    for i, (u, v) in enumerate(itertools.combinations(range(n), 2)):
        bit[u, v] = bit[v, u] = 1 << (top - i)
    return np.ascontiguousarray(bit[perms.T[:, None, :], perms.T[None, :, :]])


def brute_force_canonical_key(n, edges):
    """Independent oracle, vectorized: the greatest key over all n!
    relabellings."""
    ends = np.array(edges, dtype=np.int64).reshape(-1, 2)
    return int(relabelled_pair_bits(n)[ends[:, 0], ends[:, 1]].sum(axis=0).max())


@functools.lru_cache(maxsize=None)
def reference_regular_graphs(n, d):
    """The per-completion dedupe: every d-regular edge set on [n] with
    N(0) = {1..d}, found by filtering all edge sets among 1..n-1 by degree
    and canonicalized one at a time by brute force.  Returns the sorted
    canonical edge lists of the connected classes and of all classes."""
    import networkx as nx
    if d >= n or n * d % 2:
        return [], []
    rest = list(itertools.combinations(range(1, n), 2))
    ends = np.array(rest, dtype=np.int64).reshape(-1, 2)
    want = np.array([0] + [d - 1 if v <= d else d for v in range(1, n)])
    combos = list(itertools.combinations(range(len(rest)), n * d // 2 - d))
    picks = np.array(combos, dtype=np.int64).reshape(len(combos), n * d // 2 - d)
    deg = np.zeros((len(picks), n), dtype=np.int64)
    rows = np.arange(len(picks))
    for col in picks.T:
        deg[rows, ends[col, 0]] += 1
        deg[rows, ends[col, 1]] += 1
    connected, every = set(), set()
    for pick in picks[(deg == want).all(axis=1)]:
        edges = [(0, j) for j in range(1, d + 1)] + [rest[i] for i in pick]
        key = brute_force_canonical_key(n, edges)
        every.add(key)
        h = nx.Graph(edges)
        h.add_nodes_from(range(n))
        if nx.is_connected(h):
            connected.add(key)
    pairs = list(itertools.combinations(range(n), 2))
    top = len(pairs) - 1
    return tuple(sorted(tuple(p for i, p in enumerate(pairs) if key >> (top - i) & 1)
                        for key in keys) for keys in (connected, every))


def reference_tree_like_set(g, m):
    """The loop before the adjacency count: each ball tests every edge of g."""
    out = set()
    for v in range(g.n):
        dist = multi_source_distances(g, [v], 3 * m)
        b = {u for u in range(g.n) if dist[u] <= 3 * m}
        inner = sum(1 for x, y in g.edges if x in b and y in b)
        if inner == len(b) - 1 and all(dist[u] < g.n for u in b):
            out.add(v)
    return out


def reference_expansion(g, alpha, seed=0):
    """The check before the distance-to-set table: one BFS per vertex set,
    in mask order (or singletons, then samples), each followed by a loop
    over its radii, stopping at the first violation."""
    d, n = g.regular_degree(), g.n

    def first_radius(S):
        dist = multi_source_distances(g, S)
        sizes = np.bincount(np.minimum(dist, n), minlength=n + 1).cumsum()
        for r in range(n + 1):
            if sizes[min(r, n)] < min(0.75 * n, alpha * (d - 1) ** r * len(S)):
                return r
        return None

    def sampled():
        yield from ([v] for v in range(n))
        gen = derive_rng(seed, "expansion", n)
        for _ in range(graphs._EXPANSION_SAMPLES):
            size = int(gen.integers(1, n // 2 + 1))
            yield sorted(gen.choice(n, size=size, replace=False).tolist())

    if n <= graphs._EXPANSION_EXACT_LIMIT:
        mode, sets = "exact", ([v for v in range(n) if mask >> v & 1]
                               for mask in range(1, 1 << n))
    else:
        mode, sets = "sampled", sampled()
    for S in sets:
        r = first_radius(S)
        if r is not None:
            return ExpansionResult(False, (frozenset(S), r), mode)
    return ExpansionResult(True, None, mode)


def brute_force_cheeger(g):
    best = None
    for size in range(1, g.n // 2 + 1):
        for S in itertools.combinations(range(g.n), size):
            val = Fraction(cut_size(g, S), size)
            if best is None or val < best:
                best = val
    return best


def gray_code_cheeger(g):
    """The subset walk before the cut table: Gray-code order, so each step
    flips one vertex and updates the cut by its incident edges only."""
    side = [False] * g.n
    cut = 0
    size = 0
    best = None
    half = g.n // 2
    adj = g.adjacency
    # Gray code: subset at step t flips bit ctz(t).
    for t in range(1, 1 << g.n):
        v = (t & -t).bit_length() - 1
        if side[v]:
            side[v] = False
            size -= 1
            for u in adj[v]:
                cut += 1 if side[u] else -1
        else:
            side[v] = True
            size += 1
            for u in adj[v]:
                cut += -1 if side[u] else 1
        if 0 < size <= half:
            if best is None or cut * best.denominator < best.numerator * size:
                best = Fraction(cut, size)
                if best == 0:
                    return best
    return best


def random_cheeger_cases(n, seed):
    """Seeded regular and irregular graphs on [n], one of them disconnected."""
    gen = derive_rng(seed, "cheeger-cases", n)
    half = n // 2
    cases = [random_regular(n, 4, seed=seed), tree_plus_chords(n, n // 3, seed),
             graph_from_edges(n, [e for e in itertools.combinations(range(n), 2)
                                  if gen.random() < 0.3]),
             disjoint_union(tree_plus_chords(half, 1, seed),
                            tree_plus_chords(n - half, 3, seed + 1))]
    if n % 2 == 0:
        cases.append(random_regular(n, 3, seed=seed))
    return cases


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            graph_from_edges(3, [(0, 0)])

    def test_rejects_duplicate(self):
        with pytest.raises(GraphError):
            graph_from_edges(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            graph_from_edges(3, [(0, 3)])

    def test_adjacency_consistent(self, corpus):
        for g in corpus.values():
            assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m
            for u, v in g.edges:
                assert v in g.adjacency[u] and u in g.adjacency[v]


class TestDistances:
    def test_path_from_end(self):
        assert bfs_distances(path_graph(3), 0) == [0, 1, 2]

    def test_disconnected_convention(self):
        g = graph_from_edges(4, [(0, 1), (2, 3)])
        assert bfs_distances(g, 0) == [0, 1, 4, 4]

    def test_complete_graph(self):
        assert bfs_distances(complete_graph(4), 2) == [1, 1, 0, 1]

    @pytest.mark.parametrize("source", [-1, -2, 5, 7])
    def test_source_out_of_range_rejected(self, source):
        g = cycle_graph(5)
        with pytest.raises(GraphError):
            multi_source_distances(g, [0, source])
        with pytest.raises(GraphError):
            bfs_distances(g, source)
        with pytest.raises(GraphError):
            ball(g, [source], 1)

    def test_matrix_symmetric_zero_diagonal(self, corpus):
        for g in corpus.values():
            m = distance_matrix(g)
            assert (m == m.T).all()
            assert (np.diag(m) == 0).all()


class TestBallSphere:
    def test_cycle_neighborhood(self):
        g = cycle_graph(6)
        assert ball(g, [0], 1) == {5, 0, 1}
        assert sphere(g, [0], 1) == {5, 1}

    def test_radius_zero_is_the_set(self, corpus):
        for g in corpus.values():
            s = {0, g.n - 1}
            assert ball(g, s, 0) == s
            assert sphere(g, s, 0) == s

    def test_p5_sphere_by_hand(self):
        assert sphere(path_graph(5), [2], 2) == {0, 4}

    def test_empty_source_rejected(self):
        with pytest.raises(GraphError):
            ball(cycle_graph(4), [], 1)

    def test_sphere_is_ball_difference(self, corpus):
        for g in corpus.values():
            for radius in range(1, 4):
                s = [0]
                assert sphere(g, s, radius) == ball(g, s, radius) - ball(g, s, radius - 1)

    @given(st.integers(3, 9), st.integers(0, 11), st.data())
    @settings(max_examples=60, deadline=None)
    def test_ball_matches_step_oracle(self, n, radius, data):
        """The search stopped at the radius (radii >= n included) equals the
        full one with every entry beyond the radius set to n."""
        edges = data.draw(st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] < e[1]),
            max_size=n * 2))
        g = graph_from_edges(n, edges)
        src = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3))
        full = brute_force_distances(g, src)
        assert multi_source_distances(g, src, radius) == [x if x <= radius else n for x in full]
        assert ball(g, src, radius) == {v for v in range(n) if full[v] <= radius}
        assert sphere(g, src, radius) == {v for v in range(n) if full[v] == radius}
        one = brute_force_distances(g, [min(src)])
        assert bfs_distances(g, min(src), radius) == [x if x <= radius else n for x in one]


class TestCheeger:
    def test_k4(self):
        assert cheeger_exact(complete_graph(4)) == 2

    def test_c4(self):
        assert cheeger_exact(cycle_graph(4)) == 1

    def test_disconnected_is_zero(self):
        g = disjoint_union(cycle_graph(3), cycle_graph(3))
        assert cheeger_exact(g) == 0

    def test_matches_subset_oracle(self, corpus):
        for name in ("P3", "C5", "K4", "C6", "star6", "prism"):
            g = corpus[name]
            assert cheeger_exact(g) == brute_force_cheeger(g)

    @pytest.mark.parametrize("n", range(9, 15))
    def test_matches_subset_oracle_on_random_graphs(self, n):
        gen = derive_rng(n, "cheeger-sparse")
        sparse = [graph_from_edges(n, [e for e in itertools.combinations(range(n), 2)
                                       if gen.random() < 0.15]) for _ in range(3)]
        assert sum(not is_connected(g) for g in sparse) >= 1
        for g in random_cheeger_cases(n, seed=n) + sparse:
            assert cheeger_exact(g) == brute_force_cheeger(g)

    @pytest.mark.parametrize("n", [16, 18])
    def test_matches_gray_code_reference(self, n):
        for g in random_cheeger_cases(n, seed=n):
            assert cheeger_exact(g) == gray_code_cheeger(g)

    def test_limit_enforced(self):
        with pytest.raises(GraphError):
            cheeger_exact(cycle_graph(24))

    def test_spectral_bracket_c4(self):
        g = cycle_graph(4)
        lo, hi = cheeger_bounds(g, spectrum(g))
        assert lo == pytest.approx(1.0)
        assert hi == pytest.approx(math.sqrt(8))

    def test_spectral_bracket_k4(self):
        g = complete_graph(4)
        lo, hi = cheeger_bounds(g, spectrum(g))
        assert lo == pytest.approx(2.0)
        assert hi == pytest.approx(math.sqrt(24))

    def test_exact_within_bracket_randomized(self):
        for seed in range(6):
            n = 8 + 2 * (seed % 3)
            g = random_regular(n, 3, seed=seed)
            if not is_connected(g):
                continue
            lo, hi = cheeger_bounds(g, spectrum(g))
            h = float(cheeger_exact(g))
            assert lo - 1e-9 <= h <= hi + 1e-9

    def test_irregular_rejected(self):
        g = path_graph(4)
        with pytest.raises(GraphError):
            cheeger_bounds(g, spectrum(g))


class TestSpectrum:
    @pytest.mark.parametrize("n", [3, 4, 6, 10, 17, 64])
    def test_cycle_closed_form(self, n):
        eig = spectrum(cycle_graph(n))
        expect = np.sort([2 * math.cos(2 * math.pi * j / n) for j in range(n)])
        assert np.abs(eig - expect).max() < 1e-8

    @pytest.mark.parametrize("n", [2, 5, 31, 64])
    def test_complete_closed_form(self, n):
        eig = spectrum(complete_graph(n))
        expect = np.sort([n - 1.0] + [-1.0] * (n - 1))
        assert np.abs(eig - expect).max() < 1e-8

    def test_single_edge(self):
        assert np.allclose(spectrum(path_graph(2)), [-1.0, 1.0])

    def test_traceless_and_bounded(self, regular_corpus):
        for g in regular_corpus.values():
            eig = spectrum(g)
            assert abs(eig.sum()) < 1e-8
            assert np.abs(eig).max() <= g.regular_degree() + 1e-9

    def test_top_eigenvalue_is_degree_when_connected(self, regular_corpus):
        for g in regular_corpus.values():
            if is_connected(g):
                assert spectrum(g)[-1] == pytest.approx(g.regular_degree(), abs=1e-9)


def hypercube_graph(k):
    return graph_from_edges(1 << k, [(i, i | 1 << b) for i in range(1 << k)
                                     for b in range(k) if not i >> b & 1])


def tree_plus_chords(n, chords, seed):
    """A connected irregular graph: a random recursive tree plus random chords."""
    gen = derive_rng(seed, "tree-plus-chords", n)
    edges = {(int(gen.integers(0, v)), v) for v in range(1, n)}
    while len(edges) < n - 1 + chords:
        u, v = sorted(int(x) for x in gen.choice(n, 2, replace=False))
        edges.add((u, v))
    return graph_from_edges(n, edges)


# lambda2 in closed form: C_n 2cos(2 pi/n) (double), Q_k k-2 (multiplicity k),
# K_n -1 (multiplicity n-1), K_{a,b} and stars 0 (multiplicity n-2)
CLOSED_FORM_LAMBDA2 = {
    "C401": (lambda: cycle_graph(401), 2 * math.cos(2 * math.pi / 401)),
    "C1000": (lambda: cycle_graph(1000), 2 * math.cos(2 * math.pi / 1000)),
    "Q9": (lambda: hypercube_graph(9), 7.0),
    "Q10": (lambda: hypercube_graph(10), 8.0),
    "K500": (lambda: complete_graph(500), -1.0),
    "K200,300": (lambda: complete_bipartite_graph(200, 300), 0.0),
    "star500": (lambda: star_graph(500), 0.0),
}


class TestLambda2:
    """Connected graphs with n >= _LANCZOS_MIN_N take lambda2 from ARPACK
    Lanczos; the dense spectrum and closed forms are its oracles."""

    @staticmethod
    def sparse_lambda2(g, monkeypatch):
        """lambda2 with the dense path disabled, so a fallback fails the test."""
        def no_dense(_):
            raise AssertionError("lambda2 fell back to the dense spectrum")
        with monkeypatch.context() as m:
            m.setattr(graphs, "spectrum", no_dense)
            return lambda2(g)

    @pytest.mark.parametrize("n", [400, 1000, 2000])
    @pytest.mark.parametrize("d", [3, 4])
    def test_random_regular_matches_dense(self, n, d, monkeypatch):
        g = random_regular(n, d, seed=n + d)
        assert abs(self.sparse_lambda2(g, monkeypatch) - spectrum(g)[-2]) < 1e-11

    def test_irregular_matches_dense(self, monkeypatch):
        g = tree_plus_chords(600, 60, seed=3)
        assert g.regular_degree() is None and is_connected(g)
        assert abs(self.sparse_lambda2(g, monkeypatch) - spectrum(g)[-2]) < 1e-11

    @pytest.mark.parametrize("name", sorted(CLOSED_FORM_LAMBDA2))
    def test_repeated_and_clustered_closed_forms(self, name):
        build, expect = CLOSED_FORM_LAMBDA2[name]
        g = build()
        assert g.n >= graphs._LANCZOS_MIN_N and is_connected(g)
        got = lambda2(g)
        assert abs(got - expect) < 1e-11
        assert abs(got - spectrum(g)[-2]) < 1e-11

    def test_small_spectral_gap_falls_back_to_dense(self):
        # C_1000 needs about 1090 implicit restarts, far past the cap
        g = cycle_graph(1000)
        assert lambda2(g) == spectrum(g)[-2]

    def test_disconnected_union_uses_repeated_top_eigenvalue(self):
        g = disjoint_union(random_regular(500, 3, seed=1), random_regular(500, 3, seed=2))
        assert not is_connected(g)
        assert abs(lambda2(g) - 3.0) < 1e-11

    @pytest.mark.parametrize("build", [lambda: random_regular(1000, 3, seed=5),
                                       lambda: complete_bipartite_graph(200, 300)],
                             ids=["cubic1000", "K200,300"])
    def test_bitwise_deterministic(self, build):
        # K_{200,300} exhausts its Krylov space and makes ARPACK draw restart vectors
        from scipy.sparse import csr_array
        from scipy.sparse.linalg import eigsh
        g = build()
        first = lambda2(g)
        assert lambda2(g) == first
        other = random_regular(600, 3, seed=9)
        eigsh(csr_array(adjacency_matrix(other)), k=3, which="LA")   # unseeded
        assert lambda2(g) == first

    def test_adjacency_matches_edge_loop(self, corpus):
        for g in list(corpus.values()) + [tree_plus_chords(60, 9, seed=1),
                                           graph_from_edges(0, []), graph_from_edges(3, [])]:
            loop = np.zeros((g.n, g.n))
            for u, v in g.edges:
                loop[u, v] = loop[v, u] = 1.0
            assert np.array_equal(adjacency_matrix(g), loop)


class TestRandomRegular:
    def test_k4_unique(self):
        g = random_regular(4, 3, seed=0)
        assert g.edges == complete_graph(4).edges

    def test_always_simple_and_regular(self):
        for seed in range(5):
            g = random_regular(100, 3, seed=seed)
            assert set(g.degrees()) == {3}
            assert len(set(g.edges)) == g.m

    def test_deterministic(self):
        assert random_regular(20, 3, seed=9).edges == random_regular(20, 3, seed=9).edges

    def test_odd_product_rejected(self):
        with pytest.raises(GraphError):
            random_regular(5, 3, seed=0)

    @pytest.mark.parametrize("n, d", [(9, 8), (30, 27)])
    def test_infeasible_degree_rejected_before_drawing(self, n, d):
        with pytest.raises(GraphError, match="1e6"):
            random_regular(n, d, seed=0)

    def test_uniform_over_isomorphism_classes(self, labelled_regular):
        # finer than the two classes (K33, prism): each of the 70 labelled
        # cubic graphs on [6] is equally likely
        from scipy import stats
        keys = labelled_regular(6, 3)
        draws = 20000
        counts = {key: 0 for key in keys}
        for t in range(draws):
            g = random_regular(6, 3, seed=1_000_000 + t)
            counts[edge_key(6, g.edges)] += 1
        assert len(counts) == len(keys) == 70
        assert stats.chisquare(list(counts.values())).pvalue > 0.01

    @pytest.mark.parametrize("draw", [lambda: random_regular(6, 3, seed=0),
                                      lambda: distribution_equality_mc(6, 3, 1, 10, seed=0)])
    def test_give_up_names_n_and_d(self, draw, monkeypatch):
        monkeypatch.setattr(graphs, "_PAIRING_PATIENCE", 0)
        with pytest.raises(GraphError, match=r"gave up for n=6, d=3"):
            draw()


class TestTreeLike:
    def test_tree_all_vertices(self):
        g = path_graph(7)
        assert tree_like_set(g, 1) == set(range(7))

    def test_disconnected_ball_is_not_a_tree(self):
        # radius 3m >= n sweeps the other component into the ball; the
        # induced subgraph (path + triangle) has |E| = |V| - 1 yet is no tree
        g = disjoint_union(path_graph(2), cycle_graph(3))
        assert tree_like_set(g, 2) == set()

    def test_c12_radius_one(self):
        assert tree_like_set(cycle_graph(12), 1) == set(range(12))

    def test_c6_radius_one_empty(self):
        assert tree_like_set(cycle_graph(6), 1) == set()

    def test_against_networkx_induced_trees(self):
        import networkx as nx
        gen = derive_rng(4, "tree-like-oracle")
        for _ in range(2000):
            n = int(gen.integers(1, 12))
            p = float(gen.uniform(0.05, 0.6))
            edges = [e for e in itertools.combinations(range(n), 2) if gen.random() < p]
            m = int(gen.integers(0, 5))
            h = nx.Graph(edges)
            h.add_nodes_from(range(n))
            want = set()
            for v in range(n):
                near = set(nx.single_source_shortest_path_length(h, v, cutoff=3 * m))
                # other components are at the conventional distance n
                ball_v = set(range(n)) if 3 * m >= n else near
                if nx.is_tree(h.subgraph(ball_v)):
                    want.add(v)
            assert tree_like_set(graph_from_edges(n, edges), m) == want

    def test_against_reference_loop(self):
        gen = derive_rng(6, "tree-like-reference")
        disconnected = 0
        for _ in range(600):
            n = int(gen.integers(1, 13))
            p = float(gen.uniform(0.05, 0.5))
            g = graph_from_edges(n, [e for e in itertools.combinations(range(n), 2)
                                     if gen.random() < p])
            disconnected += not is_connected(g)
            for m in range(5):
                assert tree_like_set(g, m) == reference_tree_like_set(g, m)
        assert disconnected > 100


class TestExpansion:
    def test_k4_holds(self):
        assert expansion_holds(complete_graph(4), 1 / 3).holds

    def test_disconnected_violated(self):
        g = disjoint_union(complete_graph(4), complete_graph(4))
        res = expansion_holds(g, 0.5)
        assert not res.holds
        assert res.violation is not None

    def test_c8_singleton_pair(self):
        # at radius 2 the ball around one vertex of C8 has 5 >= min(6, 1)
        g = cycle_graph(8)
        assert len(ball(g, [0], 2)) == 5
        res = expansion_holds(g, 1.0)
        assert res.mode == "exact"

    def test_sampled_mode_is_one_sided(self):
        # n = 20 > the exact limit; alpha=1 with d-1 = 1 keeps the threshold
        # at |S|, which every ball satisfies, so no violation is found
        res = expansion_holds(cycle_graph(20), 1.0, seed=2)
        assert res.mode == "sampled"
        assert res.holds and res.violation is None

    ALPHAS = (0.05, 1 / 3, 0.5, 0.9, 1.0, 1.5, 3.0)

    @staticmethod
    def corpus(sampled):
        if sampled:
            yield from (random_regular(n, d, n + d) for n, d in ((20, 3), (26, 3), (21, 4),
                                                                 (30, 4), (40, 3)))
            yield from (cycle_graph(24), disjoint_union(random_regular(10, 3, 1),
                                                        random_regular(12, 3, 2)),
                        disjoint_union(random_regular(20, 3, 3), random_regular(20, 3, 4)))
            return
        yield from (random_regular(n, d, s) for d in (3, 4) for n in range(d + 1, 12)
                    for s in range(2) if n * d % 2 == 0)
        yield from (random_regular(12, 3, 1), cycle_graph(5), cycle_graph(10))
        yield from (disjoint_union(complete_graph(4), complete_graph(4)),
                    disjoint_union(random_regular(6, 3, 1), random_regular(6, 3, 2)),
                    disjoint_union(cycle_graph(4), cycle_graph(5)))

    @pytest.mark.parametrize("sampled", [False, True], ids=["exact", "sampled"])
    def test_matches_reference(self, sampled):
        verdicts = set()
        for g in self.corpus(sampled):
            for alpha in self.ALPHAS:
                for seed in range(1 + sampled):
                    want = reference_expansion(g, alpha, seed)
                    assert expansion_holds(g, alpha, seed) == want, (g, alpha, seed)
                    verdicts.add((want.mode, want.holds))
        mode = "sampled" if sampled else "exact"
        assert verdicts == {(mode, True), (mode, False)}

    @pytest.mark.parametrize("alpha", [0.01, 5e-324])
    def test_large_cubic_does_not_overflow(self, alpha):
        # 2^r passes the largest float from r = 1024 on, and a radius of the
        # 1100-vertex graph can reach it
        g = random_connected_regular(1100, 3, 1)
        res = expansion_holds(g, alpha)
        assert res.mode == "sampled"
        if not res.holds:
            S, r = res.violation
            assert len(ball(g, S, r)) < min(Fraction(3 * g.n, 4),
                                            Fraction(alpha) * 2 ** r * len(S))

    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.inf, math.nan])
    def test_alpha_domain(self, alpha):
        with pytest.raises(GraphError, match="alpha"):
            expansion_holds(cycle_graph(6), alpha)


class TestCanonical:
    def test_k4_fixed_point(self):
        g = complete_graph(4)
        assert canonical_form(g).edges == g.edges

    def test_c4_relabelled(self):
        g = graph_from_edges(4, [(0, 2), (2, 1), (1, 3), (3, 0)])  # C4 as 0-2-1-3
        assert canonical_form(g).edges == (((0, 1), (0, 2), (1, 3), (2, 3)))

    def test_constant_on_isomorphism_classes(self):
        from nlgap.graphs import prism_graph
        g = prism_graph()
        gen = derive_rng(5, "canon-test")
        base = canonical_form(g).edges
        for _ in range(20):
            perm = tuple(int(x) for x in gen.permutation(6))
            assert canonical_form(relabel(g, perm)).edges == base

    def test_every_labelled_graph_up_to_five_vertices(self):
        checked = 0
        for n in range(2, 6):
            pairs = list(itertools.combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                g = graph_from_edges(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
                assert canonical_form(g).edges == brute_force_canonical(g)
                checked += 1
        assert checked == 1098

    def test_cube_relabellings(self):
        g = cube_graph()
        want = brute_force_canonical(g)
        gen = derive_rng(11, "canon-cube")
        for _ in range(5):
            h = relabel(g, tuple(int(x) for x in gen.permutation(8)))
            assert canonical_form(h).edges == want

    @pytest.mark.parametrize("n", [0, 1])
    def test_empty_vertex_sets(self, n):
        g = graph_from_edges(n, [])
        assert canonical_form(g) == g == graph_from_edges(n, brute_force_canonical(g))

    def test_enumeration_counts(self):
        assert len(enumerate_regular_graphs(4, 3)) == 1
        assert len(enumerate_regular_graphs(6, 3)) == 2
        assert len(enumerate_regular_graphs(8, 3)) == 5

    @pytest.mark.parametrize("d, counts", [
        (3, {4: 1, 6: 2, 8: 5}),           # OEIS A002851, connected cubic
        (4, {5: 1, 6: 1, 7: 2, 8: 6}),     # OEIS A006820, connected quartic
        (5, {6: 1, 8: 3}),                 # OEIS A006821, connected quintic
    ])
    def test_oeis_counts(self, d, counts):
        assert {n: len(enumerate_regular_graphs(n, d)) for n in counts} == counts

    @pytest.mark.parametrize("n", range(1, 9))
    def test_enumeration_matches_per_completion_dedupe(self, n):
        for d in range(n):
            for connected_only in (True, False):
                got = [g.edges for g in enumerate_regular_graphs(n, d, connected_only)]
                want = reference_regular_graphs(n, d)[0 if connected_only else 1]
                assert got == want, (d, connected_only)

    @pytest.mark.parametrize("n, d", [(4, -1), (8, -3), (-1, 0)])
    def test_negative_size_or_degree_rejected(self, n, d):
        with pytest.raises(GraphError, match=rf"n={n}, d={d}"):
            enumerate_regular_graphs(n, d)

    def test_sweep_matches_brute_force_on_every_small_graph(self):
        # one batch per n holds every labelled graph, so every class is
        # found among the images of its first member
        for n in range(6):
            pairs = list(itertools.combinations(range(n), 2))
            graphs_n = [[e for i, e in enumerate(pairs) if mask >> i & 1]
                        for mask in range(1 << len(pairs))]
            got = graphs._canonical_keys(n, [edge_key(n, e) for e in graphs_n])
            want = [edge_key(n, brute_force_canonical(graph_from_edges(n, e))) for e in graphs_n]
            assert got.tolist() == want

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_sweep_matches_brute_force_on_random_batches(self, n):
        gen = derive_rng(8, "canon-sweep", n)
        pairs = list(itertools.combinations(range(n), 2))
        batch = [pairs, [], [(0, 1)], [(u, v) for u, v in pairs if u and v]]  # K_n, empty, isolated
        for _ in range(12):
            p = gen.uniform(0.1, 0.7)
            edges = [e for e in pairs if gen.random() < p]
            isolated = int(gen.integers(0, 3))
            edges = [(u, v) for u, v in edges if u >= isolated]
            perm = gen.permutation(n)
            batch += [edges, relabel(graph_from_edges(n, edges), perm).edges]
        got = graphs._canonical_keys(n, [edge_key(n, e) for e in batch]).tolist()
        if n < 8:  # the tuple-sorting oracle takes about a second per graph at n = 8
            assert got == [edge_key(n, brute_force_canonical(graph_from_edges(n, e)))
                           for e in batch]
        assert got == [brute_force_canonical_key(n, e) for e in batch]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_invariant_under_relabel(self, data):
        n = data.draw(st.integers(0, 8))
        pairs = list(itertools.combinations(range(n), 2))
        edges = [e for e, keep in zip(pairs, data.draw(st.lists(
            st.booleans(), min_size=len(pairs), max_size=len(pairs)))) if keep]
        g = graph_from_edges(n, edges)
        perm = data.draw(st.permutations(range(n)))
        assert canonical_form(relabel(g, perm)) == canonical_form(g)


class TestFriedmanFrequency:
    @pytest.mark.slow
    def test_lambda2_mostly_small(self):
        # scaled-down version of the acceptance run (full run lives there)
        good = 0
        draws = 20
        for t in range(draws):
            g = random_regular(400, 3, seed=77 + t)
            eig = spectrum(g)
            good += eig[-2] <= 2.1 * math.sqrt(2)
        assert good / draws >= 0.9
