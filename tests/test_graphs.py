import functools
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlgap import graphs
from nlgap.graphs import (GraphError, adjacency_matrix, bfs_distances, canonical_form,
                          cheeger_bounds, cheeger_exact, cheeger_lower_bound, complete_graph,
                          cycle_graph, distance_matrix, enumerate_regular_graphs,
                          graph_from_edges, is_connected, lambda2, multi_source_distances,
                          path_graph, random_connected_regular, random_regular, spectrum,
                          sphere)
from nlgap.models import distribution_equality_mc
from nlgap.rng import derive_rng
from oracles import (ball, complete_bipartite_graph, corpus_graphs, cut_size, disjoint_union,
                     hypercube_graph, relabel)


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
            assert sum(len(g.adjacency[v]) for v in range(g.n)) == 2 * g.m
            for u, v in g.edges:
                assert v in g.adjacency[u] and u in g.adjacency[v]

    def test_edge_array_is_one_read_only_copy_outside_equality(self, corpus):
        for g in [*corpus.values(), graph_from_edges(3, [])]:
            a = g.edge_array
            assert a is g.edge_array and not a.flags.writeable
            assert a.dtype == np.intp and a.shape == (g.m, 2)
            assert [tuple(e) for e in a.tolist()] == list(g.edges)
            # the cached array stays out of __eq__ and __hash__, which the
            # lru_caches keyed by graphs use
            fresh = graph_from_edges(g.n, g.edges)
            assert fresh == g and hash(fresh) == hash(g)

    @pytest.mark.parametrize("build,message", [
        (lambda: graph_from_edges(graphs._VERTEX_CAP + 1, []),
         "n = 1000002 is outside the vertex range 0..1000001"),
        (lambda: complete_graph(1415),
         "n = 1415 gives 1000405 edges, which exceeds the edge cap 1000000"),
        # refused before a list of 10^12 adjacency rows is allocated
        (lambda: graph_from_edges(10 ** 12, []),
         "n = 1000000000000 is outside the vertex range 0..1000001"),
    ])
    def test_size_caps_refused_before_building(self, build, message):
        with pytest.raises(GraphError) as info:
            build()
        assert str(info.value) == message

    def test_negative_edge_count_refused(self):
        # path_graph(0) asks for n - 1 = -1 edges, and must still build
        assert (path_graph(0).n, path_graph(0).m) == (0, 0)
        with pytest.raises(GraphError) as info:
            graphs._check_graph(4, -1)
        assert str(info.value) == "edge count m = -1 is negative"


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

    def test_matrix_cache_holds_one_graph(self):
        # its repeat caller, the JLS retry loop, asks for one graph at a time
        distance_matrix(cycle_graph(5))
        distance_matrix(path_graph(5))
        assert distance_matrix.cache_info().currsize == 1


def networkx_oracle_graphs():
    """The corpus, with disconnected and edgeless graphs and random regular
    graphs added, keyed by name for the networkx cross-checks."""
    out = corpus_graphs()
    out.update({
        "P1": path_graph(1), "empty3": graph_from_edges(3, []),
        "2P2": disjoint_union(path_graph(2), path_graph(2)),
        "C3+C4": disjoint_union(cycle_graph(3), cycle_graph(4)),
        "rr12-3": random_regular(12, 3, seed=1), "rr16-4": random_regular(16, 4, seed=2),
    })
    return out


NETWORKX_ORACLE_GRAPHS = networkx_oracle_graphs()


def networkx_graph(g):
    import networkx as nx
    h = nx.Graph(g.edges)
    h.add_nodes_from(range(g.n))
    return h


class TestNetworkxOracle:
    """Distances and connectivity against networkx, an implementation that
    shares no code with the package's BFS."""

    @pytest.mark.parametrize("name", sorted(NETWORKX_ORACLE_GRAPHS))
    def test_distance_matrix_matches(self, name):
        import networkx as nx
        g = NETWORKX_ORACLE_GRAPHS[name]
        want = np.full((g.n, g.n), g.n, dtype=np.int64)
        for u, row in nx.all_pairs_shortest_path_length(networkx_graph(g)):
            for v, d in row.items():
                want[u, v] = d
        assert np.array_equal(distance_matrix(g), want)

    @pytest.mark.parametrize("name", sorted(NETWORKX_ORACLE_GRAPHS))
    def test_is_connected_matches(self, name):
        import networkx as nx
        g = NETWORKX_ORACLE_GRAPHS[name]
        # networkx leaves the null graph's connectivity undefined
        assert g.n > 0
        assert is_connected(g) == nx.is_connected(networkx_graph(g))


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

    def test_negative_radius_rejected(self):
        with pytest.raises(GraphError, match="radius must be >= 0, got -1"):
            sphere(cycle_graph(4), [0], -1)
        with pytest.raises(GraphError, match="radius must be >= 0, got -1"):
            graphs._bfs(cycle_graph(4), [0], -1)

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
        full one with every entry beyond the radius set to n.  The sphere is
        taken in true distances: full[v] = n marks an unreachable vertex,
        which no sphere holds."""
        edges = data.draw(st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] < e[1]),
            max_size=n * 2))
        g = graph_from_edges(n, edges)
        src = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3))
        full = brute_force_distances(g, src)
        assert graphs._bfs(g, src, radius)[0] == [x if x <= radius else n for x in full]
        assert ball(g, src, radius) == {v for v in range(n) if full[v] <= radius}
        assert sphere(g, src, radius) == {v for v in range(n) if full[v] == radius < n}
        one = brute_force_distances(g, [min(src)])
        assert graphs._bfs(g, [min(src)], radius)[0] == [x if x <= radius else n for x in one]


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
        lo, hi = cheeger_bounds(g)
        assert lo == pytest.approx(1.0)
        assert hi == pytest.approx(math.sqrt(8))

    def test_spectral_bracket_k4(self):
        g = complete_graph(4)
        lo, hi = cheeger_bounds(g)
        assert lo == pytest.approx(2.0)
        assert hi == pytest.approx(math.sqrt(24))

    def test_exact_within_bracket_randomized(self):
        for seed in range(6):
            n = 8 + 2 * (seed % 3)
            g = random_regular(n, 3, seed=seed)
            if not is_connected(g):
                continue
            lo, hi = cheeger_bounds(g)
            h = float(cheeger_exact(g))
            assert lo - 1e-9 <= h <= hi + 1e-9

    def test_irregular_rejected(self):
        g = path_graph(4)
        with pytest.raises(GraphError):
            cheeger_bounds(g)

    @pytest.mark.parametrize("n", [30, 500])
    def test_lower_bound_beyond_the_exact_limit(self, n):
        # above n = 22 the bound is spectral: lambda2 from the dense spectrum
        # at n = 30, from Lanczos at n = 500
        g = random_connected_regular(n, 3, seed=n)
        assert cheeger_lower_bound(g) == pytest.approx((3 - spectrum(g)[-2]) / 2, rel=1e-12)


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
    "star500": (lambda: complete_bipartite_graph(1, 499), 0.0),
}
# the number of distinct adjacency eigenvalues (K_n: n-1, -1; K_{a,b}:
# +-sqrt(ab), 0; Q_k: k, k-2, ..., -k), which is the dimension of the Krylov
# space of a start vector with a component in every eigenspace: Lanczos
# breaks down after exactly that many products
KRYLOV_DIMENSION = {"K500": 2, "K200,300": 3, "star500": 3, "Q9": 10, "Q10": 11}


def ladder_graph(k):
    """P_k x K2: maximum degree 3 and a top gap of order 1/k^2."""
    return graph_from_edges(2 * k, [(i, i + 1) for i in range(k - 1)]
                            + [(k + i, k + i + 1) for i in range(k - 1)]
                            + [(i, k + i) for i in range(k)])


def lollipop_graph(clique, n):
    """K_clique with a path tail out of its last vertex, n vertices in all."""
    return graph_from_edges(n, list(itertools.combinations(range(clique), 2))
                            + [(i, i + 1) for i in range(clique - 1, n - 1)])


class TestLambda2:
    """Connected graphs with n >= _LANCZOS_MIN_N take lambda2 from the
    thick-restart Lanczos solver graphs._top_two; the dense spectrum and
    closed forms are its oracles."""

    @staticmethod
    def sparse_lambda2(g, monkeypatch):
        """lambda2 with the dense path disabled, so a fallback fails the test,
        and the number of matrix-vector products the solver made."""
        top_two, products = graphs._top_two, []

        def counted(matvec, x, max_cycles):
            def product(v):
                products.append(1)
                return matvec(v)
            return top_two(product, x, max_cycles)

        def no_dense(_):
            raise AssertionError("lambda2 fell back to the dense spectrum")
        with monkeypatch.context() as m:
            m.setattr(graphs, "_top_two", counted)
            m.setattr(graphs, "spectrum", no_dense)
            return lambda2(g), len(products)

    @pytest.mark.parametrize("n", [400, 1000, 2000])
    @pytest.mark.parametrize("d", [3, 4])
    def test_random_regular_matches_dense(self, n, d, monkeypatch):
        g = random_regular(n, d, seed=n + d)
        assert abs(self.sparse_lambda2(g, monkeypatch)[0] - spectrum(g)[-2]) < 1e-11

    def test_irregular_matches_dense(self, monkeypatch):
        g = tree_plus_chords(600, 60, seed=3)
        assert g.regular_degree() is None and is_connected(g)
        assert abs(self.sparse_lambda2(g, monkeypatch)[0] - spectrum(g)[-2]) < 1e-11

    @pytest.mark.parametrize("name", sorted(CLOSED_FORM_LAMBDA2))
    def test_repeated_and_clustered_closed_forms(self, name):
        build, expect = CLOSED_FORM_LAMBDA2[name]
        g = build()
        assert g.n >= graphs._LANCZOS_MIN_N and is_connected(g)
        got = lambda2(g)
        assert abs(got - expect) < 1e-11
        assert abs(got - spectrum(g)[-2]) < 1e-11

    @pytest.mark.parametrize("name", sorted(KRYLOV_DIMENSION))
    def test_breakdown_stops_at_the_krylov_dimension(self, name, monkeypatch):
        # a breakdown test that misses the invariant space goes on with a
        # vector of rounding noise
        build, expect = CLOSED_FORM_LAMBDA2[name]
        g = build()
        got, products = self.sparse_lambda2(g, monkeypatch)
        assert products == KRYLOV_DIMENSION[name]
        assert abs(got - expect) < 1e-11
        assert abs(got - spectrum(g)[-2]) < 1e-11

    def test_small_spectral_gap_falls_back_to_dense(self):
        # C_1000 would need 130 restart cycles, past the cap of 125
        g = cycle_graph(1000)
        assert lambda2(g) == spectrum(g)[-2]

    @pytest.mark.parametrize("build", [lambda: cycle_graph(1000), lambda: path_graph(1000)],
                             ids=["C1000", "P1000"])
    def test_paths_and_cycles_skip_lanczos(self, build, monkeypatch):
        def no_lanczos(*args):
            raise AssertionError("lambda2 ran Lanczos on a graph of maximum degree 2")
        monkeypatch.setattr(graphs, "_top_two", no_lanczos)
        g = build()
        assert lambda2(g) == spectrum(g)[-2]

    def test_no_convergence_falls_back_to_dense(self, monkeypatch):
        # a 4-clique with a 996-vertex path tail has maximum degree 4 and a
        # top gap of order 1/n^2: it needs 371 restart cycles, past the cap of 125
        top_two, dense_spectrum, returned, dense = graphs._top_two, graphs.spectrum, [], []

        def solver_spy(*args):
            returned.append(top_two(*args))
            return returned[-1]

        def dense_spy(g):
            dense.append(g)
            return dense_spectrum(g)
        monkeypatch.setattr(graphs, "_top_two", solver_spy)
        monkeypatch.setattr(graphs, "spectrum", dense_spy)
        g = lollipop_graph(4, 1000)
        got = lambda2(g)
        assert returned == [None] and dense == [g]
        assert got == dense_spectrum(g)[-2]

    @pytest.mark.parametrize("build", [
        *(pytest.param(functools.partial(random_regular, n, d, seed=n + d), id=f"regular{n},{d}")
          for n in (400, 1000, 2000) for d in (3, 4, 5, 6)),
        pytest.param(lambda: tree_plus_chords(600, 60, seed=3), id="tree600+60"),
        pytest.param(lambda: complete_bipartite_graph(200, 300), id="K200,300"),
        pytest.param(lambda: hypercube_graph(9), id="Q9"),
        # converges in 51 of its 62 allowed restart cycles (738 products)
        pytest.param(lambda: ladder_graph(250), id="ladder250")])
    def test_matches_dense_oracle(self, build, monkeypatch):
        # without the dense fallback: K_{200,300} and Q9 (lambda2 of
        # multiplicity 9) end in a breakdown, the others converge
        g = build()
        assert abs(self.sparse_lambda2(g, monkeypatch)[0] - spectrum(g)[-2]) < 1e-11

    def test_disconnected_union_uses_repeated_top_eigenvalue(self):
        g = disjoint_union(random_regular(500, 3, seed=1), random_regular(500, 3, seed=2))
        assert not is_connected(g)
        assert abs(lambda2(g) - 3.0) < 1e-11

    @pytest.mark.parametrize("build", [lambda: random_regular(1000, 3, seed=5),
                                       lambda: complete_bipartite_graph(200, 300)],
                             ids=["cubic1000", "K200,300"])
    def test_bitwise_deterministic(self, build):
        # K_{200,300} ends in a breakdown; between the calls, another solve
        # and a draw from numpy's global generator leave the result alone
        g = build()
        first = lambda2(g)
        assert lambda2(g) == first
        lambda2(random_regular(600, 3, seed=9))
        np.random.uniform(-1.0, 1.0, g.n)
        assert lambda2(g) == first

    @pytest.mark.parametrize("seed,pinned", [(0, "0x1.689c91b86ee6ap+1"),
                                             (1, "0x1.68902325f74cbp+1"),
                                             (4, "0x1.682795482c773p+1")])
    def test_pinned_bits(self, seed, pinned):
        # a rewrite of the solver that keeps its arithmetic keeps these bits
        assert float.hex(lambda2(random_regular(1000, 3, seed=seed))) == pinned

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


def batch_pairings_reference(n, d, want, gen):
    """The pairing sampler as it was before chunking: each batch of up to
    2^19 stub keys drawn, sorted and checked whole, its unused tail too.  The
    oracle of the chunked sampler's rows."""
    accept = math.exp(-(d * d - 1) / 4)
    stubs = np.repeat(np.arange(n, dtype=np.intp), d)
    got = 0
    while got < want:
        rows = min(max(1, (1 << 19) // stubs.size), math.ceil((want - got) / accept))
        paired = stubs[np.argsort(gen.random((rows, stubs.size)), axis=1)]
        lo = np.minimum(paired[:, 0::2], paired[:, 1::2])
        hi = np.maximum(paired[:, 0::2], paired[:, 1::2])
        codes = np.sort(lo * n + hi, axis=1)
        ok = (lo != hi).all(axis=1) & (np.diff(codes, axis=1) != 0).all(axis=1)
        lo, hi = lo[ok][:want - got], hi[ok][:want - got]
        if len(lo):
            got += len(lo)
            yield lo, hi


class TestPairingSampler:
    @pytest.mark.parametrize("n, d, want, chunk_rows", [
        (6, 3, 1, None), (6, 3, 10 ** 4, None), (20, 4, 500, None), (1000, 3, 1, None),
        (10, 1, 50, None), (12, 2, 300, None),
        # chunks of 7 rows: the 40th simple row is found inside a chunk
        (6, 3, 40, 7),
    ])
    def test_same_rows_and_stream_as_the_batch_sampler(self, n, d, want, chunk_rows,
                                                       monkeypatch):
        if chunk_rows is not None:
            monkeypatch.setattr(graphs, "_BLOCK_ENTRIES", chunk_rows * n * d)
        gen, ref = derive_rng(want, "pairing-chunks", n, d), derive_rng(want, "pairing-chunks", n, d)
        got = list(graphs._simple_pairings(n, d, want, gen))
        expected = list(batch_pairings_reference(n, d, want, ref))
        for side in (0, 1):
            have = np.concatenate([batch[side] for batch in got])
            assert len(have) == want
            assert np.array_equal(have, np.concatenate([batch[side] for batch in expected]))

    def test_traced_peak_is_one_chunk(self):
        # sorting whole batches of 2^19 keys peaked at 14.4 MiB
        gen = derive_rng(0, "pairing-peak")
        tracemalloc.start()
        try:
            for _ in graphs._simple_pairings(6, 3, 10 ** 5, gen):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20


class TestCanonical:
    def test_refused_past_the_cap_before_any_pair_table(self):
        graphs._pairs.cache_clear()
        with pytest.raises(GraphError, match="brute-force only, n <= 8"):
            canonical_form(cycle_graph(9))
        assert graphs._pairs.cache_info().currsize == 0

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
        g = hypercube_graph(3)
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

    def test_enumeration_and_canonical_form_build_no_permutation_table(self):
        # the n! table of _pair_action took 21 MiB at n = 8
        graphs._pair_action.cache_clear()
        tracemalloc.start()
        try:
            found = enumerate_regular_graphs(8, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        g = relabel(hypercube_graph(3), [3, 1, 4, 0, 5, 2, 7, 6])
        assert canonical_form.__wrapped__(g) == canonical_form.__wrapped__(hypercube_graph(3))
        assert graphs._pair_action.cache_info().currsize == 0
        assert len(found) == 5 and peak < 4 * 2 ** 20

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
