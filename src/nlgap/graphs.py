"""Simple undirected graphs: distances, expansion statistics, spectra, and
uniform random d-regular generation.

Vertices are 0..n-1.  Graphs are immutable after construction and safe to
share across workers.  The distance convention for vertices in different
components is n (the vertex count), not infinity, so all distance
arithmetic stays in integers.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .rng import derive_rng


class GraphError(ValueError):
    pass


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph on [n] with cached adjacency."""

    n: int
    edges: tuple[tuple[int, int], ...]      # lexicographically sorted, u < v
    adjacency: tuple[tuple[int, ...], ...]  # sorted neighbour lists

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(nbrs) for nbrs in self.adjacency)

    def regular_degree(self) -> int | None:
        """The common degree, or None if the graph is irregular."""
        degs = set(self.degrees())
        return degs.pop() if len(degs) == 1 else None

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]


def graph_from_edges(n: int, edges) -> Graph:
    """Build and validate a simple graph from an iterable of vertex pairs."""
    if n < 0:
        raise GraphError("vertex count must be nonnegative")
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise GraphError(f"duplicate edge {e}")
        seen.add(e)
    sorted_edges = tuple(sorted(seen))
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in sorted_edges:
        adj[u].append(v)
        adj[v].append(u)
    return Graph(n, sorted_edges, tuple(tuple(sorted(a)) for a in adj))


# ----------------------------------------------------------------------
# named constructions used throughout the test corpus
# ----------------------------------------------------------------------

def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> Graph:
    return graph_from_edges(n, itertools.combinations(range(n), 2))


def complete_bipartite_graph(a: int, b: int) -> Graph:
    return graph_from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def star_graph(n: int) -> Graph:
    return graph_from_edges(n, [(0, i) for i in range(1, n)])


def prism_graph() -> Graph:
    """Triangular prism: two triangles joined by a perfect matching."""
    return graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                                (0, 3), (1, 4), (2, 5)])


def cube_graph() -> Graph:
    edges = []
    for i in range(8):
        for b in range(3):
            j = i ^ (1 << b)
            if i < j:
                edges.append((i, j))
    return graph_from_edges(8, edges)


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return graph_from_edges(10, outer + inner + spokes)


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    shifted = [(u + g1.n, v + g1.n) for u, v in g2.edges]
    return graph_from_edges(g1.n + g2.n, list(g1.edges) + shifted)


def relabel(g: Graph, perm) -> Graph:
    """Apply a permutation of [n] to the vertices (perm[v] is the new label)."""
    perm = tuple(int(p) for p in perm)
    return graph_from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


# ----------------------------------------------------------------------
# distances
# ----------------------------------------------------------------------

def bfs_distances(g: Graph, source: int, radius: int | None = None) -> list[int]:
    """BFS distances from one vertex; unreachable vertices, and with a radius
    the vertices beyond it, get the value n."""
    return multi_source_distances(g, [source], radius)


def multi_source_distances(g: Graph, sources, radius: int | None = None) -> list[int]:
    """BFS distances from the nearest vertex of a nonempty source set.

    With a radius the search stops at that depth and every vertex beyond it
    keeps the value n, so entries up to the radius equal the full BFS."""
    return _bfs(g, sources, radius)[0]


def _bfs(g: Graph, sources, radius: int | None) -> tuple[list[int], list[int], int]:
    """The one BFS loop: the distances, the vertices reached in BFS order,
    and where the layer at the last depth reached starts in that order."""
    sources = list(sources)
    if not sources:
        raise GraphError("source set must be nonempty")
    if min(sources) < 0 or max(sources) >= g.n:
        raise GraphError(f"source out of range for n={g.n}: {min(sources)}..{max(sources)}")
    n, adjacency = g.n, g.adjacency
    dist = [n] * n
    order = []
    for s in sources:
        if dist[s] == n:
            dist[s] = 0
            order.append(s)
    depth = start = 0
    limit = n if radius is None else radius
    while start < len(order) and depth < limit:
        depth += 1
        layer, start = order[start:], len(order)
        for v in layer:
            for u in adjacency[v]:
                if dist[u] == n:
                    dist[u] = depth
                    order.append(u)
    return dist, order, start


@lru_cache(maxsize=128)
def distance_matrix(g: Graph) -> np.ndarray:
    """All-pairs shortest-path distances, cross-component entries equal n."""
    out = np.empty((g.n, g.n), dtype=np.int64)
    for v in range(g.n):
        out[v] = bfs_distances(g, v)
    out.flags.writeable = False
    return out


def diameter(g: Graph) -> int:
    if g.n == 0:
        return 0
    return int(distance_matrix(g).max(initial=0))


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    return max(bfs_distances(g, 0)) < g.n


def ball(g: Graph, S, radius: int) -> set[int]:
    """All vertices at distance <= radius from the set S."""
    dist = multi_source_distances(g, S, radius)
    return {v for v in range(g.n) if dist[v] <= radius}


def sphere(g: Graph, S, radius: int) -> set[int]:
    """All vertices at distance exactly radius from the set S."""
    dist, order, start = _bfs(g, S, radius)
    if 0 <= radius < g.n:
        return set(order[start:])
    return {v for v in range(g.n) if dist[v] == radius}


# ----------------------------------------------------------------------
# Cheeger constant
# ----------------------------------------------------------------------

def cut_size(g: Graph, S) -> int:
    inc = [False] * g.n
    for v in S:
        inc[v] = True
    return sum(1 for u, v in g.edges if inc[u] != inc[v])


_CHEEGER_LIMIT = 22  # the subset and cut tables hold 2^n 32-bit entries each, 16 MiB at n = 22


def cheeger_exact(g: Graph) -> Fraction:
    """Minimum of cut(S)/|S| over nonempty S with |S| <= n/2, exact.

    Tabulates the cut of every subset, indexed by its vertex bitmask, one top
    vertex at a time: adding vertex k to S within [k] adds its degree and
    takes off twice its edges into S.  2^n work: refuse above the limit and
    point callers at cheeger_bounds.
    """
    n = g.n
    if n < 2:
        raise GraphError("cheeger constant needs n >= 2")
    if n > _CHEEGER_LIMIT:
        raise GraphError(
            f"n={n} exceeds the exhaustive-search limit {_CHEEGER_LIMIT}; "
            "use cheeger_bounds for a spectral bracket"
        )
    subsets = np.arange(1 << n, dtype=np.uint32)
    cut = np.zeros(1 << n, dtype=np.int32)
    for k, nbrs in enumerate(g.adjacency):
        earlier = sum(1 << u for u in nbrs if u < k)
        inside = np.bitwise_count(subsets[:1 << k] & earlier)
        # inside is uint8: subtract it from the signed cut, where it cannot wrap
        cut[1 << k:2 << k] = cut[:1 << k] + len(nbrs) - 2 * inside
    size = np.bitwise_count(subsets)
    return min(Fraction(int(cut[size == s].min()), s) for s in range(1, n // 2 + 1))


def cheeger_bounds(g: Graph, eigenvalues: np.ndarray) -> tuple[float, float]:
    """Spectral bracket (d - l2)/2 <= h(G) <= sqrt(2 d (d - l2))."""
    d = g.regular_degree()
    if d is None:
        raise GraphError("cheeger_bounds requires a regular graph")
    lam2 = float(np.sort(eigenvalues)[-2]) if g.n >= 2 else float(eigenvalues[0])
    gap = d - lam2
    return gap / 2.0, math.sqrt(max(2.0 * d * gap, 0.0))


def cheeger_lower_bound(g: Graph) -> float:
    """h(G) exactly when feasible, else the conservative spectral lower bound."""
    if g.n <= _CHEEGER_LIMIT:
        return float(cheeger_exact(g))
    return cheeger_bounds(g, spectrum(g))[0]


# ----------------------------------------------------------------------
# spectrum
# ----------------------------------------------------------------------

def _edge_array(g: Graph) -> np.ndarray:
    """The edges as an (m, 2) array of vertex indices."""
    return np.array(g.edges, dtype=np.intp).reshape(-1, 2)


def adjacency_matrix(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n), dtype=np.float64)
    u, v = _edge_array(g).T
    a[u, v] = a[v, u] = 1.0
    return a


def spectrum(g: Graph) -> np.ndarray:
    """All eigenvalues of the 0/1 adjacency matrix, ascending."""
    if g.n < 1:
        raise GraphError("spectrum needs n >= 1")
    return np.linalg.eigvalsh(adjacency_matrix(g))


# Lanczos beats the dense solve from about n = 400 on random 3- and 4-regular
# graphs (4.3 vs 5.6 ms at n=400, 11 vs 40 ms at n=1000, 17 vs 311 ms at
# n=2000).  Random 3- to 6-regular graphs converged within n/14 implicit
# restarts (8 graphs for each d at n = 400, 1000, 2000, 4000).  A graph with a
# small spectral gap needs about n restarts (C_1000: 1090, several times the
# dense time), so lambda2 stops after n/8 and falls back to the dense solve.
_LANCZOS_MIN_N = 400


def lambda2(g: Graph) -> float:
    """Second-largest adjacency eigenvalue.

    A connected graph with at least _LANCZOS_MIN_N vertices takes the top two
    eigenvalues of its sparse adjacency from ARPACK Lanczos, started from a
    fixed vector so that repeated calls agree bit for bit.  Smaller graphs,
    disconnected ones (whose largest eigenvalue can be repeated, which Lanczos
    from one start vector need not see) and runs that do not converge use the
    dense spectrum.
    """
    if g.n < 2:
        raise GraphError("lambda2 needs n >= 2")
    if g.n >= _LANCZOS_MIN_N and is_connected(g):
        from scipy.sparse import csr_array
        from scipy.sparse.linalg import ArpackNoConvergence, eigsh
        u, v = _edge_array(g).T
        a = csr_array((np.ones(2 * g.m), (np.concatenate([u, v]), np.concatenate([v, u]))),
                      shape=(g.n, g.n))
        # rng feeds the restart vectors ARPACK draws after a breakdown
        gen = derive_rng(0, "lambda2", g.n)
        try:
            top = eigsh(a, k=2, which="LA", v0=gen.uniform(-1.0, 1.0, g.n), rng=gen,
                        maxiter=g.n // 8, return_eigenvectors=False)
        except ArpackNoConvergence:
            pass
        else:
            return float(top.min())
    return float(spectrum(g)[-2])


# ----------------------------------------------------------------------
# random regular graphs (pairing model, rejection sampled)
# ----------------------------------------------------------------------

_PAIRING_STUBS = 1 << 19  # stub keys drawn at once; sets memory only, not the law
_PAIRING_PATIENCE = 10_000  # give up after this many times the expected draws


def _simple_pairings(n: int, d: int, want: int, gen):
    """Yield batches (lo, hi) of uniformly random simple pairings of d stubs
    per vertex of [n], want rows in all; row r pairs lo[r, i] < hi[r, i].

    Each pairing sorts the stubs by uniform keys, so all pairings are equally
    likely, and a row is kept iff it has no loop and no repeated pair: the
    kept rows are uniform on simple pairings, and each simple d-regular graph
    comes from (d!)^n of them.  A pairing is simple with probability about
    exp(-(d^2-1)/4) (Bollobas 1980), and that sets the batch rows.  At the
    smallest n the true rate is lower, by up to 128 times (n = 8, d = 7), so a
    working sampler reaches the give-up rule with probability below exp(-78).
    """
    if not 1 <= d <= n - 1:
        raise GraphError(f"degree d={d} must satisfy 1 <= d <= n-1 (n={n})")
    if (n * d) % 2 != 0:
        raise GraphError(f"n*d must be even, got n={n}, d={d}")
    accept = math.exp(-(d * d - 1) / 4)
    if accept < 1e-6:
        raise GraphError(f"d={d} needs about exp((d^2-1)/4) > 1e6 pairing draws; use d <= 7")
    stubs = np.repeat(np.arange(n, dtype=np.intp), d)
    limit = _PAIRING_PATIENCE * want / accept
    drawn = got = 0
    while got < want:
        if drawn >= limit:
            raise GraphError(f"pairing model gave up for n={n}, d={d}: {got} of {want} "
                             f"simple pairings in {drawn} draws")
        rows = min(max(1, _PAIRING_STUBS // stubs.size), math.ceil((want - got) / accept))
        paired = stubs[np.argsort(gen.random((rows, stubs.size)), axis=1)]
        lo = np.minimum(paired[:, 0::2], paired[:, 1::2])
        hi = np.maximum(paired[:, 0::2], paired[:, 1::2])
        codes = np.sort(lo * n + hi, axis=1)
        ok = (lo != hi).all(axis=1) & (np.diff(codes, axis=1) != 0).all(axis=1)
        drawn += rows
        lo, hi = lo[ok][:want - got], hi[ok][:want - got]
        if len(lo):
            got += len(lo)
            yield lo, hi


def random_regular(n: int, d: int, seed: int) -> Graph:
    """Uniform simple d-regular graph on [n] via the pairing model: the first
    simple pairing of the stream.  Deterministic given the seed."""
    if not 3 <= d <= n - 1:
        raise GraphError(f"degree d={d} must satisfy 3 <= d <= n-1 (n={n})")
    lo, hi = next(_simple_pairings(n, d, 1, derive_rng(seed, "pairing", n, d)))
    return graph_from_edges(n, zip(lo[0].tolist(), hi[0].tolist()))


_CONNECTED_TRIES = 200


def random_connected_regular(n: int, d: int, seed: int) -> Graph:
    """First connected sample from random_regular over derived seeds."""
    for t in range(_CONNECTED_TRIES):
        g = random_regular(n, d, seed + t * 1_000_003)
        if is_connected(g):
            return g
    raise GraphError(f"no connected {d}-regular sample found in {_CONNECTED_TRIES} tries")


# ----------------------------------------------------------------------
# tree-like vertices and long-range expansion
# ----------------------------------------------------------------------

def tree_like_set(g: Graph, m: int) -> set[int]:
    """Vertices whose radius-3m ball induces a tree (connected and acyclic).

    For 3m >= n the cross-component distance convention pulls other
    components into the ball, so connectivity of the induced subgraph must
    be checked explicitly, not inferred from the edge count: the ball is
    connected iff none of its vertices is at the cross-component distance n,
    since a shortest path to the centre stays inside the ball.
    """
    if m < 0:
        raise GraphError("radius must be nonnegative")
    n, r = g.n, 3 * m
    out = set()
    for v in range(n):
        dist, order, _ = _bfs(g, [v], r)
        # below radius n the ball is what the search reached; from n on it
        # also holds the other components, at distance n
        b = order if r < n else range(n)
        # the ends of the edges inside the ball: each edge is seen from both
        ends = sum(1 for u in b for w in g.adjacency[u] if dist[w] <= r)
        if ends == 2 * (len(b) - 1) and all(dist[u] < n for u in b):
            out.add(v)
    return out


@dataclass(frozen=True)
class ExpansionResult:
    holds: bool
    violation: tuple[frozenset[int], int] | None  # (S, radius) of first failure
    mode: str                                     # "exact" or "sampled"


_EXPANSION_EXACT_LIMIT = 18  # the exact table holds 2^n rows of n bytes, 4.5 MiB at n = 18
_EXPANSION_SAMPLES = 200


def expansion_holds(g: Graph, alpha: float, seed: int = 0) -> ExpansionResult:
    """Check |B(S, r)| >= min(3n/4, alpha (d-1)^r |S|) for vertex sets S.

    Row S of one table holds each vertex's distance to S, the minimum of the
    distance-matrix rows of its vertices, so S is where the row is 0.  Exact
    mode (n <= _EXPANSION_EXACT_LIMIT) has a row for every nonempty vertex
    bitmask, in mask order, built one top vertex at a time; sampled mode has
    the singletons, then _EXPANSION_SAMPLES random subsets, and is one-sided:
    a "holds" verdict only means no violation was found.  The first violating
    row is reported with its smallest violating radius.
    """
    d = g.regular_degree()
    if d is None:
        raise GraphError("expansion check requires a regular graph")
    if not 0 < alpha < math.inf:
        raise GraphError(f"need finite alpha > 0, got alpha={alpha}")
    n, dist = g.n, distance_matrix(g)
    if n <= _EXPANSION_EXACT_LIMIT:
        mode, rows = "exact", np.full((1 << n, n), n, dtype=np.uint8)
        for k, row in enumerate(dist.astype(np.uint8)):
            rows[1 << k:2 << k] = np.minimum(rows[:1 << k], row)
        rows = rows[1:]  # drop the empty set's row
    else:
        mode, gen = "sampled", derive_rng(seed, "expansion", n)
        samples = [gen.choice(n, size=int(gen.integers(1, n // 2 + 1)), replace=False)
                   for _ in range(_EXPANSION_SAMPLES)]
        rows = np.concatenate([dist, [dist[S].min(axis=0) for S in samples]])
    top, size = 0.75 * n, np.count_nonzero(rows == 0, axis=1)
    first = np.full(len(rows), n)  # smallest violating radius; B(S, n) is all of [n]
    for r in range(n):
        growth = float(Fraction(alpha) * (d - 1) ** r)  # one rounding, never an overflow
        reached = np.count_nonzero(rows <= r, axis=1)
        first[(first == n) & (reached < np.minimum(top, growth * size))] = r
        # the balls only grow, while the threshold stops growing here (d <= 2
        # or alpha (d-1)^r >= 3n/4) and never passes 3n/4
        if growth >= top or d <= 2 or (reached >= top).all():
            break
    bad = np.flatnonzero(first < n)
    if not bad.size:
        return ExpansionResult(True, None, mode)
    S = frozenset(np.flatnonzero(rows[bad[0]] == 0).tolist())
    return ExpansionResult(False, (S, int(first[bad[0]])), mode)


# ----------------------------------------------------------------------
# small-n canonical forms (lexicographically smallest edge list)
# ----------------------------------------------------------------------

_CANON_CAP = 8


@lru_cache(maxsize=_CANON_CAP + 1)
def _pair_action(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The action of the permutations of [n] on its vertex pairs, read-only:
    the pairs in lexicographic order, the n x n pair-index matrix pid, and
    img[p, e], the index of pair e's image under the p-th permutation in
    itertools order."""
    pairs = np.array(list(itertools.combinations(range(n), 2)), dtype=np.intp).reshape(-1, 2)
    pid = np.zeros((n, n), dtype=np.int8)
    pid[pairs[:, 0], pairs[:, 1]] = pid[pairs[:, 1], pairs[:, 0]] = np.arange(len(pairs))
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    img = pid[perms[:, pairs[:, 0]], perms[:, pairs[:, 1]]]
    pairs.flags.writeable = pid.flags.writeable = img.flags.writeable = False
    return pairs, pid, img


def _pair_weights(n: int) -> np.ndarray:
    """The key bit of each vertex pair of [n]: a graph's key adds the bits of
    its edges, with pair 0 the most significant, so of two graphs with the
    same edge count the one with the smaller sorted edge list has the
    greater key."""
    top = n * (n - 1) // 2 - 1
    return np.int64(1) << (top - np.arange(top + 1, dtype=np.int64))


def _canonical_keys(n: int, keys) -> np.ndarray:
    """The canonical key of each labelled graph on [n] (n <= 8), given and
    returned as keys: the greatest key over its isomorphism class.

    Each pass takes the first graph not yet classified, computes the keys of
    all n! of its images with the pair-action table and classifies every
    graph of the batch found among them, so the cost is one pass per class.
    """
    if n > _CANON_CAP:
        raise GraphError(f"canonical form is brute-force only, n <= {_CANON_CAP}")
    img = _pair_action(n)[2]
    weights = _pair_weights(n)
    top = len(weights) - 1
    distinct, inverse = np.unique(np.asarray(keys, dtype=np.int64), return_inverse=True)
    canon = np.full(len(distinct), -1)
    while (todo := np.flatnonzero(canon < 0)).size:
        ids = np.flatnonzero(distinct[todo[0]] & weights)
        images = (np.int64(1) << (top - img[:, ids])).sum(axis=1)
        # every batch key among the images is in this class, classified or not
        at = np.searchsorted(distinct, images).clip(max=len(distinct) - 1)
        canon[at[distinct[at] == images]] = images.max()
    return canon[inverse]


def _edges_key(n: int, edges) -> int:
    """The key of the graph on [n] with these edges."""
    pid = _pair_action(n)[1]
    return int(_pair_weights(n)[[pid[e] for e in edges]].sum())


def _key_edges(n: int, key: int) -> list[list[int]]:
    """The sorted edge list of the graph on [n] with this key."""
    pairs = _pair_action(n)[0]
    return pairs[np.flatnonzero(key & _pair_weights(n))].tolist()


@lru_cache(maxsize=65536)
def canonical_form(g: Graph) -> Graph:
    """Isomorphic copy with the lexicographically smallest sorted edge list.

    The one-graph case of the class sweep: brute force over all n!
    permutations, so capped at n <= 8.  Constant on isomorphism classes by
    construction.
    """
    if g.n > _CANON_CAP:
        raise GraphError(f"canonical form is brute-force only, n <= {_CANON_CAP}")
    key = _canonical_keys(g.n, [_edges_key(g.n, g.edges)])[0]
    return graph_from_edges(g.n, _key_edges(g.n, int(key)))


def enumerate_regular_graphs(n: int, d: int, connected_only: bool = True) -> list[Graph]:
    """All d-regular graphs on n vertices up to isomorphism (brute force).

    Enumerates labelled graphs with N(0) = {1,..,d} (every isomorphism
    class has such a labelling) and keeps one canonical form per class;
    connectivity is a class invariant, so it is tested on those forms only.
    """
    if n > _CANON_CAP:
        raise GraphError(f"exhaustive enumeration capped at n <= {_CANON_CAP}")
    if n < 0 or d < 0:
        raise GraphError(f"need n >= 0 and d >= 0, got n={n}, d={d}")
    if d >= n or (n * d) % 2 != 0:
        return []
    base = [(0, j) for j in range(1, d + 1)]
    residual = [0] + [d - 1 if 1 <= v <= d else d for v in range(1, n)]
    keys: list[int] = []

    def extend(v: int, chosen: list[tuple[int, int]]):
        # every vertex before v has its full degree
        if v == n:
            keys.append(_edges_key(n, base + chosen))
            return
        need = residual[v]
        candidates = [u for u in range(v + 1, n) if residual[u] > 0]
        for combo in itertools.combinations(candidates, need):
            for u in combo:
                residual[u] -= 1
            residual[v] = 0
            extend(v + 1, chosen + [(v, u) for u in combo])
            residual[v] = need
            for u in combo:
                residual[u] += 1

    extend(1, [])
    reps = [graph_from_edges(n, _key_edges(n, int(k))) for k in np.unique(_canonical_keys(n, keys))]
    if connected_only:
        reps = [g for g in reps if is_connected(g)]
    return sorted(reps, key=lambda g: g.edges)
