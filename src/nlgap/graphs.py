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
from functools import cached_property, lru_cache

import numpy as np

from . import metrics
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

    @cached_property
    def edge_array(self) -> np.ndarray:
        """The edges as a read-only (m, 2) array of vertex indices."""
        a = np.array(self.edges, dtype=np.intp).reshape(-1, 2)
        a.flags.writeable = False
        return a

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(nbrs) for nbrs in self.adjacency)

    def regular_degree(self) -> int | None:
        """The common degree, or None if the graph is irregular."""
        degs = set(self.degrees())
        return degs.pop() if len(degs) == 1 else None


def graph_from_edges(n: int, edges) -> Graph:
    """Build and validate a simple graph from an iterable of vertex pairs."""
    _check_graph(n, 0)
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


# a graph holds a Python tuple per edge and per vertex; K_500, the largest any
# test builds, has 124,750 edges, and every path and cycle within the edge cap fits
_EDGE_CAP = 10 ** 6
_VERTEX_CAP = _EDGE_CAP + 1


def _check_graph(n: int, m: int) -> None:
    """Refuse, before anything is built, a graph beyond the caps or with m < 0."""
    if m > _EDGE_CAP:
        raise GraphError(f"n = {n} gives {m} edges, which exceeds the edge cap {_EDGE_CAP}")
    if not 0 <= n <= _VERTEX_CAP:
        raise GraphError(f"n = {n} is outside the vertex range 0..{_VERTEX_CAP}")
    if m < 0:
        raise GraphError(f"edge count m = {m} is negative")


# ----------------------------------------------------------------------
# named constructions used throughout the test corpus
# ----------------------------------------------------------------------

def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    _check_graph(n, n)
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    _check_graph(n, max(n - 1, 0))
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> Graph:
    _check_graph(n, n * (n - 1) // 2)
    return graph_from_edges(n, itertools.combinations(range(n), 2))


def prism_graph() -> Graph:
    """Triangular prism: two triangles joined by a perfect matching."""
    return graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                                (0, 3), (1, 4), (2, 5)])


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return graph_from_edges(10, outer + inner + spokes)


# ----------------------------------------------------------------------
# distances
# ----------------------------------------------------------------------

def bfs_distances(g: Graph, source: int) -> list[int]:
    """BFS distances from one vertex; unreachable vertices get the value n."""
    return multi_source_distances(g, [source])


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
    if radius is not None and radius < 0:
        raise GraphError(f"radius must be >= 0, got {radius}")
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


@lru_cache(maxsize=1)
def distance_matrix(g: Graph) -> np.ndarray:
    """All-pairs shortest-path distances, cross-component entries equal n.

    Refuses, before allocating it, a matrix beyond metrics._METRIC_BYTES."""
    if 8 * g.n * g.n > metrics._METRIC_BYTES:
        raise GraphError(f"the distance matrix of n = {g.n} vertices exceeds the "
                         f"{metrics._METRIC_BYTES}-byte budget")
    out = np.empty((g.n, g.n), dtype=np.int64)
    for v in range(g.n):
        out[v] = bfs_distances(g, v)
    out.flags.writeable = False
    return out


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    return max(bfs_distances(g, 0)) < g.n


def sphere(g: Graph, S, radius: int) -> set[int]:
    """All vertices at distance exactly radius from the set S; a vertex S
    cannot reach is at no distance, so every radius >= n gives the empty set."""
    _, order, start = _bfs(g, S, radius)
    return set(order[start:])


# ----------------------------------------------------------------------
# Cheeger constant
# ----------------------------------------------------------------------

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


def cheeger_bounds(g: Graph) -> tuple[float, float]:
    """Spectral bracket (d - l2)/2 <= h(G) <= sqrt(2 d (d - l2)), l2 = lambda2(g)."""
    d = g.regular_degree()
    if d is None:
        raise GraphError("cheeger_bounds requires a regular graph")
    gap = d - lambda2(g)
    return gap / 2.0, math.sqrt(max(2.0 * d * gap, 0.0))


def cheeger_lower_bound(g: Graph) -> float:
    """h(G) exactly when feasible, else the conservative spectral lower bound."""
    if g.n <= _CHEEGER_LIMIT:
        return float(cheeger_exact(g))
    return cheeger_bounds(g)[0]


# ----------------------------------------------------------------------
# spectrum
# ----------------------------------------------------------------------

def adjacency_matrix(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n), dtype=np.float64)
    u, v = g.edge_array.T
    a[u, v] = a[v, u] = 1.0
    return a


def spectrum(g: Graph) -> np.ndarray:
    """All eigenvalues of the 0/1 adjacency matrix, ascending."""
    if g.n < 1:
        raise GraphError("spectrum needs n >= 1")
    return np.linalg.eigvalsh(adjacency_matrix(g))


# On random cubic graphs _top_two beats the dense solve from about n = 400
# (5-6 vs 11 ms at n=400, 11-16 vs 79 ms at n=1000) and takes 21-29 ms at
# n=2000 and 49-53 ms at n=4000, against 33-40 and 78-85 ms for ARPACK
# eigsh (medians over 8 graphs, 2 cores).  Random 3- to 6-regular graphs
# converged within 16, 22 and 31 cycles at n = 400, 1000, 2000 (8 graphs for
# each d).  A graph with a small spectral gap needs about n/3 (a 4-clique
# with a path tail, n = 1000: 371), so lambda2 stops after n/8 and falls
# back to the dense solve.  Paths and cycles (maximum degree <= 2) have that
# gap, so they skip Lanczos.
_LANCZOS_MIN_N = 400
_LANCZOS_BASIS = 24  # Lanczos vectors per restart cycle
_LANCZOS_KEEP = 10   # largest Ritz vectors carried across a restart


def lambda2(g: Graph) -> float:
    """Second-largest adjacency eigenvalue.

    A connected graph with at least _LANCZOS_MIN_N vertices and a vertex of
    degree at least 3 takes the top two eigenvalues of its sparse adjacency
    from _top_two, started from a fixed vector so that repeated calls agree
    bit for bit.  Smaller graphs, paths and cycles, disconnected ones (whose
    largest eigenvalue can be repeated, which Lanczos from one start vector
    need not see) and runs that do not converge use the dense spectrum.
    """
    if g.n < 2:
        raise GraphError("lambda2 needs n >= 2")
    if g.n >= _LANCZOS_MIN_N and max(g.degrees()) > 2 and is_connected(g):
        u, v = g.edge_array.T
        rows, cols = np.concatenate([u, v]), np.concatenate([v, u])
        top = _top_two(lambda x: np.bincount(rows, weights=x[cols], minlength=g.n),
                       derive_rng(0, "lambda2", g.n).uniform(-1.0, 1.0, g.n), g.n // 8)
        if top is not None:
            return float(top[0])
    return float(spectrum(g)[-2])


def _top_two(matvec, x: np.ndarray, max_cycles: int) -> np.ndarray | None:
    """The two largest eigenvalues, ascending, of the symmetric operator
    matvec, by thick-restart Lanczos (Wu & Simon, SIAM J. Matrix Anal. Appl.
    22, 2000) from the start vector x; None if max_cycles cycles do not
    converge.

    The basis vectors are the rows of V, and T = V A V^T.  A cycle extends
    the basis to _LANCZOS_BASIS vectors, then restarts from the
    _LANCZOS_KEEP largest Ritz vectors and the residual direction: their
    block of T is the diagonal of Ritz values, coupled to the residual by
    beta * S[-1, kept].  Each new vector is orthogonalised against the whole
    basis by classical Gram-Schmidt, with a second pass when the first
    cancels more than 1 - 1/sqrt(2) of its norm (the DGKS test), so the
    basis stays orthonormal to rounding and T has no spurious copies of
    converged Ritz values.  It stops when both top Ritz residuals
    |beta * S[-1, i]| are at most 20 eps max|theta|.
    """
    eps = np.finfo(np.float64).eps
    basis, keep = _LANCZOS_BASIS, _LANCZOS_KEEP
    V = np.empty((basis + 1, x.size))
    T = np.zeros((basis, basis))
    # math.sqrt(w.dot(w)) is how np.linalg.norm computes a real vector's norm
    V[0] = x / math.sqrt(x.dot(x))
    k = 0
    norm = 0.0  # the largest |A v| so far, an estimate of |A| from below
    for _ in range(max_cycles):
        for j in range(k, basis):
            w = matvec(V[j])
            first = math.sqrt(w.dot(w))
            norm = max(norm, first)
            Vj = V[:j + 1]
            h = Vj @ w
            w -= h @ Vj
            beta = math.sqrt(w.dot(w))
            if beta < first / math.sqrt(2):
                again = Vj @ w
                w -= again @ Vj
                h += again
                beta = math.sqrt(w.dot(w))
            T[j, j] = h[j]
            # rounding leaves beta at a few eps |A| once the Krylov space is
            # invariant; then T's leading block holds its exact eigenvalues
            if beta <= 1e3 * eps * norm:
                return np.linalg.eigvalsh(T[:j + 1, :j + 1])[-2:]
            if j + 1 < basis:
                T[j, j + 1] = T[j + 1, j] = beta
            np.divide(w, beta, out=V[j + 1])
        theta, s = np.linalg.eigh(T)
        if np.abs(beta * s[-1, -2:]).max() <= 20 * eps * np.abs(theta).max():
            return theta[-2:]
        V[:keep] = s[:, -keep:].T @ V[:basis]
        V[keep] = V[basis]
        T[:] = 0.0
        np.fill_diagonal(T[:keep, :keep], theta[-keep:])
        T[:keep, keep] = T[keep, :keep] = beta * s[-1, -keep:]
        k = keep
    return None


# ----------------------------------------------------------------------
# random regular graphs (pairing model, rejection sampled)
# ----------------------------------------------------------------------

# the array entries one block holds: pairing keys sorted at once here, and in
# models the matchings x ell and restriction count rows x N drawn at once.
# Every blocked draw is block-invariant, so this sets memory only
_BLOCK_ENTRIES = 1 << 15
_PAIRING_PATIENCE = 10_000  # give up after this many times the expected draws


def _simple_pairings(n: int, d: int, want: int, gen):
    """Yield blocks (lo, hi) of uniformly random simple pairings of d stubs
    per vertex of [n], want rows in all; row r pairs lo[r, i] < hi[r, i].

    Each pairing sorts the stubs by uniform keys, so all pairings are equally
    likely, and a row is kept iff it has no loop and no repeated pair: the
    kept rows are uniform on simple pairings, and each simple d-regular graph
    comes from (d!)^n of them.  A pairing is simple with probability about
    exp(-(d^2-1)/4) (Bollobas 1980), and that sets the rows drawn for the
    ones still wanted.  At the smallest n the true rate is lower, by up to
    128 times (n = 8, d = 7), so a working sampler reaches the give-up rule
    with probability below exp(-78).

    The keys are drawn, sorted and checked _BLOCK_ENTRIES at a time, which
    sets the memory only: the rows are the first want simple ones of the
    key stream, and drawing stops in the block that holds the last of them.
    """
    if not 1 <= d <= n - 1:
        raise GraphError(f"degree d={d} must satisfy 1 <= d <= n-1 (n={n})")
    if (n * d) % 2 != 0:
        raise GraphError(f"n*d must be even, got n={n}, d={d}")
    accept = math.exp(-(d * d - 1) / 4)
    if accept < 1e-6:
        raise GraphError(f"d={d} needs about exp((d^2-1)/4) > 1e6 pairing draws; use d <= 7")
    stubs = np.repeat(np.arange(n, dtype=np.min_scalar_type(n - 1)), d)
    code = np.min_scalar_type(n * n - 1)
    chunk = max(1, _BLOCK_ENTRIES // stubs.size)
    limit = _PAIRING_PATIENCE * want / accept
    drawn = got = 0
    while got < want:
        if drawn >= limit:
            raise GraphError(f"pairing model gave up for n={n}, d={d}: {got} of {want} "
                             f"simple pairings in {drawn} draws")
        rows = min(chunk, math.ceil((want - got) / accept))
        paired = stubs[np.argsort(gen.random((rows, stubs.size)), axis=1)]
        paired = paired[(paired[:, 0::2] != paired[:, 1::2]).all(axis=1)]
        lo = np.minimum(paired[:, 0::2], paired[:, 1::2])
        hi = np.maximum(paired[:, 0::2], paired[:, 1::2])
        codes = np.sort(lo.astype(code) * n + hi, axis=1)
        ok = (np.diff(codes, axis=1) != 0).all(axis=1)
        lo, hi = lo[ok][:want - got], hi[ok][:want - got]
        drawn += rows
        if len(lo):
            got += len(lo)
            yield lo, hi


def random_regular(n: int, d: int, seed: int) -> Graph:
    """Uniform simple d-regular graph on [n] via the pairing model: the first
    simple pairing of the stream.  Deterministic given the seed."""
    if not 3 <= d <= n - 1:
        raise GraphError(f"degree d={d} must satisfy 3 <= d <= n-1 (n={n})")
    _check_graph(n, n * d // 2)
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
# small-n canonical forms (lexicographically smallest edge list)
# ----------------------------------------------------------------------

_CANON_CAP = 8


@lru_cache(maxsize=_CANON_CAP + 1)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The vertex pairs of [n] in lexicographic order and the n x n
    pair-index matrix pid, read-only."""
    pairs = np.array(list(itertools.combinations(range(n), 2)), dtype=np.intp).reshape(-1, 2)
    pid = np.zeros((n, n), dtype=np.int8)
    pid[pairs[:, 0], pairs[:, 1]] = pid[pairs[:, 1], pairs[:, 0]] = np.arange(len(pairs))
    pairs.flags.writeable = pid.flags.writeable = False
    return pairs, pid


@lru_cache(maxsize=_CANON_CAP + 1)
def _pair_action(n: int) -> np.ndarray:
    """The action of all n! permutations of [n] on its vertex pairs,
    read-only: img[p, e] is the index of pair e's image under the p-th
    permutation in itertools order.  Only laws defined over every
    relabelling need it; canonical forms sweep the leading relabellings."""
    pairs, pid = _pairs(n)
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    img = pid[perms[:, pairs[:, 0]], perms[:, pairs[:, 1]]]
    img.flags.writeable = False
    return img


def _pair_weights(n: int) -> np.ndarray:
    """The key bit of each vertex pair of [n]: a graph's key adds the bits of
    its edges, with pair 0 the most significant, so of two graphs with the
    same edge count the one with the smaller sorted edge list has the
    greater key."""
    top = n * (n - 1) // 2 - 1
    return np.int64(1) << (top - np.arange(top + 1, dtype=np.int64))


def _leading_images(n: int, key: int) -> np.ndarray:
    """The keys of the graph on [n] with this key under its leading
    relabellings: those that send a vertex v of maximum degree D to 0, N(v)
    onto 1..D and the other vertices onto D+1..n-1, in every order.

    The smallest sorted edge list of a graph with an edge starts
    (0,1)..(0,D), so some leading relabelling attains the canonical key.
    There are at most n D! (n-D-1)! of them, never more than n!.
    """
    pairs = _pairs(n)[0]
    weights = _pair_weights(n)
    edges = pairs[np.flatnonzero(key & weights)]
    if not len(edges):
        return np.array([key], dtype=np.int64)  # every relabelling fixes it
    adj = np.zeros((n, n), dtype=bool)
    adj[edges[:, 0], edges[:, 1]] = adj[edges[:, 1], edges[:, 0]] = True
    deg = adj.sum(axis=1)
    top = int(deg.max())
    heads = np.array(list(itertools.permutations(range(top))), dtype=np.intp)
    tails = np.array(list(itertools.permutations(range(n - top - 1))), dtype=np.intp)
    vertices = np.flatnonzero(deg == top)
    # order[..., i] is the vertex that a relabelling sends to i
    order = np.empty((len(vertices), len(heads), len(tails), n), dtype=np.intp)
    for k, v in enumerate(vertices):
        others = np.flatnonzero(~adj[v])
        order[k, :, :, 0] = v
        order[k, :, :, 1:top + 1] = np.flatnonzero(adj[v])[heads][:, None]
        order[k, :, :, top + 1:] = others[others != v][tails]
    order = order.reshape(-1, n)
    # one pair at a time: a gather of all pairs at once took 21 MiB for K_8
    images = np.zeros(len(order), dtype=np.int64)
    for (i, j), w in zip(pairs.tolist(), weights.tolist()):
        images[adj[order[:, i], order[:, j]]] += w
    return images


def _canonical_keys(n: int, keys) -> np.ndarray:
    """The canonical key of each labelled graph on [n], given and returned
    as keys: the greatest key over its isomorphism class.  Callers refuse
    n > _CANON_CAP before they build a key.

    Each pass takes the first graph not yet classified, computes the keys of
    its leading relabellings (_leading_images), whose maximum is its
    canonical key, and classifies it and every graph of the batch found
    among them.  When the batch holds every completion of a class (a
    labelling in which vertex 0 has maximum degree and N(0) = 1..D), the
    images of one completion are exactly those completions, so such a batch
    takes one pass per class; any other graph takes a pass of its own.
    """
    distinct, inverse = np.unique(np.asarray(keys, dtype=np.int64), return_inverse=True)
    canon = np.full(len(distinct), -1)
    while (todo := np.flatnonzero(canon < 0)).size:
        images = _leading_images(n, int(distinct[todo[0]]))
        # every batch key among the images is in this class, classified or not
        at = np.searchsorted(distinct, images).clip(max=len(distinct) - 1)
        canon[at[distinct[at] == images]] = canon[todo[0]] = images.max()
    return canon[inverse]


def _edges_key(n: int, edges) -> int:
    """The key of the graph on [n] with these edges."""
    pid = _pairs(n)[1]
    return int(_pair_weights(n)[[pid[e] for e in edges]].sum())


def _key_edges(n: int, key: int) -> list[list[int]]:
    """The sorted edge list of the graph on [n] with this key."""
    pairs = _pairs(n)[0]
    return pairs[np.flatnonzero(key & _pair_weights(n))].tolist()


@lru_cache(maxsize=65536)
def canonical_form(g: Graph) -> Graph:
    """Isomorphic copy with the lexicographically smallest sorted edge list.

    The one-graph case of the class sweep: brute force over the leading
    relabellings, at most n D! (n-D-1)! for maximum degree D, capped at
    n <= 8.  Constant on isomorphism classes by construction.
    """
    if g.n > _CANON_CAP:
        raise GraphError(f"canonical form is brute-force only, n <= {_CANON_CAP}")
    key = _canonical_keys(g.n, [_edges_key(g.n, g.edges)])[0]
    return graph_from_edges(g.n, _key_edges(g.n, int(key)))


def enumerate_regular_graphs(n: int, d: int, connected_only: bool = True) -> list[Graph]:
    """All d-regular graphs on n vertices up to isomorphism (brute force).

    Enumerates the completions, the labelled graphs with N(0) = {1,..,d}
    (every isomorphism class has one), and canonicalizes them in one batch:
    the leading relabellings of a completion give exactly the completions
    of its class, so the class sweep makes one pass per class and builds
    no n! table.  Connectivity is a class invariant, so it is tested on
    the canonical forms only.
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
