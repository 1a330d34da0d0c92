"""Empirical statistics of vertex maps, concentration classification,
Dirichlet forms, per-map cost ratios, and the exact / heuristic optimal
ratio over all maps of a graph into a finite metric space.

Sums over vertex pairs are always over ordered pairs (v, u) in [n]^2,
including v = u, normalized by n^2; edge sums are over unordered edges,
normalized by |E|.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import metrics
from .graphs import Graph, is_connected
from .metrics import FiniteMetric, MetricError, capped_power, cost_matrix
from .rng import derive_rng


class CapExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class VertexMap:
    """Assignment of graph vertices to points of a finite metric space."""

    target: FiniteMetric
    assignment: tuple[int, ...]

    def __post_init__(self):
        if any(not 0 <= a < self.target.size for a in self.assignment):
            raise MetricError("map value out of range of the target space")

    @property
    def n(self) -> int:
        return len(self.assignment)

    def point_counts(self) -> np.ndarray:
        return np.bincount(np.asarray(self.assignment), minlength=self.target.size)

    def image_distances(self) -> np.ndarray:
        """The n x n matrix of distances between the images of vertex pairs;
        refused, before it is allocated, beyond metrics._METRIC_BYTES."""
        if 8 * self.n * self.n > metrics._METRIC_BYTES:
            raise MetricError(f"the image distances of n = {self.n} vertices "
                              f"exceed the {metrics._METRIC_BYTES}-byte budget")
        a = np.asarray(self.assignment, dtype=np.intp)
        return self.target.dist[a[:, None], a[None, :]]


@dataclass(frozen=True)
class GammaReport:
    """Per-map statistics: average, Dirichlet form, their ratio, quantile,
    and the concentration verdict at K = 5^q and tau = 1/2."""

    ave: float
    dirichlet: float
    ratio: float          # ave/dirichlet; inf if dirichlet = 0 < ave; nan if both vanish
    quantile_tau: float
    concentrated: bool


def _meets(count, tau, nsq: int):
    """count >= tau * nsq, exactly when tau is a Fraction; count may be an
    array of whole numbers."""
    if isinstance(tau, Fraction):
        return count * tau.denominator >= tau.numerator * nsq
    return count >= tau * nsq


def empirical_average(f: VertexMap, q: float) -> float:
    """Mean of pairwise image cost over all n^2 ordered vertex pairs."""
    return _average(f, cost_matrix(f.target, q))


def _average(f: VertexMap, costs: np.ndarray) -> float:
    cnt = f.point_counts().astype(np.float64)
    return float(cnt @ costs @ cnt) / (f.n * f.n)


def empirical_quantile(f: VertexMap, tau) -> float:
    """Smallest threshold t whose sublevel pair count reaches tau * n^2.

    Level 0 counts the ordered pairs that share a point, since a metric has
    no zero distance off the diagonal; when those already reach the
    mass the answer is 0, the infimum over t > 0.
    """
    if not 0 < tau < 1:
        raise ValueError("quantile level must lie in (0,1)")
    cnt = f.point_counts()
    levels, level_of = np.unique(f.target.dist, return_inverse=True)
    at_level = np.bincount(level_of.ravel(),
                           weights=np.outer(cnt, cnt).ravel(), minlength=len(levels))
    # the top level holds every pair, so some level meets tau < 1
    within = np.cumsum(at_level.astype(np.int64)).tolist()
    return next(float(t) for t, c in zip(levels, within) if _meets(c, tau, f.n * f.n))


def is_concentrated(f: VertexMap, k_const: float, q: float, tau) -> bool:
    """Empirical q-average bounded by k_const times the tau-quantile^q."""
    if k_const <= 0 or q < 1:
        raise ValueError("need K > 0 and q >= 1")
    return empirical_average(f, q) <= k_const * empirical_quantile(f, tau) ** q


def dirichlet(g: Graph, f: VertexMap, q: float) -> float:
    """Mean image cost over the edges of the graph."""
    return _dirichlet(g, f, cost_matrix(f.target, q))


def _dirichlet(g: Graph, f: VertexMap, costs: np.ndarray) -> float:
    if f.n != g.n:
        raise ValueError(f"map length {f.n} != graph order {g.n}")
    if g.m == 0:
        raise ValueError("graph has no edges")
    return _edge_sum(g, np.asarray(f.assignment), costs) / g.m


def _edge_sum(g: Graph, a: np.ndarray, costs: np.ndarray) -> float:
    """costs[a[u], a[v]] added over the edges of g one by one, in edge order."""
    u, v = g.edge_array.T
    return float(np.cumsum(costs[a[u], a[v]])[-1])


def cost_ratio(ave: float, dirichlet: float) -> float:
    """ave / dirichlet: inf when only the Dirichlet form is 0, nan when both are."""
    if dirichlet > 0:
        return ave / dirichlet
    return math.inf if ave > 0 else math.nan


def gamma_of_map(g: Graph, f: VertexMap, q: float) -> GammaReport:
    """Full statistics report for one map; the ratio follows cost_ratio."""
    costs = cost_matrix(f.target, q)
    ave = _average(f, costs)
    dir_ = _dirichlet(g, f, costs)
    quant = empirical_quantile(f, Fraction(1, 2))
    return GammaReport(ave=ave, dirichlet=dir_, ratio=cost_ratio(ave, dir_),
                       quantile_tau=quant, concentrated=ave <= 5.0 ** q * quant ** q)


# ----------------------------------------------------------------------
# bulk enumeration over all maps
# ----------------------------------------------------------------------

# maps per block: the low block holds the last b vertices, the most with
# N^b <= _BLOCK_MAPS, so b depends only on (n, N)
_BLOCK_MAPS = 1 << 14
# the largest map universes gamma_exact and enumerate_map_statistics exhaust
_EXACT_CAP = 10 ** 8
_STATISTICS_CAP = 10 ** 7
# gamma_lower_search's working-set budget in n x N float tables; it keeps
# three and a bool mask, and a test holds its traced peak below five
_SEARCH_TABLES = 5


@lru_cache(maxsize=32)
def _low_block(b: int, n_points: int):
    """The point counts of the N^b maps of the low block of b vertices, in
    base-N counter order, in the narrowest types, read-only: cnt, each
    map's point counts; rows, the distinct count rows as floats; and
    row_of, each map's row among them."""
    size = n_points ** b
    low = np.indices((n_points,) * b, dtype=np.min_scalar_type(n_points - 1)).reshape(b, size)
    cnt = np.zeros((size, n_points), dtype=np.min_scalar_type(b))
    for row in low:
        cnt[np.arange(size), row] += 1
    # distinct rows found by their bytes: np.unique(axis=0) compares field by
    # field and took 5 to 90 times as long
    distinct, row_of = np.unique(cnt.view(np.dtype((np.void, cnt.strides[0])))[:, 0],
                                 return_inverse=True)
    rows = distinct.view(cnt.dtype).reshape(-1, n_points).astype(np.float64)
    block = (cnt, rows, row_of.astype(np.min_scalar_type(len(rows) - 1)))
    for a in block:
        a.flags.writeable = False
    return block


def _axes(b: int, n_points: int, *axes: int) -> tuple[int, ...]:
    """The shape that lays an array of N along each of the given axes, in
    increasing order, and broadcasts it over the other of b axes."""
    return tuple(n_points if j in axes else 1 for j in range(b))


def _map_blocks(g: Graph, n_points: int, forms, costs):
    """Yield (block, form_sums, edge_sums) over all N^n maps of g, in blocks
    of consecutive indices of the base-N counter with vertex 0 the most
    significant digit, i.e. in lexicographic order of assignment tuples.

    For map k of the slice `block`, with point counts cnt, form_sums[i][k]
    is cnt @ forms[i] @ cnt (every form must be symmetric) and
    edge_sums[j][k] sums costs[j] over the edges of g, in edge order.  The
    low block's counts, forms and internal edge sums are computed once; each
    assignment of the outer vertices adds a matrix-vector product per form
    and, per edge at an outer vertex, a cost or a row of costs.

    In counter order the block's maps are the cells of an (N,)*b array whose
    axis j holds the point of low vertex j: a low edge (u, v) adds the cost
    matrix laid along axes u and v, and an edge from an outer vertex to low
    vertex v a row of costs along axis v, each broadcast over the others.
    """
    n = g.n
    b = 0
    while b < n and n_points ** (b + 1) <= _BLOCK_MAPS:
        b += 1
    outer = n - b
    size = n_points ** b
    cnt_low, rows, row_of = _low_block(b, n_points)
    cnt_low = cnt_low.astype(np.float64)  # the cache keeps narrow types
    # a form depends on the counts only: evaluate it once per distinct row
    low_forms = [np.einsum("mx,xy,my->m", rows, f, rows)[row_of] for f in forms]
    # edges are stored with u < v, so an edge touches the outer vertices iff u does
    inner = [(u - outer, v - outer) for u, v in g.edges if u >= outer]
    touching = [(u, v) for u, v in g.edges if u < outer]
    low_edges = []
    for c in costs:
        edge = np.zeros((n_points,) * b)
        for u, v in inner:
            edge += c.reshape(_axes(b, n_points, u, v))
        low_edges.append(edge)
    for k, head in enumerate(itertools.product(range(n_points), repeat=outer)):
        cnt_out = np.bincount(np.array(head, dtype=np.int64), minlength=n_points).astype(np.float64)
        form_sums = []
        for f, base in zip(forms, low_forms):
            f_out = f @ cnt_out
            form_sums.append(base + (cnt_out @ f_out + 2.0 * (cnt_low @ f_out)))
        edge_sums = []
        for c, base in zip(costs, low_edges):
            edge = base.copy()
            for u, v in touching:
                if v < outer:
                    edge += c[head[u], head[v]]
                else:
                    edge += c[head[u]].reshape(_axes(b, n_points, v - outer))
            edge_sums.append(edge.reshape(size))
        yield slice(k * size, (k + 1) * size), form_sums, edge_sums


@dataclass(frozen=True)
class GammaExactResult:
    gamma: float | None           # None when no non-degenerate map exists
    witness: VertexMap | None
    maps_evaluated: int


def gamma_exact(g: Graph, metric: FiniteMetric, q: float) -> GammaExactResult:
    """Supremum of ave/dirichlet over all non-degenerate maps, by exhaustion.

    Degenerate 0/0 maps (constant per component) impose no constraint and
    are skipped.  The witness is the lexicographically first map attaining
    the floating-point maximum.
    """
    n, n_points = g.n, metric.size
    # the cap before the connectivity BFS, which alone took 0.5 s on a 10^6-vertex path
    total = capped_power(n_points, n, _EXACT_CAP, lambda shown: CapExceeded(
        f"{n_points}^{n}{shown} maps exceeds the exhaustive cap {_EXACT_CAP}; "
        "use gamma_lower_search instead"))
    if not is_connected(g):
        raise ValueError("gamma_exact requires a connected graph")
    costs = cost_matrix(metric, q)
    best = -math.inf
    best_index: int | None = None
    with np.errstate(divide="ignore", invalid="ignore"):
        for block, (pair_sum,), (edge_sum,) in _map_blocks(g, n_points, [costs], [costs]):
            ratio = np.where(edge_sum > 0, (pair_sum / (n * n)) / (edge_sum / g.m), -math.inf)
            pos = int(np.argmax(ratio))
            if ratio[pos] > best:
                best, best_index = float(ratio[pos]), block.start + pos
    if best_index is None:
        return GammaExactResult(None, None, total)
    assignment = tuple(int(x) for x in np.unravel_index(best_index, (n_points,) * n))
    return GammaExactResult(best, VertexMap(metric, assignment), total)


def gamma_lower_search(g: Graph, metric: FiniteMetric, q: float,
                       iters: int, seed: int) -> GammaExactResult:
    """Heuristic lower bound: random restarts plus single-vertex hill climbing.

    iters counts improvement steps across restarts.  Every reported value is
    the ratio of an actual map, so up to rounding the result never exceeds
    the exact optimum: the two compute the ratio in different orders and can
    part by a few ulps.  Deterministic given the seed.

    Each step scores every (vertex, point) move at once and takes the best
    one, breaking ties by the smallest vertex, then the smallest point.  The
    table of neighbour costs behind the scores is kept from step to step: a
    restart sums it afresh, and a move sums again only the rows of the moved
    vertex's neighbours, each from zero in adjacency order.  Refuses, before
    any table is allocated, a working set of _SEARCH_TABLES n x N float
    tables beyond metrics._METRIC_BYTES.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    if g.m == 0:
        raise ValueError("graph has no edges")
    n, n_points = g.n, metric.size
    if _SEARCH_TABLES * 8 * n * n_points > metrics._METRIC_BYTES:
        raise MetricError(f"the search tables of n = {n} vertices by N = {n_points} points "
                          f"exceed the {metrics._METRIC_BYTES}-byte budget")
    if not is_connected(g):
        raise ValueError("gamma_lower_search requires a connected graph")
    costs = cost_matrix(metric, q)
    scale = g.m / (n * n)  # ratio = scale * pair_sum / edge_sum
    # vertices grouped by degree, so that each group's neighbour lists form
    # one (vertices, degree) array in adjacency order; a vertex's neighbour
    # list is row row_of[v] of group group_of[v]
    degrees = np.array(g.degrees())
    groups = []
    group_of = np.empty(n, dtype=np.intp)
    row_of = np.empty(n, dtype=np.intp)
    for d in sorted(set(g.degrees())):
        vs = np.flatnonzero(degrees == d)
        nbrs = np.array([g.adjacency[v] for v in vs], dtype=np.int64).reshape(vs.size, d)
        group_of[vs], row_of[vs] = len(groups), np.arange(vs.size)
        groups.append((vs, nbrs))
    row_start = np.arange(n) * n_points
    # nbr[v, x] adds costs[x, current[u]] over the neighbours u of v one by
    # one, in adjacency order; at x = current[v] it is v's own cost.  The
    # step works in place in the other three tables
    nbr = np.empty((n, n_points))
    edge_new = np.empty_like(nbr)
    ratios = np.empty_like(nbr)
    degenerate = np.empty(nbr.shape, dtype=bool)
    block = max(1, (1 << 14) // n_points)  # rows per 128 kB block of a sum

    def resum(a: np.ndarray, vs: np.ndarray, nbrs: np.ndarray) -> None:
        """Sum the rows nbr[vs] of the map a afresh from zero, a block of
        rows at a time; every metric is symmetric bit for bit, so costs[a[u]]
        is the column costs[:, a[u]]."""
        for lo in range(0, len(vs), block):
            part = np.zeros((len(vs[lo:lo + block]), n_points))
            for slot in nbrs[lo:lo + block].T:
                part += costs[a[slot]]
            nbr[vs[lo:lo + block]] = part

    def full_sums(a: np.ndarray) -> tuple[np.ndarray, float, float]:
        cnt = np.bincount(a, minlength=n_points).astype(np.float64)
        return cnt, float(cnt @ costs @ cnt), _edge_sum(g, a, costs)

    def ratio(pair: float, edge: float) -> float:
        return scale * pair / edge if edge > 0 else -math.inf

    def fresh(restart: int) -> tuple[np.ndarray, np.ndarray]:
        """The restart's random map, with all of nbr summed for it, and the
        flat index of each vertex's own entry (v, a[v]) in an n x N table."""
        gen = derive_rng(seed, "gamma-search", restart)
        a = gen.integers(0, n_points, size=n)
        if len(set(a.tolist())) <= 1 and n_points > 1:
            a[int(gen.integers(0, n))] = (a[0] + 1) % n_points
        for vs, nbrs in groups:
            resum(a, vs, nbrs)
        return a, row_start + a

    current, own = fresh(0)
    cnt, pair, edge = full_sums(current)
    best, best_map = ratio(pair, edge), current.copy()
    restart = steps = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        while steps < iters:
            steps += 1
            # steepest single-vertex ascent over the n x N move table: row v,
            # column y holds the ratio after moving v to point y.  The pair
            # sum depends on v only through its point a, as pair_new[a, y];
            # vecdot rounds each row's dot product as costs[y] @ cnt does, a
            # matrix-vector product may round differently
            pair_new = pair + 2.0 * (costs @ cnt - np.vecdot(costs, cnt)[:, None] - costs)
            np.add(edge, nbr, out=edge_new)
            np.subtract(edge_new, nbr.take(own)[:, None], out=edge_new)
            # current is in range; take's default mode buffers the whole output
            (scale * pair_new).take(current, axis=0, out=ratios, mode="clip")
            np.divide(ratios, edge_new, out=ratios)
            np.less_equal(edge_new, 0, out=degenerate)
            np.copyto(ratios, -math.inf, where=degenerate)
            ratios.put(own, -math.inf)
            v, x = divmod(int(ratios.argmax()), n_points)
            if ratios[v, x] > ratio(pair, edge):
                pair, edge = float(pair_new[current[v], x]), float(edge_new[v, x])
                cnt[current[v]] -= 1
                cnt[x] += 1
                own[v] += x - current[v]
                current[v] = x
                # only the rows of v's neighbours change; sum them by group
                by_group = {}
                for u in g.adjacency[v]:
                    by_group.setdefault(group_of[u], []).append(row_of[u])
                for gi, rows in by_group.items():
                    vs, nbrs = groups[gi]
                    resum(current, vs[rows], nbrs[rows])
                if ratios[v, x] <= best:
                    continue
            else:
                restart += 1
                current, own = fresh(restart)
            # a restart or a move past the best: re-derive the sums so that
            # the recorded value is drift-free
            cnt, pair, edge = full_sums(current)
            r = ratio(pair, edge)
            if r > best:
                best, best_map = r, current.copy()
    if best == -math.inf:
        return GammaExactResult(None, None, steps)
    return GammaExactResult(best, VertexMap(metric, tuple(int(x) for x in best_map)), steps)


# ----------------------------------------------------------------------
# vectorized per-map statistics (acceptance machinery)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MapStatistics:
    """Arrays indexed by map (base-N counter order over all N^n maps)."""

    ave: dict[float, np.ndarray]
    dirichlet: dict[float, np.ndarray]
    quantile: dict[object, np.ndarray]   # keyed by tau
    nondegenerate: np.ndarray            # edge sum positive

    def ratio(self, q: float) -> np.ndarray:
        """ave/dirichlet at exponent q per map; -inf on degenerate maps."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(self.nondegenerate, self.ave[q] / self.dirichlet[q], -math.inf)


def enumerate_map_statistics(g: Graph, metric: FiniteMetric, qs,
                             taus=(Fraction(1, 2),)) -> MapStatistics:
    """ave, dirichlet and quantiles for every map of g into the metric.

    Intended for small universes (N^n <= 10^7); the acceptance suite runs
    its exhaustive inequality checks on top of these arrays.
    """
    n, n_points = g.n, metric.size
    total = capped_power(n_points, n, _STATISTICS_CAP, lambda shown: CapExceeded(
        f"{n_points}^{n}{shown} maps exceed bulk-statistics cap {_STATISTICS_CAP}"))
    qs, taus = tuple(qs), tuple(taus)
    if any(not 0 < tau < 1 for tau in taus):
        raise ValueError("quantile level must lie in (0,1)")
    costs = [cost_matrix(metric, q) for q in qs]
    # cnt @ (dist <= t) @ cnt counts the ordered pairs within distance t
    levels = np.unique(metric.dist)
    sublevels = [(metric.dist <= t).astype(np.float64) for t in levels]
    nsq = n * n
    ave = {q: np.empty(total) for q in qs}
    diri = {q: np.empty(total) for q in qs}
    quant = {tau: np.empty(total) for tau in taus}
    for block, form_sums, edge_sums in _map_blocks(g, n_points, costs + sublevels, costs):
        for q, pair_sum, edge_sum in zip(qs, form_sums, edge_sums):
            ave[q][block] = pair_sum / nsq
            diri[q][block] = edge_sum / g.m
        within = form_sums[len(qs):]
        for tau in taus:
            # the top level holds every pair, so each map meets some level
            quant[tau][block] = levels[np.argmax([_meets(c, tau, nsq) for c in within], axis=0)]
    return MapStatistics(ave=ave, dirichlet=diri, quantile=quant,
                         nondegenerate=diri[qs[0]] > 0)
