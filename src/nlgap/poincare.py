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

from .graphs import Graph, distance_matrix, is_connected, lambda2
from .metrics import FiniteMetric, MetricError, cost_matrix
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
            raise MetricError("assignment", (), "map value out of range of the target space")

    @property
    def n(self) -> int:
        return len(self.assignment)

    def is_constant(self) -> bool:
        return len(set(self.assignment)) <= 1

    def point_counts(self) -> np.ndarray:
        return np.bincount(np.asarray(self.assignment), minlength=self.target.size)


@dataclass(frozen=True)
class GammaReport:
    """Per-map statistics: average, Dirichlet form, their ratio, quantile,
    and the concentration verdict at K = 5^q and tau = 1/2."""

    q: float
    ave: float
    dirichlet: float
    ratio: float          # ave/dirichlet; inf if dirichlet = 0 < ave; nan if degenerate
    degenerate: bool      # both sums vanish (constant on every component)
    quantile_tau: float
    tau: float
    concentration_k: float
    concentrated: bool


def _meets(count, tau, nsq: int):
    """count >= tau * nsq, exactly when tau is a Fraction; count may be an
    array of whole numbers."""
    if isinstance(tau, Fraction):
        return count * tau.denominator >= tau.numerator * nsq
    return count >= tau * nsq


def empirical_average(f: VertexMap, q: float) -> float:
    """Mean of pairwise image cost over all n^2 ordered vertex pairs."""
    cnt = f.point_counts().astype(np.float64)
    costs = cost_matrix(f.target, q)
    return float(cnt @ costs @ cnt) / (f.n * f.n)


def empirical_quantile(f: VertexMap, tau) -> float:
    """Smallest threshold t whose sublevel pair count reaches tau * n^2.

    Realized as the infimum over t > 0, so when pairs at distance zero
    already reach the mass the answer is 0 even though no positive t is
    the minimizer.
    """
    if not 0 < tau < 1:
        raise ValueError("quantile level must lie in (0,1)")
    n = f.n
    nsq = n * n
    cnt = f.point_counts()
    count = int((cnt.astype(np.int64) ** 2).sum())  # ordered pairs at distance 0
    if _meets(count, tau, nsq):
        return 0.0
    dist = f.target.dist
    order = []
    for v in np.unique(dist):
        if v > 0:
            order.append(float(v))
    for t in order:
        mask = (dist > 0) & (dist <= t)
        count_at = count + int(cnt @ mask.astype(np.int64) @ cnt)
        if _meets(count_at, tau, nsq):
            return t
    raise AssertionError("unreachable: total pair count always reaches tau * n^2")


def is_concentrated(f: VertexMap, k_const: float, q: float, tau) -> bool:
    """Empirical q-average bounded by k_const times the tau-quantile^q."""
    if k_const <= 0 or q < 1:
        raise ValueError("need K > 0 and q >= 1")
    return empirical_average(f, q) <= k_const * empirical_quantile(f, tau) ** q


def dirichlet(g: Graph, f: VertexMap, q: float) -> float:
    """Mean image cost over the edges of the graph."""
    if f.n != g.n:
        raise ValueError(f"map length {f.n} != graph order {g.n}")
    if g.m == 0:
        raise ValueError("graph has no edges")
    a = f.assignment
    costs = cost_matrix(f.target, q)
    return float(sum(costs[a[u], a[v]] for u, v in g.edges)) / g.m


def gamma_of_map(g: Graph, f: VertexMap, q: float) -> GammaReport:
    """Full statistics report for one map; ratio conventions:
    inf when only the edge sum vanishes, degenerate when both vanish."""
    ave = empirical_average(f, q)
    dir_ = dirichlet(g, f, q)
    if dir_ > 0:
        ratio, degenerate = ave / dir_, False
    elif ave > 0:
        ratio, degenerate = math.inf, False
    else:
        ratio, degenerate = math.nan, True
    concentration_k = 5.0 ** q
    quant = empirical_quantile(f, Fraction(1, 2))
    conc = ave <= concentration_k * quant ** q
    return GammaReport(q=q, ave=ave, dirichlet=dir_, ratio=ratio, degenerate=degenerate,
                       quantile_tau=quant, tau=0.5, concentration_k=concentration_k,
                       concentrated=conc)


# ----------------------------------------------------------------------
# bulk enumeration over all maps
# ----------------------------------------------------------------------

# maps per block: the low block holds the last b vertices, the most with
# N^b <= _BLOCK_MAPS, so b depends only on (n, N)
_BLOCK_MAPS = 1 << 14


@lru_cache(maxsize=32)
def _low_block(b: int, n_points: int):
    """The maps of the low block of b vertices, in the narrowest types,
    read-only: low[j], the point of low vertex j in each of the N^b maps;
    cnt, each map's point counts; rows, the distinct count rows as floats;
    and row_of, each map's row among them."""
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
    block = (low, cnt, rows, row_of.astype(np.min_scalar_type(len(rows) - 1)))
    for a in block:
        a.flags.writeable = False
    return block


def _map_blocks(g: Graph, n_points: int, forms, costs):
    """Yield (block, form_sums, edge_sums) over all N^n maps of g, in blocks
    of consecutive indices of the base-N counter with vertex 0 the most
    significant digit, i.e. in lexicographic order of assignment tuples.

    For map k of the slice `block`, with point counts cnt, form_sums[i][k]
    is cnt @ forms[i] @ cnt (every form must be symmetric) and
    edge_sums[j][k] sums costs[j] over the edges of g.  The low block's
    counts, forms and internal edge sums are computed once; each assignment
    of the outer vertices adds a matrix-vector product per form and a
    gather per edge at an outer vertex.
    """
    n = g.n
    b = 0
    while b < n and n_points ** (b + 1) <= _BLOCK_MAPS:
        b += 1
    outer = n - b
    size = n_points ** b
    low, cnt_low, rows, row_of = _low_block(b, n_points)
    # the cache keeps narrow types; the gathers and products below want these
    low, cnt_low = low.astype(np.intp), cnt_low.astype(np.float64)
    # a form depends on the counts only: evaluate it once per distinct row
    low_forms = [np.einsum("mx,xy,my->m", rows, f, rows)[row_of] for f in forms]
    # edges are stored with u < v, so an edge touches the outer vertices iff u does
    inner = [(u - outer, v - outer) for u, v in g.edges if u >= outer]
    touching = [(u, v) for u, v in g.edges if u < outer]
    low_edges = [sum((c[low[u], low[v]] for u, v in inner), np.zeros(size)) for c in costs]
    for k, head in enumerate(itertools.product(range(n_points), repeat=outer)):
        cnt_out = np.bincount(np.array(head, dtype=np.int64), minlength=n_points).astype(np.float64)
        form_sums = []
        for f, base in zip(forms, low_forms):
            f_out = f @ cnt_out
            form_sums.append(base + (cnt_out @ f_out + 2.0 * (cnt_low @ f_out)))
        points = [*head, *low]
        edge_sums = []
        for c, base in zip(costs, low_edges):
            edge = base.copy()
            for u, v in touching:
                edge += c[points[u]][points[v]]  # a row, then a gather: u is outer
            edge_sums.append(edge)
        yield slice(k * size, (k + 1) * size), form_sums, edge_sums


@dataclass(frozen=True)
class GammaExactResult:
    gamma: float | None           # None when no non-degenerate map exists
    witness: VertexMap | None
    maps_evaluated: int


def gamma_exact(g: Graph, metric: FiniteMetric, q: float,
                cap: int = 10 ** 8) -> GammaExactResult:
    """Supremum of ave/dirichlet over all non-degenerate maps, by exhaustion.

    Degenerate 0/0 maps (constant per component) impose no constraint and
    are skipped.  The witness is the lexicographically first map attaining
    the floating-point maximum.
    """
    if not is_connected(g):
        raise ValueError("gamma_exact requires a connected graph")
    n, n_points = g.n, metric.size
    total = n_points ** n
    if total > cap:
        raise CapExceeded(
            f"{n_points}^{n} = {total} maps exceeds the exhaustive cap {cap}; "
            "use gamma_lower_search instead"
        )
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
                       iters: int, seed: int,
                       start: tuple[int, ...] | None = None) -> GammaExactResult:
    """Heuristic lower bound: random restarts plus single-vertex hill climbing.

    iters counts improvement steps across restarts.  The result never
    exceeds the exact optimum because every reported value is the ratio of
    an actual map.  Deterministic given the seed.

    Each step scores every (vertex, point) move at once and takes the best
    one, breaking ties by the smallest vertex, then the smallest point.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    if not is_connected(g):
        raise ValueError("gamma_lower_search requires a connected graph")
    n, n_points = g.n, metric.size
    if start is not None:
        if len(start) != n:
            raise ValueError(f"start has {len(start)} entries for a graph of order {n}")
        if any(not (isinstance(x, (int, np.integer)) and 0 <= x < n_points) for x in start):
            raise ValueError(f"start entries must be integers in [0, {n_points})")
    costs = cost_matrix(metric, q)
    scale = g.m / (n * n)  # ratio = scale * pair_sum / edge_sum
    ends = np.array(g.edges, dtype=np.int64).reshape(-1, 2).T
    # vertices grouped by degree, so that each group's neighbour lists form
    # one (vertices, degree) array in adjacency order
    degrees = np.array(g.degrees())
    groups = []
    for d in np.unique(degrees):
        vs = np.flatnonzero(degrees == d)
        nbrs = np.array([g.adjacency[v] for v in vs], dtype=np.int64).reshape(vs.size, d)
        groups.append((vs, nbrs))
    everyone = np.arange(n)

    def full_sums(a: np.ndarray) -> tuple[np.ndarray, float, float]:
        cnt = np.bincount(a, minlength=n_points).astype(np.float64)
        pair = float(cnt @ costs @ cnt)
        # cumsum adds the edges one by one, in edge order
        edge = float(np.cumsum(costs[a[ends[0]], a[ends[1]]])[-1]) if g.m else 0.0
        return cnt, pair, edge

    def ratio(pair: float, edge: float) -> float:
        return scale * pair / edge if edge > 0 else -math.inf

    def fresh(restart: int) -> np.ndarray:
        gen = derive_rng(seed, "gamma-search", restart)
        a = gen.integers(0, n_points, size=n)
        if len(set(a.tolist())) <= 1 and n_points > 1:
            a[int(gen.integers(0, n))] = (a[0] + 1) % n_points
        return a

    if start is not None:
        current = np.asarray(start, dtype=np.int64).copy()
        if len(set(current.tolist())) <= 1 and n_points > 1:
            current[0] = (current[0] + 1) % n_points
    else:
        current = fresh(0)
    cnt, pair, edge = full_sums(current)
    best = ratio(pair, edge)
    best_map = current.copy()
    restart = 0
    steps = 0
    while steps < iters:
        base = ratio(pair, edge)
        # steepest single-vertex ascent, scoring the n x N moves at once:
        # row v, column x holds the sums after moving v to point x
        moved = costs.T[current]  # moved[v, x] = costs[x, current[v]]
        # vecdot rounds each row's dot product as costs[y] @ cnt does; a
        # matrix-vector product may round differently
        pair_new = pair + 2.0 * (costs @ cnt - np.vecdot(costs, cnt)[current][:, None] - moved)
        # nbr_sum[v, x] adds costs[x, current[u]] over the neighbours u of v
        # one by one, in adjacency order; own[v] sums the row
        # costs[current[v]] at the neighbours with numpy, which adds pairwise
        # from 8 terms on.  These are the orders of the per-vertex reference
        # loop in the tests, so that equal moves tie there and here alike.
        nbr_sum = np.empty((n, n_points))
        own = np.empty(n)
        for vs, nbr in groups:
            part = np.zeros((len(vs), n_points))
            for slot in nbr.T:
                part += moved[slot]
            nbr_sum[vs] = part
            own[vs] = costs[current[vs][:, None], current[nbr]].sum(axis=1)
        edge_new = edge + nbr_sum - own[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(edge_new > 0, scale * pair_new / edge_new, -math.inf)
        ratios[everyone, current] = -math.inf
        v, x = divmod(int(np.argmax(ratios)), n_points)
        if ratios[v, x] > base:
            move_ratio = float(ratios[v, x])
            pair, edge = float(pair_new[v, x]), float(edge_new[v, x])
            cnt[current[v]] -= 1
            cnt[x] += 1
            current[v] = x
            steps += 1
            if move_ratio > best:
                # re-derive the sums so the recorded value is drift-free
                cnt, pair, edge = full_sums(current)
                exact_now = ratio(pair, edge)
                if exact_now > best:
                    best, best_map = exact_now, current.copy()
        else:
            restart += 1
            steps += 1
            current = fresh(restart)
            cnt, pair, edge = full_sums(current)
            r = ratio(pair, edge)
            if r > best:
                best, best_map = r, current.copy()
    if best == -math.inf:
        return GammaExactResult(None, None, steps)
    return GammaExactResult(best, VertexMap(metric, tuple(int(x) for x in best_map)), steps)


def gamma_euclidean_sq(g: Graph) -> float:
    """d / (2 (d - lambda2)): the optimal constant for squared-Euclidean costs."""
    d = g.regular_degree()
    if d is None:
        raise ValueError("gamma_euclidean_sq requires a regular graph")
    if not is_connected(g):
        raise ValueError("gamma_euclidean_sq requires a connected graph")
    return d / (2.0 * (d - lambda2(g)))


@dataclass(frozen=True)
class AverageDistortionReport:
    ratio: float            # sum of image distances over sum of graph distances
    edge_lipschitz: float   # max image distance across an edge
    distortion_lower: float  # edge_lipschitz / ratio, scale-invariant


def average_distortion(g: Graph, f: VertexMap) -> AverageDistortionReport:
    """Average scaling of a map plus the distortion lower bound it certifies.

    ratio lies between the optimal scale s and s*D, and the edge Lipschitz
    estimate is at most s*D, so their quotient never exceeds the
    bi-Lipschitz distortion of f.
    """
    if not is_connected(g):
        raise ValueError("average distortion requires a connected graph")
    if f.is_constant():
        raise ValueError("constant maps have no average distortion")
    gd = distance_matrix(g)
    a = np.asarray(f.assignment)
    img = f.target.dist[a[:, None], a[None, :]]
    ratio = float(img.sum()) / float(gd.sum())
    lip = max(float(f.target.dist[f.assignment[u], f.assignment[v]]) for u, v in g.edges)
    return AverageDistortionReport(ratio=ratio, edge_lipschitz=lip,
                                   distortion_lower=lip / ratio)


# ----------------------------------------------------------------------
# vectorized per-map statistics (acceptance machinery)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MapStatistics:
    """Arrays indexed by map (base-N counter order over all N^n maps)."""

    qs: tuple[float, ...]
    ave: dict[float, np.ndarray]
    dirichlet: dict[float, np.ndarray]
    quantile: dict[object, np.ndarray]   # keyed by tau
    nondegenerate: np.ndarray            # edge sum positive

    def ratio(self, q: float) -> np.ndarray:
        """ave/dirichlet at exponent q per map; -inf on degenerate maps."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(self.nondegenerate, self.ave[q] / self.dirichlet[q], -math.inf)


def enumerate_map_statistics(g: Graph, metric: FiniteMetric, qs,
                             taus=(Fraction(1, 2),), cap: int = 10 ** 7) -> MapStatistics:
    """ave, dirichlet and quantiles for every map of g into the metric.

    Intended for small universes (N^n <= cap); the acceptance suite runs
    its exhaustive inequality checks on top of these arrays.
    """
    n, n_points = g.n, metric.size
    total = n_points ** n
    if total > cap:
        raise CapExceeded(f"{total} maps exceed bulk-statistics cap {cap}")
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
    return MapStatistics(qs=qs, ave=ave, dirichlet=diri, quantile=quant,
                         nondegenerate=diri[qs[0]] > 0)
