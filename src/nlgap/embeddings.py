"""Bi-Lipschitz distortion reports, the truncated-distance witness map that
certifies lower bounds on the optimal cost ratio, and the randomized
distance-to-set embedding into a bounded integer grid.

Logs are natural throughout; log base d-1 is log x / log(d-1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

import numpy as np

from . import metrics
from .graphs import Graph, GraphError, distance_matrix, is_connected
from .metrics import _SUP_BLOCK, _check_exponent, _costs, sup_distance_blocks
from .poincare import cost_ratio
from .rng import derive_rng


@dataclass(frozen=True)
class WitnessParams:
    """Derived sizes for the witness construction at target cardinality N."""

    k: int                # truncation level, floor(log log N)
    s: int                # grid dimension, floor(log N / log(2k+1))
    s0: int               # seed count, min(n, s)
    r0: int               # radius shift, floor(log_{d-1}(n / s0))


def witness_params(g: Graph, log_n_points: float) -> WitnessParams:
    d = g.regular_degree()
    if d is None or d < 3:
        raise GraphError("witness construction requires a d-regular graph with d >= 3")
    if not math.isfinite(log_n_points):
        raise ValueError(f"target cardinality must be finite, got log N = {log_n_points}")
    if log_n_points < math.e:
        raise ValueError("target cardinality too small: need log N >= e so k >= 1")
    k = math.floor(math.log(log_n_points))
    s = math.floor(log_n_points / math.log(2 * k + 1))
    s0 = min(g.n, s)
    r0 = math.floor(math.log(g.n / s0) / math.log(d - 1))
    return WitnessParams(k=k, s=s, s0=s0, r0=r0)


@dataclass(frozen=True, eq=False)
class GridMap:
    """Map of vertices into an integer grid with sup-norm distances.

    The grid itself is never materialized; coordinates are stored per
    vertex and pairwise distances are evaluated on demand, in the dtype of
    the coordinates.  witness_map and jls_embedding store the narrowest
    integer type that holds the difference of any two coordinates: int8 for
    witness coordinates in -k..k with k <= 63, and a type holding +-diam(g)
    for the distance-to-set coordinates in 0..diam(g).
    """

    coords: np.ndarray  # (n, width) integers; the dtype holds any difference

    def image_distance_matrix(self) -> np.ndarray:
        return np.concatenate(list(sup_distance_blocks(self.coords))).astype(np.int64)

    def edge_costs(self, g: Graph) -> list[int]:
        u, v = g.edge_array.T
        return np.abs(self.coords[u] - self.coords[v]).max(axis=1, initial=0).tolist()


def witness_map(g: Graph, log_n_points: float) -> tuple[GridMap, WitnessParams]:
    """Coordinates trunc_k(dist(v, seed_i) - r0) over the first s0 vertices.

    Coordinates beyond s0 are identically zero and therefore omitted from
    the stored array; sup-norm distances are unaffected.  All s0 searches
    run as one level-synchronous BFS over the (n, d) neighbour table, which
    is exact since witness_params refuses irregular graphs.  It stops at
    depth r0 + k, past which every coordinate is k; each layer gathers the
    frontier of at most _SUP_BLOCK // (d * s0) vertices at a time.  The
    coordinates lie in -k..k and are stored in the narrowest type holding
    their differences, -2k..2k (int8 for k <= 63).
    """
    if not is_connected(g):
        raise GraphError("witness construction requires a connected graph")
    p = witness_params(g, log_n_points)
    nbrs = np.array(g.adjacency, dtype=np.intp)
    seeds = np.arange(p.s0)
    coords = np.full((g.n, p.s0), p.k, dtype=np.min_scalar_type(-2 * p.k - 1))
    coords[seeds, seeds] = max(-p.r0, -p.k)
    frontier = np.zeros((g.n, p.s0), dtype=bool)
    frontier[seeds, seeds] = True
    reached, layer = frontier.copy(), np.empty_like(frontier)
    rows = max(1, _SUP_BLOCK // (nbrs.shape[1] * p.s0))
    for depth in range(1, p.r0 + p.k):
        for a in range(0, g.n, rows):
            frontier[nbrs[a:a + rows]].any(axis=1, out=layer[a:a + rows])
        layer &= ~reached
        if not layer.any():
            break
        reached |= layer
        coords[layer] = max(depth - p.r0, -p.k)
        frontier, layer = layer, frontier
    return GridMap(coords), p


@dataclass(frozen=True)
class WitnessReport:
    params: WitnessParams
    ave: float
    dirichlet: float
    ratio: float
    max_edge_cost: int


def witness_certificate(g: Graph, log_n_points: float, q: float = 1.0) -> WitnessReport:
    """Cost-ratio report of the witness map; a certified lower bound on the
    optimal ratio for the ambient grid metric since it is the ratio of an
    actual map.  Every edge cost is at most 1 by construction."""
    _check_exponent(q)
    grid, p = witness_map(g, log_n_points)
    # the sup distances of the grid are the levels 0..2k: ave is their exact
    # histogram weighted by the level costs, rounded once
    levels = 2 * p.k + 1
    costs = _costs(np.arange(levels, dtype=np.float64), q)
    hist = sum(np.bincount(block.ravel(), minlength=levels)
               for block in sup_distance_blocks(grid.coords))
    ave = float(sum(Fraction(c) * int(h) for c, h in zip(costs.tolist(), hist))
                / (g.n * g.n))
    edge_costs = grid.edge_costs(g)
    dir_ = float(np.power(np.asarray(edge_costs, dtype=np.float64), q).mean())
    return WitnessReport(params=p, ave=ave, dirichlet=dir_, ratio=cost_ratio(ave, dir_),
                         max_edge_cost=max(edge_costs))


# ----------------------------------------------------------------------
# distortion
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class EmbeddingReport:
    lip: float         # max image distance across an edge (edge length 1)
    colip: float       # min over vertex pairs of image distance / graph distance
    distortion: float  # lip / colip, inf when a positive-distance pair collapses


def embedding_distortion(g: Graph, image_dist: np.ndarray) -> EmbeddingReport:
    """Distortion report of a map given its full image-distance matrix."""
    img = np.asarray(image_dist, dtype=np.float64)
    if img.shape != (g.n, g.n):
        raise GraphError(f"image distances of shape {img.shape} != graph order {g.n}")
    if not is_connected(g):
        raise GraphError("distortion is defined here for connected graphs")
    if g.n < 2:
        raise GraphError("distortion needs a graph with at least two vertices")
    gd = distance_matrix(g)
    u, v = g.edge_array.T
    lip = float(img[u, v].max())
    mask = ~np.eye(g.n, dtype=bool)
    with np.errstate(divide="ignore"):
        ratios = img[mask] / gd[mask]
    colip = float(ratios.min())
    distortion = lip / colip if colip > 0 else math.inf
    return EmbeddingReport(lip=lip, colip=colip, distortion=distortion)


# ----------------------------------------------------------------------
# distance-to-set embedding into {0..delta}^K
# ----------------------------------------------------------------------

def grid_embedding_width(n: int, distortion_target: float, c1: float) -> tuple[int, int, int]:
    """(m, K, r): level count, total coordinates, repetitions per level."""
    if n < 2 or not distortion_target >= 1 or not 0 < c1 < math.inf:
        raise ValueError("grid width needs n >= 2, distortion >= 1 and finite c1 > 0, "
                         f"got {(n, distortion_target, c1)}")
    m = math.ceil(math.log2(n)) + 1
    reps = (2.0 / c1) * n ** (3.0 / distortion_target) * math.log(n)
    if not 0 < reps < math.inf:
        raise ValueError(f"repetitions per level must be finite and positive, got {reps}")
    r = math.ceil(reps)
    return m, m * r, r


def universal_space_size(n: int, delta: int, distortion_target: float,
                         c1: float) -> tuple[int, float]:
    """(K, log |M|) for the grid {0..delta}^K hosting all n-vertex graphs
    of diameter at most delta at the given distortion."""
    _, width, _ = grid_embedding_width(n, distortion_target, c1)
    return width, width * math.log(delta + 1)


def default_delta(n: int) -> int:
    return math.floor(500.0 * math.log(n))


@dataclass(frozen=True)
class JlsResult:
    grid: GridMap
    attempts: int
    report: EmbeddingReport
    success: bool


def jls_embedding(g: Graph, distortion_target: float, c1: float, seed: int,
                  retries: int = 50, delta: int | None = None) -> JlsResult:
    """Randomized coordinates dist(v, A) for uniform sets A of dyadic sizes.

    Each coordinate is 1-Lipschitz and bounded by the diameter, so the map
    lands in {0..delta}^K whenever diam(g) <= delta.  Attempts redraw all
    sets from a fresh derived stream until the distortion target is met or
    the retry cap is exhausted; the best map found is returned either way.
    """
    if retries < 1:
        raise ValueError(f"retries must be >= 1, got {retries}")
    if not is_connected(g):
        raise GraphError("the embedding needs a connected graph")
    n = g.n
    if delta is None:
        delta = default_delta(n)
    m, width, r = grid_embedding_width(n, distortion_target, c1)
    dtype = np.min_scalar_type(-min(delta, n - 1) - 1)   # holds ±diam(g), so any difference
    if n * width * dtype.itemsize > metrics._METRIC_BYTES:
        raise ValueError(f"coordinates of width {Decimal(width):.3g} at n = {n} exceed "
                         f"the {metrics._METRIC_BYTES}-byte budget")
    dist = distance_matrix(g)
    if dist.max() > delta:
        raise GraphError(f"diam(g) = {dist.max()} exceeds delta = {delta}")
    best: JlsResult | None = None
    for attempt in range(1, retries + 1):
        gen = derive_rng(seed, "jls", attempt)
        coords = np.empty((n, width), dtype=dtype)
        col = 0
        for k in range(m):
            size = min(2 ** k, n)
            for _ in range(r):
                subset = gen.choice(n, size=size, replace=False)
                coords[:, col] = dist[subset].min(axis=0)
                col += 1
        grid = GridMap(coords)
        report = embedding_distortion(g, grid.image_distance_matrix())
        candidate = JlsResult(grid, attempt, report,
                              report.distortion <= distortion_target)
        if candidate.success:
            return candidate
        if best is None or report.distortion < best.report.distortion:
            best = candidate
    return JlsResult(best.grid, retries, best.report, False)
