"""Finite metric spaces: validation, snowflakes, aspect-ratio classification,
the truncated-copies reduction to well-conditioned spaces, and the concrete
metric constructions used by the experiments."""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .rng import derive_rng


class MetricError(ValueError):
    """A metric axiom or a metric construction's domain check failed."""


@dataclass(frozen=True, eq=False)
class FiniteMetric:
    """N-point metric space given by its full distance matrix."""

    dist: np.ndarray

    @property
    def size(self) -> int:
        return self.dist.shape[0]

    def diam(self) -> float:
        return float(self.dist.max()) if self.size > 1 else 0.0

    def min_distance(self) -> float:
        n = self.size
        if n < 2:
            raise MetricError("min distance needs N >= 2")
        off = self.dist[~np.eye(n, dtype=bool)]
        return float(off.min())


# the largest integer q for which 5^q, the paper's concentration constant,
# is a finite float
_MAX_EXPONENT = 441


def _check_exponent(q: float) -> None:
    if not (math.isfinite(q) and q > 0):
        raise MetricError(f"cost exponent must be finite and positive, got {q}")
    if q > _MAX_EXPONENT:
        raise MetricError(f"cost exponent must be at most {_MAX_EXPONENT}, "
                          f"beyond which 5^q overflows, got {q}")


# the largest cost: a sum of up to 2^62 costs, n^2 of them for n <= 2^31,
# stays below the float maximum 2^1024
_COST_LIMIT = 2.0 ** 960


def _costs(dist: np.ndarray, q: float) -> np.ndarray:
    """Elementwise q-th power of an array of distances.  Refuses a q at which a
    positive distance goes to 0 or the largest cost passes _COST_LIMIT."""
    with np.errstate(over="ignore"):
        costs = np.power(dist, q)
    top = costs.max(initial=0.0)
    if np.count_nonzero(costs) != np.count_nonzero(dist) or not top <= _COST_LIMIT:
        raise MetricError(f"at cost exponent q = {q} a positive distance "
                          "raised to q underflows to 0 or passes the cost bound 2^960")
    return costs


def cost_matrix(metric: FiniteMetric, q: float) -> np.ndarray:
    """Elementwise q-th power of the distances; for q > 1 this is not a metric."""
    _check_exponent(q)
    return _costs(metric.dist, q)


_SUP_BLOCK = 1 << 22   # elements of the difference array behind one row block


def sup_distance_blocks(coords: np.ndarray):
    """Yield the sup-norm distance matrix of the points coords[i] in blocks of
    max(1, _SUP_BLOCK // (n * width)) rows, in the dtype of coords.

    At most one difference array is alive at a time: its absolute value is
    taken in place and it is freed before the block is handed out.  With
    fewer coordinates than points (the witness map) the differences are laid
    out coordinate-major, from a transposed copy of coords, so the maximum is
    taken elementwise across contiguous (rows, n) slices rather than along a
    short last axis; with more coordinates than points (the distance-to-set
    embedding) the point-major reduction is the faster one."""
    n, width = coords.shape
    rows = max(1, _SUP_BLOCK // max(1, n * width))
    cols = np.ascontiguousarray(coords.T) if width < n else None
    for a in range(0, n, rows):
        if cols is None:
            diff, axis = coords[a:a + rows, None, :] - coords[None, :, :], 2
        else:
            diff, axis = cols[:, a:a + rows, None] - cols[:, None, :], 0
        block = np.abs(diff, out=diff).max(axis=axis, initial=0)
        del diff
        yield block


def validate(dist) -> FiniteMetric:
    """Check the metric axioms and wrap the matrix.

    Raises MetricError naming the first violated axiom (non-finite entry,
    asymmetry, negative entry, nonzero diagonal, zero off-diagonal, triangle
    inequality) with the witnessing indices.  Triangle checks are exact up
    to an absolute tolerance of 1e-12 * diam to absorb float noise.
    """
    a = np.asarray(dist, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise MetricError(f"distance matrix must be square, got {a.shape}")
    n = a.shape[0]
    bad = np.argwhere(~np.isfinite(a))
    if bad.size:
        i, j = map(int, bad[0])
        raise MetricError(f"dist[{i},{j}] = {a[i, j]} is not finite")
    bad = np.argwhere(a != a.T)
    if bad.size:
        i, j = map(int, bad[0])
        raise MetricError(f"dist[{i},{j}] != dist[{j},{i}]")
    bad = np.argwhere(a < 0)
    if bad.size:
        i, j = map(int, bad[0])
        raise MetricError(f"dist[{i},{j}] = {a[i, j]} < 0")
    diag = np.argwhere(np.diag(a) != 0)
    if diag.size:
        i = int(diag[0][0])
        raise MetricError(f"dist[{i},{i}] = {a[i, i]} != 0")
    off = ~np.eye(n, dtype=bool)
    bad = np.argwhere((a == 0) & off)
    if bad.size:
        i, j = map(int, bad[0])
        raise MetricError(f"dist[{i},{j}] = 0 for i != j")
    tol = 1e-12 * (float(a.max()) if n > 1 else 0.0)
    for j in range(n):
        slack = a - (a[:, j:j + 1] + a[j:j + 1, :])
        bad = np.argwhere(slack > tol)
        if bad.size:
            i, k = map(int, bad[0])
            raise MetricError(f"dist[{i},{k}] = {a[i, k]} > dist[{i},{j}] + dist[{j},{k}] "
                              f"= {a[i, j] + a[j, k]}")
    return _wrap(a)


def _wrap(dist: np.ndarray) -> FiniteMetric:
    """A read-only float64 copy of the matrix as a metric, unchecked: for the
    constructions that are metrics by construction, whose O(N^3) triangle
    pass took 5.7 s at N = 1000.  Tests keep validate as their oracle."""
    a = np.array(dist, dtype=np.float64)
    a.flags.writeable = False
    return FiniteMetric(a)


def snowflake(metric: FiniteMetric, eps: float) -> FiniteMetric:
    """The metric with every distance raised to the power 1 - eps."""
    if not 0.0 < eps < 1.0:
        raise MetricError("snowflake exponent must lie in (0,1)")
    return validate(np.power(metric.dist, 1.0 - eps))


def aspect_ratio(metric: FiniteMetric) -> float:
    """diam / min positive distance."""
    return metric.diam() / metric.min_distance()


# validate scans the dense matrix in O(N^3), so no constructor builds more
# points than this, and none allocates more bytes than the budget
_POINT_CAP = 10 ** 3
_METRIC_BYTES = 1 << 30


def _check_size(n_points: int, nbytes: int) -> None:
    """Refuse, before any allocation, a metric on more than _POINT_CAP points
    or one whose largest array takes more than _METRIC_BYTES bytes."""
    if n_points < 0:
        raise MetricError(f"point count N = {n_points} is negative")
    if n_points > _POINT_CAP or nbytes > _METRIC_BYTES:
        raise MetricError(f"N = {n_points} points needing {nbytes} bytes "
                          f"exceeds cap {_POINT_CAP} points or {_METRIC_BYTES} bytes")


def uniform_metric(n_points: int) -> FiniteMetric:
    if n_points < 2:
        raise MetricError("uniform metric needs N >= 2")
    _check_size(n_points, 8 * n_points * n_points)
    return _wrap(np.ones((n_points, n_points)) - np.eye(n_points))


def capped_power(base: int, exponent: int, cap: int, refuse) -> int:
    """base^exponent, or raise refuse(shown) once a running product passes the
    cap.  The power itself can have millions of digits, so shown is
    ' = count' only when the count is exact and at most cap^2, else ''."""
    total = 1
    for factors in range(1, exponent + 1):
        total *= base
        if total > cap:
            raise refuse(f" = {total}" if factors == exponent and total <= cap ** 2 else "")
    return total


def linf_grid(k: int, s: int) -> FiniteMetric:
    """Sup-norm metric on the integer grid {-k,..,k}^s; point i is the i-th
    tuple of itertools.product(range(-k, k + 1), repeat=s)."""
    # k = 0 is the one-point grid, which no command can use
    if k < 1 or s < 1:
        raise MetricError("need k >= 1 and s >= 1")
    capped_power(2 * k + 1, s, _POINT_CAP, lambda shown: MetricError(
        f"(2k+1)^s{shown} exceeds cap {_POINT_CAP} at k = {k}, s = {s}"))
    pts = np.array(list(itertools.product(range(-k, k + 1), repeat=s)), dtype=np.int64)
    return _wrap(np.concatenate(list(sup_distance_blocks(pts))))


def random_euclidean_metric(n_points: int, seed: int, dim: int = 2) -> FiniteMetric:
    """Distances of random points in [0,1]^dim; always a valid metric."""
    if n_points < 1:
        raise MetricError("random metric needs N >= 1")
    if dim < 1:
        raise MetricError(f"random metric needs dim >= 1, got {dim}")
    _check_size(n_points, 8 * n_points * n_points * dim)
    gen = derive_rng(seed, "metric", n_points, dim)
    pts = gen.random((n_points, dim))
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2))
    np.fill_diagonal(dist, 0.0)
    return validate(np.maximum(dist, dist.T))


# ----------------------------------------------------------------------
# reduction to well-conditioned spaces
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ReducedMetric:
    """Disjoint union of truncated copies of a base metric, one per scale.

    Cluster t holds the copy truncated at the t-th distinct base distance
    tau, in ascending order; point x of the base space sits at flat index
    t * N + x.  Cross-cluster distance is n^2 and within-cluster distances
    are min(n^2, d/tau + 1/n^2).
    """

    metric: FiniteMetric


def _distinct_scales(metric: FiniteMetric) -> list[float]:
    n = metric.size
    off = metric.dist[~np.eye(n, dtype=bool)]
    scales: list[float] = []
    for v in np.unique(off):
        v = float(v)
        if not scales or v > scales[-1] * (1 + 1e-12):
            scales.append(v)
    return scales


def well_conditioned_reduction(metric: FiniteMetric, n: int) -> ReducedMetric:
    """Build the disjoint union of truncated copies, one per distance scale.

    The result always validates, has between N and N^3 points, diameter at
    most n^2 and minimum distance at least 1/n^2 (aspect ratio <= n^4).
    Clusters are ordered by increasing scale.
    """
    if n < 2 or metric.size < 2:
        raise MetricError("reduction needs n >= 2, N >= 2")
    taus = _distinct_scales(metric)
    big = float(n * n)
    small = 1.0 / (n * n)
    nn = metric.size
    total = nn * len(taus)
    _check_size(total, 8 * total * total)
    out = np.full((total, total), big, dtype=np.float64)
    for t, tau in enumerate(taus):
        block = np.minimum(big, metric.dist / tau + small)
        np.fill_diagonal(block, 0.0)
        sl = slice(t * nn, (t + 1) * nn)
        out[sl, sl] = block
    return ReducedMetric(validate(out))

