"""The multistage generation of random regular graphs (canonical
representative, uniform edge deletion, uniform relabeling), seed maps under
a priority order of the seeds (spheres never contain unreachable vertices),
uniform perfect matchings with the avoidance bound, and the Monte Carlo
verifiers for the corresponding distributional statements."""
from __future__ import annotations

import itertools
import math
import sys
from collections import Counter
from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, Decimal, localcontext
from typing import NamedTuple

import numpy as np

from . import graphs
# canonical_form is not called here; the benchmark's tracer test reads models.canonical_form
from .graphs import (Graph, GraphError, _edges_key, _pair_action, _pair_weights, _pairs,
                     _simple_pairings, canonical_form, enumerate_regular_graphs,
                     graph_from_edges, random_regular, sphere)
from .poincare import VertexMap, empirical_average, is_concentrated
from .rng import derive_rng


def _subseed(seed: int, *path) -> int:
    return int(derive_rng(seed, *path).integers(0, 2 ** 62))


# ----------------------------------------------------------------------
# multistage model
# ----------------------------------------------------------------------

def draw_model(n: int, d: int, ell: int, seed: int) -> tuple[Graph, Graph]:
    """Draw (G, G less ell edges), each stage from its own stream: G is
    uniform on the d-regular graphs and a uniform ell-subset of its edges
    goes."""
    if (n * d) % 2 != 0:
        raise GraphError("n*d must be even")
    if not 0 <= ell <= n * d // 2:
        raise GraphError(f"need 0 <= ell <= dn/2, got ell={ell}")
    g = random_regular(n, d, _subseed(seed, "model-g"))
    gen_del = derive_rng(seed, "model-del")
    gone = {g.edges[int(i)] for i in gen_del.choice(g.m, size=ell, replace=False)}
    return g, graph_from_edges(n, [e for e in g.edges if e not in gone])


# ----------------------------------------------------------------------
# seed maps
# ----------------------------------------------------------------------

def seed_map_h(g: Graph, m: int, seeds) -> tuple[int | None, ...]:
    """Each vertex's first seed, in the priority order that seeds lists,
    at distance exactly m from it, or None (seeds in increasing order give
    the natural order)."""
    if not 1 <= m <= g.n:
        raise GraphError(f"need 1 <= m <= n, got m={m}")
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise GraphError("seed set must be nonempty")
    out: list[int | None] = [None] * g.n
    for s in seeds:
        for v in sphere(g, [s], m):
            if out[v] is None:
                out[v] = s
    return tuple(out)


# ----------------------------------------------------------------------
# uniform perfect matchings
# ----------------------------------------------------------------------

def random_perfect_matching(items, gen) -> list[tuple[int, int]]:
    """Exactly uniform perfect matching: repeatedly pair the least unmatched
    element with a uniform partner among the remaining ones."""
    pool = sorted(items)
    if len(pool) % 2 != 0 or not pool:
        raise GraphError("matching needs a nonempty even-size set")
    out = []
    while len(pool) > 2:
        a = pool.pop(0)
        b = pool.pop(int(gen.integers(0, len(pool))))
        out.append((a, b))
    # the last partner is forced; gen.integers(0, 1) would consume no randomness
    out.append((pool[0], pool[1]))
    return out


def matching_avoidance_bound(ell: int, eps: float, c: float) -> float:
    """exp(-((1-2c)/4) * log((1-2c)/(16 e eps)) * ell); may exceed 1.

    At c = 1/2 the exponent is x log x at x = 0, whose limit 0 gives 1."""
    x = 1.0 - 2.0 * c
    if x == 0.0:
        return 1.0
    exponent = -(x / 4.0) * math.log(x / (16.0 * math.e * eps)) * ell
    try:
        return math.exp(exponent)
    except OverflowError:
        return math.inf


_MATCHING_TABLE_BYTES = 1 << 22  # largest ell x ell pair table: ell <= 2048


def check_matching_ell(ell: int) -> None:
    """Refuse an odd ell, one below 4, or one whose ell x ell pair table
    exceeds _MATCHING_TABLE_BYTES; callers listing the C(ell, 2) pairs call
    it before they allocate them."""
    if ell % 2 != 0 or ell < 4:
        raise GraphError("need even ell >= 4")
    if ell * ell > _MATCHING_TABLE_BYTES:
        raise GraphError(f"ell={ell} needs an ell x ell pair table beyond the "
                         f"{_MATCHING_TABLE_BYTES}-byte budget")


@dataclass(frozen=True)
class MatchingMCResult:
    trials: int
    empirical: float
    analytic_bound: float


def matching_avoidance_mc(ell: int, y_pairs, c: float, trials: int, seed: int,
                          eps: float) -> MatchingMCResult:
    """Estimate the probability that a uniform matching of [ell] meets the
    pair set Y at most c*ell/2 times, alongside the analytic bound."""
    check_matching_ell(ell)
    y = np.sort(np.fromiter(y_pairs, dtype=(np.intp, 2)), axis=1)
    bad = (y[:, 0] < 0) | (y[:, 1] >= ell) | (y[:, 0] == y[:, 1])
    if bad.any():
        raise GraphError(f"pair {tuple(y[bad][0].tolist())} of Y is not two distinct "
                         f"elements of 0..{ell - 1}")
    in_y = np.zeros((ell, ell), dtype=bool)
    in_y[y[:, 0], y[:, 1]] = True
    size, full = int(np.count_nonzero(in_y)), ell * (ell - 1) // 2
    if size < (1.0 - eps) * full - 1e-9:
        raise GraphError(f"|Y| = {size} below (1-eps) * C(ell,2) = {(1 - eps) * full}")
    if not 0 < c <= eps <= 0.5:
        raise GraphError(f"need 0 < c <= eps <= 1/2, got c={c}, eps={eps}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    gen = derive_rng(seed, "matching-mc", ell)
    threshold = c * ell / 2.0
    # one draw per block yields each trial's partner ranks with the values of
    # random_perfect_matching's scalar draws; the last bound, 1, draws nothing
    highs = np.arange(ell - 1, 0, -2)
    per_block = max(1, graphs._BLOCK_ENTRIES // ell)
    hits = 0
    for start in range(0, trials, per_block):
        t = min(per_block, trials - start)
        ranks = gen.integers(0, np.tile(highs, t)).reshape(t, -1)
        # pool[r] holds trial r's unmatched elements in increasing order
        pool = np.broadcast_to(np.arange(ell), (t, ell))
        inter = np.zeros(t, dtype=np.intp)
        for step in range(ell // 2):
            partner = ranks[:, step, None] + 1
            inter += in_y[pool[:, 0], np.take_along_axis(pool, partner, axis=1)[:, 0]]
            keep = np.arange(1, pool.shape[1]) != partner
            pool = pool[:, 1:][keep].reshape(t, -1)
        hits += int(np.count_nonzero(inter <= threshold))
    return MatchingMCResult(trials=trials, empirical=hits / trials,
                            analytic_bound=matching_avoidance_bound(ell, eps, c))


# ----------------------------------------------------------------------
# restriction of concentrated maps to random small sets
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RestrictionMCResult:
    trials: int
    frequency: float
    bound: float              # 1 - 15 / (eps^2 k)
    hypothesis_met: bool      # concentrated, eps <= 1/31, k >= 2/eps
    ave: float


def far_pair_counts(far: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The far pairs of each sample, from its row of point counts x and the
    0/1 far-point matrix F: (x F x - x . diag F) / 2, as diag F counts each
    element against itself.  Every partial sum is an integer of at most k^2,
    so the float64 products are exact in any summation order for k^2 < 2^53."""
    x = counts.astype(np.float64)
    return ((x @ far * x).sum(axis=1) - x @ far.diagonal()) / 2


def restriction_concentration_mc(f: VertexMap, eps, k: int, trials: int,
                                 seed: int) -> RestrictionMCResult:
    """Frequency, over uniform k-subsets of the domain, of the event that at
    least a (1 - 2 eps) fraction of the restricted pairs keep image distance
    >= ave/5; compared against 1 - 15/(eps^2 k).

    Violated hypotheses are flagged, not fatal.
    """
    n = f.n
    if not 2 <= k <= n:
        raise GraphError(f"need 2 <= k <= n, got k={k}, n={n}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    eps_f = float(eps)
    if not (math.isfinite(eps_f) and eps_f > 0):
        raise GraphError(f"need finite eps > 0, got eps={eps}")
    if eps_f * eps_f * k <= 15.0 / sys.float_info.max:
        raise GraphError(f"eps={eps} is too small: the bound 1 - 15/(eps^2 k) overflows")
    ave = empirical_average(f, 1.0)
    hypothesis = (is_concentrated(f, 5.0, 1.0, eps) and eps_f <= 1.0 / 31.0
                  and k >= 2.0 / eps_f)
    gen = derive_rng(seed, "restriction-mc", k)
    far = (f.target.dist >= ave / 5.0).astype(np.float64)
    need = (1.0 - 2.0 * eps_f) * (k * (k - 1) // 2)
    counts = f.point_counts()
    per_block = max(1, graphs._BLOCK_ENTRIES // f.target.size)
    hits = 0
    for start in range(0, trials, per_block):
        # the default 'marginals' method draws sample after sample, so the
        # block size leaves the stream alone ('count' would not)
        x = gen.multivariate_hypergeometric(counts, k, size=min(per_block, trials - start))
        hits += int(np.count_nonzero(far_pair_counts(far, x) >= need))
    return RestrictionMCResult(trials=trials, frequency=hits / trials,
                               bound=1.0 - 15.0 / (eps_f * eps_f * k),
                               hypothesis_met=hypothesis, ave=ave)


# ----------------------------------------------------------------------
# typical vertex sets
# ----------------------------------------------------------------------

def typical_vertex_sets(g: Graph, g_minus: Graph, m: int, seeds):
    """(V, V', V'') of the seed/degree statistics on (G, G_minus), with the
    seeds in priority order.

    V: degree d-1 in G_minus and a seed exists there; V': the seed is
    unchanged between G_minus and G; V'': the G-seed fiber of the vertex has
    size at most (d-1)^m / m.
    """
    d = g.regular_degree()
    seed_minus = seed_map_h(g_minus, m, seeds)
    seed_full = seed_map_h(g, m, seeds)
    v_set = {v for v in range(g.n)
             if len(g_minus.adjacency[v]) == d - 1 and seed_minus[v] is not None}
    v_prime = {v for v in v_set if seed_full[v] == seed_minus[v]}
    fiber = Counter(seed_full[v] for v in v_set if seed_full[v] is not None)
    cap = (d - 1) ** m / m
    v_dprime = {v for v in v_set
                if seed_full[v] is not None and fiber[seed_full[v]] <= cap}
    return v_set, v_prime, v_dprime


@dataclass(frozen=True)
class TypicalSetsRow:
    trial: int
    v_size: int
    v_prime_size: int
    v_dprime_size: int
    ell0: int
    k0: int
    f1: bool
    f2: bool
    f3: bool


def typical_sets_experiment(n: int, d: int, big_k: float, m: int, trials: int,
                            seed: int) -> list[TypicalSetsRow]:
    """Diagnostic frequencies of the three typical-set events at the
    parameterization ell0 = floor(dn/(K m)), k0 = floor(K n / (d-1)^m).

    No pass/fail: the constants behind the events are asymptotic, so the
    rows are reported as evidence only.
    """
    if m < 1:
        raise GraphError(f"need radius m >= 1, got m={m}")
    if d < 2:
        raise GraphError(f"need degree d >= 2, got d={d}")
    if not (big_k > 0 and math.isfinite(big_k * n)):
        raise GraphError(f"need big_k > 0 with big_k * n finite, got big_k={big_k}")
    if not math.isfinite(d * n / (big_k * m)):
        raise GraphError(f"big_k={big_k} is too small: d n / (big_k m) overflows")
    if m * math.log2(d - 1) >= 1023:
        raise GraphError(f"m={m} is too large: (d-1)^m = {d - 1}^{m} does not fit a float")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    ell0 = int(d * n // (big_k * m))
    k0 = int(big_k * n // (d - 1) ** m)
    if ell0 < 1 or k0 < 1:
        raise GraphError(f"degenerate parameters: ell0={ell0:.6g}, k0={k0:.6g}")
    # the asymptotic regime has (d-1)^m >> K; at desk scale the nominal k0
    # can exceed n, in which case every vertex becomes a seed
    k0 = min(k0, n)
    rows = []
    for t in range(trials):
        g, g_minus = draw_model(n, d, ell0, _subseed(seed, "typical", t))
        gen = derive_rng(seed, "typical-ra", t)
        # a uniform k0-set of seeds, in the priority order of a uniform permutation
        seed_set = np.sort(gen.choice(n, size=k0, replace=False))
        seeds = seed_set[np.argsort(gen.permutation(k0), kind="stable")]
        v_set, v_prime, v_dprime = typical_vertex_sets(g, g_minus, m, seeds)
        f1 = len(v_set) >= 2 * ell0 * (1 - 5 / big_k ** 0.25)
        f2 = len(v_prime) >= (d - 1) / d * (1 - 1 / big_k ** (1 / 7)) * len(v_set)
        f3 = len(v_dprime) >= (1 - 2 / big_k ** (1 / 3)) * len(v_set)
        rows.append(TypicalSetsRow(trial=t, v_size=len(v_set), v_prime_size=len(v_prime),
                                   v_dprime_size=len(v_dprime), ell0=ell0, k0=k0,
                                   f1=f1, f2=f2, f3=f3))
    return rows


# ----------------------------------------------------------------------
# distributional equality of (H, deleted) with the direct construction
# ----------------------------------------------------------------------

class _DistEqLaw(NamedTuple):
    """The direct construction's outcomes, from the enumerator's class
    representatives under all n! relabellings.

    An outcome is keyed (graph key << P) | deleted-edges key over the P pairs
    of [n].  labelled holds every labelled graph key of the law, ascending,
    and column[i] the class of labelled[i]: the column of its representative
    among the representatives in ascending key order.  cells holds every
    outcome once, in descending order, which is the combinations order of the
    graphs' sorted pair indices, then of the deletions; cell[p, c, s] is the
    id (index in cells) of the p-th relabelling (in itertools order) of
    representative c with its s-th ell-subset of sorted edges deleted (in
    itertools order)."""

    labelled: np.ndarray
    column: np.ndarray
    cells: list[int]
    cell: np.ndarray

    def cell_ids(self, keys: np.ndarray, perm: np.ndarray, combo: np.ndarray) -> np.ndarray:
        """The staged outcomes of sampled graph keys: each key's canonical
        representative U, then U's deletion combo and relabelling perm.
        Refuses a key outside the law."""
        at = np.searchsorted(self.labelled, keys).clip(max=len(self.labelled) - 1)
        stray = np.count_nonzero(self.labelled[at] != keys)
        if stray:
            raise AssertionError(f"sampler produced {stray} graphs outside the law")
        return self.cell[perm, self.column[at], combo]


def _dist_eq_law(n: int, d: int, ell: int) -> _DistEqLaw:
    img = _pair_action(n)
    weights = _pair_weights(n)
    reps = np.sort([_edges_key(n, u.edges)
                    for u in enumerate_regular_graphs(n, d, connected_only=False)])
    ids = np.nonzero(reps[:, None] & weights)[1].reshape(len(reps), -1)
    combos = np.array(list(itertools.combinations(range(ids.shape[1]), ell)), dtype=np.intp)
    bits = weights[img[:, ids]]
    orbits = bits.sum(axis=-1)
    table = (orbits[..., None] << len(weights)) | bits[..., combos].sum(axis=-1)
    keys, inverse = np.unique(table, return_inverse=True)
    # the orbits hold every labelled graph of the law, each under its class
    labelled, first = np.unique(orbits, return_index=True)
    return _DistEqLaw(labelled=labelled, column=first % orbits.shape[1],
                      cells=keys[::-1].tolist(),
                      cell=(len(keys) - 1 - inverse).reshape(table.shape))


_CHI2_DIGITS = 60  # working precision; the float result is correctly rounded
_PI = Decimal("3.14159265358979323846264338327950288419716939937510"
              "58209749445923078164062862089986280348253421170679")


def _chi2_sf(df: int, x: float) -> float:
    """P(X >= x) for X chi-square with df degrees of freedom: the regularized
    upper incomplete gamma Q(a, y) at a = df/2, y = x/2, correctly rounded.

    Below y = a + 1 it sums the series of P = 1 - Q, above it runs Lentz's
    continued fraction for Q (Numerical Recipes 6.2).  Gamma(a) is the exact
    product (a - 1)(a - 2)...Gamma(a mod 1), with Gamma(1/2) = sqrt(pi).  The
    exponent range is unbounded, so a far tail comes out as 0.0.  Any df
    gives 1.0 at x <= 0, which covers a one-cell law's chi2 = 0 at df = 0."""
    if x <= 0:
        return 1.0
    with localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = _CHI2_DIGITS, MAX_EMAX, MIN_EMIN
        # ten digits above the rounding noise, or a step may never reach it
        eps = Decimal(10) ** (10 - _CHI2_DIGITS)
        a, y = Decimal(df) / 2, Decimal(x) / 2
        gamma = _PI.sqrt() if df % 2 else Decimal(1)
        t = a - 1
        while t > 0:
            gamma *= t
            t -= 1
        front = (a * y.ln() - y).exp() / gamma
        if y < a + 1:
            term = total = 1 / a
            k = a
            while term > total * eps:
                k += 1
                term *= y / k
                total += term
            return float(1 - front * total)
        tiny = Decimal(10) ** (-3 * _CHI2_DIGITS)
        b = y + 1 - a
        c, d = 1 / tiny, 1 / b
        h = d
        i, step = 0, 0
        while abs(step - 1) >= eps:
            i += 1
            an = i * (a - i)
            b += 2
            d = an * d + b
            d = 1 / (d if abs(d) >= tiny else tiny)
            c = b + an / c
            c = c if abs(c) >= tiny else tiny
            step = d * c
            h *= step
        return float(front * h)


@dataclass(frozen=True)
class DistEqResult:
    trials: int
    cells: int
    chi2: float
    p_value: float


def distribution_equality_mc(n: int, d: int, ell: int, trials: int,
                             seed: int) -> DistEqResult:
    """Goodness of fit of the staged (H, deleted-edges) sample against the
    exact law of the direct construction, which is uniform over (labelled
    graph, ell-subset of its edges).

    The staged route goes through the canonical representative, so this is
    the distributional-equality check at desk scale.  Each batch of sampled
    graphs draws its relabellings and deletions from their own stage
    streams and is tallied by cell at once, so no array grows with trials.
    Bounded integer draws are block-invariant, so the tally does not depend
    on the batch boundaries.
    """
    if n > 6:
        raise GraphError("the enumerated outcome space is tiny-n only")
    if not 1 <= d < n or n * d % 2:
        raise GraphError(f"no simple {d}-regular graph on n = {n} vertices")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= ell <= n * d // 2:
        raise GraphError(f"need 0 <= ell <= dn/2, got ell={ell}")
    pid = _pairs(n)[1]
    weights = _pair_weights(n)
    law = _dist_eq_law(n, d, ell)
    perms, _, combos = law.cell.shape
    gen = derive_rng(seed, "dist-eq", n, d, ell)
    gen_pi = derive_rng(seed, "dist-eq-pi", n, d, ell)
    gen_del = derive_rng(seed, "dist-eq-del", n, d, ell)
    tally = np.zeros(len(law.cells), dtype=np.int64)
    for lo, hi in _simple_pairings(n, d, trials, gen):
        cell = law.cell_ids(weights[pid[lo, hi]].sum(axis=1),
                            gen_pi.integers(0, perms, size=len(lo)),
                            gen_del.integers(0, combos, size=len(lo)))
        tally += np.bincount(cell, minlength=len(tally))

    expected = trials / len(tally)
    chi2 = sum((x - expected) ** 2 / expected for x in tally.tolist())
    return DistEqResult(trials=trials, cells=len(tally),
                        chi2=chi2, p_value=_chi2_sf(len(tally) - 1, chi2))
