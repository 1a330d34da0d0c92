"""The multistage generation of random regular graphs (canonical
representative, uniform edge deletion, uniform relabeling), seed maps under
natural and supplied linear orders, the equitable distance decomposition,
uniform perfect matchings with the avoidance bound, and the Monte Carlo
verifiers for the corresponding distributional statements."""
from __future__ import annotations

import itertools
import math
import sys
from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc

from .graphs import (Graph, GraphError, _canonical_keys, _edges_key, _pair_action,
                     _pair_weights, _simple_pairings, bfs_distances, canonical_form,
                     enumerate_regular_graphs, graph_from_edges, random_regular, relabel,
                     sphere)
from .poincare import VertexMap, empirical_average, is_concentrated
from .rng import derive_rng


def _subseed(seed: int, *path) -> int:
    return int(derive_rng(seed, *path).integers(0, 2 ** 62))


# ----------------------------------------------------------------------
# multistage model
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ModelDraw:
    """One joint realization of the staged construction.

    g is uniform on the d-regular graphs, u its canonical representative,
    deleted a uniform ell-subset of u's edges, pi a uniform permutation;
    h = pi(u) and h_minus = pi(u with the deleted edges removed).
    """

    g: Graph
    u: Graph
    pi: tuple[int, ...]
    ell: int
    deleted: tuple[tuple[int, int], ...]
    h: Graph
    h_minus: Graph

    def u_minus(self) -> Graph:
        gone = set(self.deleted)
        return graph_from_edges(self.u.n, [e for e in self.u.edges if e not in gone])


def draw_model(n: int, d: int, ell: int, seed: int, canonical: bool = True) -> ModelDraw:
    """Draw (G, U, deleted, pi, H, H_minus) with independent stages.

    canonical=False skips the representative (U := G); the law of H is
    unaffected, which is what large-n experiments need since the canonical
    map is brute force over permutations.
    """
    if (n * d) % 2 != 0:
        raise GraphError("n*d must be even")
    if not 0 <= ell <= n * d // 2:
        raise GraphError(f"need 0 <= ell <= dn/2, got ell={ell}")
    g = random_regular(n, d, _subseed(seed, "model-g"))
    u = canonical_form(g) if canonical else g
    gen_del = derive_rng(seed, "model-del")
    idx = sorted(int(i) for i in gen_del.choice(u.m, size=ell, replace=False))
    deleted = tuple(u.edges[i] for i in idx)
    gen_pi = derive_rng(seed, "model-pi")
    pi = tuple(int(p) for p in gen_pi.permutation(n))
    h = relabel(u, pi)
    gone = set(deleted)
    h_minus = relabel(graph_from_edges(n, [e for e in u.edges if e not in gone]), pi)
    return ModelDraw(g=g, u=u, pi=pi, ell=ell, deleted=deleted, h=h, h_minus=h_minus)


# ----------------------------------------------------------------------
# seed maps
# ----------------------------------------------------------------------

UNDEFINED = None  # the "no seed" marker


@dataclass(frozen=True)
class SeedTable:
    """Per-vertex assignment to a seed at graph distance exactly m, or None.

    seeds are stored sorted; order_rank[i] is the rank of the i-th smallest
    seed in the governing linear order (None means the natural order).
    """

    m: int
    seeds: tuple[int, ...]
    order_rank: tuple[int, ...] | None
    assignment: tuple[int | None, ...]

    def defined(self) -> list[int]:
        return [v for v, s in enumerate(self.assignment) if s is not None]

    def fibers(self) -> Counter:
        return Counter(s for s in self.assignment if s is not None)


def _assign_by_priority(g: Graph, m: int, seeds_by_priority) -> list[int | None]:
    out: list[int | None] = [None] * g.n
    for s in seeds_by_priority:
        for v in sphere(g, [s], m):
            if out[v] is None:
                out[v] = s
    return out


def seed_map_g(g: Graph, m: int, k: int) -> SeedTable:
    """Assign each vertex the natural-order smallest seed in [k] at distance m."""
    if not (1 <= m <= g.n and 1 <= k <= g.n):
        raise GraphError(f"need 1 <= m,k <= n, got m={m}, k={k}")
    assignment = _assign_by_priority(g, m, range(k))
    return SeedTable(m=m, seeds=tuple(range(k)), order_rank=None,
                     assignment=tuple(assignment))


def seed_map_h(g: Graph, m: int, seed_set, order_rank) -> SeedTable:
    """Assign each vertex the order-minimal element of its distance-m sphere
    inside the seed set; order_rank ranks the seeds written in increasing
    vertex order (identity ranks reproduce seed_map_g on [k])."""
    if not 1 <= m <= g.n:
        raise GraphError(f"need 1 <= m <= n, got m={m}")
    seeds = tuple(sorted(set(int(s) for s in seed_set)))
    if not seeds:
        raise GraphError("seed set must be nonempty")
    rank = tuple(int(r) for r in order_rank)
    if sorted(rank) != list(range(len(seeds))):
        raise GraphError("order_rank must be a permutation of 0..k-1")
    by_priority = [seeds[i] for i in np.argsort(rank, kind="stable")]
    assignment = _assign_by_priority(g, m, by_priority)
    return SeedTable(m=m, seeds=seeds, order_rank=rank, assignment=tuple(assignment))


def order_rank_from_permutation(pi, k: int) -> tuple[int, ...]:
    """Ranks making the order on R = pi^{-1}([k]) the pullback of the natural
    order on [k]: the i-th smallest element r of R gets rank pi[r]."""
    inv = sorted(range(len(pi)), key=lambda v: pi[v])  # pi^{-1}
    r_sorted = sorted(inv[:k])
    return tuple(pi[r] for r in r_sorted)


# ----------------------------------------------------------------------
# equitable decomposition
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Decomposition:
    parts: tuple[tuple[int, ...], ...]
    m: int
    conflict_radius: int       # 2m
    max_part_degree: int       # the bound M
    equitable: bool            # all sizes within floor/ceil of |W|/(M+1)
    spread: int                # max size - min size achieved
    swaps_used: int


def part_degree_bound(d: int, m: int) -> int:
    return sum(d * (d - 1) ** (j - 1) for j in range(1, 2 * m + 1))


def equitable_decomposition(g: Graph, w, m: int, d: int | None = None) -> Decomposition:
    """Partition W into M+1 parts of pairwise graph distance >= 2m+1.

    Greedy coloring of the distance-<=2m conflict graph guarantees the
    separation exactly (the conflict degree is at most M); balancing swaps
    then push sizes into the floor/ceil band, giving up after 10 |W| (M+1)
    swaps with the separation intact and the spread reported.
    """
    w = sorted(set(int(v) for v in w))
    if d is None:
        d = max((g.degree(v) for v in range(g.n)), default=0)
    if max((g.degree(v) for v in range(g.n)), default=0) > d:
        raise GraphError("graph exceeds the stated degree bound")
    if m < 1:
        raise GraphError("radius m must be >= 1")
    big_m = part_degree_bound(d, m)
    n_parts = big_m + 1
    swap_cap = 10 * max(1, len(w)) * n_parts
    conflicts: dict[int, set[int]] = {v: set() for v in w}
    wset = set(w)
    for v in w:
        row = bfs_distances(g, v, 2 * m)
        for u in wset:
            if u != v and row[u] <= 2 * m:
                conflicts[v].add(u)
    color: dict[int, int] = {}
    parts: list[set[int]] = [set() for _ in range(n_parts)]
    for v in w:
        used = {color[u] for u in conflicts[v] if u in color}
        c = min(i for i in range(n_parts) if i not in used)
        color[v] = c
        parts[c].add(v)
    lo = len(w) // n_parts
    hi = -(-len(w) // n_parts)
    swaps = 0
    while swaps < swap_cap:
        sizes = [len(p) for p in parts]
        over = [i for i, s in enumerate(sizes) if s > hi]
        under = [i for i, s in enumerate(sizes) if s < lo]
        if not over and not under:
            break
        donors = sorted(range(n_parts), key=lambda i: -sizes[i])
        moved = False
        targets = under if under else [i for i, s in enumerate(sizes) if s < hi]
        for src in donors:
            if sizes[src] <= lo:
                break
            for v in sorted(parts[src]):
                for dst in targets:
                    if dst != src and not (conflicts[v] & parts[dst]):
                        parts[src].remove(v)
                        parts[dst].add(v)
                        swaps += 1
                        moved = True
                        break
                if moved:
                    break
            if moved:
                break
        if not moved:
            break
    sizes = [len(p) for p in parts]
    equitable = all(lo <= s <= hi for s in sizes)
    return Decomposition(parts=tuple(tuple(sorted(p)) for p in parts), m=m,
                         conflict_radius=2 * m, max_part_degree=big_m,
                         equitable=equitable, spread=max(sizes) - min(sizes),
                         swaps_used=swaps)


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
        out.append((a, b) if a < b else (b, a))
    # the last partner is forced; gen.integers(0, 1) would consume no randomness
    out.append((pool[0], pool[1]))
    return out


def all_perfect_matchings(k: int) -> list[tuple[tuple[int, int], ...]]:
    """Every perfect matching of {0..k-1} (enumeration oracle, small k)."""
    if k % 2 != 0:
        raise GraphError("odd set has no perfect matching")

    def rec(pool: tuple[int, ...]):
        if not pool:
            yield ()
            return
        a = pool[0]
        for i in range(1, len(pool)):
            b = pool[i]
            rest = pool[1:i] + pool[i + 1:]
            for tail in rec(rest):
                yield ((a, b),) + tail

    return [tuple(sorted(mu)) for mu in rec(tuple(range(k)))]


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


_MC_BLOCK = 1 << 13  # matchings decoded at once; sets memory only, not the stream
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
    ell: int
    eps: float
    c: float
    trials: int
    empirical: float
    analytic_bound: float


def matching_avoidance_mc(ell: int, y_pairs, c: float, trials: int, seed: int,
                          eps: float | None = None) -> MatchingMCResult:
    """Estimate the probability that a uniform matching of [ell] meets the
    pair set Y at most c*ell/2 times, alongside the analytic bound."""
    check_matching_ell(ell)
    y = {tuple(sorted(p)) for p in y_pairs}
    full = ell * (ell - 1) // 2
    if eps is None:
        eps = 1.0 - len(y) / full
        eps = max(eps, 1e-12)
    if len(y) < (1.0 - eps) * full - 1e-9:
        raise GraphError(f"|Y| = {len(y)} below (1-eps) * C(ell,2) = {(1 - eps) * full}")
    if not 0 < c <= eps <= 0.5:
        raise GraphError(f"need 0 < c <= eps <= 1/2, got c={c}, eps={eps}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    gen = derive_rng(seed, "matching-mc", ell)
    threshold = c * ell / 2.0
    in_y = np.zeros((ell, ell), dtype=bool)
    for a, b in y:
        if 0 <= a < b < ell:
            in_y[a, b] = True
    # one draw per block yields each trial's partner ranks with the values of
    # random_perfect_matching's scalar draws; the last bound, 1, draws nothing
    highs = np.arange(ell - 1, 0, -2)
    hits = 0
    for start in range(0, trials, _MC_BLOCK):
        t = min(_MC_BLOCK, trials - start)
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
    return MatchingMCResult(ell=ell, eps=eps, c=c, trials=trials,
                            empirical=hits / trials,
                            analytic_bound=matching_avoidance_bound(ell, eps, c))


# ----------------------------------------------------------------------
# restriction of concentrated maps to random small sets
# ----------------------------------------------------------------------

_RESTRICTION_PAIRS = 1 << 18  # sampled pairs scored at once; sets memory only


@dataclass(frozen=True)
class RestrictionMCResult:
    eps: float
    k: int
    trials: int
    frequency: float
    bound: float              # 1 - 15 / (eps^2 k)
    hypothesis_met: bool      # concentrated, eps <= 1/31, k >= 2/eps
    ave: float


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
    # far[a * N + b]: points a and b keep distance >= ave/5; a sampled pair is
    # scored by its flat index, in the narrowest type that holds every index
    far = (f.target.dist >= ave / 5.0).ravel()
    assign = np.asarray(f.assignment, dtype=np.min_scalar_type(far.size - 1))
    pairs_total = k * (k - 1) // 2
    need = (1.0 - 2.0 * eps_f) * pairs_total
    iu, ju = np.triu_indices(k, 1)
    per_block = max(1, _RESTRICTION_PAIRS // pairs_total)
    hits = 0
    for start in range(0, trials, per_block):
        pts = assign[np.stack([gen.choice(n, size=k, replace=False)
                               for _ in range(min(per_block, trials - start))])]
        flat = (pts * f.target.size)[:, iu]
        flat += pts[:, ju]
        hits += int(np.count_nonzero(np.count_nonzero(far[flat], axis=1) >= need))
    return RestrictionMCResult(eps=eps_f, k=k, trials=trials, frequency=hits / trials,
                               bound=1.0 - 15.0 / (eps_f * eps_f * k),
                               hypothesis_met=hypothesis, ave=ave)


# ----------------------------------------------------------------------
# typical vertex sets
# ----------------------------------------------------------------------

def typical_vertex_sets(draw: ModelDraw, m: int, seed_set, order_rank, j_pairs):
    """(V, V', V'') of the seed/degree statistics on (U, U_minus).

    V: degree d-1 in U_minus and a seed exists there; V': the seed is
    unchanged between U_minus and U and the (vertex, seed) pair avoids J;
    V'': the U-seed fiber of the vertex has size at most (d-1)^m / m.
    """
    d = draw.g.regular_degree()
    u_minus = draw.u_minus()
    table_minus = seed_map_h(u_minus, m, seed_set, order_rank)
    table_full = seed_map_h(draw.u, m, seed_set, order_rank)
    j = {tuple(sorted(p)) for p in j_pairs}
    v_set = {v for v in range(draw.u.n)
             if u_minus.degree(v) == d - 1 and table_minus.assignment[v] is not None}
    v_prime = set()
    for v in v_set:
        s_full = table_full.assignment[v]
        if s_full is not None and s_full == table_minus.assignment[v] \
                and tuple(sorted((v, s_full))) not in j:
            v_prime.add(v)
    fiber = Counter(table_full.assignment[v] for v in v_set
                    if table_full.assignment[v] is not None)
    cap = (d - 1) ** m / m
    v_dprime = {v for v in v_set
                if table_full.assignment[v] is not None
                and fiber[table_full.assignment[v]] <= cap}
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
                            seed: int, j_pairs=()) -> list[TypicalSetsRow]:
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
        raise GraphError(f"degenerate parameters: ell0={ell0}, k0={k0}")
    # the asymptotic regime has (d-1)^m >> K; at desk scale the nominal k0
    # can exceed n, in which case every vertex becomes a seed
    k0 = min(k0, n)
    rows = []
    for t in range(trials):
        draw = draw_model(n, d, ell0, _subseed(seed, "typical", t), canonical=False)
        gen = derive_rng(seed, "typical-ra", t)
        seed_set = sorted(int(x) for x in gen.choice(n, size=k0, replace=False))
        rank = tuple(int(r) for r in gen.permutation(k0))
        v_set, v_prime, v_dprime = typical_vertex_sets(draw, m, seed_set, rank, j_pairs)
        f1 = len(v_set) >= 2 * ell0 * (1 - 5 / big_k ** 0.25)
        f2 = len(v_prime) >= (d - 1) / d * (1 - 1 / big_k ** (1 / 7)) * len(v_set)
        f3 = len(v_dprime) >= (1 - 2 / big_k ** (1 / 3)) * len(v_set)
        rows.append(TypicalSetsRow(trial=t, v_size=len(v_set), v_prime_size=len(v_prime),
                                   v_dprime_size=len(v_dprime), ell0=ell0, k0=k0,
                                   f1=f1, f2=f2, f3=f3))
    return rows


# ----------------------------------------------------------------------
# invariance of pair-set generators
# ----------------------------------------------------------------------

def is_invariant_generator(generator, u: Graph, seed: int, samples: int = 20) -> bool:
    """Check L(U, pi) = pi(L(U, id)) on sampled permutations.

    generator(u, pi) must return a set of vertex pairs; pi is a tuple with
    pi[v] the new label of v.
    """
    identity = tuple(range(u.n))
    base = {tuple(sorted(p)) for p in generator(u, identity)}
    gen = derive_rng(seed, "invariance")
    for _ in range(samples):
        pi = tuple(int(x) for x in gen.permutation(u.n))
        lhs = {tuple(sorted(p)) for p in generator(u, pi)}
        rhs = {tuple(sorted((pi[a], pi[b]))) for a, b in base}
        if lhs != rhs:
            return False
    return True


# ----------------------------------------------------------------------
# distributional equality of (H, deleted) with the direct construction
# ----------------------------------------------------------------------

def _dist_eq_law(n: int, d: int, ell: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The direct construction's outcomes, from the class sweep's representatives.

    An outcome is keyed (graph key << P) | deleted-edges key over the P pairs
    of [n].  Returns the representatives' canonical keys, ascending; the
    table whose entry [p, c, s] is the outcome of the p-th relabelling of
    representative c with its s-th ell-subset of sorted edges deleted (both
    in itertools order); and every outcome once, in descending order, which
    is the combinations order of the graphs' sorted pair indices, then of
    the deletions."""
    img = _pair_action(n)[2]
    weights = _pair_weights(n)
    reps = np.sort([_edges_key(n, u.edges)
                    for u in enumerate_regular_graphs(n, d, connected_only=False)])
    ids = np.nonzero(reps[:, None] & weights)[1].reshape(len(reps), -1)
    combos = np.array(list(itertools.combinations(range(ids.shape[1]), ell)), dtype=np.intp)
    bits = weights[img[:, ids]]
    table = (bits.sum(axis=-1)[..., None] << len(weights)) | bits[..., combos].sum(axis=-1)
    return reps, table, np.unique(table)[::-1].tolist()


@dataclass(frozen=True)
class DistEqResult:
    n: int
    d: int
    ell: int
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
    the distributional-equality check at desk scale.
    """
    if n > 6:
        raise GraphError("the enumerated outcome space is tiny-n only")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    m_edges = n * d // 2
    if not 0 <= ell <= m_edges:
        raise GraphError(f"need 0 <= ell <= dn/2, got ell={ell}")
    pid = _pair_action(n)[1]
    weights = _pair_weights(n)
    gen = derive_rng(seed, "dist-eq", n, d, ell)
    sampled = np.concatenate([weights[pid[lo, hi]].sum(axis=1)
                              for lo, hi in _simple_pairings(n, d, trials, gen)])
    perm_idx = gen.integers(0, math.factorial(n), size=trials)
    combo_idx = gen.integers(0, math.comb(m_edges, ell), size=trials)

    # the staged outcome: canonical representative U of the sampled graph,
    # then the drawn deletion and relabelling of U
    reps, table, cells = _dist_eq_law(n, d, ell)
    canon = _canonical_keys(n, sampled)
    rep = np.searchsorted(reps, canon).clip(max=len(reps) - 1)
    stray = np.count_nonzero(reps[rep] != canon)
    if stray:
        raise AssertionError(f"sampler produced {stray} graphs outside the law")
    keys, freq = np.unique(table[perm_idx, rep, combo_idx], return_counts=True)
    counts = dict(zip(keys.tolist(), freq.tolist()))

    expected = trials / len(cells)
    chi2 = sum((counts.get(c, 0) - expected) ** 2 / expected for c in cells)
    # a one-cell law is fitted exactly; chdtrc(0, 0) is nan, which no
    # p-value threshold would reject
    p = 1.0 if len(cells) == 1 else float(chdtrc(len(cells) - 1, chi2))
    return DistEqResult(n=n, d=d, ell=ell, trials=trials, cells=len(cells),
                        chi2=chi2, p_value=p)
