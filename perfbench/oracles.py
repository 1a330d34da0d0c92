"""Independent oracles for the benchmark's output checks.

Nothing here imports nlgap: every oracle is brute force, a closed form or
exact `Fraction` arithmetic over plain edge lists, so a defect in the
package cannot hide behind the code that checks it.
"""
from __future__ import annotations

import itertools
import math
from collections import deque
from fractions import Fraction

# Connected cubic graphs up to isomorphism on n = 4, 6, 8 vertices (OEIS A002851).
CUBIC_COUNTS = {4: 1, 6: 2, 8: 5}
# Labelled 3-regular graphs on 6 vertices (OEIS A005815).
LABELLED_CUBIC_6 = 70


def edge_list(g) -> list[tuple[int, int]]:
    return [(int(u), int(v)) for u, v in g.edges]


def bfs(n: int, edges, source: int) -> list[int]:
    """Hop distances from one vertex; unreachable vertices get -1."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    dist = [-1] * n
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for u in adj[v]:
            if dist[u] < 0:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def is_connected(n: int, edges) -> bool:
    return n <= 1 or min(bfs(n, edges, 0)) >= 0


def is_simple_regular(n: int, edges, d: int) -> bool:
    seen = set()
    deg = [0] * n
    for u, v in edges:
        key = (min(u, v), max(u, v))
        if u == v or key in seen:
            return False
        seen.add(key)
        deg[u] += 1
        deg[v] += 1
    return all(x == d for x in deg)


def cut(edges, side: set[int]) -> int:
    return sum(1 for u, v in edges if (u in side) != (v in side))


def cheeger(n: int, edges) -> Fraction:
    """min cut(S)/|S| over nonempty S with |S| <= n/2, by brute force."""
    return min(Fraction(cut(edges, set(s)), len(s))
               for size in range(1, n // 2 + 1)
               for s in itertools.combinations(range(n), size))


def two_point_gamma(n: int, edges) -> Fraction:
    """Optimal ratio into the uniform 2-point metric: the best vertex cut,
    (2|S|(n-|S|)/n^2) / (cut(S)/|E|), maximized over proper subsets S."""
    m = len(edges)
    best = None
    for size in range(1, n):
        for s in itertools.combinations(range(n), size):
            c = cut(edges, set(s))
            if c:
                val = Fraction(2 * size * (n - size), n * n) / Fraction(c, m)
                best = val if best is None or val > best else best
    return best


def witness_two_point_ratio(n: int, edges, assignment) -> Fraction:
    """Ratio of a 0/1 map, exact: the cut ratio of the set mapped to 1."""
    side = {v for v, a in enumerate(assignment) if a == 1}
    s = len(side)
    return Fraction(2 * s * (n - s), n * n) / Fraction(cut(edges, side), len(edges))


def connected_graphs_up_to(n_max: int) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    """Every connected simple graph on 2..n_max vertices, one per
    isomorphism class, as (n, sorted edges). Once a class is found all its
    relabellings are marked seen, so each class is listed once."""
    out = []
    for n in range(2, n_max + 1):
        pairs = list(itertools.combinations(range(n), 2))
        index = {p: i for i, p in enumerate(pairs)}
        perms = list(itertools.permutations(range(n)))
        seen = set()
        for bits in range(1, 1 << len(pairs)):
            if bits in seen:
                continue
            edges = tuple(pairs[i] for i in range(len(pairs)) if bits >> i & 1)
            if not is_connected(n, edges):
                continue
            out.append((n, edges))
            for p in perms:
                seen.add(sum(1 << index[(min(p[u], p[v]), max(p[u], p[v]))] for u, v in edges))
    return out


def double_factorial_odd(k: int) -> int:
    """(k-1)!!, the number of perfect matchings of a k-set (k even)."""
    out = 1
    for j in range(k - 1, 0, -2):
        out *= j
    return out


def is_perfect_matching(pairs, items) -> bool:
    covered = [x for p in pairs for x in p]
    return sorted(covered) == sorted(items) and all(a < b for a, b in pairs)


def rel_close(a: float, b: float, tol: float = 1e-12) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


def percentile(sorted_values, frac: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(frac * len(sorted_values)) - 1)]
