"""Graph fixtures and oracles that only the tests use, kept out of the
package they check.  A plain module rather than conftest.py, so that test
modules can import it by name even when another conftest.py is collected
in the same run."""
import math
from fractions import Fraction

import numpy as np

from nlgap.graphs import (GraphError, complete_graph, cycle_graph, distance_matrix,
                          graph_from_edges, lambda2, multi_source_distances, path_graph,
                          petersen_graph, prism_graph)
from nlgap.metrics import _distinct_scales, validate


def complete_bipartite_graph(a, b):
    return graph_from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def relabel(g, perm):
    """Apply a permutation of [n] to the vertices (perm[v] is the new label)."""
    perm = tuple(int(p) for p in perm)
    return graph_from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def hypercube_graph(k):
    return graph_from_edges(1 << k, [(i, i | 1 << b) for i in range(1 << k)
                                     for b in range(k) if not i >> b & 1])


def corpus_graphs():
    """Named connected graphs used across oracle tests."""
    return {
        "P2": path_graph(2), "P3": path_graph(3), "P5": path_graph(5),
        "C3": cycle_graph(3), "C4": cycle_graph(4), "C5": cycle_graph(5),
        "C6": cycle_graph(6), "C8": cycle_graph(8), "C10": cycle_graph(10),
        "K4": complete_graph(4), "K5": complete_graph(5), "K6": complete_graph(6),
        "K33": complete_bipartite_graph(3, 3), "prism": prism_graph(),
        "cube": hypercube_graph(3), "petersen": petersen_graph(),
        "star6": complete_bipartite_graph(1, 5),
    }


def disjoint_union(g1, g2):
    shifted = [(u + g1.n, v + g1.n) for u, v in g2.edges]
    return graph_from_edges(g1.n + g2.n, list(g1.edges) + shifted)


def diameter(g):
    return int(distance_matrix(g).max(initial=0))


def ball(g, S, radius):
    """All vertices at distance <= radius from the set S."""
    dist = multi_source_distances(g, S, radius)
    return {v for v in range(g.n) if dist[v] <= radius}


def cut_size(g, S):
    inc = [False] * g.n
    for v in S:
        inc[v] = True
    return sum(1 for u, v in g.edges if inc[u] != inc[v])


def all_perfect_matchings(k):
    """Every perfect matching of {0..k-1} (enumeration oracle, small k)."""
    if k % 2 != 0:
        raise GraphError("odd set has no perfect matching")

    def rec(pool):
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


def matching_avoidance_law(ell, y_pairs, c):
    """The exact probability that random_perfect_matching on {0..ell-1} meets
    the pair set Y at most c*ell/2 times, as a Fraction.

    A dynamic program over the matched-vertex masks that follows the
    sampler's rule: the least unmatched element takes a uniform partner among
    the others left.  Each state holds the number of partial matchings per
    count of pairs in Y; the totals over all counts sum to (ell-1)!!."""
    if ell % 2 != 0 or ell < 2:
        raise GraphError("matching needs a nonempty even-size set")
    y = {tuple(sorted(p)) for p in y_pairs}
    full = (1 << ell) - 1
    states = {0: [1] + [0] * (ell // 2)}
    for _ in range(ell // 2):
        nxt = {}
        for mask, counts in states.items():
            a = (~mask & (mask + 1)).bit_length() - 1  # the least unmatched element
            for b in range(a + 1, ell):
                if mask >> b & 1:
                    continue
                hit = (a, b) in y
                row = nxt.setdefault(mask | 1 << a | 1 << b, [0] * (ell // 2 + 1))
                for h, count in enumerate(counts[:len(counts) - hit]):
                    row[h + hit] += count
        states = nxt
    counts = states[full]
    return Fraction(sum(x for h, x in enumerate(counts) if h <= c * ell / 2.0), sum(counts))


def trunc(level, x):
    """sign(x) * min(level, |x|), the witness map's truncation."""
    return math.copysign(min(level, abs(x)), x) if x != 0 else 0.0


def path_metric(g):
    """Shortest-path metric of a connected graph."""
    return validate(distance_matrix(g).astype(np.float64))


def gamma_euclidean_sq(g):
    """d / (d - lambda2), the optimal constant of a connected d-regular graph
    for squared-Euclidean costs.  A mean-zero f has ave = 2 |f|^2 / n
    (ordered pairs over n^2) and Dirichlet form f^T L f / m with m = d n / 2."""
    d = g.regular_degree()
    return d / (d - lambda2(g))


def lift_assignment(assignment, metric):
    """Send a non-constant vertex->point assignment into the cluster of the
    well-conditioned reduction of metric whose scale is its largest image
    distance; point x of cluster t has flat index t * N + x."""
    tau = max(float(metric.dist[x, y]) for x in assignment for y in assignment)
    cluster = next(t for t, val in enumerate(_distinct_scales(metric))
                   if math.isclose(val, tau, rel_tol=1e-12, abs_tol=0.0))
    return [cluster * metric.size + x for x in assignment]
