"""Graph fixtures and oracles that only the tests use, kept out of the
package they check.  A plain module rather than conftest.py, so that test
modules can import it by name even when another conftest.py is collected
in the same run."""
from fractions import Fraction

from nlgap.graphs import GraphError, graph_from_edges


def hypercube_graph(k):
    return graph_from_edges(1 << k, [(i, i | 1 << b) for i in range(1 << k)
                                     for b in range(k) if not i >> b & 1])


def disjoint_union(g1, g2):
    shifted = [(u + g1.n, v + g1.n) for u, v in g2.edges]
    return graph_from_edges(g1.n + g2.n, list(g1.edges) + shifted)


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
