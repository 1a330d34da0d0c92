"""Graph fixtures and oracles that only the tests use, kept out of the
package they check.  A plain module rather than conftest.py, so that test
modules can import it by name even when another conftest.py is collected
in the same run."""
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
