import functools
import itertools

import pytest
from hypothesis import settings

from nlgap.graphs import random_regular
from oracles import corpus_graphs

# derandomized: every property test runs the same examples on every run
settings.register_profile("reproducible", derandomize=True)
settings.load_profile("reproducible")


def regular_corpus_graphs():
    return {name: g for name, g in corpus_graphs().items()
            if g.regular_degree() is not None and g.regular_degree() >= 2}


@pytest.fixture(scope="session")
def corpus():
    return corpus_graphs()


@pytest.fixture(scope="session")
def regular_corpus():
    return regular_corpus_graphs()


@pytest.fixture(scope="session")
def small_random_regulars():
    return [random_regular(n, 3, seed=s) for n in (8, 10, 12) for s in (1, 2)]


@functools.lru_cache(maxsize=None)
def labelled_regular_keys(n, d):
    """Oracle: the key of every labelled d-regular graph on [n] (bit P-1-i for
    the pair of lexicographic index i among the P pairs), in the
    itertools.combinations order of its edge subsets.  Scans all C(P, nd/2)
    subsets, so tiny n only."""
    pairs = list(itertools.combinations(range(n), 2))
    keys = []
    for combo in itertools.combinations(range(len(pairs)), n * d // 2):
        deg = [0] * n
        for i in combo:
            u, v = pairs[i]
            deg[u] += 1
            deg[v] += 1
        if all(x == d for x in deg):
            keys.append(sum(1 << (len(pairs) - 1 - i) for i in combo))
    return keys


@pytest.fixture(scope="session")
def labelled_regular():
    return labelled_regular_keys


def philox_state_of(gen):
    """Everything that sets the next draws of a Philox generator."""
    state = gen.bit_generator.state
    return (state["state"]["counter"].tolist(), state["state"]["key"].tolist(),
            state["buffer"].tolist(), state["buffer_pos"], state["has_uint32"],
            state["uinteger"])


@pytest.fixture(scope="session")
def philox_state():
    return philox_state_of
