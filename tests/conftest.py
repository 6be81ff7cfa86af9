import random

import pytest
from fractions import Fraction
from hypothesis import strategies as st

from forest_atoms import Analysis, Digraph

# 4-vertex worked example: unique minimal forest at every level,
# strict convexity throughout (phi = inf 7 3 1 0).
ATO_ARCS = [("b", "a", 1), ("a", "c", 2), ("b", "d", 2), ("c", "b", 3)]

# 6-vertex worked example: three symmetric 2-cycles plus two bridges;
# no spanning tree (phi = inf inf 8 5 3 1 0), equality at k = 4, and an
# atom that is unlabeled at k = 2 but labeled at k = 3.
WOODY_ARCS = [
    ("alpha", "zeta", 2), ("zeta", "alpha", 2),
    ("beta", "eta", 1), ("eta", "beta", 1),
    ("gamma", "xi", 2), ("xi", "gamma", 2),
    ("beta", "gamma", 3), ("eta", "zeta", 3),
]


@pytest.fixture(scope="session")
def g_ato() -> Digraph:
    return Digraph.from_arcs(ATO_ARCS)


@pytest.fixture(scope="session")
def g_woody() -> Digraph:
    return Digraph.from_arcs(WOODY_ARCS)


@pytest.fixture(scope="session")
def an_ato(g_ato) -> Analysis:
    return Analysis.compute(g_ato)


@pytest.fixture(scope="session")
def an_woody(g_woody) -> Analysis:
    return Analysis.compute(g_woody)


def random_graph(seed: int, n_max: int = 5, wmax: int = 5) -> Digraph:
    """Small random digraph for oracle comparisons."""
    rng = random.Random(seed)
    n = rng.randint(1, n_max)
    names = tuple(f"v{i}" for i in range(n))
    density = rng.uniform(0.1, 0.95)
    arcs = {(i, j): Fraction(rng.randint(1, wmax))
            for i in range(n) for j in range(n)
            if i != j and rng.random() < density}
    return Digraph(names=names, arcs=arcs)


@st.composite
def signed_graphs(draw, max_arcs=None):
    """N <= 5, weights zero, negative or fractional; many vertices get
    no out-arc."""
    n = draw(st.integers(1, 5))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True,
                           max_size=max_arcs)) if pairs else []
    weights = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    arcs = {p: draw(weights) for p in chosen}
    return Digraph(names=tuple(f"v{i}" for i in range(n)), arcs=arcs)
