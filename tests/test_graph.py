"""Graph primitives: forests, subtrees, partitions, arc replacement."""

import itertools
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forest_atoms import (Digraph, Forest, InputError, components,
                          enumerate_forests, find_non_reaching,
                          in_neighborhood, is_forest, rewrite_guard,
                          out_neighborhood, quotient, quotient_non_reaching,
                          quotient_reaches, replace_arcs, restrict, subtree,
                          tree_partition, upsilon)
from forest_atoms.graph import Subgraph, _acyclic
from tests.conftest import signed_graphs


# -- strategies -------------------------------------------------------

@st.composite
def digraphs(draw, n_max=5):
    n = draw(st.integers(1, n_max))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    weights = draw(st.lists(st.integers(1, 9), min_size=len(chosen),
                            max_size=len(chosen)))
    return Digraph(names=tuple(f"v{i}" for i in range(n)),
                   arcs={p: Fraction(w) for p, w in zip(chosen, weights)})


@st.composite
def graph_with_out_map(draw, n_max=5):
    g = draw(digraphs(n_max))
    out = []
    for v in range(g.n):
        choices = [t for t, _ in g.out_lists[v]] + [None]
        out.append(draw(st.sampled_from(choices)))
    return g, tuple(out)


@st.composite
def forests(draw, n_max=5):
    g, out = draw(graph_with_out_map(n_max))
    if not is_forest(out, g):
        # break every contour by re-rooting one vertex of it
        out = list(out)
        while not is_forest(out, g):
            nxg = nx.DiGraph((v, t) for v, t in enumerate(out)
                             if t is not None)
            cycle = nx.find_cycle(nxg)
            out[cycle[0][0]] = None
        out = tuple(out)
    return Forest(g, out)


# -- Digraph ----------------------------------------------------------

def test_digraph_basics(g_ato):
    assert g_ato.n == 4
    assert g_ato.names == ("a", "b", "c", "d")
    assert g_ato.weight(g_ato.index("b"), g_ato.index("a")) == 1
    with pytest.raises(InputError):
        g_ato.index("zz")
    with pytest.raises(InputError):
        g_ato.weight(0, 1)  # no arc a->b


def test_digraph_rejects_self_loop_and_duplicates():
    with pytest.raises(InputError):
        Digraph.from_arcs([("a", "a", 1)])
    g = Digraph.from_arcs([("a", "b", 5), ("a", "b", 2)])
    assert g.arcs[(0, 1)] == 2  # parallel arcs collapse to the minimum


def test_digraph_needs_vertices():
    with pytest.raises(InputError):
        Digraph(names=(), arcs={})


def test_digraph_rejects_inexact_weight():
    with pytest.raises(InputError):
        Digraph(names=("a", "b"), arcs={(0, 1): 0.5})


# -- Forest -----------------------------------------------------------

def test_forest_construction(g_ato):
    F = Forest.from_names(g_ato, {"b": "a", "a": "c"})
    assert F.k == 2
    assert F.roots == g_ato.vset(["c", "d"])
    assert F.weight == Fraction(3)
    assert F.root_of(g_ato.index("b")) == g_ato.index("c")
    assert F.root_path(g_ato.index("b")) == tuple(
        g_ato.index(v) for v in ["b", "a", "c"])
    assert F.reaches(g_ato.index("b"), g_ato.index("a"))
    assert not F.reaches(g_ato.index("a"), g_ato.index("b"))


def test_forest_rejects_contour(g_ato):
    with pytest.raises(InputError):
        Forest(g_ato, (2, 0, 1, None))  # a->c->b->a


def test_forest_rejects_missing_arc(g_ato):
    with pytest.raises(InputError):
        Forest.from_names(g_ato, {"a": "b"})  # no arc a->b in the graph


def test_is_forest_input_forms(g_ato):
    assert is_forest({"b": "a"}, g_ato)
    assert is_forest((None,) * 4, g_ato)
    with pytest.raises(InputError):
        is_forest({"zz": "a"}, g_ato)
    with pytest.raises(InputError):
        is_forest({"a": "b"}, g_ato)


@settings(max_examples=80, deadline=None)
@given(graph_with_out_map())
def test_is_forest_matches_networkx(gm):
    g, out = gm
    nxg = nx.DiGraph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from((v, t) for v, t in enumerate(out) if t is not None)
    assert is_forest(out, g) == nx.is_directed_acyclic_graph(nxg)


@settings(max_examples=200, deadline=None)
@given(graph_with_out_map(n_max=8))
def test_fast_acyclicity_matches_is_forest(gm):
    g, out = gm
    assert _acyclic(out) == is_forest(out, g)
    assert _acyclic(list(out)) == is_forest(out, g)


# -- subtrees, components ---------------------------------------------

@settings(max_examples=60, deadline=None)
@given(forests())
def test_components_partition_and_roots(F):
    comps = components(F)
    union = set().union(*comps) if comps else set()
    assert union == set(range(F.graph.n))
    assert sum(len(c) for c in comps) == F.graph.n
    assert len(comps) == F.k
    for c in comps:
        assert len(c & F.roots) == 1


@settings(max_examples=60, deadline=None)
@given(forests())
def test_subtree_nesting(F):
    subs = [subtree(F, i) for i in range(F.graph.n)]
    for i, j in itertools.combinations(range(F.graph.n), 2):
        Si, Sj = subs[i], subs[j]
        if Si & Sj:
            assert i in Sj or j in Si
            assert Si <= Sj or Sj <= Si


@settings(max_examples=60, deadline=None)
@given(forests(), st.randoms(use_true_random=False))
def test_find_non_reaching(F, rnd):
    comps = components(F)
    tree = rnd.choice(comps)
    B = frozenset(rnd.sample(sorted(tree), rnd.randint(1, len(tree))))
    beta = find_non_reaching(F, B)
    assert beta in B
    assert not any(F.reaches(beta, o) for o in B if o != beta)


# -- restriction and neighborhoods ------------------------------------

def test_restrict_and_neighborhoods(g_ato):
    F = Forest.from_names(g_ato, {"a": "c", "b": "a"})
    ab = g_ato.vset(["a", "b"])
    sub = restrict(F, ab)
    assert sub.arcs == {(g_ato.index("b"), g_ato.index("a"))}
    assert sub.is_tree()
    assert out_neighborhood(F, ab) == g_ato.vset(["c"])
    assert in_neighborhood(F, ab) == frozenset()
    assert in_neighborhood(g_ato, ab) == g_ato.vset(["c"])
    with pytest.raises(InputError):
        restrict(F, frozenset({99}))


def test_restriction_disconnected(g_ato):
    F1 = Forest.from_names(g_ato, {"a": "c", "b": "d", "c": "b"})
    sub = restrict(F1, g_ato.vset(["a", "b"]))
    assert not sub.is_tree()
    assert len(sub.component_sets()) == 2


def test_subgraph_rejects_stray_arc(g_ato):
    with pytest.raises(InputError):
        Subgraph(g_ato, frozenset({0}), frozenset({(0, 2)}))


def test_upsilon(g_ato):
    F = Forest.from_names(g_ato, {"a": "c", "b": "a"})
    assert upsilon(F) == Fraction(3)
    assert upsilon(F, g_ato.vset(["b"])) == Fraction(1)
    assert upsilon(F, g_ato.vset(["c", "d"])) == Fraction(0)


# -- arc replacement --------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(forests(), st.data())
def test_rewrite_guard_implies_forest(F, data):
    g = F.graph
    out2 = []
    for v in range(g.n):
        choices = [t for t, _ in g.out_lists[v]] + [None]
        out2.append(data.draw(st.sampled_from(choices)))
    if not is_forest(tuple(out2), g):
        return
    G = Forest(g, tuple(out2))
    D = frozenset(data.draw(st.sets(st.integers(0, g.n - 1))))
    if rewrite_guard(F, G, D):
        assert is_forest(replace_arcs(F, G, D), g)


def test_replace_arcs_requires_shared_graph(g_ato, g_woody):
    F = Forest(g_ato, (None,) * 4)
    G = Forest(g_woody, (None,) * 6)
    with pytest.raises(InputError):
        replace_arcs(F, G, frozenset())


# -- tree partitions and quotients ------------------------------------

def test_tree_partition_requires_roots(g_ato):
    F = Forest.from_names(g_ato, {"a": "c", "b": "a"})
    with pytest.raises(InputError):
        tree_partition(F, g_ato.vset(["a"]))  # roots c, d missing


@settings(max_examples=60, deadline=None)
@given(forests(), st.data())
def test_tree_partition_blocks(F, data):
    g = F.graph
    extra = data.draw(st.sets(st.integers(0, g.n - 1)))
    A = F.roots | frozenset(extra)
    P = tree_partition(F, A)
    blocks = P.block_sets()
    assert set().union(*blocks) == set(range(g.n))
    assert sum(len(b) for b in blocks) == g.n
    for alpha in A:
        assert alpha in P.blocks[alpha]
        assert restrict(F, P.blocks[alpha]).is_tree()


@settings(max_examples=60, deadline=None)
@given(forests(), st.data())
def test_quotient_reachability_equivalence(F, data):
    g = F.graph
    extra = data.draw(st.sets(st.integers(0, g.n - 1)))
    A = F.roots | frozenset(extra)
    P = tree_partition(F, A)
    qout = quotient(F, P)
    for a, b in itertools.permutations(sorted(A), 2):
        block_reach = any(F.reaches(u, v)
                          for u in P.blocks[a] for v in P.blocks[b])
        assert quotient_reaches(qout, a, b) == block_reach
    if len(A) > 1:
        beta = quotient_non_reaching(qout, frozenset(A))
        assert not any(quotient_reaches(qout, beta, o)
                       for o in A if o != beta)


# -- cached forest views against plain walks over F.out ---------------

def _draw_forest(draw, g):
    """Random out-arcs of g, each contour broken by making one of its
    vertices a root."""
    out = [draw(st.sampled_from([None] + [t for t, _ in g.out_lists[v]]))
           for v in range(g.n)]
    for v in range(g.n):
        u = v
        for _ in range(g.n):
            u = None if u is None else out[u]
        if u is not None:   # n steps from v and still moving: on a contour
            out[u] = None
    return Forest(g, tuple(out))


@st.composite
def signed_forest_pairs(draw):
    """Two forests of one ``signed_graphs`` digraph."""
    g = draw(signed_graphs())
    return _draw_forest(draw, g), _draw_forest(draw, g)


def _walk(out, v):
    path = [v]
    while out[path[-1]] is not None:
        path.append(out[path[-1]])
    return path


@settings(max_examples=150, deadline=None)
@given(signed_forest_pairs(), st.data())
def test_cached_views_match_plain_walks(FG, data):
    F, G = FG
    g, out, n = F.graph, F.out, F.graph.n
    vertices = st.sets(st.integers(0, n - 1))
    S = frozenset(data.draw(vertices))
    paths = [_walk(out, v) for v in range(n)]
    for u in range(n):
        assert F.root_of(u) == paths[u][-1]
        assert F.root_path(u) == tuple(paths[u])
        assert subtree(F, u) == {w for w in range(n) if u in paths[w]}
        for v in range(n):
            assert F.reaches(u, v) == (v in paths[u])
    roots = sorted(v for v in range(n) if out[v] is None)
    assert F.roots == frozenset(roots)
    assert F.arc_pairs == {(v, t) for v, t in enumerate(out) if t is not None}
    assert components(F) == tuple(
        frozenset(w for w in range(n) if paths[w][-1] == r) for r in roots)
    assert in_neighborhood(F, S) == {
        v for v in range(n) if v not in S and out[v] in S}
    assert out_neighborhood(F, S) == {
        out[v] for v in S if out[v] is not None and out[v] not in S}
    assert restrict(F, S).arcs == {(v, out[v]) for v in S if out[v] in S}
    D = frozenset(data.draw(vertices))
    assert replace_arcs(F, G, D) == tuple(
        G.out[v] if v in D else out[v] for v in range(n))
    A = F.roots | S
    P = tree_partition(F, A)
    for v in range(n):
        alpha = next(u for u in paths[v] if u in A)
        assert P.block_of(v) == alpha and v in P.blocks[alpha]
    assert set(P.blocks) == A
    with pytest.raises(InputError):
        P.block_of(n)
    # the views are cached, and equality and hashing ignore the caches
    assert F._root_paths is F._root_paths and F.roots is F.roots
    fresh = Forest(g, out)
    assert fresh == F and F == fresh and hash(fresh) == hash(F)
    assert {F: 1}[fresh] == 1
    assert fresh != Forest(Digraph(g.names, dict(g.arcs)), out)
