"""Exact-weight digraphs and entering forests.

An entering forest is a spanning subgraph in which every vertex has at
most one outgoing arc and there is no directed contour.  Arcs flow
toward the roots (the vertices without an outgoing arc), so the
connected components are trees rooted at those vertices.

Vertices carry external string names but every operation works on dense
indices 0..n-1.  Weights are exact rationals; nothing in this module
ever touches a float except the shared infinity sentinel.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

#: Extended-weight infinity.  Finite weights are always Fraction, so
#: arithmetic never mixes floats into exact results; inf only appears
#: standalone (empty minima, the k=0 level, gaps out of an infeasible
#: level).
INF = float("inf")

Weight = Union[Fraction, float]


class InputError(ValueError):
    """Malformed caller input: unknown vertex, missing arc, bad weight."""


class _cached:
    """Attribute computed on first access, then kept in the instance dict.

    A non-data descriptor, so later reads never call back here, and,
    unlike ``functools.cached_property``, it takes no lock.  For
    immutable owners and values that are never mutated.
    """

    def __init__(self, fn):
        self.fn = fn
        self.name = fn.__name__
        self.__doc__ = fn.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


def _as_fraction(w) -> Fraction:
    try:
        return Fraction(w)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise InputError(f"bad weight {w!r}: {exc}") from None


@dataclass(frozen=True, eq=False)
class Digraph:
    """Weighted digraph with at most one arc per ordered vertex pair.

    ``arcs`` maps (tail, head) index pairs to exact rational weights.
    No self-loops.  Instances are immutable; equality is identity.
    """

    names: tuple[str, ...]
    arcs: Mapping[tuple[int, int], Fraction]
    # index -> sorted tuple of (head, weight); derived, set in __post_init__
    out_lists: tuple[tuple[tuple[int, Fraction], ...], ...] = field(repr=False, default=())

    def __post_init__(self):
        n = len(self.names)
        if n < 1:
            raise InputError("a digraph needs at least one vertex")
        if len(set(self.names)) != n:
            raise InputError("duplicate vertex names")
        by_tail: list[list[tuple[int, Fraction]]] = [[] for _ in range(n)]
        for (i, j), w in self.arcs.items():
            if not (0 <= i < n and 0 <= j < n):
                raise InputError(f"arc ({i},{j}) out of range")
            if i == j:
                raise InputError(f"self-loop at {self.names[i]!r}")
            if not isinstance(w, Fraction):
                raise InputError(f"weight of ({i},{j}) is not exact: {w!r}")
            by_tail[i].append((j, w))
        object.__setattr__(
            self, "out_lists", tuple(tuple(sorted(row)) for row in by_tail)
        )

    @classmethod
    def from_arcs(cls, arcs: Iterable[tuple[str, str, object]],
                  vertices: Optional[Sequence[str]] = None) -> "Digraph":
        """Build from (tail-name, head-name, weight) triples.

        Parallel arcs collapse to the minimum weight per ordered pair;
        self-loops are rejected.  ``vertices`` fixes the name order,
        otherwise names are sorted.
        """
        triples = [(a, b, _as_fraction(w)) for a, b, w in arcs]
        if vertices is None:
            seen = {v for a, b, _ in triples for v in (a, b)}
            names = tuple(sorted(seen))
        else:
            names = tuple(vertices)
        index = {v: i for i, v in enumerate(names)}
        amap: dict[tuple[int, int], Fraction] = {}
        for a, b, w in triples:
            if a not in index or b not in index:
                raise InputError(f"arc ({a!r},{b!r}) uses an unlisted vertex")
            if a == b:
                raise InputError(f"self-loop at {a!r}")
            key = (index[a], index[b])
            if key not in amap or w < amap[key]:
                amap[key] = w
        return cls(names=names, arcs=amap)

    @property
    def n(self) -> int:
        return len(self.names)

    @_cached
    def vertex_set(self) -> frozenset[int]:
        return frozenset(range(self.n))

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise InputError(f"unknown vertex {name!r}") from None

    def has_arc(self, i: int, j: int) -> bool:
        return (i, j) in self.arcs

    def weight(self, i: int, j: int) -> Fraction:
        try:
            return self.arcs[(i, j)]
        except KeyError:
            raise InputError(
                f"no arc ({self.names[i]!r},{self.names[j]!r})") from None

    def vset(self, names: Iterable[str]) -> frozenset[int]:
        """Convenience: name collection -> index set."""
        return frozenset(self.index(v) for v in names)


@dataclass(frozen=True, eq=False)
class Forest:
    """Spanning entering forest as a partial out-arc assignment.

    ``out[v]`` is the head of v's unique outgoing arc, or None at a
    root.  Construction validates arcs and acyclicity.
    """

    graph: Digraph
    out: tuple[Optional[int], ...]

    def __post_init__(self):
        if len(self.out) != self.graph.n:
            raise InputError("out-arc map has wrong length")
        if not _acyclic(self.out):
            raise InputError("out-arc map contains a contour")
        for v, t in enumerate(self.out):
            if t is not None and not self.graph.has_arc(v, t):
                raise InputError(
                    f"arc ({self.graph.names[v]!r},{self.graph.names[t]!r})"
                    " is not in the parent digraph")

    @classmethod
    def from_names(cls, graph: Digraph, out_arcs: Mapping[str, str]) -> "Forest":
        out: list[Optional[int]] = [None] * graph.n
        for a, b in out_arcs.items():
            out[graph.index(a)] = graph.index(b)
        return cls(graph, tuple(out))

    def __eq__(self, other):
        return (isinstance(other, Forest) and self.graph is other.graph
                and self.out == other.out)

    def __hash__(self):
        return hash(self.out)

    def __repr__(self):
        names = self.graph.names
        arcs = ", ".join(f"{names[v]}->{names[t]}"
                         for v, t in enumerate(self.out) if t is not None)
        return f"Forest({arcs or 'empty'})"

    # derived views, built on first use; equality and hash ignore them

    @_cached
    def roots(self) -> frozenset[int]:
        return frozenset(v for v, t in enumerate(self.out) if t is None)

    @property
    def k(self) -> int:
        """Number of trees."""
        return len(self.roots)

    @_cached
    def arc_pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset((v, t) for v, t in enumerate(self.out) if t is not None)

    @property
    def weight(self) -> Fraction:
        return sum((self.graph.arcs[(v, t)]
                    for v, t in enumerate(self.out) if t is not None),
                   Fraction(0))

    @_cached
    def _root_paths(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex, the path to its root, inclusive."""
        out = self.out
        paths: list[Optional[tuple[int, ...]]] = [None] * len(out)
        for v in range(len(out)):
            # walk up to a vertex whose path is known, then fill back
            todo = []
            u = v
            while paths[u] is None and out[u] is not None:
                todo.append(u)
                u = out[u]
            if paths[u] is None:
                paths[u] = (u,)
            for w in reversed(todo):
                paths[w] = (w,) + paths[out[w]]
        return tuple(paths)

    @_cached
    def _root_map(self) -> tuple[int, ...]:
        return _root_walk(self.out)

    @_cached
    def _subtrees(self) -> tuple[frozenset[int], ...]:
        """Per vertex i, the vertices whose root path passes through i."""
        acc: list[list[int]] = [[] for _ in self.out]
        for u, path in enumerate(self._root_paths):
            for v in path:
                acc[v].append(u)
        return tuple(map(frozenset, acc))

    def root_of(self, v: int) -> int:
        return self._root_map[v]

    def root_path(self, v: int) -> tuple[int, ...]:
        """Vertices on the path from v to its root, inclusive."""
        return self._root_paths[v]

    def reaches(self, u: int, v: int) -> bool:
        """True iff v lies on u's root path (every vertex reaches itself)."""
        return u in self._subtrees[v]

    def arc_names(self) -> list[tuple[str, str]]:
        names = self.graph.names
        return [(names[v], names[t])
                for v, t in enumerate(self.out) if t is not None]


def _root_walk(out: Sequence[Optional[int]]) -> tuple[int, ...]:
    """The root of every vertex of an acyclic out-map."""
    roots = []
    for v in range(len(out)):
        u = v
        while out[u] is not None:
            u = out[u]
        roots.append(u)
    return tuple(roots)


def _acyclic(out: Sequence[Optional[int]]) -> bool:
    """True iff the dense index out-map has no contour.

    The fast path for out-maps whose arcs are known to exist, such as
    ``replace_arcs`` of two forests of one graph or choices taken from
    ``Digraph.out_lists``; ``is_forest`` validates first, then calls it.
    """
    # walk from each unvisited vertex, stamping the walk with its start;
    # meeting the current stamp again closes a contour
    stamp = [0] * len(out)
    for s in range(len(out)):
        if stamp[s]:
            continue
        mark = s + 1
        v = s
        while v is not None and not stamp[v]:
            stamp[v] = mark
            v = out[v]
        if v is not None and stamp[v] == mark:
            return False
    return True


OutMap = Union[Mapping[object, object], Sequence[Optional[int]]]


def _normalize_out(candidate: OutMap, graph: Digraph) -> tuple[Optional[int], ...]:
    """Accept a sparse name/index map or a dense sequence."""
    out: list[Optional[int]] = [None] * graph.n

    def idx(v) -> int:
        if isinstance(v, str):
            return graph.index(v)
        if isinstance(v, int) and 0 <= v < graph.n:
            return v
        raise InputError(f"unknown vertex id {v!r}")

    if isinstance(candidate, Mapping):
        for a, b in candidate.items():
            if b is not None:
                out[idx(a)] = idx(b)
    else:
        if len(candidate) != graph.n:
            raise InputError("out-arc sequence has wrong length")
        for v, t in enumerate(candidate):
            if t is not None:
                out[v] = idx(t)
    return tuple(out)


def is_forest(candidate: OutMap, graph: Digraph) -> bool:
    """True iff the out-arc map is contour-free.

    Every present arc must exist in ``graph``; unknown vertex ids raise
    InputError.
    """
    out = _normalize_out(candidate, graph)
    for v, t in enumerate(out):
        if t is not None and not graph.has_arc(v, t):
            raise InputError(
                f"arc ({graph.names[v]!r},{graph.names[t]!r}) is not in the graph")
    return _acyclic(out)


def subtree(F: Forest, i: int) -> frozenset[int]:
    """Vertex set of the inclusion-maximal subtree of F rooted at i.

    These are the vertices from which i is reachable along out-arcs,
    including i itself.
    """
    if not 0 <= i < F.graph.n:
        raise InputError(f"unknown vertex id {i!r}")
    return F._subtrees[i]


def components(F: Forest) -> tuple[frozenset[int], ...]:
    """Vertex sets of the maximal trees, ordered by root index."""
    # walks F.out instead of caching views: atoms() takes the components
    # of every forest of a tie set, which can hold many thousands
    blocks: dict[int, list[int]] = {}
    for v, r in enumerate(_root_walk(F.out)):
        blocks.setdefault(r, []).append(v)
    return tuple(frozenset(blocks[r]) for r in sorted(blocks))


@dataclass(frozen=True, eq=False)
class Subgraph:
    """Induced subgraph: a vertex subset plus the arcs inside it."""

    graph: Digraph
    vertices: frozenset[int]
    arcs: frozenset[tuple[int, int]]

    def __post_init__(self):
        for i, j in self.arcs:
            if i not in self.vertices or j not in self.vertices:
                raise InputError("subgraph arc endpoint outside vertex subset")

    def __eq__(self, other):
        return (isinstance(other, Subgraph) and self.graph is other.graph
                and self.vertices == other.vertices and self.arcs == other.arcs)

    def __hash__(self):
        return hash((self.vertices, self.arcs))

    def local_roots(self) -> frozenset[int]:
        """Vertices with no outgoing arc inside the subgraph.

        Meaningful for functional subgraphs (restrictions of forests).
        """
        tails = {i for i, _ in self.arcs}
        return frozenset(v for v in self.vertices if v not in tails)

    def component_sets(self) -> tuple[frozenset[int], ...]:
        """Weakly connected components (for forest restrictions: trees)."""
        adj: dict[int, set[int]] = {v: set() for v in self.vertices}
        for i, j in self.arcs:
            adj[i].add(j)
            adj[j].add(i)
        seen: set[int] = set()
        comps = []
        for s in sorted(self.vertices):
            if s in seen:
                continue
            comp = {s}
            stack = [s]
            while stack:
                v = stack.pop()
                for w in adj[v]:
                    if w not in comp:
                        comp.add(w)
                        stack.append(w)
            seen |= comp
            comps.append(frozenset(comp))
        return tuple(comps)

    def is_tree(self) -> bool:
        """True iff nonempty and weakly connected with a single local root."""
        if not self.vertices:
            return False
        return len(self.component_sets()) == 1


ArcCarrier = Union[Digraph, Forest, Subgraph]


def _arc_iter(G: ArcCarrier) -> Iterator[tuple[int, int]]:
    if isinstance(G, Digraph):
        return iter(G.arcs.keys())
    if isinstance(G, Forest):
        return iter(G.arc_pairs)
    return iter(G.arcs)


def restrict(G: Union[Forest, Subgraph, Digraph], S: frozenset[int]) -> Subgraph:
    """Subgraph induced by S: all arcs with both ends in S."""
    graph = G if isinstance(G, Digraph) else G.graph
    if not S <= graph.vertex_set:
        raise InputError("restriction set contains unknown vertices")
    arcs = frozenset((i, j) for i, j in _arc_iter(G) if i in S and j in S)
    return Subgraph(graph, frozenset(S), arcs)


def out_neighborhood(G: ArcCarrier, S: frozenset[int]) -> frozenset[int]:
    """Heads of arcs leaving S (tail inside, head outside)."""
    return frozenset(j for i, j in _arc_iter(G) if i in S and j not in S)


def in_neighborhood(G: ArcCarrier, S: frozenset[int]) -> frozenset[int]:
    """Tails of arcs entering S (head inside, tail outside)."""
    return frozenset(i for i, j in _arc_iter(G) if j in S and i not in S)


def replace_arcs(F: Forest, G: Forest, D: frozenset[int]) -> tuple[Optional[int], ...]:
    """Out-arcs of F with the arcs on D replaced by G's.

    D holds vertex indices of the common graph.  Returns a raw out-arc
    map: the result may or may not be a forest, so callers must
    validate explicitly (is_forest / Forest()).
    """
    if F.graph is not G.graph:
        raise InputError("forests must share the parent digraph")
    out = list(F.out)
    for v in D:
        out[v] = G.out[v]
    return tuple(out)


def rewrite_guard(F: Forest, G: Forest, D: frozenset[int]) -> bool:
    """Sufficient condition for replace_arcs(F, G, D) to be a forest.

    True iff no vertex of the incoming neighborhood of D in F is
    reachable in F from the outgoing neighborhood of D in G.
    """
    if F.graph is not G.graph:
        raise InputError("forests must share the parent digraph")
    targets = in_neighborhood(F, D)
    if not targets:
        return True
    sources = out_neighborhood(G, D)
    return not any(F.reaches(s, t) for s in sources for t in targets)


def _non_reaching(reaches, B: frozenset[int]) -> Optional[int]:
    """The smallest b of B from which ``reaches`` finds no other member,
    or None when every member reaches another (B spans a contour)."""
    for b in sorted(B):
        if not any(reaches(b, other) for other in B if other != b):
            return b
    return None


def find_non_reaching(F: Forest, B: frozenset[int]) -> Optional[int]:
    """A vertex of B from which no other vertex of B is reachable in F.

    Existence is guaranteed in a forest, so None means a broken
    reachability test; ties break to the smallest vertex index.
    """
    if not B:
        raise InputError("B must be nonempty")
    return _non_reaching(F.reaches, B)


@dataclass(frozen=True, eq=False)
class TreePartition:
    """Partition of a forest's vertices into root-designated tree blocks.

    Built by deleting the out-arcs of a generator set A that contains
    every root of the source forest; the blocks are the components of
    the pruned forest, keyed by their roots.
    """

    forest: Forest
    generators: frozenset[int]
    blocks: Mapping[int, frozenset[int]]

    @_cached
    def _block_index(self) -> dict[int, int]:
        return {v: alpha for alpha, block in self.blocks.items() for v in block}

    def block_of(self, v: int) -> int:
        try:
            return self._block_index[v]
        except KeyError:
            raise InputError(f"vertex {v} not covered by the partition") from None

    def block_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(self.blocks[a] for a in sorted(self.blocks))


def tree_partition(F: Forest, A: frozenset[int]) -> TreePartition:
    """Tree partition of F generated by A (A must contain all roots)."""
    if not F.roots <= A:
        missing = sorted(F.roots - A)
        raise InputError(f"generator set is missing roots {missing}")
    # deleting A's out-arcs leaves v in the block of the first generator
    # on its root path; the path's root is one, so the search ends
    blocks: dict[int, list[int]] = {a: [] for a in A}
    for v, path in enumerate(F._root_paths):
        blocks[next(u for u in path if u in A)].append(v)
    return TreePartition(F, frozenset(A),
                         {a: frozenset(b) for a, b in blocks.items()})


def quotient(F: Forest, P: TreePartition) -> dict[int, Optional[int]]:
    """Block-level forest of F over the generator set of P.

    Maps each block root to the root of the block its deleted out-arc
    enters, or None when it is a root of F itself.  Reachability of
    blocks in F equals reachability of their roots in the quotient.
    """
    if P.forest is not F:
        raise InputError("partition was not built from this forest")
    qout: dict[int, Optional[int]] = {}
    for alpha in P.blocks:
        t = F.out[alpha]
        qout[alpha] = None if t is None else P.block_of(t)
    return qout


def quotient_reaches(qout: Mapping[int, Optional[int]], a: int, b: int) -> bool:
    while True:
        if a == b:
            return True
        t = qout[a]
        if t is None:
            return False
        a = t


def quotient_non_reaching(qout: Mapping[int, Optional[int]],
                          B: frozenset[int]) -> Optional[int]:
    """find_non_reaching on a quotient forest."""
    return _non_reaching(lambda a, b: quotient_reaches(qout, a, b), B)


def upsilon(F: Forest, S: Optional[frozenset[int]] = None) -> Fraction:
    """Total weight of F's arcs outgoing from vertices of S (default: all)."""
    if S is None:
        return F.weight
    return sum((F.graph.arcs[(v, F.out[v])] for v in S if F.out[v] is not None),
               Fraction(0))


def powerset(items: Iterable) -> Iterator[frozenset]:
    pool = list(items)
    for r in range(len(pool) + 1):
        for combo in itertools.combinations(pool, r):
            yield frozenset(combo)
