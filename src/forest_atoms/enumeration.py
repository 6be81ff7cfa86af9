"""Exact search for spanning entering forests.

Everything downstream (atoms, measures, hierarchy) needs the *complete*
set of minimum-weight k-forests, ties included.  One depth-first core
walks out-arc assignments vertex by vertex, each vertex choosing one
available out-arc or "root", with incremental contour detection and
root-count pruning; it serves three callers:

* ``enumerate_forests`` and ``count_forests`` walk every forest;
* ``all_minimal_forests`` runs one branch-and-bound search per level k
  on integer-scaled weights.  A branch is cut when its weight plus a
  lower bound on the arcs still to come exceeds the best k-forest found
  so far.  The cut is strict, so every forest that ties the optimum is
  still reached.

Both walks visit forests in canonical order, so tie sets come out
canonically ordered without sorting.  The enumeration cap keeps
desk-scale inputs honest about the cost: the bounded search is fast on
weighted graphs, but tie sets (and unit weights, where every forest of
a level ties) grow exponentially with N.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterator, Optional

from .graph import INF, Digraph, Forest, IntArcs, Weight, _ValueRecord

DEFAULT_CAP = 14

STRICT = "strict"
EQUAL = "equal"
UNDEFINED = "undefined"


class CapExceeded(Exception):
    """Vertex count above the enumeration cap."""

    def __init__(self, n: int, cap: int):
        super().__init__(
            f"graph has {n} vertices, above the enumeration cap {cap}; "
            f"raise the cap explicitly to proceed")
        self.n = n
        self.cap = cap


class InfeasibleLevel(Exception):
    """Requested level k has no spanning k-forest (phi^k = inf)."""

    def __init__(self, k: int):
        super().__init__(f"phi^{k} = inf: no spanning {k}-forest exists")
        self.k = k


class InvariantError(RuntimeError):
    """An internal invariant failed: a bug, never a property of the input.

    Raised instead of ``assert`` so that the check survives ``python -O``.
    """


def _check_cap(graph: Digraph, cap: int) -> None:
    if graph.n > cap:
        raise CapExceeded(graph.n, cap)


def _total_weight(arcs: IntArcs) -> int:
    """Sum of |w| over all arcs: no forest weighs more."""
    return sum(abs(w) for row in arcs for _, w in row)


def _lower_bounds(arcs: IntArcs) -> list[list[int]]:
    """``lower[v][m]``: least weight that m out-arcs of m distinct
    vertices among v..N-1 can add.

    It is the sum of the m smallest per-vertex minimum out-weights, which
    bounds every completion from below whatever the signs of the
    weights.  When fewer than m of those vertices have an out-arc the
    entry is 2 * total + 1, more than any forest weight difference, so
    the cut treats it as infinite while the arithmetic stays integral.
    """
    n = len(arcs)
    unreachable = 2 * _total_weight(arcs) + 1
    lower = []
    for v in range(n + 1):
        cheapest = sorted(min(w for _, w in row) for row in arcs[v:] if row)
        sums = [0]
        for w in cheapest:
            sums.append(sums[-1] + w)
        lower.append(sums + [unreachable] * (n - v - len(cheapest)))
    return lower


def _search(arcs: IntArcs, k: Optional[int],
            visit: Callable[[list[Optional[int]], int, int], Optional[int]],
            lower: Optional[list[list[int]]] = None,
            incumbent: Optional[int] = None) -> None:
    """DFS over out-arc assignments in canonical (lexicographic) order.

    Calls ``visit`` with the out list, root count and integer weight of
    each spanning forest (each k-forest when ``k`` is given).  Targets
    are tried in ascending index order with "root" (None) last, which
    makes the visit order lexicographic on (vertex, target-or-inf).

    With ``lower`` (see ``_lower_bounds``; needs ``k``) the walk is a
    branch-and-bound: ``visit`` returns the incumbent weight, and a
    branch whose weight plus the bound on its remaining arcs exceeds the
    incumbent is cut.  Branches that can still tie it are kept.  A
    starting ``incumbent`` makes the cut hold from the first node; it
    must not exceed the total weight, or unreachable branches survive.
    """
    n = len(arcs)
    out: list[Optional[int]] = [None] * n
    # no forest weighs more, so unreachable branches are cut even
    # before the first forest is found
    limit = _total_weight(arcs) if incumbent is None else incumbent

    def creates_contour(v: int, t: int) -> bool:
        # out[v] is still None here, so the walk below terminates
        node = t
        while node != v and out[node] is not None:
            node = out[node]
        return node == v

    def rec(v: int, roots: int, weight: int) -> None:
        nonlocal limit
        # the vertices v.. still owe n - v - (k - roots) out-arcs
        if lower is not None and weight + lower[v][n - v - k + roots] > limit:
            return
        if v == n:
            if k is None or roots == k:
                best = visit(out, roots, weight)
                if lower is not None:
                    limit = best
            return
        remaining = n - v
        if k is None or roots <= k <= roots + remaining - 1:
            for t, w in arcs[v]:
                if creates_contour(v, t):
                    continue
                out[v] = t
                rec(v + 1, roots, weight + w)
                out[v] = None
        # root choice last (canonical order: targets ascending, then inf)
        if k is None or roots + 1 <= k <= roots + remaining:
            rec(v + 1, roots + 1, weight)

    rec(0, 0, 0)


def enumerate_forests(graph: Digraph, k: Optional[int] = None,
                      cap: int = DEFAULT_CAP) -> Iterator[Forest]:
    """Yield each spanning k-forest exactly once, in canonical order.

    ``k=None`` yields all spanning forests regardless of component
    count.  Canonical order is lexicographic on the out-arc maps with
    "root" sorting last.
    """
    _check_cap(graph, cap)
    if k is not None and not 1 <= k <= graph.n:
        raise ValueError(f"component count {k} outside 1..{graph.n}")
    acc: list[Forest] = []

    def visit(out, roots, weight):
        acc.append(Forest(graph, tuple(out)))

    _search(graph._integer_arcs[1], k, visit)
    return iter(acc)


def count_forests(graph: Digraph, k: Optional[int] = None,
                  cap: int = DEFAULT_CAP) -> int:
    _check_cap(graph, cap)
    counter = [0]

    def visit(out, roots, weight):
        counter[0] += 1

    _search(graph._integer_arcs[1], k, visit)
    return counter[0]


class MinForestSet(_ValueRecord):
    """All minimum-weight spanning k-forests, in canonical order, and
    their weight phi^k (INF when no k-forest exists)."""

    def __init__(self, k: int, weight: Weight, forests: tuple[Forest, ...]):
        if (weight == INF) != (not forests):
            raise InvariantError(
                f"level {k}: weight {weight} does not match "
                f"{len(forests)} forests")
        self.__dict__.update(k=k, weight=weight, forests=forests)


class PhiSequence(_ValueRecord):
    """phi^0..phi^N with infinity; phi^0 = inf by definition."""

    def __init__(self, values: tuple[Weight, ...]):
        if values[-1] != 0:
            raise InvariantError(
                f"phi^N = {values[-1]}, but the empty forest weighs 0")
        self.__dict__.update(values=values)

    @property
    def n(self) -> int:
        return len(self.values) - 1

    def gap(self, k: int) -> Weight:
        """Delta_k = phi^{k-1} - phi^k (inf minus finite is inf)."""
        prev, cur = self.values[k - 1], self.values[k]
        if prev == INF:
            if cur == INF:
                raise InvariantError(
                    f"gap undefined at infeasible level {k}")
            return INF
        return prev - cur

    def feasible(self, k: int) -> bool:
        return 0 < k <= self.n and self.values[k] != INF


def all_minimal_forests(graph: Digraph, cap: int = DEFAULT_CAP) -> dict[int, MinForestSet]:
    """Minimum-weight tie sets for every k, one bounded search per level."""
    _check_cap(graph, cap)
    scale, arcs = graph._integer_arcs
    lower = _lower_bounds(arcs)
    result = {}
    for k in range(1, graph.n + 1):
        best: Optional[int] = None
        ties: list[tuple[Optional[int], ...]] = []

        def visit(out, roots, weight):
            nonlocal best, ties
            if best is None or weight < best:
                best, ties = weight, [tuple(out)]
            elif weight == best:
                ties.append(tuple(out))
            return best

        _search(arcs, k, visit, lower)
        result[k] = (MinForestSet(k, INF, ()) if best is None else
                     MinForestSet(k, Fraction(best, scale),
                                  tuple(Forest(graph, o) for o in ties)))
    return result


def convexity_profile(phi: PhiSequence) -> tuple[str, ...]:
    """Marker per interior k (1..N-1): strict / equal / undefined.

    "undefined" appears exactly at infeasible levels, where the left
    difference is inf - inf; from the first feasible k onward both
    sides are comparable.
    """
    markers = []
    for k in range(1, phi.n):
        prev, cur, nxt = phi.values[k - 1], phi.values[k], phi.values[k + 1]
        if cur == INF:
            if prev != INF:
                raise InvariantError(
                    f"phi must be non-increasing: phi^{k - 1} = {prev}, "
                    f"phi^{k} = inf")
            markers.append(UNDEFINED)
            continue
        lhs = INF if prev == INF else prev - cur
        rhs = cur - nxt  # nxt is finite whenever cur is
        if lhs < rhs:
            raise InvariantError(
                f"convexity violated at k = {k}: {lhs} < {rhs}")
        markers.append(STRICT if lhs > rhs else EQUAL)
    return tuple(markers)
