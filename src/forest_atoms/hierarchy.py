"""Metastable-timescale hierarchy built from the atom families.

One level per strict-inequality k (plus the Boolean level k = N); the
levels at equality indices are literally the same atom families and are
omitted rather than duplicated.  Each level carries its gap
Delta_k = phi^{k-1} - phi^k and the vertex -> atom aggregation map.
"""

from __future__ import annotations

from .analysis import Analysis
from .atoms import AtomFamily
from .enumeration import InvariantError
from .graph import INF, Digraph, Weight, _Record


class HierarchyLevel(_Record):
    """One timescale level of the aggregation hierarchy: the gap Delta_k
    (INF at the first feasible level), the atoms and the vertex index ->
    atom index map."""

    def __init__(self, k: int, gap: Weight, atoms: AtomFamily,
                 aggregation: tuple[int, ...]):
        self.__dict__.update(k=k, gap=gap, atoms=atoms,
                             aggregation=aggregation)


def build_hierarchy(analysis: Analysis) -> list[HierarchyLevel]:
    """Ordered hierarchy levels, coarsest (smallest k) first.

    Levels exist exactly at feasible strict-inequality k; the atom
    partitions refine as k grows and the gaps strictly decrease while
    finite.
    """
    levels = []
    for k in analysis.feasible_levels():
        if not analysis.strict(k):
            continue
        family = analysis.family(k)
        aggregation = tuple(family.atom_of(v) for v in range(analysis.graph.n))
        levels.append(HierarchyLevel(
            k=k,
            gap=analysis.phi.gap(k),
            atoms=family,
            aggregation=aggregation,
        ))
    # nesting + gap monotonicity are theorems; keep them as invariants
    for upper, lower in zip(levels, levels[1:]):
        if not all(any(a <= b for b in upper.atoms.atoms)
                   for a in lower.atoms.atoms):
            raise InvariantError("hierarchy levels do not nest")
        if not (upper.gap == INF or upper.gap > lower.gap):
            raise InvariantError("gaps must strictly decrease while finite")
    return levels


def from_rate_exponents(names, exponents) -> Digraph:
    """Digraph from a matrix of transition-rate exponents.

    ``exponents[i][j]`` is the quasi-potential of the i -> j transition
    (the weight of arc (i, j)); None or missing entries mean no arc.
    Diagonal entries are ignored.
    """
    from fractions import Fraction
    arcs = {}
    for i, row in enumerate(exponents):
        for j, w in enumerate(row):
            if i == j or w is None:
                continue
            arcs[(i, j)] = Fraction(w)
    return Digraph(names=tuple(names), arcs=arcs)
