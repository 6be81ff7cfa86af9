"""Metastable-timescale hierarchy built from the atom families.

One level per strict-inequality k (plus the Boolean level k = N); the
levels at equality indices are literally the same atom families and are
omitted rather than duplicated.  Each level carries its gap
Delta_k = phi^{k-1} - phi^k and the vertex -> atom aggregation map.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import Analysis
from .atoms import AtomFamily
from .enumeration import InvariantError
from .graph import INF, Digraph, Weight


@dataclass(frozen=True, eq=False)
class HierarchyLevel:
    """One timescale level of the aggregation hierarchy."""

    k: int
    gap: Weight                     # Delta_k; INF at the first feasible level
    atoms: AtomFamily
    aggregation: tuple[int, ...]    # vertex index -> atom index
    labeled_support: tuple[int, ...]


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
        support = tuple(i for i, lab in enumerate(family.labeled) if lab)
        levels.append(HierarchyLevel(
            k=k,
            gap=analysis.phi.gap(k),
            atoms=family,
            aggregation=aggregation,
            labeled_support=support,
        ))
    # nesting + gap monotonicity are theorems; keep them as invariants
    for upper, lower in zip(levels, levels[1:]):
        if not all(any(a <= b for b in upper.atoms.atoms)
                   for a in lower.atoms.atoms):
            raise InvariantError("hierarchy levels do not nest")
        if not (upper.gap == INF or upper.gap > lower.gap):
            raise InvariantError("gaps must strictly decrease while finite")
    return levels


def stochastic_support(level: HierarchyLevel) -> tuple[int, ...]:
    """Atom indices on which the slow-time limit keeps its mass:
    exactly the labeled atoms of the level."""
    return level.labeled_support


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
