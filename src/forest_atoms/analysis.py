"""One-stop cached analysis of a digraph: phi, tie sets, atoms, measure."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import atoms as atoms_mod
from .enumeration import (DEFAULT_CAP, STRICT, InfeasibleLevel,
                          MinForestSet, PhiSequence, all_minimal_forests,
                          convexity_profile)
from .graph import Digraph


@dataclass
class Analysis:
    """Everything the atom/hierarchy layers need, computed once."""

    graph: Digraph
    cap: int
    minimal: dict[int, MinForestSet]
    phi: PhiSequence
    profile: tuple[str, ...]
    _families: dict[int, atoms_mod.AtomFamily] = field(default_factory=dict)
    _measures: dict[int, atoms_mod.AtomMeasure] = field(default_factory=dict)

    @classmethod
    def compute(cls, graph: Digraph, cap: int = DEFAULT_CAP) -> "Analysis":
        minimal = all_minimal_forests(graph, cap)
        values = [float("inf")] + [minimal[k].weight for k in range(1, graph.n + 1)]
        phi = PhiSequence(tuple(values))
        return cls(graph=graph, cap=cap, minimal=minimal, phi=phi,
                   profile=convexity_profile(phi))

    def feasible(self, k: int) -> bool:
        return self.phi.feasible(k)

    def feasible_levels(self) -> list[int]:
        return [k for k in range(1, self.graph.n + 1) if self.feasible(k)]

    def strict(self, k: int) -> bool:
        """Strict-inequality test used as the hypothesis of most statements.

        Interior k reads the profile; k = N counts as strict (the algebra
        is Boolean there and every strict-level statement holds trivially).
        Infeasible levels are never strict.
        """
        if not self.feasible(k):
            return False
        return k == self.phi.n or self.profile[k - 1] == STRICT

    def family(self, k: int) -> atoms_mod.AtomFamily:
        if k not in self._families:
            if not self.feasible(k):
                raise InfeasibleLevel(k)
            self._families[k] = atoms_mod.atoms(self.graph, k, self.minimal[k])
        return self._families[k]

    def atom_measure(self, k: int) -> atoms_mod.AtomMeasure:
        if k not in self._measures:
            self._measures[k] = atoms_mod.measure(
                self.graph, k, self.minimal[k], self.family(k))
        return self._measures[k]
