"""Minimum-weight spanning entering forests of a weighted digraph, the
subset algebras and atoms generated by their tree partitions, and the
derived metastable-timescale hierarchy.

The campaign and statement-battery names load on first use, so a run that
needs neither never imports them (or ``multiprocessing``)."""

from importlib import import_module as _import_module

from .analysis import Analysis
from .atoms import (AtomFamily, AtomMeasure, algebra_contains,
                    algebra_elements, atoms, detach_incoming,
                    find_shielded_forest, is_symmetric, measure, symmetrize,
                    undirected_check)
from .enumeration import (DEFAULT_CAP, EQUAL, STRICT, UNDEFINED, CapExceeded,
                          InfeasibleLevel, InvariantError, MinForestSet,
                          PhiSequence, all_minimal_forests, convexity_profile,
                          count_forests, enumerate_forests)
from .graph import (INF, Digraph, Forest, InputError, Subgraph, TreePartition,
                    components, find_non_reaching, in_neighborhood, is_forest,
                    rewrite_guard, out_neighborhood, quotient,
                    quotient_non_reaching, quotient_reaches, replace_arcs,
                    restrict, subtree, tree_partition, upsilon)
from .hierarchy import HierarchyLevel, build_hierarchy, from_rate_exponents
from .io import (ParseError, analysis_document, dump_document, load_document,
                 load_graph, parse_edge_list, to_dot)

_LAZY = {"EnsembleSpec": "campaign", "random_digraph": "campaign",
         "run_campaign": "campaign", "VerificationReport": "verification",
         "corrupted_verify": "verification", "verify": "verification"}

__all__ = sorted([n for n in globals() if not n.startswith("_")]
                 + [*_LAZY, "campaign", "verification"])


def __getattr__(name):
    # not cached here, so the name always reads the defining module's object
    if name in _LAZY:
        return getattr(_import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
