"""Minimum-weight spanning entering forests of a weighted digraph, the
subset algebras and atoms generated by their tree partitions, and the
derived metastable-timescale hierarchy."""

from .analysis import Analysis
from .atoms import (AtomFamily, AtomMeasure, algebra_contains,
                    algebra_elements, atoms, detach_incoming,
                    find_shielded_forest, is_symmetric, measure, symmetrize,
                    undirected_check)
from .campaign import EnsembleSpec, random_digraph, run_campaign
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
from .verification import (VerificationReport, corrupted_verify, verify)

__version__ = "0.1.0"
