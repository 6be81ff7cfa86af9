"""Subset algebras generated by minimal forests, their atoms and measure.

The algebra at level k is generated by the tree vertex-sets of all
minimum-weight k-forests.  Because each generating family is a
partition of the vertex set, the atoms are exactly the blocks of the
common refinement of those partitions: two vertices share an atom iff
they share a tree in *every* minimal k-forest, that is, when their
signatures (their roots across the tie set) agree.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .enumeration import InfeasibleLevel, InvariantError, MinForestSet
from .graph import (Digraph, Forest, InputError, _cached, _Record,
                    _root_walk, _ValueRecord, components, in_neighborhood,
                    replace_arcs, subtree)


class AtomFamily(_Record):
    """Atoms of the level-k algebra, in canonical order.

    Canonical order is by smallest contained vertex index.  An atom is
    labeled when it contains a root of some minimal k-forest.
    """

    def __init__(self, k: int, atoms: tuple[frozenset[int], ...],
                 labeled: tuple[bool, ...]):
        self.__dict__.update(k=k, atoms=atoms, labeled=labeled)

    def __len__(self) -> int:
        return len(self.atoms)

    @_cached
    def _atom_index(self) -> dict[int, int]:
        return {v: i for i, a in enumerate(self.atoms) for v in a}

    def atom_of(self, v: int) -> int:
        """Index of the atom containing v."""
        try:
            return self._atom_index[v]
        except KeyError:
            raise InputError(
                f"vertex {v} not covered by the atom family") from None

    def labeled_atoms(self) -> tuple[frozenset[int], ...]:
        return tuple(a for a, l in zip(self.atoms, self.labeled) if l)

    def unlabeled_atoms(self) -> tuple[frozenset[int], ...]:
        return tuple(a for a, l in zip(self.atoms, self.labeled) if not l)

    def as_sets(self) -> frozenset[frozenset[int]]:
        return frozenset(self.atoms)


def _split(classes: list[int], root: tuple[int, ...]) -> list[int]:
    """Class ids of the common refinement of ``classes`` and the trees
    of a forest with root map ``root``, numbered by first vertex."""
    ids: dict[tuple[int, int], int] = {}
    return [ids.setdefault(pair, len(ids)) for pair in zip(classes, root)]


def atoms(graph: Digraph, k: int, tilde: MinForestSet) -> AtomFamily:
    """Atom family of the algebra generated by the minimal k-forests.

    Common refinement of the component partitions of all forests in
    ``tilde``; labeled flags record the roots across all forests.
    """
    if tilde.k != k:
        raise InputError(f"tie set is for k={tilde.k}, not {k}")
    if not tilde.forests:
        raise InfeasibleLevel(k)
    # forests with the same trees and roots refine alike: keep one each
    root_maps = dict.fromkeys(_root_walk(F.out) for F in tilde.forests)
    classes = [0] * graph.n
    for root in root_maps:
        classes = _split(classes, root)
    # ids are numbered by first vertex, so the cells come sorted by min
    cells = tuple(frozenset(v for v, c in enumerate(classes) if c == i)
                  for i in range(max(classes) + 1))
    all_roots = set().union(*root_maps)
    labeled = tuple(not cell.isdisjoint(all_roots) for cell in cells)
    # atom indivisibility: every tree of every minimal forest meets each
    # atom in nothing or the whole atom, so each class has one root
    for root in root_maps:
        if len(set(zip(classes, root))) != len(cells):
            raise InvariantError("atom split by a generator tree")
    return AtomFamily(k, cells, labeled)


def algebra_contains(family: AtomFamily, S: frozenset[int]) -> bool:
    """True iff S belongs to the algebra, i.e. is a union of atoms."""
    rest = set(S)
    for a in family.atoms:
        meet = rest & a
        if not meet:
            continue
        if meet != a:
            return False
        rest -= a
    return not rest


def algebra_elements(family: AtomFamily):
    """All unions of atoms (the full algebra; exponential in atom count)."""
    from .graph import powerset
    for combo in powerset(range(len(family.atoms))):
        yield frozenset().union(*(family.atoms[i] for i in combo)) if combo else frozenset()


class AtomMeasure(_ValueRecord):
    """Per-atom out-arc weight, when forest-independent.

    ``values[i]`` is the common out-weight of atom i; ``per_forest``
    keeps the raw table so disagreement under equality levels stays
    inspectable.
    """

    def __init__(self, k: int, values: tuple[Fraction, ...],
                 well_defined: bool,
                 per_forest: tuple[tuple[Fraction, ...], ...]):
        self.__dict__.update(k=k, values=values, well_defined=well_defined,
                             per_forest=per_forest)


def measure(graph: Digraph, k: int, tilde: MinForestSet,
            family: AtomFamily) -> AtomMeasure:
    """The measure rho on atoms: weight of arcs leaving each atom.

    Well-definedness (all minimal forests agreeing atom by atom) is
    reported, not assumed; when it holds the values sum to phi^k.
    """
    if not tilde.forests:
        raise InfeasibleLevel(k)
    scale, arcs = graph._integer_arcs
    weight = [dict(row) for row in arcs]
    atom_of = family._atom_index
    rows = []
    for F in tilde.forests:
        row = [0] * len(family)
        for v, t in enumerate(F.out):
            if t is not None:
                row[atom_of[v]] += weight[v][t]
        rows.append(tuple(row))
    distinct = set(rows)
    well = len(distinct) == 1
    if well and sum(rows[0]) != tilde.weight * scale:
        raise InvariantError("atom measure does not sum to phi^k")
    # one Fraction per distinct value, one tuple per distinct row
    fraction = {x: Fraction(x, scale) for x in set().union(*distinct)}
    as_fractions = {row: tuple(fraction[x] for x in row) for row in distinct}
    table = tuple(as_fractions[row] for row in rows)
    return AtomMeasure(k, table[0], well, table)


def find_shielded_forest(tilde: MinForestSet, E: frozenset[int],
                         F: Forest) -> Optional[Forest]:
    """A minimal forest H with no arcs entering E and F's out-arcs on E.

    Existence is guaranteed at strict levels; found by scanning the
    complete tie set.  None means there is none: a counterexample to P9.
    """
    order = sorted(E)
    want = tuple(F.out[v] for v in order)
    for H in tilde.forests:
        if tuple(H.out[v] for v in order) != want:
            continue
        if not in_neighborhood(H, E):
            return H
    return None


def detach_incoming(tilde: MinForestSet, F: Forest, U: frozenset[int]
                    ) -> Optional[tuple[frozenset[int], Forest]]:
    """Detach from F everything that reaches the atom U.

    D is the union of the maximal subtrees rooted at the tails of arcs
    entering U in F.  Returns (D, G) where G is a minimal forest that
    agrees with F outside D and has no arcs entering U, or None when the
    construction fails: a counterexample to T4.
    """
    entries = in_neighborhood(F, U)
    if not entries:
        return frozenset(), F
    D = frozenset().union(*(subtree(F, b) for b in entries))
    H = find_shielded_forest(tilde, U, F)
    if H is None:
        return None
    try:
        G = Forest(F.graph, replace_arcs(F, H, D))
    except InputError:
        return None
    if G.k != tilde.k or G.weight != tilde.weight or in_neighborhood(G, U):
        return None
    return D, G


def symmetrize(graph: Digraph) -> Digraph:
    """Undirected view: every arc gets its reverse with the same weight.

    Where both directions already exist with different weights, each
    pair collapses to the minimum (so the result is symmetric).
    """
    arcs = dict(graph.arcs)
    for (i, j), w in graph.arcs.items():
        rev = (j, i)
        if rev not in arcs or w < arcs[rev]:
            arcs[rev] = w
    return Digraph(names=graph.names, arcs=arcs)


def is_symmetric(graph: Digraph) -> bool:
    return all(graph.arcs.get((j, i)) == w for (i, j), w in graph.arcs.items())


def undirected_check(graph: Digraph, k: int, tilde: MinForestSet,
                     family: AtomFamily, strict: bool) -> dict:
    """Undirected specialization: at strict levels all atoms are labeled,
    there are exactly k of them, and they coincide with the tree
    vertex-sets of every minimal forest."""
    if not is_symmetric(graph):
        raise InputError("undirected check needs a symmetric digraph")
    fragment = {"k": k, "strict": strict, "applicable": strict, "ok": True}
    if not strict:
        return fragment
    ok = (len(family) == k and all(family.labeled))
    if ok:
        for F in tilde.forests:
            if frozenset(components(F)) != family.as_sets():
                ok = False
                break
    fragment["ok"] = ok
    if not ok:
        fragment["witness"] = {
            "k": k,
            "atoms": [sorted(a) for a in family.atoms],
            "labeled": list(family.labeled),
        }
    return fragment
