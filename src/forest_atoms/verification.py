"""Verification battery for the structural statements about minimal
forests, atoms and tree partitions.

Every numbered statement is checked as a universally quantified claim
over the *complete* enumerated tie sets (plus seeded samples where a
statement quantifies over arbitrary forests or subsets).  Failures are
report entries carrying a replayable witness, never exceptions.

A check site passes its witness as a closure over raw objects (vertex
sets, forests, weights); ``_Battery.failed`` renders the first failure
of each statement to JSON-ready form, so a passing check builds nothing.
L6 and L7 compare the quotient of a tree partition against a block
reachability table built from the forest's root paths alone.

Statement ids:
  L1  arc replacement guard              L5  blocks vs maximal subtrees
  L2  three-atom placement               L6  quotient reachability
  L3  out-arc entries and trees          L7  non-reaching block
  L4  one arc into a pair of atoms
  C1..C4   simple tree claims
  P1..P17  inherited properties
  T1..T7   theorems (T5 is the main restriction-is-a-tree theorem)
  Cor1     no double arc between two atoms
  Prop1    equality-case reduction       Prop2  detach construction
  ENUM     forest counts and tie sets vs an independent product walk
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Optional, Sequence

from .analysis import Analysis
from .atoms import (AtomFamily, algebra_contains, algebra_elements,
                    detach_incoming, find_shielded_forest)
from .enumeration import EQUAL, MinForestSet, _lower_bounds, _search
from .graph import (INF, Digraph, Forest, InputError, IntArcs, Weight,
                    _acyclic, _Record, components, find_non_reaching,
                    in_neighborhood, out_neighborhood, quotient,
                    quotient_non_reaching, quotient_reaches, replace_arcs,
                    restrict, rewrite_guard, subtree, tree_partition, upsilon)
from .io import _forest_json, graph_json

STATEMENTS = (
    ["L%d" % i for i in range(1, 8)]
    + ["C%d" % i for i in range(1, 5)]
    + ["P%d" % i for i in range(1, 18)]
    + ["T%d" % i for i in range(1, 8)]
    + ["T5prime", "Cor1", "Prop1", "Prop2", "ENUM"]
)

VERIFIED = "verified"
COUNTEREXAMPLE = "counterexample"
NOT_APPLICABLE = "not-applicable"

#: Most tie-set forests an outer for-all loop visits per level.
MAX_TIE = 10


class Outcome:
    """One statement's status, check count and first witness."""

    def __init__(self, status: str = NOT_APPLICABLE, checks: int = 0,
                 witness: Optional[dict] = None):
        self.status = status
        self.checks = checks
        self.witness = witness


class VerificationReport(_Record):
    def __init__(self, graph: Digraph, statements: dict[str, Outcome]):
        self.__dict__.update(graph=graph, statements=statements)

    @property
    def counterexamples(self) -> list[str]:
        return [s for s, o in self.statements.items()
                if o.status == COUNTEREXAMPLE]

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def to_dict(self) -> dict:
        return {
            "graph": graph_json(self.graph),
            "ok": self.ok,
            "statements": {
                s: {"status": o.status, "checks": o.checks,
                    **({"witness": o.witness} if o.witness else {})}
                for s, o in sorted(self.statements.items())
            },
        }


def _atom_assignments(arcs: IntArcs, atom: frozenset[int], labeled: bool,
                      limit: int) -> list[tuple[int, tuple[Optional[int], ...]]]:
    """Out-arc assignments of an atom's vertices of integer weight at
    most ``limit``, as (weight, heads), heads in ascending vertex order.

    An assignment gives |atom| - 1 vertices an out-arc when the atom is
    labeled and all |atom| when it is not, with no contour inside the
    atom.  These are exactly the restrictions of spanning forests to the
    atom: making every outside vertex a root extends one to a forest.
    The forest search runs on a small instance, the atom's vertices plus
    one arc-less sink per distinct head outside the atom, with the sinks
    (and, when labeled, one atom vertex) as its roots.  Its bound starts
    at ``limit``, so every assignment at or below it is reached and
    nothing above it is walked.
    """
    order = sorted(atom)
    outside = sorted({t for v in order for t, _ in arcs[v] if t not in atom})
    real = order + outside
    node = {v: i for i, v in enumerate(real)}
    instance = ([tuple((node[t], w) for t, w in arcs[v]) for v in order]
                + [()] * len(outside))
    found = []

    def visit(out, roots, weight):
        found.append((weight, tuple(None if t is None else real[t]
                                    for t in out[:len(order)])))
        return limit

    _search(instance, len(outside) + (1 if labeled else 0), visit,
            _lower_bounds(instance), incumbent=limit)
    return found


class _Battery:
    """Runs every statement check against one analyzed graph."""

    def __init__(self, analysis: Analysis, rng: random.Random,
                 max_pool: int, max_subsets: int, enum_budget: int,
                 upto_k: Optional[int] = None):
        self.an = analysis
        self.graph = analysis.graph
        self.scale, self.arcs = self.graph._integer_arcs
        self.rng = rng
        self.max_subsets = max_subsets
        self.upto_k = upto_k
        self._tsamples: dict[int, tuple[Forest, ...]] = {}
        self._tilde_outs: dict[int, frozenset] = {}
        self._realized_outs: dict[tuple, set] = {}
        self._acyclic_memo: dict[tuple, bool] = {}
        self._all_subsets: dict[frozenset[int], tuple[frozenset[int], ...]] = {}
        self.outcomes = {s: Outcome() for s in STATEMENTS}
        self.pool = self._build_pool(max_pool)
        self.enum_budget = enum_budget

    # -- bookkeeping -------------------------------------------------

    def passed(self, stmt: str) -> None:
        o = self.outcomes[stmt]
        if o.status != COUNTEREXAMPLE:
            o.status = VERIFIED
        o.checks += 1

    def failed(self, stmt: str, witness: dict) -> None:
        o = self.outcomes[stmt]
        if o.status != COUNTEREXAMPLE:
            o.status = COUNTEREXAMPLE
            o.witness = {"statement": stmt, "graph": graph_json(self.graph),
                         **{key: self._render(value)
                            for key, value in witness.items()}}
        o.checks += 1

    def _render(self, value):
        """The JSON form of a witness value: vertex sets as sorted names,
        forests as sorted name pairs, weights as exact strings."""
        if isinstance(value, frozenset):
            return sorted(self.graph.names[v] for v in value)
        if isinstance(value, Forest):
            return _forest_json(value)
        if isinstance(value, (Fraction, float)):
            return str(value)
        if isinstance(value, (tuple, list)):
            return [self._render(item) for item in value]
        return value

    def check(self, stmt: str, ok: bool, witness_fn) -> None:
        if ok:
            self.passed(stmt)
        else:
            self.failed(stmt, witness_fn())

    # -- shared material ---------------------------------------------

    def _build_pool(self, max_pool: int) -> list[Forest]:
        """A few minimal forests per level plus seeded random forests."""
        pool: dict[tuple, Forest] = {}
        empty = Forest(self.graph, (None,) * self.graph.n)
        pool[empty.out] = empty
        for k in self.levels():
            for F in self.tsample(k)[:3]:
                pool[F.out] = F
        attempts = 6 * max_pool
        for _ in range(attempts):
            if len(pool) >= max_pool + 4:
                break
            out = []
            for v in range(self.graph.n):
                choices: list[Optional[int]] = [t for t, _ in self.graph.out_lists[v]]
                choices.append(None)
                out.append(self.rng.choice(choices))
            if _acyclic(out):
                F = Forest(self.graph, tuple(out))
                pool[F.out] = F
        return list(pool.values())

    def _memo_acyclic(self, out: tuple[Optional[int], ...]) -> bool:
        """``_acyclic`` memoized by out-tuple; the replacement claims
        test the same maps over and over."""
        ok = self._acyclic_memo.get(out)
        if ok is None:
            ok = self._acyclic_memo[out] = _acyclic(out)
        return ok

    def _sample_subsets(self, universe: frozenset[int], limit: Optional[int] = None,
                        nonempty: bool = False) -> Sequence[frozenset[int]]:
        limit = limit or self.max_subsets
        items = sorted(universe)
        total = 2 ** len(items)
        if total <= limit:
            # every subset, no draws: the same list for any limit
            if universe not in self._all_subsets:
                self._all_subsets[universe] = tuple(
                    frozenset(c) for r in range(len(items) + 1)
                    for c in itertools.combinations(items, r))
            subs = self._all_subsets[universe]
        else:
            rand = self.rng.random
            # draws are sorted tuples, so (len, tuple) is the canonical order
            draws = {(), tuple(items)}
            while len(draws) < limit:
                draws.add(tuple([v for v in items if rand() < 0.5]))
            subs = [frozenset(t) for t in sorted(draws, key=lambda t: (len(t), t))]
        # the empty set always sorts first
        return subs[1:] if nonempty else subs

    def levels(self) -> list[int]:
        return [k for k in self.an.feasible_levels()
                if self.upto_k is None or k <= self.upto_k]

    def tilde(self, k: int) -> MinForestSet:
        return self.an.minimal[k]

    def tsample(self, k: int) -> tuple[Forest, ...]:
        """At most MAX_TIE forests of the level-k tie set.

        Used only in outer for-all loops (checking fewer instances is
        sound); existence scans always walk the complete tie set.
        """
        if k not in self._tsamples:
            forests = self.tilde(k).forests
            if len(forests) <= MAX_TIE:
                self._tsamples[k] = forests
            else:
                idx = sorted(self.rng.sample(range(len(forests)),
                                             MAX_TIE))
                self._tsamples[k] = tuple(forests[i] for i in idx)
        return self._tsamples[k]

    def fam(self, k: int) -> AtomFamily:
        return self.an.family(k)

    def _tree_of(self, F: Forest, S: frozenset[int]) -> int:
        """Root of the tree of F containing S (S must sit in one tree)."""
        return F.root_of(min(S))

    def _in_tilde(self, out: tuple, k: int) -> bool:
        if k not in self._tilde_outs:
            self._tilde_outs[k] = frozenset(
                F.out for F in self.tilde(k).forests)
        return out in self._tilde_outs[k]

    # -- pure tree machinery: C1-C4, L5-L7, L1, P1 --------------------

    def run_tree_claims(self) -> None:
        for F in self.pool:
            subs = {i: subtree(F, i) for i in range(self.graph.n)}
            for i, j in itertools.combinations(range(self.graph.n), 2):
                Si, Sj = subs[i], subs[j]
                witness = lambda: dict(forest=F, i=self.graph.names[i],
                                       j=self.graph.names[j])
                # C1: intersecting subtrees share a root
                self.check("C1", not (Si & Sj) or i in Sj or j in Si, witness)
                # C2: subtrees are nested or disjoint
                self.check("C2", not (Si & Sj) or Si <= Sj or Sj <= Si,
                           witness)
            self._claim3(F)
            self._claim4(F)
            self._tree_partitions(F)

    def _claim3(self, F: Forest) -> None:
        for tree in components(F):
            for B in self._sample_subsets(tree, limit=12, nonempty=True):
                valid = [b for b in sorted(B)
                         if not any(F.reaches(b, o) for o in B if o != b)]
                beta = find_non_reaching(F, B)
                ok = bool(valid) and beta == valid[0]
                self.check("C3", ok, lambda: dict(
                    forest=F, B=B,
                    returned=None if beta is None else self.graph.names[beta]))

    def _claim4(self, F: Forest) -> None:
        for D in self._sample_subsets(self.graph.vertex_set, limit=8, nonempty=True):
            candidates = [b for b in range(self.graph.n)
                          if b not in D and not any(F.reaches(b, d) for d in D)]
            if not candidates:
                continue
            beta = self.rng.choice(candidates)
            original = F.root_path(beta)
            rewritten = list(F.out)
            for v in sorted(D):
                choices: list[Optional[int]] = [t for t, _ in self.graph.out_lists[v]]
                choices.append(None)
                rewritten[v] = self.rng.choice(choices)
            path = [beta]
            node = beta
            for _ in range(self.graph.n):
                t = rewritten[node]
                if t is None:
                    break
                node = t
                path.append(node)
            self.check("C4", tuple(path) == original, lambda: dict(
                forest=F, D=D, beta=self.graph.names[beta]))

    def _tree_partitions(self, F: Forest) -> None:
        extras = self._sample_subsets(self.graph.vertex_set - F.roots, limit=8)
        for extra in extras:
            A = F.roots | extra
            P = tree_partition(F, A)
            blocks = P.block_sets()
            # L5: every block meets each maximal subtree of a generator
            # in nothing or itself
            for beta in sorted(A):
                tb = subtree(F, beta)
                ok = all(not (X & tb) or (X & tb) == X for X in blocks)
                self.check("L5", ok, lambda: dict(
                    forest=F, A=A, beta=self.graph.names[beta]))
            # block a reaches block b when the root path of a vertex of a
            # meets b; built from F alone, so L6 and L7 test the quotient
            # against a computation that shares none of its code
            reach: dict[int, set[int]] = {a: set() for a in A}
            for u in range(self.graph.n):
                reach[P.block_of(u)].update(map(P.block_of, F.root_path(u)))
            # L6: quotient reachability == block-level reachability
            qout = quotient(F, P)
            ok6 = all(quotient_reaches(qout, a, b) == (b in reach[a])
                      for a, b in itertools.permutations(sorted(A), 2))
            self.check("L6", ok6, lambda: dict(forest=F, A=A))
            # L7: in any subfamily of blocks some block reaches no other
            for B in self._sample_subsets(A, limit=8, nonempty=True):
                if len(B) < 2:
                    continue
                beta = quotient_non_reaching(qout, B)
                ok7 = beta in B and (reach[beta] & B) <= {beta}
                self.check("L7", ok7, lambda: dict(forest=F, A=A, B=B))

    def run_replacement_claims(self) -> None:
        pairs = list(itertools.combinations(range(len(self.pool)), 2))
        self.rng.shuffle(pairs)
        for fi, gi in pairs[:20]:
            F, G = self.pool[fi], self.pool[gi]
            for D in self._sample_subsets(self.graph.vertex_set, limit=10):
                if rewrite_guard(F, G, D):
                    ok = self._memo_acyclic(replace_arcs(F, G, D))
                    self.check("L1", ok, lambda: dict(F=F, G=G, D=D))
            self._property1(F, G)
        self._property2()

    def _property1(self, F: Forest, G: Forest) -> None:
        comps_f = components(F)
        comps_g = components(G)

        def both_forests(D: frozenset[int]) -> bool:
            return (self._memo_acyclic(replace_arcs(F, G, D))
                    and self._memo_acyclic(replace_arcs(G, F, D)))

        def case(tag: str, D: frozenset[int]) -> None:
            self.check("P1", both_forests(D),
                       lambda: dict(case=tag, F=F, G=G, D=D))

        for TF in comps_f:
            case("a", TF)
            for TG in comps_g:
                inter = TF & TG
                diff = TF - TG
                if inter:
                    case("b", inter)
                if diff:
                    case("c", diff)
                for D in self._sample_subsets(inter, limit=6, nonempty=True):
                    if (not in_neighborhood(F, D)
                            and out_neighborhood(F, D) <= TF - TG):
                        case("d", D)
                for D in self._sample_subsets(diff, limit=6, nonempty=True):
                    if (not in_neighborhood(F, D)
                            and out_neighborhood(F, D) <= TG):
                        case("e", D)

    def _property2(self) -> None:
        levels = self.levels()
        for m in levels:
            for n in levels:
                if m > n:
                    continue
                for G in self.tilde(m).forests[:3]:
                    for F in self.tilde(n).forests[:3]:
                        for D in self._sample_subsets(
                                self.graph.vertex_set, limit=8):
                            p_out = replace_arcs(F, G, D)
                            q_out = replace_arcs(G, F, D)
                            if not (self._memo_acyclic(p_out)
                                    and self._memo_acyclic(q_out)):
                                continue
                            rF = len(F.roots & D)
                            rG = len(G.roots & D)
                            if rF == rG:
                                ok = (self._in_tilde(p_out, n)
                                      and self._in_tilde(q_out, m))
                            elif rF - rG == n - m:
                                ok = (self._in_tilde(p_out, m)
                                      and self._in_tilde(q_out, n))
                            else:
                                continue
                            self.check("P2", ok, lambda: dict(
                                n=n, m=m, F=F, G=G, D=D))

    # -- algebra structure: P3-P8, L2 ---------------------------------

    def run_algebra_structure(self) -> None:
        levels = self.levels()
        for k in levels:
            fam = self.fam(k)
            tilde = self.tilde(k)
            for a1, a2 in itertools.combinations(fam.atoms, 2):
                ok = any(self._tree_of(F, a1) != self._tree_of(F, a2)
                         for F in tilde.forests)
                self.check("P3", ok,
                           lambda: dict(k=k, atom1=a1, atom2=a2))
            for trip in itertools.combinations(fam.atoms, 3):
                self._lemma2(k, tilde, trip)
            if self.an.strict(k):
                self._strict_counts(k, fam, tilde)
        for k in levels:
            if k + 1 in levels:
                for atom in self.fam(k).atoms:
                    self.check("P4", algebra_contains(self.fam(k + 1), atom),
                               lambda: dict(k=k, atom=atom))
        self._property5()

    def _lemma2(self, k: int, tilde: MinForestSet, trip) -> None:
        star = 0
        kinds = [0, 0, 0]
        for F in tilde.forests:
            t = [self._tree_of(F, a) for a in trip]
            if len(set(t)) == 3:
                star += 1
            else:
                for i in range(3):
                    j, l = {0, 1, 2} - {i}
                    if t[j] == t[l] and t[i] != t[j]:
                        kinds[i] += 1
        empty = sum(1 for c in kinds if c == 0)
        self.check("L2", star > 0 or empty <= 1,
                   lambda: dict(k=k, atoms=trip))

    def _strict_counts(self, k: int, fam: AtomFamily, tilde: MinForestSet) -> None:
        self.check("P7", sum(fam.labeled) == k,
                   lambda: {"k": k, "labeled": sum(fam.labeled)})
        labeled = fam.labeled_atoms()
        for F in tilde.forests:
            for tree in components(F):
                inside = sum(1 for a in labeled if a <= tree)
                self.check("P8", inside == 1,
                           lambda: dict(k=k, forest=F, tree=tree))
        for atom in fam.atoms:
            counts = {sum(1 for v in atom if F.out[v] is not None)
                      for F in tilde.forests}
            self.check("P6", len(counts) == 1, lambda: dict(
                k=k, atom=atom, counts=sorted(counts)))

    def _property5(self) -> None:
        for k in self.levels():
            if k == self.graph.n or self.an.profile[k - 1] != EQUAL:
                continue
            famk, famk1 = self.fam(k), self.fam(k + 1)
            ok = (famk.as_sets() == famk1.as_sets()
                  and frozenset(famk.labeled_atoms())
                  == frozenset(famk1.labeled_atoms()))
            self.check("P5", ok, lambda: {"k": k})
            # restriction chain (al): tilde^{k-1}|_E <= tilde^k|_E >= tilde^{k+1}|_E
            for E in famk.atoms:
                mid = {restrict(F, E).arcs for F in self.tilde(k).forests}
                lo = ({restrict(F, E).arcs for F in self.tilde(k - 1).forests}
                      if self.an.feasible(k - 1) else set())
                hi = {restrict(F, E).arcs for F in self.tilde(k + 1).forests}
                self.check("P5", lo <= mid and hi <= mid,
                           lambda: dict(k=k, atom=E))

    # -- measure: P9-P14 ----------------------------------------------

    def run_measure(self) -> None:
        for k in self.levels():
            if not self.an.strict(k):
                continue
            fam = self.fam(k)
            tilde = self.tilde(k)
            for F in self.tsample(k):
                for E in fam.atoms:
                    # some minimal forest keeps F's out-arcs on E and
                    # shields it; the one found must really do so
                    H = find_shielded_forest(tilde, E, F)
                    self.check("P9", H is not None
                               and not in_neighborhood(H, E),
                               lambda: dict(k=k, atom=E, F=F))
            table = [tuple(upsilon(F, a) for a in fam.atoms)
                     for F in self.tsample(k)]
            self.check("P10", all(row == table[0] for row in table),
                       lambda: dict(k=k, table=table))
            rho = table[0]
            self.check("P11", sum(rho, Fraction(0)) == tilde.weight,
                       lambda: dict(k=k, rho=rho, phi=tilde.weight))
            self._replacement_minimality(k, fam, tilde)
            self._lower_bounds(k, fam, tilde, rho)

    def _replacement_minimality(self, k: int, fam: AtomFamily,
                                tilde: MinForestSet) -> None:
        if len(fam) <= 7:
            elements = list(algebra_elements(fam))
        else:
            index_sets = self._sample_subsets(
                frozenset(range(len(fam))), limit=16)
            elements = [
                frozenset().union(*(fam.atoms[i] for i in c)) if c
                else frozenset()
                for c in index_sets]
        for F in self.tsample(k):
            for G in self.tsample(k):
                for A in elements:
                    out = replace_arcs(F, G, A)
                    if self._memo_acyclic(out):
                        self.check("P12", self._in_tilde(out, k),
                                   lambda: dict(k=k, F=F, G=G, A=A))
            for A in elements:
                if in_neighborhood(F, A):
                    continue
                for G in self.tsample(k):
                    out = replace_arcs(F, G, A)
                    ok = self._memo_acyclic(out) and self._in_tilde(out, k)
                    self.check("P13", ok, lambda: dict(k=k, F=F, G=G, A=A))

    def _lower_bounds(self, k: int, fam: AtomFamily, tilde: MinForestSet,
                      rho) -> None:
        """P14: over arbitrary spanning forests, the out-weight of an atom
        with |atom| - 1 out-arcs (labeled) or |atom| out-arcs (unlabeled)
        is at least rho[atom], and a forest meeting it restricts to an
        arc pattern that a minimal forest realizes.

        Exhaustive at every N: ``_atom_assignments`` reaches each
        restriction of a forest to the atom with weight at most rho, and
        each one reached is a check.  Patterns are the arcs inside a
        labeled atom and the full head tuple of an unlabeled one.
        """
        for ai, (atom, lab) in enumerate(zip(fam.atoms, fam.labeled)):
            order = sorted(atom)

            def pattern(heads):
                if lab:
                    return frozenset((v, t) for v, t in zip(order, heads)
                                     if t in atom)
                return heads

            realized = {pattern(tuple(H.out[v] for v in order))
                        for H in tilde.forests}
            limit = int(rho[ai] * self.scale)
            for weight, heads in _atom_assignments(self.arcs, atom, lab, limit):
                # the witness forest: these arcs, every other vertex a root
                self.check("P14", weight == limit and pattern(heads) in realized,
                           lambda: dict(k=k, atom=atom, labeled=lab,
                                        forest=Forest(self.graph, tuple(
                                            dict(zip(order, heads)).get(v)
                                            for v in range(self.graph.n)))))

    # -- arc structure of unlabeled atoms: L3, L4, Cor1, T2 -----------

    def run_arc_structure(self) -> None:
        for k in self.levels():
            if not self.an.strict(k):
                continue
            fam = self.fam(k)
            tilde = self.tilde(k)
            unlabeled = fam.unlabeled_atoms()
            for U in unlabeled:
                for F in self.tsample(k):
                    heads = [F.out[v] for v in U
                             if F.out[v] is not None and F.out[v] not in U]
                    for G in self.tsample(k):
                        troot = self._tree_of(G, U)
                        away = sum(1 for h in heads if G.root_of(h) != troot)
                        self.check("L3", away <= 1,
                                   lambda: dict(k=k, atom=U, F=F, G=G))
                    for E, elab in zip(fam.atoms, fam.labeled):
                        if E == U:
                            continue
                        into = sum(1 for h in heads if h in E)
                        self.check("Cor1", into <= 1,
                                   lambda: dict(k=k, U=U, E=E, F=F))
                        if elab and into:
                            self.check("T2", len(heads) == 1,
                                       lambda: dict(k=k, U=U, M=E, F=F))
            self._lemma4(k, fam, tilde)

    def _lemma4(self, k: int, fam: AtomFamily, tilde: MinForestSet) -> None:
        unlabeled = fam.unlabeled_atoms()
        for U, E, S in itertools.permutations(unlabeled, 3):
            if not any(
                    not in_neighborhood(G, U)
                    and (self._tree_of(G, E) != self._tree_of(G, U)
                         or self._tree_of(G, S) != self._tree_of(G, U))
                    for G in tilde.forests):
                continue
            target = E | S
            for F in self.tsample(k):
                cnt = sum(1 for v in U
                          if F.out[v] is not None and F.out[v] in target)
                self.check("L4", cnt <= 1,
                           lambda: dict(k=k, U=U, E=E, S=S, F=F))

    # -- components of restrictions: T3, T4/Prop2 ---------------------

    def run_restriction_components(self) -> None:
        for k in self.levels():
            if not self.an.strict(k):
                continue
            fam = self.fam(k)
            tilde = self.tilde(k)
            for U in fam.unlabeled_atoms():
                for F in self.tsample(k):
                    for X in restrict(F, U).component_sets():
                        self._theorem3(k, tilde, F, X)
            for U in fam.atoms:
                for F in self.tsample(k):
                    self._detach(k, tilde, F, U)

    def _theorem3(self, k: int, tilde: MinForestSet, F: Forest,
                  X: frozenset[int]) -> None:
        wX = upsilon(F, X)
        witness = dict(k=k, X=X, F=F)
        # part 1: some minimal forest shields X while keeping F's out-arcs
        shield = any(
            all(H.out[v] == F.out[v] for v in X) and not in_neighborhood(H, X)
            for H in tilde.forests)
        self.check("T3", shield, lambda: dict(witness, part=1))
        # part 2: the out-weight of X is forest-independent
        self.check("T3", all(upsilon(G, X) == wX
                             for G in self.tsample(k)),
                   lambda: dict(witness, part=2))
        # part 3: lower bound over arbitrary forests with full out-degree on X
        order = sorted(X)
        key = (k, X)
        if key not in self._realized_outs:
            self._realized_outs[key] = {tuple(H.out[v] for v in order)
                                        for H in tilde.forests}
        realized = self._realized_outs[key]
        for G in self.pool:
            if any(G.out[v] is None for v in X):
                continue
            ok = upsilon(G, X) >= wX
            if ok and upsilon(G, X) == wX:
                ok = tuple(G.out[v] for v in order) in realized
            self.check("T3", ok, lambda: dict(witness, part=3, G=G))

    def _detach(self, k: int, tilde: MinForestSet, F: Forest,
                U: frozenset[int]) -> None:
        entries = in_neighborhood(F, U)
        witness = dict(k=k, atom=U, F=F)
        subtrees = [subtree(F, b) for b in sorted(entries)]
        D = frozenset().union(*subtrees) if subtrees else frozenset()
        self.check("Prop2", not (D & U), lambda: dict(witness, part="i"))
        pairwise = all(not (a & b)
                       for a, b in itertools.combinations(subtrees, 2))
        self.check("Prop2", pairwise, lambda: dict(witness, part="ii"))
        detached = detach_incoming(tilde, F, U)
        if detached is None:
            self.failed("T4", dict(witness, D=D))
            return
        D2, G = detached
        ok = (D2 == D
              and all(G.out[v] == F.out[v] for v in range(self.graph.n)
                      if v not in D)
              and not in_neighborhood(G, U)
              and len({G.root_of(v) for v in U}) == 1
              and self._in_tilde(G.out, k))
        self.check("T4", ok, lambda: dict(witness, D=D))
        self.check("Prop2", ok, lambda: dict(witness, part="iii"))

    # -- the main theorems: T5, T5', T6, T7, T1/Prop1 -----------------

    def run_main_theorems(self) -> None:
        levels = self.levels()
        for k in levels:
            fam = self.fam(k)
            tilde = self.tilde(k)
            for F in tilde.forests:
                roots_of_blocks = set()
                all_trees = True
                for atom in fam.atoms:
                    sub = restrict(F, atom)
                    if not sub.is_tree():
                        all_trees = False
                        self.failed("T5", dict(k=k, atom=atom, F=F))
                    else:
                        self.passed("T5")
                        roots_of_blocks.add(min(sub.local_roots()))
                if all_trees:
                    P = tree_partition(F, frozenset(roots_of_blocks))
                    ok = frozenset(P.block_sets()) == fam.as_sets()
                    self.check("T5prime", ok, lambda: dict(k=k, F=F))
            if k >= 2 and self.an.feasible(k - 1):
                for F in self.tilde(k - 1).forests:
                    for atom in fam.atoms:
                        self.check("T6", restrict(F, atom).is_tree(),
                                   lambda: dict(k=k, atom=atom, F=F))
            if not self.an.strict(k):
                # T1 / Prop1: the restriction property persists at
                # equality levels, and the algebras coincide upward
                for F in tilde.forests:
                    for atom in fam.atoms:
                        self.check("T1", restrict(F, atom).is_tree(),
                                   lambda: dict(k=k, atom=atom, F=F))
                if self.an.feasible(k + 1):
                    self.check("Prop1",
                               self.fam(k).as_sets() == self.fam(k + 1).as_sets(),
                               lambda: {"k": k})
        self._theorem7()

    def _theorem7(self) -> None:
        if any(w != 1 for w in self.graph.arcs.values()):
            return
        levels = self.levels()
        if not levels:
            return
        kf = min(levels)
        if kf <= 1:
            return  # a spanning tree exists; the unweighted theorem is void
        # every kf-forest weighs N - kf, so the tie set holds them all
        fam = self.fam(kf)
        for F in self.tilde(kf).forests:
            for atom in fam.atoms:
                self.check("T7", restrict(F, atom).is_tree(),
                           lambda: dict(k=kf, atom=atom, F=F))

    # -- P15-P17 -------------------------------------------------------

    def run_restriction_properties(self) -> None:
        for k in self.levels():
            if not self.an.strict(k):
                continue
            fam = self.fam(k)
            tilde = self.tilde(k)
            for M in fam.labeled_atoms():
                for F in tilde.forests:
                    self.check("P15", restrict(F, M).is_tree(),
                               lambda: dict(k=k, atom=M, F=F))
            if k >= 2 and self.an.feasible(k - 1):
                labeled = fam.labeled_atoms()
                for F in self.tsample(k - 1):
                    ok = any(
                        all(P.out[v] == F.out[v]
                            for v in self.graph.vertex_set - M)
                        and restrict(F, M).is_tree()
                        for P in tilde.forests for M in labeled)
                    self.check("P16", ok, lambda: dict(k=k, F=F))
                for U in fam.unlabeled_atoms():
                    allowed = {restrict(G, U).arcs for G in tilde.forests}
                    for F in self.tilde(k - 1).forests:
                        self.check("P17", restrict(F, U).arcs in allowed,
                                   lambda: dict(k=k, atom=U, F=F))

    # -- enumerator completeness --------------------------------------

    def run_enum_check(self) -> None:
        """ENUM: forest counts per level and every level's minimum weight
        and tie set, against a plain walk of all out-arc assignments.

        One unbounded forest search tallies the counts of every level; the
        walk shares no code with it and sums integer weights on its own
        scale.
        """
        n = self.graph.n
        size = 1
        for v in range(n):
            size *= len(self.graph.out_lists[v]) + 1
            if size > self.enum_budget:
                return
        enumerated = [0] * (n + 1)

        def tally(out, roots, weight):
            enumerated[roots] += 1

        _search(self.arcs, None, tally)
        scale = math.lcm(*(w.denominator for w in self.graph.arcs.values()))
        weights = {a: int(w * scale) for a, w in self.graph.arcs.items()}
        counts = [0] * (n + 1)
        best: list[Weight] = [INF] * (n + 1)
        ties: list[list[tuple]] = [[] for _ in range(n + 1)]
        choice_lists = [[t for t, _ in self.graph.out_lists[v]] + [None]
                        for v in range(n)]
        # product order is the canonical forest order, so ties[k] is
        # already in the order a tie set must have
        for out in itertools.product(*choice_lists):
            if _acyclic(out):
                k = out.count(None)
                counts[k] += 1
                w = sum(weights[v, t] for v, t in enumerate(out)
                        if t is not None)
                if w < best[k]:
                    best[k], ties[k] = w, [out]
                elif w == best[k]:
                    ties[k].append(out)
        for k in range(1, n + 1):
            tilde = self.tilde(k)
            phi = INF if best[k] == INF else Fraction(best[k], scale)
            ok = (enumerated[k] == counts[k] and tilde.weight == phi
                  and [F.out for F in tilde.forests] == ties[k])
            self.check("ENUM", ok, lambda: dict(
                k=k, enumerated=enumerated[k], independent=counts[k],
                phi=tilde.weight, independent_phi=phi, forests=tilde.forests,
                independent_forests=[Forest(self.graph, o) for o in ties[k]]))

    # -----------------------------------------------------------------

    def run(self) -> dict[str, Outcome]:
        self.run_tree_claims()
        self.run_replacement_claims()
        self.run_algebra_structure()
        self.run_measure()
        self.run_arc_structure()
        self.run_restriction_components()
        self.run_main_theorems()
        self.run_restriction_properties()
        self.run_enum_check()
        return self.outcomes


def verify(analysis: Analysis, upto_k: Optional[int] = None, seed: int = 0,
           max_pool: int = 10, max_subsets: int = 24,
           enum_budget: int = 60000) -> VerificationReport:
    """Check every applicable statement against the analysis's tie sets.

    ``upto_k`` bounds the levels examined (default: all).  Sampled
    quantifiers (arbitrary forests, subsets D) are driven by ``seed``
    and are deterministic.  Failures become report entries with
    replayable witnesses.
    """
    battery = _Battery(analysis, random.Random(seed), max_pool, max_subsets,
                       enum_budget, upto_k=upto_k)
    return VerificationReport(analysis.graph, battery.run())


def corrupted_verify(graph: Digraph, level: int,
                     seed: int = 0) -> VerificationReport:
    """Self-test: run the battery with a deliberately corrupted oracle.

    The last level-k forest in canonical order that outweighs phi^k is
    injected into the tie set at ``level``, so the battery must report
    counterexamples; a clean report here means the battery itself is
    broken.
    """
    analysis = Analysis.compute(graph)
    tilde = analysis.minimal[level]
    scale, arcs = graph._integer_arcs
    limit = tilde.weight * scale
    intruder = None

    def visit(out, roots, weight):
        nonlocal intruder
        if weight > limit:
            intruder = tuple(out)

    _search(arcs, level, visit)
    if intruder is None:
        raise InputError(
            f"level {level} has no non-minimal forest to inject")
    analysis.minimal[level] = MinForestSet(
        level, tilde.weight, tilde.forests + (Forest(graph, intruder),))
    return verify(analysis, seed=seed)
