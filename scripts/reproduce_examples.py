#!/usr/bin/env python3
"""Reproduce the two worked examples end to end.

Prints phi, the convexity profile, the minimal forests, atoms with
labels and measure, and the hierarchy for the 4-vertex and 6-vertex
reference graphs, then runs the full statement battery on both.
"""

import sys

from forest_atoms import Analysis, Digraph, build_hierarchy
from forest_atoms.io import weight_to_json

ATO = [("b", "a", 1), ("a", "c", 2), ("b", "d", 2), ("c", "b", 3)]
WOODY = [
    ("alpha", "zeta", 2), ("zeta", "alpha", 2),
    ("beta", "eta", 1), ("eta", "beta", 1),
    ("gamma", "xi", 2), ("xi", "gamma", 2),
    ("beta", "gamma", 3), ("eta", "zeta", 3),
]


def show(name, arcs):
    print(f"== {name} ==")
    g = Digraph.from_arcs(arcs)
    an = Analysis.compute(g)
    print("phi:", " ".join(weight_to_json(w) for w in an.phi.values))
    print("profile:", " ".join(an.profile))
    for k in an.feasible_levels():
        fam = an.family(k)
        meas = an.atom_measure(k)
        atoms = " ".join(
            "{%s}%s" % (",".join(sorted(g.names[v] for v in a)),
                        "*" if l else "o")
            for a, l in zip(fam.atoms, fam.labeled))
        print(f"k={k} |tilde|={len(an.minimal[k].forests)} "
              f"{'strict' if an.strict(k) else 'equal '} atoms: {atoms} "
              f"rho: {' '.join(str(x) for x in meas.values)}")
    print("hierarchy levels:",
          [(lv.k, weight_to_json(lv.gap)) for lv in build_hierarchy(an)])
    # imported here: reading ATO and WOODY alone should not load the battery
    from forest_atoms import verify
    report = verify(an, seed=0)
    bad = report.counterexamples
    print("battery:", "ok" if report.ok else f"COUNTEREXAMPLES {bad}")
    print()
    return report.ok


def main() -> int:
    ok = show("4-vertex example", ATO)
    ok = show("6-vertex example", WOODY) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
