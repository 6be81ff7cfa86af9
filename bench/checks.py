"""Output checks that share no code with forest_atoms.

Everything here reads the package's outputs (analysis documents, campaign
trial entries) as plain data and re-derives what it checks from first
principles, so a defect in the package cannot hide behind the same defect
in its checker.  Each check returns a list of problems; empty means the
output passed.
"""

from __future__ import annotations

from fractions import Fraction

STATUSES = {"verified", "not-applicable", "counterexample"}
STATEMENT_COUNT = 40


def _det(matrix: list[list[Fraction]]) -> Fraction:
    """Determinant by exact Gaussian elimination."""
    a = [row[:] for row in matrix]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            if factor:
                for c in range(col, n):
                    a[r][c] -= factor * a[col][c]
    return det


def forest_counts(n: int, arcs) -> list[int]:
    """Spanning entering forests with k roots, for k = 0..n.

    Matrix-forest theorem: with L the out-degree Laplacian of the 0/1
    adjacency, det(sI + L) = sum_k c_k s^k where c_k counts the spanning
    forests in which every non-root vertex has one out-arc and k vertices
    are roots.  The polynomial is evaluated at s = 0..n and interpolated,
    all in exact Fraction arithmetic.
    """
    lap = [[Fraction(0)] * n for _ in range(n)]
    for i, j in arcs:
        lap[i][i] += 1
        lap[i][j] -= 1
    values = []
    for s in range(n + 1):
        shifted = [row[:] for row in lap]
        for i in range(n):
            shifted[i][i] += s
        values.append(_det(shifted))
    # Lagrange interpolation through (s, values[s]), s = 0..n
    coeffs = [Fraction(0)] * (n + 1)
    for j, y in enumerate(values):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for m in range(n + 1):
            if m == j:
                continue
            basis = [Fraction(0)] + basis          # multiply by s ...
            for d in range(len(basis) - 1):
                basis[d] -= m * basis[d + 1]       # ... minus m
            denom *= j - m
        for d, b in enumerate(basis):
            coeffs[d] += y * b / denom
    if any(c.denominator != 1 or c < 0 for c in coeffs):
        raise ArithmeticError(f"non-integral forest counts {coeffs}")
    return [int(c) for c in coeffs]


def _weight(text: str):
    return None if text == "inf" else Fraction(text)


def check_document(doc: dict, arcs: dict | None = None,
                   counts: list[int] | None = None) -> list[str]:
    """Problems with one analysis document (schema v1).

    ``arcs`` maps (src name, dst name) to the input weight; when given,
    the document's graph must echo it exactly.  ``counts`` (per k) are
    the sizes every tie set must have, used where all k-forests tie.
    """
    problems: list[str] = []
    if doc.get("schema_version") != 1:
        return [f"schema_version {doc.get('schema_version')!r}"]
    names = doc["graph"]["vertices"]
    n = len(names)
    index = {v: i for i, v in enumerate(names)}
    doc_arcs = {(a, b): Fraction(w) for a, b, w in doc["graph"]["arcs"]}
    if arcs is not None and doc_arcs != arcs:
        problems.append("graph echo differs from the input")
    phi = [_weight(w) for w in doc["phi"]]
    if len(phi) != n + 1 or phi[0] is not None or phi[n] != 0:
        problems.append(f"bad phi sequence {doc['phi']}")
        return problems
    feasible = [k for k in range(1, n + 1) if phi[k] is not None]
    if sorted(doc["levels"], key=int) != [str(k) for k in feasible]:
        problems.append("levels are not the feasible k")
        return problems
    strict_levels = []
    for k in feasible:
        level = doc["levels"][str(k)]
        where = f"k={k}"
        before = len(problems)
        if _weight(level["phi"]) != phi[k]:
            problems.append(f"{where}: level phi differs from phi[k]")
        if level["strict"]:
            strict_levels.append(k)
        forests = level["forests"]
        if counts is not None and len(forests) != counts[k]:
            problems.append(f"{where}: {len(forests)} tied forests, "
                            f"matrix-forest count is {counts[k]}")
        if not forests:
            problems.append(f"{where}: empty tie set at a feasible level")
            continue
        previous = None
        roots_union: set[int] = set()
        signature: list[list[int]] = [[] for _ in range(n)]
        for pairs in forests:
            out: list[int | None] = [None] * n
            weight = Fraction(0)
            for a, b in pairs:
                if (a, b) not in doc_arcs or out[index[a]] is not None:
                    problems.append(f"{where}: bad arc {a}->{b}")
                    break
                out[index[a]] = index[b]
                weight += doc_arcs[(a, b)]
            else:
                root = _roots_of(out)
                if root is None:
                    problems.append(f"{where}: forest has a contour")
                    continue
                roots = {v for v in range(n) if out[v] is None}
                if len(roots) != k:
                    problems.append(f"{where}: forest has {len(roots)} roots")
                if weight != phi[k]:
                    problems.append(f"{where}: forest weight {weight} != phi")
                key = tuple(n if t is None else t for t in out)
                if previous is not None and key <= previous:
                    problems.append(f"{where}: forests repeat or are "
                                    "out of canonical order")
                previous = key
                roots_union |= roots
                for v in range(n):
                    signature[v].append(root[v])
        if len(problems) > before:
            continue
        atoms = [[index[v] for v in atom] for atom in level["atoms"]]
        flat = sorted(v for atom in atoms for v in atom)
        if flat != list(range(n)):
            problems.append(f"{where}: atoms do not partition V")
            continue
        classes: dict[tuple, set[int]] = {}
        for v in range(n):
            classes.setdefault(tuple(signature[v]), set()).add(v)
        if sorted(map(sorted, classes.values())) != sorted(map(sorted, atoms)):
            problems.append(f"{where}: atoms are not the common refinement "
                            "of the forests' trees")
        expected = [bool(set(atom) & roots_union) for atom in atoms]
        if level["labeled"] != expected:
            problems.append(f"{where}: labeled flags differ from "
                            "'atom meets some root'")
        meas = level["measure"]
        if level["strict"] and not (
                meas["well_defined"]
                and sum(map(Fraction, meas["values"]), Fraction(0)) == phi[k]):
            problems.append(f"{where}: measure does not sum to phi^k")
    if "hierarchy" in doc:
        if [lv["k"] for lv in doc["hierarchy"]] != strict_levels:
            problems.append("hierarchy levels are not the strict levels")
        elif any(lv["atoms"] != doc["levels"][str(lv["k"])]["atoms"]
                 for lv in doc["hierarchy"]):
            problems.append("hierarchy atoms differ from the level atoms")
    return problems


def _roots_of(out: list) -> list[int] | None:
    """Root reached from each vertex, or None if some walk never ends."""
    n = len(out)
    root: list[int] = [-1] * n
    for s in range(n):
        path = []
        v = s
        while root[v] < 0 and out[v] is not None and len(path) <= n:
            path.append(v)
            v = out[v]
        if len(path) > n:
            return None
        r = root[v] if root[v] >= 0 else v
        root[v] = r
        for u in path:
            root[u] = r
    return root


def check_trial(entry: dict, index: int) -> list[str]:
    """Problems with one campaign trial entry."""
    problems = []
    if entry.get("trial") != index:
        problems.append(f"trial index {entry.get('trial')} != {index}")
    if entry.get("ok") is not True:
        problems.append(f"trial {index} reports ok={entry.get('ok')!r}")
    statuses = entry.get("statements", {})
    if len(statuses) != STATEMENT_COUNT or not set(statuses.values()) <= STATUSES:
        problems.append(f"trial {index}: malformed statement statuses")
    return problems
