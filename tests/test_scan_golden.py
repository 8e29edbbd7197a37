"""Pinned outputs of the Malcev, Jacobi and cocycle scans.

`golden/scan_witnesses.json` holds, for every case, the witness count, the
notes and the sha256 of the canonical JSON of the full witness list, in
order and with exact values.  It was recorded from the dict-of-Fraction
scans that the integer kernel replaced; regenerate it (only after a change
that is meant to alter witnesses) with

    PYTHONPATH=src python tests/test_scan_golden.py
"""

import hashlib
import random
from fractions import Fraction
from pathlib import Path

from qmalcev import (EVEN, Cocycle, Element, SuperAlgebra, catalog_get,
                     check_cocycle, check_jacobi, check_malcev)
from qmalcev.document import canonical_json, parse_document, scalar_text
from qmalcev.linalg import dense

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = GOLDEN_DIR / "scan_witnesses.json"
DEFECTIVE = ("defect_gde2", "defect_osc2", "defect_sl2_gde1")


def _mutated_m7():
    a = catalog_get("m7").algebra.algebra
    consts = dict(a.constants)
    del consts[min(consts)]
    return SuperAlgebra(a.space, consts, name="m7_mutated")


def _pair_dropped(name, i, j, k):
    """The catalog algebra `name` without the product (i, j, k) and its
    mirror (j, i, k): still anticommutative, neither Malcev nor Lie."""
    a = catalog_get(name).algebra.algebra
    consts = dict(a.constants)
    del consts[(i, j, k)], consts[(j, i, k)]
    return SuperAlgebra(a.space, consts, name=name + "_pair_dropped")


def algebras():
    out = {name: catalog_get(name).algebra.algebra
           for name in ("m7", "osp12")}
    out["m7_mutated"] = _mutated_m7()
    out["m7_pair_dropped"] = _pair_dropped("m7", 0, 1, 2)
    # most of its witnesses sit at keys with an odd index, so this case
    # pins the Koszul signs of witnesses copied along a rotation orbit
    out["osp12_pair_dropped"] = _pair_dropped("osp12", 0, 1, 1)
    for name in DEFECTIVE:
        q, _op, _gde = parse_document(
            (GOLDEN_DIR / (name + ".json")).read_text())
        out[name] = q.algebra
    return out


def seeded_cocycle(a, name):
    """An even cocycle with mixed denominators, graded-skew except at the
    first same-parity pair, so both kinds of witness occur."""
    rng = random.Random(name)
    n = a.dim
    par = [a.space.parity(i) for i in range(n)]
    vals = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if par[i] != par[j] or (i == j and par[i] == EVEN):
                continue
            v = Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))
            vals[i][j] = v
            vals[j][i] = v if par[i] else -v
    first = min((i, j) for i in range(n) for j in range(i + 1, n)
                if par[i] == par[j])
    vals[first[0]][first[1]] += 1
    return Cocycle(vals, EVEN)


def _value(v):
    if isinstance(v, Element):
        return [scalar_text(c) for c in dense(v.entries, v.dim)]
    return scalar_text(v)


def summary(rep):
    witnesses = [{"index": list(w.index), "lhs": _value(w.lhs),
                  "rhs": _value(w.rhs)} for w in rep.witnesses]
    digest = hashlib.sha256(canonical_json(witnesses).encode()).hexdigest()
    return {"count": len(witnesses), "notes": list(rep.notes),
            "passed": rep.passed, "sha256": digest}


def golden_text():
    cases = {}
    for name, a in sorted(algebras().items()):
        cases[name + "/malcev"] = summary(check_malcev(a))
        cases[name + "/jacobi"] = summary(check_jacobi(a))
        cases[name + "/cocycle"] = summary(
            check_cocycle(a, seeded_cocycle(a, name)))
    return canonical_json(cases)


def test_scan_witnesses_match_golden_file():
    assert golden_text() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(golden_text())
