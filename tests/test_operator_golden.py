"""Pinned outputs of the `operator-check` command.

`golden/operator_outputs.json` holds the exit code and the sha256 of the
standard output of `operator-check -` on documents with an operator block:
- passing operators: ad(h) on sl2 (even) and the odd d of
  example_M(2; 1, 2);
- failing operators: the uncorrected odd example_M(2; 1, 2) datum, which
  is not skew-supersymmetric; a dense random even operator on m7, whose
  report lists the first 32 witnesses of many; and a dense random odd
  operator on osp12 with fractional entries.

The output lists the witnesses of the operator identity and of
skew-supersymmetry with exact values and in scan order.  Regenerate the
file (only after a change that is meant to alter these outputs) with

    PYTHONPATH=src python tests/test_operator_golden.py
"""

import random
from fractions import Fraction
from pathlib import Path

from qmalcev import (EVEN, ODD, OperatorMap, catalog_get, emit_document,
                     example_m_uncorrected_data)
from qmalcev.document import canonical_json

from test_pipeline_golden import _entry, _run

GOLDEN = Path(__file__).parent / "golden" / "operator_outputs.json"


def _dense(space, parity, seed):
    """Every entry the parity allows, drawn from -3..3 over 1..2."""
    rng = random.Random(seed)
    n = space.dim
    m = [[Fraction(0)] * n for _ in range(n)]
    for c in range(n):
        for r in range(n):
            if (space.parity(c) + parity) % 2 == space.parity(r):
                m[r][c] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    return OperatorMap(m, parity)


def documents():
    sl2 = catalog_get("sl2").algebra
    adh = OperatorMap.from_images(3, {1: [0, 2, 0], 2: [0, 0, -2]}, EVEN)
    entry = catalog_get("example_M", n=2, m=(1, 2))
    base, bad = example_m_uncorrected_data(2, (1, 2))
    m7 = catalog_get("m7").algebra
    osp12 = catalog_get("osp12").algebra
    return {
        "sl2+ad(h)": emit_document(sl2, operator=adh),
        "example_M(2;1,2)+d": emit_document(entry.algebra,
                                            operator=entry.extras.d),
        "example_M(2;1,2)+uncorrected_d": emit_document(base,
                                                        operator=bad.d),
        "m7+dense_even": emit_document(m7,
                                       operator=_dense(m7.space, EVEN, 3)),
        "osp12+dense_odd": emit_document(osp12,
                                         operator=_dense(osp12.space, ODD,
                                                         5)),
    }


def golden_text():
    return canonical_json({label: _entry(*_run("operator-check", doc))
                           for label, doc in sorted(documents().items())})


def test_operator_outputs_match_golden_file():
    assert golden_text() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(golden_text())
