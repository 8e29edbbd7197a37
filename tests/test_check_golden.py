"""Pinned outputs of the `check` command.

`golden/check_outputs.json` holds the exit code and the sha256 of the
standard output of `check -` on
- the three stored defective documents (`golden/defect_*.json`);
- m7, osp12 and the 20-dim sum sl2+m7+osp12+abelian(3,2);
- three documents with a broken Gram matrix: one entry of m7's rescaled,
  so that invariance fails on many triples; osp12 with a symmetric odd
  block; and the 20-dim sum with its Gram row 1 deleted;
- `dense_document(12)`, whose reports hold tens of thousands of failures,
  of which the output prints the counts and the first 32 witnesses.

The output lists the first witnesses of every check, `form_invariant`
included, with exact values and in scan order.  Regenerate the file (only
after a change that is meant to alter these outputs) with

    PYTHONPATH=src python tests/test_check_golden.py
"""

import json
import random
from functools import reduce
from pathlib import Path

from qmalcev import catalog_get, direct_sum_quadratic, emit_document
from qmalcev.document import canonical_json

from test_pipeline_golden import _entry, _run

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = GOLDEN_DIR / "check_outputs.json"
DEFECTIVE = ("defect_gde2", "defect_osc2", "defect_sl2_gde1")
SUM_PARTS = (("sl2", {}), ("m7", {}), ("osp12", {}),
             ("abelian", {"p": 3, "q": 2}))


def _document(name, **params):
    return emit_document(catalog_get(name, **params).algebra)


def _sum20():
    return emit_document(reduce(direct_sum_quadratic,
                                (catalog_get(nm, **pa).algebra
                                 for nm, pa in SUM_PARTS)))


def _with_gram(text, edit):
    """The document with its Gram entry list [[r, c, "num/den"], ...]
    replaced by edit(list)."""
    doc = json.loads(text)
    doc["gram"] = edit(doc["gram"])
    return canonical_json(doc)


def _set(r, c, value):
    return lambda rows: [[i, j, value if (i, j) == (r, c) else v]
                         for i, j, v in rows]


def dense_document(n, seed=0):
    """A seeded dense anticommutative even algebra of dimension n with an
    identity Gram: each c(i, j, k) with i < j drawn from {-3, ..., 3}, and
    c(j, i, k) = -c(i, j, k).  `check` fails it (exit 3) on the Malcev and
    Jacobi identities and form invariance at almost every tuple."""
    rng = random.Random(seed)
    constants = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                if c := rng.randint(-3, 3):
                    constants += [[i, j, k, "%d/1" % c],
                                  [j, i, k, "%d/1" % -c]]
    return canonical_json({
        "format_version": 1, "name": "dense%d" % n, "even_dim": n,
        "odd_dim": 0, "constants": sorted(constants),
        "gram": [[i, i, "1/1"] for i in range(n)]})


def documents():
    out = {name: (GOLDEN_DIR / (name + ".json")).read_text()
           for name in DEFECTIVE}
    out["m7"] = _document("m7")
    out["osp12"] = _document("osp12")
    out["sum20"] = _sum20()
    out["m7+gram(0,0)=3/2"] = _with_gram(out["m7"], _set(0, 0, "3/2"))
    out["osp12+symmetric_odd"] = _with_gram(out["osp12"], _set(4, 3, "2/1"))
    out["sum20+zero_gram_row_1"] = _with_gram(
        out["sum20"], lambda rows: [row for row in rows if row[0] != 1])
    out["dense12"] = dense_document(12)
    return out


def golden_text():
    return canonical_json({label: _entry(*_run("check", doc))
                           for label, doc in sorted(documents().items())})


def test_check_outputs_match_golden_file():
    assert golden_text() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(golden_text())
