"""Pinned outputs of the `extend-odd` and `extend-even` commands, and of
`decompose` and `rebuild` on even double extensions.

`golden/extension_outputs.json` holds the exit code and the sha256 of the
standard output of
- `extend-odd -` on documents with a gde block: catalog entries that ship
  extension data, the `reduce -` output of odd extensions, and data that
  fails the admissibility check;
- `extend-even -` on documents with an operator block, including the
  `reduce -` output of an even extension and an operator that is not
  skew;
- `decompose -` on even double extensions whose trees hold an `even_de`
  node, and `rebuild -` on that `decompose` output.

Regenerate it (only after a change that is meant to alter these outputs)
with

    PYTHONPATH=src python tests/test_extension_golden.py
"""

import json
from pathlib import Path

from qmalcev import (EVEN, OperatorMap, catalog_get, double_extension_even,
                     emit_document, example_m_uncorrected_data)
from qmalcev.document import canonical_json

from test_pipeline_golden import _entry, _run

GOLDEN = Path(__file__).parent / "golden" / "extension_outputs.json"


def _rotation(*freqs):
    """Block-diagonal rotations [[0, -f], [f, 0]], one block per f."""
    n = 2 * len(freqs)
    m = [[0] * n for _ in range(n)]
    for t, f in enumerate(freqs):
        m[2 * t + 1][2 * t] = f
        m[2 * t][2 * t + 1] = -f
    return OperatorMap(m, EVEN)


def _super_operator():
    """On abelian(2,2): a rotation of the evens and diag(1, -1) on the
    symplectic odd pair, skew for the form of abelian(2,2)."""
    m = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]
    return OperatorMap(m, EVEN)


def _sl2_ad_h():
    """ad(h) on sl2 in the basis (h, x, y): a skew inner derivation."""
    return OperatorMap([[0, 0, 0], [0, 2, 0], [0, 0, -2]], EVEN)


def _not_skew():
    return OperatorMap([[1, 0], [0, 1]], EVEN)


EVEN_DATA = {
    "abelian(2,0)+rot(1)": (("abelian", {"p": 2, "q": 0}), _rotation(1)),
    "abelian(4,0)+rot(1,2)": (("abelian", {"p": 4, "q": 0}),
                              _rotation(1, 2)),
    "abelian(2,2)+super": (("abelian", {"p": 2, "q": 2}), _super_operator()),
    "sl2+ad(h)": (("sl2", {}), _sl2_ad_h()),
    "abelian(2,0)+not_skew": (("abelian", {"p": 2, "q": 0}), _not_skew()),
}

GDE_ENTRIES = [
    ("example_M", {"n": 1, "m": (1,)}),
    ("example_M", {"n": 2, "m": (1, 2)}),
    ("example_M", {"n": 3, "m": (2, 2, 1)}),
]

REDUCED_ODD = [
    ("example_gde", {"n": 1, "m": (2,)}),
    ("example_gde", {"n": 2, "m": (1, 1)}),
    ("gde_abelian12", {}),
    ("odd_hyperbolic", {}),
]

DECOMPOSED_EVEN = ["abelian(2,0)+rot(1)", "abelian(4,0)+rot(1,2)",
                   "abelian(2,2)+super"]


def _label(name, params):
    args = ",".join("%s=%s" % (k, ",".join(map(str, v))
                                 if isinstance(v, tuple) else v)
                    for k, v in sorted(params.items()))
    return "%s(%s)" % (name, args)


def _reduced_document(doc):
    code, text = _run("reduce", doc)
    assert code == 0
    return canonical_json(json.loads(text)["document"])


def odd_inputs():
    out = {}
    for name, params in GDE_ENTRIES:
        entry = catalog_get(name, **params)
        out[_label(name, params)] = emit_document(entry.algebra,
                                                  gde=entry.extras)
    q, bad = example_m_uncorrected_data(2, (1, 2))
    out["example_M(n=2,m=1,2)+uncorrected"] = emit_document(q, gde=bad)
    for name, params in REDUCED_ODD:
        doc = emit_document(catalog_get(name, **params).algebra)
        out["reduce:" + _label(name, params)] = _reduced_document(doc)
    return out


def even_inputs():
    out = {}
    for label, ((name, params), op) in EVEN_DATA.items():
        q = catalog_get(name, **params).algebra
        out[label] = emit_document(q, operator=op)
    osc, _ = double_extension_even(catalog_get("abelian", p=2, q=0).algebra,
                                   _rotation(1))
    out["reduce:de(abelian(2,0)+rot(1))"] = _reduced_document(
        emit_document(osc))
    return out


def golden_text():
    cases = {}
    for label, doc in sorted(odd_inputs().items()):
        cases["extend-odd:" + label] = _entry(*_run("extend-odd", doc))
    evens = even_inputs()
    for label, doc in sorted(evens.items()):
        cases["extend-even:" + label] = _entry(*_run("extend-even", doc))
    for label in DECOMPOSED_EVEN:
        code, ext = _run("extend-even", evens[label])
        assert code == 0
        tree = _run("decompose", ext)
        assert '"even_de"' in tree[1]
        cases["decompose:de(%s)" % label] = _entry(*tree)
        cases["rebuild:de(%s)" % label] = _entry(*_run("rebuild", tree[1]))
    return canonical_json(cases)


def test_extension_outputs_match_golden_file():
    assert golden_text() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(golden_text())
