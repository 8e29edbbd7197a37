"""Pinned outputs of the `reduce`, `decompose` and `rebuild` commands.

`golden/pipeline_outputs.json` holds, for every catalog entry of the
catalog tests except m7, for example_gde(3; 1,2,2) and for three direct
sums, the exit code and the sha256 of the standard output of `reduce -`
and `decompose -` on the entry's document, and of `rebuild -` on that
`decompose` output.  Regenerate it (only after a change that is meant to
alter these outputs) with

    PYTHONPATH=src python tests/test_pipeline_golden.py
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

from qmalcev import catalog_get, direct_sum_quadratic, emit_document
from qmalcev.cli import run
from qmalcev.document import canonical_json

GOLDEN = Path(__file__).parent / "golden" / "pipeline_outputs.json"

INSTANCES = [
    ("zero", {}),
    ("one_dim_lie", {}),
    ("abelian", {"p": 2, "q": 2}),
    ("abelian", {"p": 0, "q": 4}),
    ("sl2", {}),
    ("osp12", {}),
    ("example_M", {"n": 1, "m": (1,)}),
    ("example_M", {"n": 2, "m": (1, 2)}),
    ("example_M", {"n": 3, "m": (2, 2, 1)}),
    ("example_gde", {"n": 1, "m": (2,)}),
    ("example_gde", {"n": 2, "m": (1, 1)}),
    ("example_gde", {"n": 3, "m": (1, 2, 2)}),
    ("odd_hyperbolic", {}),
    ("even_hyperbolic", {}),
    ("gde_abelian12", {}),
]

SUMS = [
    (("sl2", {}), ("abelian", {"p": 1, "q": 0})),
    (("example_gde", {"n": 1, "m": (2,)}), ("abelian", {"p": 0, "q": 2})),
    (("example_gde", {"n": 1, "m": (2,)}),
     ("example_gde", {"n": 1, "m": (3,)})),
]


def _label(name, params):
    args = ",".join("%s=%s" % (k, ",".join(map(str, v))
                                 if isinstance(v, tuple) else v)
                    for k, v in sorted(params.items()))
    return "%s(%s)" % (name, args)


def documents():
    out = {}
    for name, params in INSTANCES:
        entry = catalog_get(name, **params)
        out[_label(name, params)] = emit_document(entry.algebra,
                                                  gde=entry.extras)
    for (na, pa), (nb, pb) in SUMS:
        q = direct_sum_quadratic(catalog_get(na, **pa).algebra,
                                 catalog_get(nb, **pb).algebra)
        out["%s+%s" % (_label(na, pa), _label(nb, pb))] = emit_document(q)
    return out


def _run(command, text):
    """Exit code and standard output of `qmalcev <command> -` on text."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = run([command, "-"])
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def _entry(code, text):
    return {"exit": code,
            "sha256": hashlib.sha256(text.encode()).hexdigest()}


def golden_text():
    cases = {}
    for label, doc in sorted(documents().items()):
        reduced = _run("reduce", doc)
        tree = _run("decompose", doc)
        rebuilt = _run("rebuild", tree[1])
        cases[label] = {"reduce": _entry(*reduced),
                        "decompose": _entry(*tree),
                        "rebuild": _entry(*rebuilt)}
    return canonical_json(cases)


def test_pipeline_outputs_match_golden_file():
    assert golden_text() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(golden_text())
