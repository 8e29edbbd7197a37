"""The stored mutants of `tests/mutants/mutants.json` still apply.

`tests/mutants/run.py` replays each mutant on a copy of the tree and
runs the tests that kill it; that takes minutes and is not part of the
suite.  Here each mutant is only checked to hold its four fields, to
replace a text that occurs exactly once in its file with another, and to
name tests that exist, so that an edit of the code under a mutant shows
up as a failure here and the mutant is rewritten against the new code.
"""

import ast
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MUTANTS = json.loads((ROOT / "tests" / "mutants" / "mutants.json").read_text())


def _test_names(path):
    """The names of the test functions defined at the top of the module."""
    return {node.name for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.FunctionDef)
            and node.name.startswith("test_")}


def test_at_least_ten_mutants():
    assert len(MUTANTS) >= 10


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_text_occurs_exactly_once(name):
    mutant = MUTANTS[name]
    assert sorted(mutant) == ["file", "new", "old", "tests"]
    assert mutant["old"] != mutant["new"]
    assert (ROOT / mutant["file"]).read_text().count(mutant["old"]) == 1
    assert mutant["tests"]
    for test_id in mutant["tests"]:
        path, function = test_id.split("::")
        assert function.split("[")[0] in _test_names(ROOT / path), test_id
