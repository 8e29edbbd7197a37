"""Reports build their witnesses on read.

A failing report keeps its count and its failing keys, and builds a
`Witness` only when a caller reads one (`qmalcev.reports.Witnesses`).
The eager builders it replaced are kept in `references.py`, and the lazy
Malcev and Jacobi reports are compared with them here.  The CLI builds
only what it prints: the first 32 witnesses of each `check` report, none
under QMALCEV_REPORT=summary, and 8 on the error path.
"""

import contextlib
import io
import random
import sys
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from qmalcev import SuperAlgebra, Witness, check_jacobi, check_malcev
from qmalcev.cli import run
from qmalcev.core import _malcev_sums, _scan_kernel
from qmalcev.document import canonical_json, parse_document

from references import jacobi_witnesses, malcev_witnesses
from test_check_golden import dense_document
from test_pipeline_golden import _run
from test_scan_golden import _mutated_m7
from test_scan_kernel import graded_algebras


@contextlib.contextmanager
def counted_witnesses():
    """A one-item list that counts the Witness objects built inside."""
    count, init = [0], Witness.__init__

    def counting(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    Witness.__init__ = counting
    try:
        yield count
    finally:
        Witness.__init__ = init


@st.composite
def one_dropped(draw):
    """A graded algebra without one of its constants: anticommutative or
    not, so both Malcev passes are met."""
    a = draw(graded_algebras())
    if a.constants:
        constants = dict(a.constants)
        del constants[draw(st.sampled_from(sorted(constants)))]
        a = SuperAlgebra(a.space, constants)
    return a


def assert_reads_as(lazy, eager):
    """Every read of the lazy witnesses gives what the eager tuple gives."""
    eager = tuple(eager)
    assert len(lazy) == len(eager)
    assert bool(lazy) == bool(eager)
    for k in (0, 1, 8, 32, len(eager)):
        assert lazy[:k] == eager[:k]
    assert lazy[1::3] == eager[1::3]
    for i in {0, len(eager) // 2, len(eager) - 1} if eager else ():
        assert lazy[i] == eager[i]
        assert lazy[-1 - i] == eager[-1 - i]
    assert list(lazy) == list(eager)
    assert lazy == eager and eager == lazy
    assert lazy == lazy[:]


@settings(max_examples=150, deadline=None)
@given(st.one_of(graded_algebras(), one_dropped()))
def test_lazy_reports_read_as_the_eager_lists(a):
    """The Malcev report against the eager list of the full pass (on a Lie
    superalgebra it is empty, as the Jacobi shortcut says), and the Jacobi
    report against the eager loop."""
    kern = _scan_kernel(a)
    assert_reads_as(check_malcev(a).witnesses,
                    malcev_witnesses(kern, a.dim, _malcev_sums(kern)))
    assert_reads_as(check_jacobi(a).witnesses, jacobi_witnesses(a))


def test_a_read_builds_only_what_it_returns():
    a = _mutated_m7()
    malcev, jacobi = check_malcev(a).witnesses, check_jacobi(a).witnesses
    assert len(malcev) > 32 and len(jacobi) > 32
    for wits in (malcev, jacobi):
        with counted_witnesses() as built:
            assert len(wits) and wits
        assert built[0] == 0
        with counted_witnesses() as built:
            wits[:32], wits[5], wits[-1]
        assert built[0] == 34
        with counted_witnesses() as built:
            list(wits)
        assert built[0] == len(wits)


def test_summary_check_builds_no_witness(monkeypatch):
    monkeypatch.setenv("QMALCEV_REPORT", "summary")
    with counted_witnesses() as built:
        code, out = _run("check", dense_document(6))
    assert code == 3
    assert '"failures":' in out and '"witnesses"' not in out
    assert built[0] == 0


def antisymmetric_document(n, seed=0):
    """A seeded even algebra of dimension n whose constants c(i, j, k) are
    totally antisymmetric, each c(i, j, k) with i < j < k drawn from {-3,
    ..., 3}: with the identity Gram the form is invariant, but the algebra
    is not Malcev."""
    rng = random.Random(seed)
    constants = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if c := rng.randint(-3, 3):
                    for key, s in (((i, j, k), 1), ((j, k, i), 1),
                                   ((k, i, j), 1), ((j, i, k), -1),
                                   ((i, k, j), -1), ((k, j, i), -1)):
                        constants.append([*key, "%d/1" % (s * c)])
    return canonical_json({
        "format_version": 1, "name": "antisymmetric%d" % n, "even_dim": n,
        "odd_dim": 0, "constants": sorted(constants),
        "gram": [[i, i, "1/1"] for i in range(n)]})


def test_error_path_prints_eight_witnesses(monkeypatch):
    monkeypatch.delenv("QMALCEV_REPORT", raising=False)
    monkeypatch.setattr(sys, "stdin", io.StringIO(antisymmetric_document(5)))
    err = io.StringIO()
    with counted_witnesses() as built, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = run(["decompose", "-"])
    assert code == 3
    assert err.getvalue() == (
        "validation error (axiom): Malcev identity failed with 540 "
        "witnesses\n" + "".join(
            "  witness (0, 0, %d, %d)\n" % (k, l)
            for k in (1, 2) for l in (1, 2, 3, 4)))
    assert built[0] <= 8


def test_dense_check_memory_follows_what_it_prints(monkeypatch):
    """`check -` on the dense dim-12 document holds 20,196 Malcev failures
    but builds 32 witnesses a report: its traced peak stays below 8 MiB
    (about 4.8 MiB; 31 MiB when every witness was built)."""
    monkeypatch.delenv("QMALCEV_REPORT", raising=False)
    text = dense_document(12)
    tracemalloc.start()
    try:
        code, out = _run("check", text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    for name, count in (("malcev", 20196), ("jacobi", 1320),
                        ("form_invariant", 1485)):
        assert '"%s":{"failures":%d,' % (name, count) in out
    assert peak < 8 * 2 ** 20


def test_dense_malcev_report_keeps_only_the_led_sums():
    """`check_malcev` on the dense dim-20 document fails at 158,460
    quadruples.  Its report keeps the sums at the quadruples led by their
    least index and the sorted failing keys, and reads a key's value off
    its led rotation when a witness is built, so its traced peak stays
    below 24 MiB (about 19.2 MB; 32.7 MB when it kept the packed
    difference at every failing key)."""
    a = parse_document(dense_document(20))[0].algebra
    check_jacobi(a)  # the kernel and the Jacobi report, which it reads
    tracemalloc.start()
    try:
        rep = check_malcev(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rep.witnesses) == 158460
    assert peak < 24 * 2 ** 20
