"""Splits and reductions return their pieces validated by theorem.

orthogonal_split and the reductions rewrite their input once and cut each
piece from the rewrite (quadratic._cut), marking it validated without a
scan.  The tests below scan every piece they return, compare each with
what the code computed before, when it restricted to each subspace and
validated the result, and count the scans of a whole decomposition.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmalcev import (BilinearForm, OddReduction, QuadraticAlgebra,
                     SuperAlgebra, SuperSpace, center, change_basis_quadratic,
                     emit_tree, inductive_decompose, orthogonal_complement,
                     orthogonal_split, rebuild, reduce_even, reduce_odd)
from qmalcev.core import EVEN, _mul_vv
from qmalcev.document import parse_tree
from qmalcev.errors import PreconditionError
from qmalcev.linalg import ZERO, sparse
from qmalcev.quadratic import _split

from test_rebuild_certificate import (PIECES, _count_validate, _sum,
                                      _unitriangular, piece)


# ---------------------------------------------------------------------------
# the restrict-then-validate bodies that the cut replaced, as a reference

def _restrict(q, sub, name):
    r = change_basis_quadratic(q, sub.columns, name=name)
    return QuadraticAlgebra.validate(r.algebra, r.form)


def reference_split(q, ideal):
    comp = orthogonal_complement(q.form, ideal)
    qa = _restrict(q, ideal, "%s[0]" % q.name)
    qb = _restrict(q, comp, "%s[1]" % q.name)
    witness_cols = (ideal.even_columns() + comp.even_columns()
                    + ideal.odd_columns() + comp.odd_columns())
    comp_vecs = [sparse(v) for v in comp.columns]
    for u in ideal.columns:
        u = sparse(u)
        for v in comp_vecs:
            if _mul_vv(q.algebra, u, v):
                raise PreconditionError("cross products do not vanish; "
                                        "split is invalid")
    return qa, qb, witness_cols


def reference_peel(q, red):
    """The reduced algebra, D, psi, a0 and phi, sliced from q rewritten in
    the reduction's adapted basis, the reduced algebra validated."""
    rq = change_basis_quadratic(q, [list(c) for c in red.basis])
    e_idx, estar_idx = red.witness.e_index, red.witness.estar_index
    pairs = rq.algebra.pair_table()
    n_positions = [i for i in range(q.dim) if i not in (e_idx, estar_idx)]
    where = {pos: a for a, pos in enumerate(n_positions)}
    ndim = len(n_positions)

    def split(i, j):
        coords = pairs.get((i, j), {})
        if e_idx in coords:
            raise PreconditionError("products leak onto e; input is not "
                                    "invariantly paired")
        return ({where[m]: c for m, c in coords.items() if m != estar_idx},
                coords.get(estar_idx, ZERO))

    constants = {}
    phi = [[ZERO] * ndim for _ in range(ndim)]
    for a_i, pos_i in enumerate(n_positions):
        for a_j, pos_j in enumerate(n_positions):
            part, phi[a_i][a_j] = split(pos_i, pos_j)
            for a_k, c in part.items():
                constants[(a_i, a_j, a_k)] = c
    dmat = [[ZERO] * ndim for _ in range(ndim)]
    psi = [ZERO] * ndim
    for a_j, pos_j in enumerate(n_positions):
        part, psi[a_j] = split(e_idx, pos_j)
        for a_k, c in part.items():
            dmat[a_k][a_j] = c
    a0, _ee_estar = split(e_idx, e_idx)
    ngram = [[rq.form.gram[i][j] for j in n_positions] for i in n_positions]
    evens = sum(rq.space.parity(i) == EVEN for i in n_positions)
    nalg = SuperAlgebra(SuperSpace(evens, ndim - evens), constants,
                        name="reduced(%s)" % q.name)
    nq = QuadraticAlgebra.validate(nalg, BilinearForm(ngram))
    return nq, dmat, psi, [a0.get(m, ZERO) for m in range(ndim)], phi


# ---------------------------------------------------------------------------

def _scanned(q):
    """q is marked validated and passes the full scan."""
    assert q.validated
    QuadraticAlgebra.validate(q.algebra, q.form)
    return q


def _same(got, want):
    assert got == want and got.name == want.name


def check_splits(q):
    """Split q as b_irreducible_components does, comparing each split with
    the reference; the components."""
    ideal, _proved = _split(q)
    if ideal is None:
        return [q]
    qa, qb, cols = orthogonal_split(q, ideal)
    want = reference_split(q, ideal)
    _same(_scanned(qa), want[0])
    _same(_scanned(qb), want[1])
    assert cols == [sparse(c) for c in want[2]]
    return check_splits(qa) + check_splits(qb)


def check_reduction(q, red):
    """red's reduced algebra, operator and a0 are the reference's."""
    nq, dmat, psi, a0, phi = reference_peel(q, red)
    _same(_scanned(red.n), nq)
    odd = isinstance(red, OddReduction)
    d = red.gde.d if odd else red.operator
    assert [list(row) for row in d.matrix] == dmat
    # phi_check compares the cut's phi with B(D(X_i), X_j)
    assert red.phi_check.passed and all(
        phi[i][j] == sum((dmat[k][i] * nq.form.gram[k][j]
                          for k in range(nq.dim)), ZERO)
        for i in range(nq.dim) for j in range(nq.dim))
    if odd:
        assert list(red.gde.a0.coords) == a0 and red.psi_check.passed
    else:
        assert not any(a0) and not any(psi)


def check_reductions(q):
    z = center(q.algebra)
    if q.dim <= 1:
        return  # nothing to reduce
    if z.odd_columns():
        check_reduction(q, reduce_odd(q))
    if z.even_columns():
        try:
            red = reduce_even(q)
        except PreconditionError as exc:
            # the even reduction takes only B-irreducible inputs
            assert "split first" in str(exc)
        else:
            check_reduction(q, red)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(sorted(PIECES)), min_size=1, max_size=3),
       st.one_of(st.none(), st.integers(0, 10 ** 6)))
def test_cut_pieces_equal_the_validated_restrictions(names, seed):
    total = _sum(*map(piece, names))
    q = change_basis_quadratic(total, _unitriangular(total, seed), name="q")
    assert q.validated
    check_reductions(q)
    for comp in check_splits(q):
        check_reductions(comp)


@pytest.mark.parametrize("names,seed", [
    (("example_gde2",), None),
    (("sl2", "line"), None),
    (("oscillator",), None),
    (("sl2", "osp12", "abelian02"), 5),
    (("example_gde1", "gde_abelian12", "oscillator"), 11),
], ids=["example_gde(2;1,1)", "sl2+line", "oscillator", "mixed_sum",
        "mixed_chains"])
def test_decompose_scans_nothing(monkeypatch, names, seed):
    """inductive_decompose of a validated algebra makes no validate call;
    every node's algebra still passes the scan, and the tree rebuilds."""
    total = _sum(*map(piece, names))
    q = change_basis_quadratic(total, _unitriangular(total, seed), name="q")
    calls = _count_validate(monkeypatch)
    tree = inductive_decompose(q)
    assert calls == []
    monkeypatch.undo()
    stack = [tree.root]
    while stack:
        node = stack.pop()
        _scanned(node.algebra)
        stack.extend(getattr(node, "children", ()) or
                     ([node.child] if hasattr(node, "child") else []))
    assert rebuild(parse_tree(emit_tree(tree))) == q
