"""Reductivity and complete reducibility by one trace-form radical.

reductive_report and check_completely_reducible_action both read
linalg.radical_image: J V for J the radical of a matrix algebra, the
kernel of its trace form.  The routines they replaced are kept below as
references: the dense solve for an invariant complement, the dense
obstruction triple, and the reductive test that split the square along its
Killing form and certified each component simple.  Over a corpus of direct
sums of small catalog pieces the verdicts agree, and every J V witness is
nonzero, proper, odd and invariant, and the reference solve finds no
invariant complement for it.  The outputs that changed are pinned at the
end.  The old flat generators of `references` are the reference that
the column-map generators' radical images are compared against.
"""

from fractions import Fraction
import itertools

import pytest
from hypothesis import given, settings

from qmalcev import (EVEN, OperatorMap, SuperAlgebra, SuperSpace,
                     catalog_get, change_basis_quadratic,
                     check_completely_reducible_action, check_reductive_even,
                     direct_sum_quadratic, double_extension_even,
                     even_part, inductive_decompose, reductive_report)
from qmalcev import linalg
from qmalcev import core
from qmalcev.core import GradedSubspace, center, change_basis, simplicity
from qmalcev.linalg import ONE, ZERO
from qmalcev.quadratic import (BilinearForm, QuadraticAlgebra,
                               b_irreducible_components)

from references import (_enveloping_basis, _multiplication_generators,
                        _odd_action_matrices)
from test_scan_kernel import graded_algebras


# ---------------------------------------------------------------------------
# the dense routines, as references

def _trace_form(mats, n):
    """The symmetric matrix of tr(m_i m_j) for sparse n x n matrices
    {n*row + column: value}: the sum of m_i[r][c] m_j[c][r]."""
    k = len(mats)
    out = [[ZERO] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            mj = mats[j]
            out[i][j] = out[j][i] = sum(
                (x * mj.get(pos % n * n + pos // n, ZERO)
                 for pos, x in mats[i].items()), ZERO)
    return out


def _act(m, v, n):
    """The sparse n x n matrix m applied to the vector v."""
    out = [ZERO] * n
    for pos, x in m.items():
        k, col = divmod(pos, n)
        out[k] += x * v[col]
    return out


def _odd_block(a, col):
    return list(col)[a.space.even_dim:]


def reference_lacks_invariant_complement(a, mats, y: GradedSubspace) -> bool:
    """Exact solve for an invariant complement of the invariant odd space y;
    True when the linear system has no solution, False when y is not
    invariant or has a complement."""
    qd = a.space.odd_dim
    ycols = [_odd_block(a, linalg.dense(r, a.dim)) for r in y.rows]
    yspan = linalg.Span(qd)
    for c in ycols:
        yspan.add(c)
    for m in mats:
        for c in ycols:
            if not yspan.contains(_act(m, c, qd)):
                return False  # y itself is not invariant: not a witness
    pivots = yspan.pivot_columns()
    free = [i for i in range(qd) if i not in pivots]
    if not free:
        return False
    ky, kc = len(pivots), len(free)
    ybasis = yspan.vectors()

    def project(vec):
        """Split vec into (coords on complement positions, y-coordinates)."""
        rest = yspan.reduce(vec)
        return [rest.get(f, ZERO) for f in free], [vec[pv] for pv in pivots]

    # unknown phi: kc columns -> y coordinates (ky x kc); invariance of the
    # graph {c + phi(c)} gives, per action matrix and free position:
    #   p_Y(m e_f) + m(phi(e_f)) = phi(p_C(m e_f))
    rows, rhs = [], []
    nvar = ky * kc
    for m in mats:
        my = [project(_act(m, ybasis[s], qd))[1] for s in range(ky)]
        for fi, f in enumerate(free):
            ccoords, ycoords = project(_act(m, linalg.basis_vector(qd, f),
                                            qd))
            for r in range(ky):
                row = [ZERO] * nvar
                for s in range(ky):
                    row[s * kc + fi] += my[s][r]
                for j in range(kc):
                    row[r * kc + j] -= ccoords[j]
                rows.append(row)
                rhs.append(-ycoords[r])
    return (linalg.solve(rows, rhs) if rows else []) is None


def reference_obstruction_triple(a, mats, y: GradedSubspace):
    qd = a.space.odd_dim
    ycols = [_odd_block(a, linalg.dense(r, a.dim)) for r in y.rows]
    yspan = linalg.Span(qd)
    for c in ycols:
        yspan.add(c)
    images = [_act(m, linalg.basis_vector(qd, j), qd)
              for m in mats for j in range(qd)]
    return (all(yspan.contains(img) for img in images),
            all(linalg.is_zero_vec(_act(m, c, qd))
                for m in mats for c in ycols),
            not all(linalg.is_zero_vec(img) for img in images))


def reference_image(mats, n):
    """J V for the flat n x n matrices mats: the columns of each element of
    a dense kernel basis of the enveloping trace form."""
    basis = _enveloping_basis(mats, n)
    columns = []
    for x in linalg.kernel(_trace_form(basis, n)):
        dense = [[ZERO] * n for _ in range(n)]
        for c, b in zip(x, basis):
            for pos, y in b.items():
                row, col = divmod(pos, n)
                dense[row][col] += c * y
        columns += [[row[col] for row in dense] for col in range(n)]
    return columns


def reference_radical_image(a, mats) -> GradedSubspace:
    """J V of the odd action matrices, in the algebra's coordinates."""
    p = a.space.even_dim
    return GradedSubspace.from_vectors(
        a.space, [[ZERO] * p + col
                  for col in reference_image(mats, a.space.odd_dim)])


def reference_completely_reducible(a) -> bool:
    """A non-degenerate trace form on the enveloping algebra of the action."""
    mats = _odd_action_matrices(a)
    qd = a.space.odd_dim
    return (not any(mats)) or BilinearForm(
        _trace_form(_enveloping_basis(mats, qd), qd)).is_nondegenerate()


def reference_reductive(even: SuperAlgebra):
    """True, False, or None when a component's simplicity is undecided:
    center + square, then the square split along its Killing form and each
    component certified simple."""
    n = even.dim
    z = center(even)
    square = GradedSubspace.from_vectors(
        even.space, list(even.pair_table().values()))
    if square.dim == 0:
        return True
    if (z.dim + square.dim != n
            or GradedSubspace.from_vectors(
                even.space, z.rows + square.rows).dim != n):
        return False
    sq = change_basis(even, square.rows)
    tf = BilinearForm(_trace_form(_multiplication_generators(sq)[sq.dim:],
                                  sq.dim))
    if not tf.is_nondegenerate():
        return False
    comps = b_irreducible_components(QuadraticAlgebra.validate(sq, tf))
    verdicts = [simplicity(c.algebra).simple for c in comps.components]
    if False in verdicts:
        return False
    return None if None in verdicts else True


# ---------------------------------------------------------------------------
# the corpus

def oscillator():
    ab2 = catalog_get("abelian", p=2, q=0).algebra
    rot = OperatorMap.from_images(2, {0: [0, 1], 1: [-1, 0]}, EVEN)
    return double_extension_even(ab2, rot)[0]


PIECES = {
    "sl2": lambda: catalog_get("sl2").algebra,
    "osp12": lambda: catalog_get("osp12").algebra,
    "m7": lambda: catalog_get("m7").algebra,
    "gde1": lambda: catalog_get("example_gde", n=1, m=(2,)).algebra,
    "gde2": lambda: catalog_get("example_gde", n=2, m=(1, 2)).algebra,
    "M1": lambda: catalog_get("example_M", n=1, m=(2,)).algebra,
    "gde_abelian12": lambda: catalog_get("gde_abelian12").algebra,
    "ab02": lambda: catalog_get("abelian", p=0, q=2).algebra,
    "ab12": lambda: catalog_get("abelian", p=1, q=2).algebra,
    "even_hyperbolic": lambda: catalog_get("even_hyperbolic").algebra,
    "oscillator": oscillator,
}


def corpus():
    """Every multiset of 1-3 pieces, m7 only in sums of at most two."""
    built = {name: make() for name, make in PIECES.items()}
    for size in (1, 2, 3):
        for names in itertools.combinations_with_replacement(built, size):
            if size == 3 and "m7" in names:
                continue
            q = built[names[0]]
            for name in names[1:]:
                q = direct_sum_quadratic(q, built[name])
            yield "+".join(names), q


CORPUS = list(corpus())


def test_corpus_size():
    assert len(CORPUS) == 297


def test_reductive_verdicts_match_the_reference():
    verdicts = []
    for name, q in CORPUS:
        got = check_reductive_even(q).reductive
        assert got == reference_reductive(even_part(q.algebra)), name
        verdicts.append(got)
    assert (verdicts.count(True), verdicts.count(False)) == (230, 67)


def test_witnesses_lack_an_invariant_complement():
    reducible = irreducible = 0
    for name, q in CORPUS:
        a = q.algebra
        rep = check_completely_reducible_action(q)
        assert rep.completely_reducible == reference_completely_reducible(a), \
            name
        if rep.completely_reducible:
            assert rep.witness_subspace is None
            reducible += 1
            continue
        irreducible += 1
        y = rep.witness_subspace
        assert 0 < y.dim < a.space.odd_dim, name
        assert len(y.odd_rows()) == y.dim, name
        mats = _odd_action_matrices(a)
        assert y == reference_radical_image(a, mats), name
        assert reference_lacks_invariant_complement(a, mats, y), name
        assert rep.obstruction_triple == reference_obstruction_triple(
            a, mats, y), name
    assert (reducible, irreducible) == (91, 206)


def test_reference_finds_a_complement_when_there_is_one():
    # in osp12 + abelian(0,2), osp12's odd pair b_3, b_4 is invariant with
    # the invariant complement span{b_5, b_6}; span{b_3, b_5} is not
    # invariant
    q = direct_sum_quadratic(catalog_get("osp12").algebra,
                             catalog_get("abelian", p=0, q=2).algebra)
    a = q.algebra
    mats = _odd_action_matrices(a)
    assert not reference_lacks_invariant_complement(a, mats,
                                                    odd_span(q, 3, 4))
    assert not reference_lacks_invariant_complement(a, mats,
                                                    odd_span(q, 3, 5))


# ---------------------------------------------------------------------------
# the outputs that changed

def sl2_over_q_sqrt2():
    """sl2 over Q(sqrt 2) as a 6-dim Q-algebra, basis x and sqrt2 x for x
    in h, e, f."""
    c = {}
    for (i, j, k), v in catalog_get("sl2").algebra.algebra.constants.items():
        c[(i, j, k)] = v
        c[(i, j + 3, k + 3)] = v
        c[(i + 3, j, k + 3)] = v
        c[(i + 3, j + 3, k)] = 2 * v
    return SuperAlgebra(SuperSpace(6, 0), c, name="sl2_q_sqrt2")


def mixed_sl2_sum():
    """sl2 + sl2 in the columns e_i + e_{3+i}/3 and e_i/2 + e_{3+i}."""
    sl2 = catalog_get("sl2").algebra
    cols = []
    for first, second in ((ONE, Fraction(1, 3)), (Fraction(1, 2), ONE)):
        for i in range(3):
            v = [ZERO] * 6
            v[i], v[3 + i] = first, second
            cols.append(v)
    return change_basis_quadratic(direct_sum_quadratic(sl2, sl2), cols)


def test_sl2_over_q_sqrt2_is_reductive():
    g = sl2_over_q_sqrt2()
    assert reference_reductive(g) is None
    rep = reductive_report(g)
    assert rep.reductive is True
    assert (rep.center_dim, rep.square_dim, rep.decomposes) == (0, 6, True)


def test_mixed_sl2_sum_is_reductive():
    q = mixed_sl2_sum()
    assert reference_reductive(even_part(q.algebra)) is None
    assert check_reductive_even(q).reductive is True
    assert inductive_decompose(q).advisory_reductive.reductive is True


def test_perfect_algebra_with_a_radical_is_not_reductive():
    # sl2 + F^2, sl2 acting on its standard module: its own square, with
    # zero center, and the abelian ideal F^2 is its radical
    brackets = {(0, 1, 1): 2, (0, 2, 2): -2, (1, 2, 0): 1,   # h, e, f
                (0, 3, 3): 1, (0, 4, 4): -1, (1, 4, 3): 1,  # on x, y
                (2, 3, 4): 1}
    consts = {}
    for (i, j, k), c in brackets.items():
        consts[(i, j, k)], consts[(j, i, k)] = c, -c
    g = SuperAlgebra(SuperSpace(5, 0), consts)
    assert reference_reductive(g) is False
    rep = reductive_report(g)
    assert rep.reductive is False
    assert (rep.center_dim, rep.square_dim, rep.decomposes) == (0, 5, True)
    assert rep.certificate == "multiplication algebra has a nonzero radical"


def odd_span(q, *indices):
    return GradedSubspace.from_vectors(
        q.space, [linalg.basis_vector(q.dim, i) for i in indices])


@pytest.mark.parametrize("left,right,span,triple", [
    (("example_M", {"n": 1, "m": (2,)}), ("abelian", {"p": 0, "q": 2}),
     (2,), (True, True, True)),
    (("osp12", {}), ("example_gde", {"n": 1, "m": (2,)}),
     (8, 9), (False, True, True)),
])
def test_witness_is_the_radical_image(left, right, span, triple):
    q = direct_sum_quadratic(catalog_get(left[0], **left[1]).algebra,
                             catalog_get(right[0], **right[1]).algebra)
    rep = check_completely_reducible_action(q)
    assert rep.completely_reducible is False
    assert rep.witness_subspace == odd_span(q, *span)
    assert rep.obstruction_triple == triple


@pytest.mark.parametrize("images,span,triple", [
    # the regular nilpotent D: b_1 -> b_3 -> -b_2 -> b_0 -> 0.  J V = im D
    # = span{b_0, b_2, b_3}, and D does not kill b_2 or b_3
    ({1: [0, 0, 0, 1], 2: [-1, 0, 0, 0], 3: [0, 0, -1, 0]}, (2, 4, 5),
     (True, False, True)),
    # D = S + N with eigenvalues 1 on b_0, b_2 and -1 on b_1, b_3: J is
    # generated by D^2 - 1, and J V = im N = span{b_0, b_3}
    ({0: [1, 0, 0, 0], 1: [0, -1, 0, -1], 2: [1, 0, 1, 0], 3: [0, 0, 0, -1]},
     (2, 5), (False, False, True)),
])
def test_witness_of_an_even_extension_of_abelian_0_4(images, span, triple):
    # positions 2..5 of the extension hold abelian(0,4)'s b_0..b_3
    d = OperatorMap.from_images(4, images, EVEN)
    q, _ = double_extension_even(catalog_get("abelian", p=0, q=4).algebra, d)
    a = q.algebra
    mats = _odd_action_matrices(a)
    rep = check_completely_reducible_action(q)
    assert rep.completely_reducible is False
    assert rep.witness_subspace == odd_span(q, *span)
    assert rep.witness_subspace == reference_radical_image(a, mats)
    assert reference_lacks_invariant_complement(a, mats, rep.witness_subspace)
    assert rep.obstruction_triple == triple == reference_obstruction_triple(
        a, mats, rep.witness_subspace)


@settings(max_examples=80, deadline=None)
@given(graded_algebras())
def test_radical_images_match_the_flat_generators(a):
    """J V of M(A), on the column-map L_i and R_j, and the witness J V of
    the odd action equal the J V of the old flat generators."""
    n = a.dim
    got = linalg.radical_image(core._multiplication_generators(a), n)
    want = linalg.row_span(
        reference_image(_multiplication_generators(a), n), n)
    assert got.rows() == want.rows()
    q = QuadraticAlgebra(a, BilinearForm.zero(n), validated=True)
    rep = check_completely_reducible_action(q)
    if a.space.odd_dim and any(_odd_action_matrices(a)):
        want = reference_radical_image(a, _odd_action_matrices(a))
        assert rep.completely_reducible == (not want.dim)
        assert rep.witness_subspace == (want if want.dim else None)
    else:
        assert rep.completely_reducible and rep.witness_subspace is None
