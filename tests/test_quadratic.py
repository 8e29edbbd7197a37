from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmalcev import (BilinearForm, GradedSubspace, QuadraticAlgebra,
                     SuperAlgebra, SuperSpace, b_irreducible_components,
                     catalog_get, change_basis_quadratic, check_form,
                     direct_sum_quadratic, linalg, orthogonal_complement,
                     orthogonal_split)
from qmalcev import quadratic
from qmalcev.core import _CERT_PRIME, Element, Witness
from qmalcev.errors import AxiomError, PreconditionError


def test_check_form_all_pass_on_catalog(m2, k21, sl2, m7, osp12):
    for q in (m2.algebra, k21, sl2, m7, osp12):
        rep = check_form(q.algebra, q.form)
        assert rep.passed, rep.failures()


def test_zero_gram_fails_nondegeneracy(sl2):
    rep = check_form(sl2.algebra, BilinearForm.zero(3))
    assert not rep.nondegenerate.passed
    assert rep.even.passed and rep.supersymmetric.passed


def test_one_sided_flip_breaks_supersymmetry(m2):
    g = [list(row) for row in m2.algebra.form.gram]
    # B(y_1, v_1) = 1 = -B(v_1, y_1); flip only one side
    assert g[3][1] == 1 and g[1][3] == -1
    g[3][1] = Fraction(-1)
    rep = check_form(m2.algebra.algebra, BilinearForm(g))
    assert not rep.supersymmetric.passed
    assert any(w.index == (1, 3) for w in rep.supersymmetric.witnesses)


def test_cross_parity_entry_breaks_evenness(m2):
    g = [list(row) for row in m2.algebra.form.gram]
    g[0][1] = Fraction(1)
    rep = check_form(m2.algebra.algebra, BilinearForm(g))
    assert not rep.even.passed


def reference_form_axioms(space, gram):
    """The evenness, supersymmetry and nondegeneracy witnesses of a Gram,
    from every pair and an exact kernel over Q."""
    n = space.dim
    par = [space.parity(i) for i in range(n)]
    even = [Witness((i, j), gram[i][j], Fraction(0))
            for i in range(n) for j in range(n)
            if par[i] != par[j] and gram[i][j] != 0]
    sym = []
    for i in range(n):
        for j in range(i, n):
            if par[i] == par[j]:
                expected = gram[j][i] if par[i] == 0 else -gram[j][i]
                if gram[i][j] != expected:
                    sym.append(Witness((i, j), gram[i][j], expected))
    nondeg = [Witness(("kernel",), Element(v), Element.zero(n))
              for v in linalg.kernel([list(r) for r in gram], cols=n)]
    return even, sym, nondeg


entries = st.sampled_from([0, 0, 0, 1, -1, Fraction(1, 2), 2, _CERT_PRIME])


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.data())
def test_check_form_matches_the_dense_reference(p, q, data):
    """Entries of 2^61 - 1 make the scaled Gram lose rank mod p, so the
    exact kernel decides some of these."""
    n = p + q
    gram = [[Fraction(data.draw(entries)) for _ in range(n)]
            for _ in range(n)]
    space = SuperSpace(p, q)
    rep = check_form(SuperAlgebra(space, {}), BilinearForm(gram))
    even, sym, nondeg = reference_form_axioms(space, gram)
    assert list(rep.even.witnesses) == even
    assert list(rep.supersymmetric.witnesses) == sym
    assert list(rep.nondegenerate.witnesses) == nondeg


def test_nondegeneracy_is_decided_mod_p_when_the_rank_is_full(
        monkeypatch, m2, sl2, osp12):
    def refuse(*args, **kwargs):
        raise AssertionError("exact kernel solved")

    monkeypatch.setattr(quadratic.linalg, "kernel", refuse)
    for q in (m2.algebra, sl2, osp12):
        assert check_form(q.algebra, q.form).nondegenerate.passed


def test_rank_deficit_mod_p_is_decided_over_q():
    """diag(2^61 - 1, 1) vanishes mod p in its first row but is
    nondegenerate over Q; diag(2^61 - 1, 0) is degenerate over Q too."""
    alg = SuperAlgebra(SuperSpace(2, 0), {})
    full = check_form(alg, BilinearForm([[_CERT_PRIME, 0], [0, 1]]))
    assert full.passed
    short = check_form(alg, BilinearForm([[_CERT_PRIME, 0], [0, 0]]))
    assert [w.lhs for w in short.nondegenerate.witnesses] == [
        Element([0, 1])]


def test_invariance_mutation_detected(sl2):
    g = [list(row) for row in sl2.form.gram]
    g[0][0] = Fraction(3)  # B(h,h) = 3 with B(x,y) = 1 is not invariant
    rep = check_form(sl2.algebra, BilinearForm(g))
    assert not rep.invariant.passed


def test_orthogonal_complement_extremes(k21):
    space = k21.space
    whole = GradedSubspace.from_vectors(
        space, [[1 if i == j else 0 for i in range(k21.dim)]
                for j in range(k21.dim)])
    assert orthogonal_complement(k21.form, whole).dim == 0
    nothing = GradedSubspace.from_vectors(space, [])
    assert orthogonal_complement(k21.form, nothing).dim == k21.dim


def test_orthogonal_complement_of_new_pair(k21):
    # complement of span{e, e*} is spanned by a, v_i, y_i
    n = k21.dim
    sub = GradedSubspace.from_vectors(
        k21.space, [[0, 1] + [0] * (n - 2), [0] * (n - 1) + [1]])
    comp = orthogonal_complement(k21.form, sub)
    assert comp.dim == n - 2
    assert comp.contains([1] + [0] * (n - 1))


def test_complement_is_involution(k21):
    sub = GradedSubspace.from_vectors(
        k21.space, [[0, 0, 1, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0, 0]])
    cc = orthogonal_complement(k21.form,
                               orthogonal_complement(k21.form, sub))
    assert cc == sub


def test_complement_dimension_counts(sl2):
    sub = GradedSubspace.from_vectors(sl2.space, [[1, 0, 0]])
    comp = orthogonal_complement(sl2.form, sub)
    assert sub.dim + comp.dim == sl2.dim


def test_split_even_hyperbolic_values():
    q = catalog_get("even_hyperbolic").algebra
    i = GradedSubspace.from_vectors(q.space, [[1, 1]])
    qa, qb, cols = orthogonal_split(q, i)
    assert qa.form.gram == ((Fraction(2),),)
    assert qb.form.gram == ((Fraction(-2),),)


def test_split_rejects_trivial_ideals(sl2):
    zero_sub = GradedSubspace.from_vectors(sl2.space, [])
    with pytest.raises(PreconditionError):
        orthogonal_split(sl2, zero_sub)
    whole = GradedSubspace.from_vectors(
        sl2.space, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(PreconditionError):
        orthogonal_split(sl2, whole)


def test_split_rejects_non_ideal(sl2):
    sub = GradedSubspace.from_vectors(sl2.space, [[1, 0, 0]])
    with pytest.raises(PreconditionError):
        orthogonal_split(sl2, sub)


def test_split_rejects_degenerate_restriction(k21):
    # the central odd line span{e*} is isotropic, so it cannot split
    n = k21.dim
    sub = GradedSubspace.from_vectors(k21.space,
                                      [[0] * (n - 1) + [1]])
    with pytest.raises(PreconditionError, match="degenerate"):
        orthogonal_split(k21, sub)


def test_split_round_trip_on_direct_sum(sl2, m7):
    ds = direct_sum_quadratic(sl2, m7)
    block = GradedSubspace.from_vectors(
        ds.space, [[1 if i == j else 0 for i in range(10)] for j in range(3)])
    qa, qb, cols = orthogonal_split(ds, block)
    assert qa.algebra.constants == sl2.algebra.constants
    assert qb.algebra.constants == m7.algebra.constants
    rebuilt = direct_sum_quadratic(qa, qb)
    adapted = change_basis_quadratic(ds, cols)
    assert rebuilt.algebra.constants == adapted.algebra.constants
    assert rebuilt.form == adapted.form


def test_components_single_for_extension(k21):
    rep = b_irreducible_components(k21)
    assert len(rep) == 1
    assert rep.exhaustive  # the trace form on Gamma_s has rank 1


def test_components_odd_hyperbolic_provable():
    rep = b_irreducible_components(catalog_get("odd_hyperbolic").algebra)
    assert len(rep) == 1
    assert rep.exhaustive


def test_components_split_direct_sum(sl2, k21):
    ds = direct_sum_quadratic(sl2, k21)
    rep = b_irreducible_components(ds)
    assert len(rep) == 2
    assert sorted(c.dim for c in rep.components) == [3, 7]


def test_each_graded_layout_is_laid_once(monkeypatch, sl2, k21):
    """A sum of two forms, and the split of it, each lay out the graded
    sum once: the form's layout is the algebra's, and the components' bases
    are placed by the split's own maps."""
    from qmalcev import core

    real, spaces = core.direct_sum_embeddings, []

    def counted(*args):
        spaces.append(args)
        return real(*args)

    monkeypatch.setattr(core, "direct_sum_embeddings", counted)
    monkeypatch.setattr(quadratic, "direct_sum_embeddings", counted)
    ds = direct_sum_quadratic(sl2, k21)
    assert spaces == [(sl2.space, k21.space)]
    rep = b_irreducible_components(ds)
    assert len(spaces) == 2 and len(rep) == 2


def test_components_abelian_odd_four():
    q = catalog_get("abelian", p=0, q=4).algebra
    rep = b_irreducible_components(q)
    assert len(rep) == 2
    assert all(c.space.odd_dim == 2 for c in rep.components)


def test_odd_vectors_are_isotropic(k21, osp12):
    # antisymmetry of the odd block: B(x, x) = 0 for odd homogeneous x
    for q in (k21, osp12):
        p = q.space.even_dim
        for i in range(p, q.dim):
            assert q.form.gram[i][i] == 0


def test_validated_flag_gates_operations(sl2):
    raw = QuadraticAlgebra(sl2.algebra, sl2.form, validated=False)
    with pytest.raises(PreconditionError):
        b_irreducible_components(raw)


def test_validate_rejects_bad_form(sl2):
    with pytest.raises(AxiomError):
        QuadraticAlgebra.validate(sl2.algebra, BilinearForm.zero(3))
