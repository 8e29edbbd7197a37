from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmalcev import (Element, GradedSubspace, SuperAlgebra, SuperSpace,
                     catalog_get, center, check_jacobi, check_malcev,
                     check_super_anticommutativity, direct_sum,
                     direct_sum_embeddings, ideal_closure, is_simple,
                     product, simplicity)
from qmalcev import core
from qmalcev.quadratic import QuadraticAlgebra, _split
from qmalcev.errors import GradingError, InputError

rationals = st.builds(Fraction,
                      st.integers(min_value=-4, max_value=4),
                      st.integers(min_value=1, max_value=3))


def vec(n):
    return st.lists(rationals, min_size=n, max_size=n).map(Element)


def test_space_parity():
    s = SuperSpace(2, 3)
    assert [s.parity(i) for i in range(5)] == [0, 0, 1, 1, 1]
    with pytest.raises(InputError):
        s.parity(5)


def test_grading_enforced_at_construction():
    # even*even -> odd is not allowed
    with pytest.raises(GradingError):
        SuperAlgebra(SuperSpace(2, 1), {(0, 1, 2): 1})


def test_product_matches_example_family(m2):
    a = m2.algebra.algebra
    n = a.dim
    # a . v_1 = y_1 and y_1 annihilates everything
    av1 = product(a, Element.basis(n, 0), Element.basis(n, 1))
    assert av1 == Element.basis(n, 3)
    for i in range(n):
        assert product(a, Element.basis(n, 3), Element.basis(n, i)).is_zero()
    # bilinearity on the zero vector
    assert product(a, Element.zero(n), Element.basis(n, 0)).is_zero()


def test_product_dimension_mismatch(sl2):
    with pytest.raises(InputError):
        product(sl2.algebra, Element.zero(2), Element.zero(3))


@settings(max_examples=25, deadline=None)
@given(vec(7), vec(7), vec(7))
def test_product_bilinear(x, y, z):
    a = catalog_get("m7").algebra.algebra
    lhs = product(a, x + y, z)
    rhs = product(a, x, z) + product(a, y, z)
    assert lhs == rhs


def test_anticommutativity_passes_on_catalog(m7, osp12, k21):
    for q in (m7, osp12, k21):
        assert check_super_anticommutativity(q.algebra).passed


def test_anticommutativity_mutation_detected(m2):
    a = m2.algebra.algebra
    consts = dict(a.constants)
    consts[(1, 0, 3)] = Fraction(1)  # v_1 a = +y_1 breaks the skew pair
    bad = SuperAlgebra(a.space, consts)
    rep = check_super_anticommutativity(bad)
    assert not rep.passed
    assert any(w.index == (0, 1) for w in rep.witnesses)


def test_malcev_passes_on_catalog(m7, sl2, osp12):
    assert check_malcev(m7.algebra).passed
    assert check_malcev(sl2.algebra).passed
    assert check_malcev(osp12.algebra).passed


def test_malcev_mutation_detected(m7):
    consts = dict(m7.algebra.constants)
    key = next(iter(sorted(consts)))
    del consts[key]
    bad = SuperAlgebra(m7.algebra.space, consts)
    rep = check_malcev(bad)
    assert not rep.passed
    assert rep.witnesses


def test_malcev_flags_broken_anticommutativity():
    # scan still runs, but the report carries an explicit note
    a = SuperAlgebra(SuperSpace(2, 0), {(0, 1, 0): 1})
    assert not check_super_anticommutativity(a).passed
    rep = check_malcev(a)
    assert rep.notes and "anticommutativity" in rep.notes[0]


def test_jacobi_separates_lie_from_malcev(m7, sl2, osp12):
    assert check_jacobi(sl2.algebra).passed
    assert check_jacobi(osp12.algebra).passed
    rep = check_jacobi(m7.algebra)
    assert not rep.passed and rep.witnesses


def test_jacobi_implies_malcev_on_abelian():
    a = catalog_get("abelian", p=2, q=2).algebra.algebra
    assert check_jacobi(a).passed
    assert check_malcev(a).passed


def test_center_of_example_family(m2):
    a = m2.algebra.algebra
    z = center(a)
    # exactly the span of y_1, y_2 (indices 3, 4)
    assert z.dim == 2
    assert z.contains([0, 0, 0, 1, 0])
    assert z.contains([0, 0, 0, 0, 1])


def test_center_of_extension_contains_new_line(k21):
    z = center(k21.algebra)
    n = k21.dim
    assert z.contains([0] * (n - 1) + [1])  # e*
    assert z.dim == 3  # y_1, y_2, e*


def test_center_of_simple_is_zero(sl2, m7):
    assert center(sl2.algebra).dim == 0
    assert center(m7.algebra).dim == 0


def test_ideal_closure_examples(m2):
    a = m2.algebra.algebra
    space = a.space
    y1 = GradedSubspace.from_vectors(space, [[0, 0, 0, 1, 0]])
    assert ideal_closure(a, y1).dim == 1
    v1 = GradedSubspace.from_vectors(space, [[0, 1, 0, 0, 0]])
    closed = ideal_closure(a, v1)
    assert closed.dim == 4
    for v in ([0, 1, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, 0, 1, 0],
              [0, 0, 0, 0, 1]):
        assert closed.contains(v)
    zero = GradedSubspace.from_vectors(space, [])
    assert ideal_closure(a, zero).dim == 0


@pytest.mark.parametrize("name,params", [
    ("sl2", {}), ("osp12", {}), ("example_M", {"n": 2, "m": (1, 2)}),
    ("example_gde", {"n": 2, "m": (1, 2)}), ("gde_abelian12", {})])
def test_ideal_closure_columns_are_already_graded_echelon(name, params):
    """The closure of homogeneous seeds is returned without re-echelonizing:
    from_vectors on its columns gives the same columns back."""
    from qmalcev.core import _ideal_candidates

    a = catalog_get(name, **params).algebra.algebra
    for seed in _ideal_candidates(a):
        closed = ideal_closure(a, GradedSubspace.from_vectors(a.space, seed))
        assert GradedSubspace.from_vectors(a.space, closed.rows) == closed


def test_direct_sum_dimensions_and_identity(sl2, m7):
    ds = direct_sum(sl2.algebra, m7.algebra)
    assert ds.space == SuperSpace(10, 0)
    assert check_malcev(ds).passed
    mixed = direct_sum(sl2.algebra, catalog_get("abelian", p=1, q=2)
                       .algebra.algebra)
    assert mixed.space == SuperSpace(4, 2)


def test_direct_sum_with_zero(sl2):
    z = catalog_get("zero").algebra.algebra
    ds = direct_sum(sl2.algebra, z)
    assert ds.constants == sl2.algebra.constants


def test_simplicity_results(sl2, m7, osp12, m2):
    assert is_simple(m7.algebra)
    assert is_simple(sl2.algebra)
    assert is_simple(osp12.algebra)
    rep = simplicity(m2.algebra.algebra)
    assert rep.simple is False and rep.ideal is not None
    one = catalog_get("one_dim_lie").algebra.algebra
    assert not is_simple(one)


def test_direct_sum_not_simple(sl2, m7):
    rep = simplicity(direct_sum(sl2.algebra, m7.algebra))
    assert rep.simple is False
    assert rep.ideal.dim in (3, 7)


def test_jacobi_implies_malcev_over_catalog():
    instances = [("zero", {}), ("one_dim_lie", {}),
                 ("abelian", {"p": 2, "q": 2}), ("sl2", {}), ("osp12", {}),
                 ("example_M", {"n": 2, "m": (1, 2)}),
                 ("example_gde", {"n": 1, "m": (1,)}),
                 ("odd_hyperbolic", {}), ("gde_abelian12", {})]
    for name, params in instances:
        a = catalog_get(name, **params).algebra.algebra
        if check_jacobi(a).passed:
            assert check_malcev(a).passed


def test_center_is_a_graded_ideal(m2, k21):
    for q in (m2.algebra, k21):
        z = center(q.algebra)
        assert ideal_closure(q.algebra, z) == z


def test_change_basis_round_trip(sl2):
    from qmalcev import change_basis
    from qmalcev.linalg import basis_vector

    n = sl2.dim
    cols = [basis_vector(n, i) for i in range(n)]
    cols[0] = [Fraction(1), Fraction(1), Fraction(0)]  # h + x, still even
    moved = change_basis(sl2.algebra, cols)
    assert check_malcev(moved).passed
    back = [basis_vector(n, i) for i in range(n)]
    back[0] = [Fraction(1), Fraction(-1), Fraction(0)]
    assert change_basis(moved, back) == sl2.algebra


@settings(max_examples=80, deadline=None)
@given(st.lists(st.builds(SuperSpace, st.integers(0, 4), st.integers(0, 4)),
                min_size=1, max_size=4))
def test_direct_sum_layout_is_evens_then_odds(spaces):
    """The maps partition the sum's basis; each space's even vectors land
    below the total even count, its odd ones at or above it, in order, and
    the spaces follow each other within each parity."""
    total, maps = direct_sum_embeddings(*spaces)
    p = sum(s.even_dim for s in spaces)
    assert total == SuperSpace(p, sum(s.odd_dim for s in spaces))
    assert len(maps) == len(spaces)
    assert sorted(i for m in maps for i in m) == list(range(total.dim))
    evens, odds = [], []
    for s, m in zip(spaces, maps):
        assert len(m) == s.dim
        assert all(i < p for i in m[:s.even_dim])
        assert all(i >= p for i in m[s.even_dim:])
        evens += m[:s.even_dim]
        odds += m[s.even_dim:]
    assert evens == list(range(p))
    assert odds == list(range(p, total.dim))


def test_memo_computes_once_per_object():
    calls = []

    @core.memo
    def derived(x):
        calls.append(x)
        return object()

    a = SuperAlgebra(SuperSpace(1, 0), {})
    b = SuperAlgebra(SuperSpace(1, 0), {})
    first = derived(a)
    assert derived(a) is first
    assert derived(b) is not first  # equal algebras, but another object
    assert [id(x) for x in calls] == [id(a), id(b)]


def test_an_algebra_derives_each_memo_once(monkeypatch):
    """Every memoized derivation of a fresh algebra returns the same object
    on a second call, and the scan kernel and the mod-p closure behind
    them are built once."""
    kernels, closures = [], []

    class Counted(core._ScanKernel):
        def __init__(self, a):
            kernels.append(a)
            super().__init__(a)

    real_closure = core._multiplication_algebra_dim

    def counted_closure(a, p=0):
        closures.append((a, p))
        return real_closure(a, p)

    monkeypatch.setattr(core, "_ScanKernel", Counted)
    monkeypatch.setattr(core, "_multiplication_algebra_dim", counted_closure)
    sl2 = catalog_get("sl2").algebra
    a = SuperAlgebra(sl2.space, sl2.algebra.constants)  # nothing derived
    q = QuadraticAlgebra(a, sl2.form, validated=True)
    for derive in (SuperAlgebra.pair_table, SuperAlgebra.int_table,
                   SuperAlgebra.int_factors, core._scan_kernel,
                   check_super_anticommutativity, check_jacobi, center,
                   simplicity):
        assert derive(a) is derive(a)
    assert check_malcev(a).passed and simplicity(a).simple is True
    assert _split(q) is _split(q)
    assert len(kernels) == 1
    assert [p for _a, p in closures] == [core._CERT_PRIME]
