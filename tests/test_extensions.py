from fractions import Fraction

import pytest

from qmalcev import (Element, EVEN, ODD, GdeData, OperatorMap, SemidirectData,
                     SuperSpace, catalog_get, center, central_extension,
                     change_basis_quadratic, check_gsd_conditions,
                     check_malcev, direct_sum_quadratic,
                     double_extension_even, gde_abelian12_parts,
                     generalized_double_extension,
                     generalized_semidirect_product, semidirect_data_from_gde,
                     verify_gde_data)
from qmalcev.catalog import example_m_uncorrected_data
from qmalcev.errors import PreconditionError
from qmalcev.linalg import basis_vector

ONE = Fraction(1)


def test_central_extension_zero_twist(sl2):
    d = OperatorMap.zero(3, ODD)
    out = central_extension(sl2, d)
    assert out.space == SuperSpace(3, 1)
    assert out.constants == sl2.algebra.constants
    assert center(out).contains([0, 0, 0, 1])


def test_central_extension_frozen_products():
    base, gde = gde_abelian12_parts()
    out = central_extension(base, gde.d)
    # u.z = -e*, z.u = +e*; everything else among u, w, z unchanged (zero)
    assert out.constants == {(0, 2, 3): -ONE, (2, 0, 3): ONE}
    assert check_malcev(out).passed


def test_central_extension_refuses_bad_twist(sl2):
    bad = OperatorMap.zero(3, EVEN)
    with pytest.raises(PreconditionError):
        central_extension(sl2, bad)


def test_verify_gde_trivial_data(sl2):
    g = GdeData(OperatorMap.zero(3, ODD), Element.zero(3))
    assert verify_gde_data(sl2, g).passed


def test_verify_gde_abelian12_data():
    base, gde = gde_abelian12_parts()
    rep = verify_gde_data(base, gde)
    assert rep.passed


def test_uncorrected_family_data_fails_skew():
    q, uncorrected = example_m_uncorrected_data(2, (1, 1))
    rep = verify_gde_data(q, uncorrected)
    assert not rep.passed
    assert rep.first_failure() == "skew"
    assert rep.skew.witnesses


def test_extension_requires_verified_data(sl2):
    q, uncorrected = example_m_uncorrected_data(1, (1,))
    with pytest.raises(PreconditionError):
        generalized_double_extension(q, uncorrected)


def test_verified_flag_does_not_skip_the_check():
    """The extension is not scanned after it is built, so the data are
    gated on every call: the uncorrected data, which break invariance, do
    not get through, however they were built."""
    q, uncorrected = example_m_uncorrected_data(1, (1,))
    rebuilt = GdeData(uncorrected.d, uncorrected.a0)
    with pytest.raises(PreconditionError, match="skew fails"):
        generalized_double_extension(q, rebuilt)


def test_gde_trivial_data_is_orthogonal_sum(sl2):
    g = GdeData(OperatorMap.zero(3, ODD), Element.zero(3))
    out, wit = generalized_double_extension(sl2, g)
    plane = catalog_get("odd_hyperbolic").algebra
    ds = direct_sum_quadratic(sl2, plane)
    # reorder [evens, e, odds, e*] as [evens, odds, e, e*]
    n = out.dim
    perm = [basis_vector(n, i) for i in range(3)]
    perm += [basis_vector(n, wit.e_index), basis_vector(n, wit.estar_index)]
    reordered = change_basis_quadratic(out, perm)
    assert reordered.algebra.constants == ds.algebra.constants
    assert reordered.form == ds.form


def test_gde_abelian12_frozen_table():
    base, gde = gde_abelian12_parts()
    out, wit = generalized_double_extension(base, gde)
    assert wit.e_index == 1 and wit.estar_index == 4
    expected = {
        (1, 1, 0): ONE,                      # ee = u
        (1, 0, 2): ONE, (1, 0, 4): ONE,      # e.u = w + e*
        (0, 1, 2): -ONE, (0, 1, 4): -ONE,
        (1, 3, 0): -ONE, (3, 1, 0): -ONE,    # e.z = z.e = -u
        (0, 3, 4): ONE, (3, 0, 4): -ONE,     # u.z = e*
    }
    assert out.algebra.constants == expected
    assert out.form.gram[1][4] == 1 and out.form.gram[4][1] == -1
    assert center(out.algebra).contains([0, 0, 0, 0, 1])


def test_gde_dimension_and_restriction(m2):
    out, wit = generalized_double_extension(m2.algebra, m2.extras)
    assert out.dim == m2.algebra.dim + 2
    emb = wit.embedding
    for i in range(m2.algebra.dim):
        for j in range(m2.algebra.dim):
            assert out.form.gram[emb[i]][emb[j]] == m2.algebra.form.gram[i][j]


def test_gde_matches_catalog_extension(m2):
    out, _ = generalized_double_extension(m2.algebra, m2.extras)
    cat = catalog_get("example_gde", n=2, m=(1, 2)).algebra
    assert out.algebra.constants == cat.algebra.constants
    assert out.form == cat.form


def test_extension_family_bracket_table():
    """Frozen bracket table of the extended family, entry by entry."""
    for n, m in ((1, (1,)), (2, (1, 2)), (3, (2, 1, 2))):
        ent = catalog_get("example_gde", n=n, m=m)
        C = ent.algebra.algebra.constants
        a, e = 0, 1
        estar = 2 * n + 2

        def v(i):
            return 2 + i

        def y(i):
            return 2 + n + i

        for i, mi in enumerate(map(Fraction, m)):
            # e v_i = m_i a and v_i v_i = a
            assert C.get((e, v(i), a)) == mi
            assert C.get((v(i), v(i), a)) == ONE
            # a v_i = y_i - m_i e*
            assert C.get((a, v(i), y(i))) == ONE
            assert C.get((a, v(i), estar)) == -mi
            # a e = sum m_i y_i - e*
            assert C.get((a, e, y(i))) == mi
        assert C.get((a, e, estar)) == -ONE
        # ee = a; e* and y_i annihilate
        assert C.get((e, e, a)) == ONE
        for k in list(C):
            assert k[0] != estar and k[1] != estar or C[k] == 0


def test_even_extension_trivial_operator(sl2):
    out, wit = double_extension_even(sl2, OperatorMap.zero(3, EVEN))
    plane = catalog_get("even_hyperbolic").algebra
    ds = direct_sum_quadratic(sl2, plane)
    n = out.dim
    perm = [basis_vector(n, i) for i in (1, 2, 3, 0, 4)]
    reordered = change_basis_quadratic(out, perm)
    assert reordered.algebra.constants == ds.algebra.constants
    assert reordered.form == ds.form


def test_even_extension_of_zero_is_plane():
    z = catalog_get("zero").algebra
    out, wit = double_extension_even(z, OperatorMap.zero(0, EVEN))
    plane = catalog_get("even_hyperbolic").algebra
    assert out.algebra.constants == {}
    assert out.form == plane.form


def test_even_extension_inner_derivation(sl2):
    adh = OperatorMap.from_images(3, {1: [0, 2, 0], 2: [0, 0, -2]}, EVEN)
    out, wit = double_extension_even(sl2, adh)
    assert out.validated
    assert center(out.algebra).contains(basis_vector(5, wit.estar_index))


def test_even_extension_rejects_non_skew(sl2):
    bad = OperatorMap.from_images(3, {0: [1, 0, 0]}, EVEN)
    with pytest.raises(PreconditionError):
        double_extension_even(sl2, bad)


def test_gsd_trivial_data_gives_direct_sum(sl2, m7):
    m = sl2.algebra
    v = m7.algebra
    omega = tuple(OperatorMap.zero(7, EVEN) for _ in range(3))
    zeta = tuple(tuple(Element.zero(7) for _ in range(3)) for _ in range(3))
    data = SemidirectData(m, v, omega, zeta)
    rep = check_gsd_conditions(m, v, data)
    assert rep.passed
    out = generalized_semidirect_product(m, v, data)
    from qmalcev import direct_sum

    assert out.constants == direct_sum(m, v).constants


def test_gsd_commuting_operators_on_abelian():
    m = catalog_get("abelian", p=2, q=0).algebra.algebra
    v = catalog_get("abelian", p=2, q=0).algebra.algebra
    om0 = OperatorMap([[1, 0], [0, 2]], EVEN)
    om1 = OperatorMap([[3, 0], [0, 5]], EVEN)  # diagonal maps commute
    zeta = tuple(tuple(Element.zero(2) for _ in range(2)) for _ in range(2))
    data = SemidirectData(m, v, (om0, om1), zeta)
    rep = check_gsd_conditions(m, v, data)
    assert rep.passed
    out = generalized_semidirect_product(m, v, data)
    assert check_malcev(out).passed


def test_gsd_reproduces_double_extension(m2):
    line, vext, data = semidirect_data_from_gde(m2.algebra, m2.extras)
    rep = check_gsd_conditions(line, vext, data)
    assert rep.passed
    gsd = generalized_semidirect_product(line, vext, data)
    ext, _ = generalized_double_extension(m2.algebra, m2.extras)
    assert gsd.constants == ext.algebra.constants
    assert gsd.space == ext.algebra.space


def test_gsd_perturbed_twist_fails(m7):
    trivial = GdeData(OperatorMap.zero(7, ODD), Element.zero(7))
    line, vext, data = semidirect_data_from_gde(m7, trivial)
    assert check_gsd_conditions(line, vext, data).passed
    # push the twist to a non-central element: (e1 h) i no longer vanishes
    bad_zeta = ((Element.basis(8, 0),),)
    bad = SemidirectData(line, vext, data.omega, bad_zeta)
    rep = check_gsd_conditions(line, vext, bad)
    assert not rep.passed
    assert not rep.cond1.passed
    with pytest.raises(PreconditionError):
        generalized_semidirect_product(line, vext, bad)


def test_gsd_scaled_admissible_twist_still_valid(m2):
    """Scaling a0 keeps admissibility in this family (its square and its
    action terms all vanish), so the conditions and the product agree."""
    line, vext, data = semidirect_data_from_gde(m2.algebra, m2.extras)
    doubled = data.zeta[0][0].scale(2)
    scaled = SemidirectData(line, vext, data.omega, ((doubled,),))
    rep = check_gsd_conditions(line, vext, scaled)
    assert rep.passed
    out = generalized_semidirect_product(line, vext, scaled)
    assert check_malcev(out).passed


def test_gsd_conditions_match_product_validity(m2):
    """Whenever all conditions pass the assembled product is Malcev."""
    line, vext, data = semidirect_data_from_gde(m2.algebra, m2.extras)
    out = generalized_semidirect_product(line, vext, data)
    assert check_malcev(out).passed
