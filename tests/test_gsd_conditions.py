"""The semidirect-product conditions as words in one assembled product.

check_gsd_conditions evaluates each of its five conditions as signed words
in the product P = M + V that the data define.  The five hand-unrolled loop
nests it replaced, written on the operators and the twist directly, are
kept below as the reference.  The two are compared report for report on
the criterion-5 data and on random data over random graded algebras that
need not be Malcev.  The single-failure cases pin each condition's own
failure through generalized_semidirect_product.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from qmalcev import (EVEN, Element, OperatorMap, SemidirectData, catalog_get,
                     check_gsd_conditions, gde_abelian12_parts,
                     generalized_semidirect_product, semidirect_data_from_gde)
from qmalcev.core import Witness, _vadd, _vscale, ksign
from qmalcev.errors import InputError, PreconditionError
from qmalcev.extensions import GsdReport
from qmalcev.linalg import ONE, frac
from qmalcev.operators import check_malcev_operator

from references import _mul_vb, _mul_vv, report
from test_scan_kernel import graded_algebras


# ---------------------------------------------------------------------------
# the loop nests over basis tuples, as a reference

def _omega_apply(s, xvec, vvec):
    """Apply omega(X) to a vector of V, X given as a sparse M vector."""
    out = {}
    for i, ci in xvec.items():
        op = s.omega[i]
        for j, cj in vvec.items():
            _vadd(out, op.column(j), ci * cj)
    return out


def _zeta_apply(s, xvec, yvec):
    out = {}
    for i, ci in xvec.items():
        row = s.zeta[i]
        for j, cj in yvec.items():
            _vadd(out, row[j].entries, ci * cj)
    return out


def reference_conditions(m, v, s):
    """The GsdReport of the five conditions, each summed term by term on
    every basis tuple in Fractions."""
    nm, nv = m.dim, v.dim
    pm = [m.space.parity(i) for i in range(nm)]
    pv = [v.space.parity(i) for i in range(nv)]

    def mb(i):
        return {i: ONE}

    def omega_apply(xvec, vvec):
        return _omega_apply(s, xvec, vvec)

    def zeta_apply(xvec, yvec):
        return _zeta_apply(s, xvec, yvec)

    op_wit = []
    for i in range(nm):
        rep = check_malcev_operator(v, s.omega[i])
        if not rep.passed:
            op_wit.append(Witness((i,), "operator identity fails",
                                  rep.witnesses[0].index))

    w1 = []
    for i in range(nm):
        for j in range(nm):
            zeij = zeta_apply(mb(i), mb(j))
            mij = m.basis_product(i, j)
            for h in range(nv):
                for t_ in range(nv):
                    x, y = pm[i], pm[j]
                    z, t = pv[h], pv[t_]
                    acc = _mul_vb(v, omega_apply(mij, {h: ONE}), t_)
                    _vadd(acc, omega_apply(
                        mb(i), _mul_vb(v, s.omega[j].column(h), t_)),
                        frac(-1))
                    _vadd(acc, _mul_vv(v, s.omega[i].column(h),
                                       s.omega[j].column(t_)),
                          frac(-ksign(y * z)))
                    _vadd(acc, omega_apply(
                        mb(j), omega_apply(mb(i), v.basis_product(h, t_))),
                        frac(ksign(x * y)))
                    _vadd(acc, _mul_vb(v, omega_apply(
                        mb(j), s.omega[i].column(t_)), h),
                        frac(ksign(t * z + x * y)))
                    _vadd(acc, _mul_vb(v, _mul_vb(v, zeij, h), t_))
                    if acc:
                        w1.append(Witness((i, j, h, t_),
                                          Element.sparse(nv, acc),
                                          Element.zero(nv)))

    w2 = []
    for i in range(nm):
        for k in range(nm):
            zeik = zeta_apply(mb(i), mb(k))
            mik = m.basis_product(i, k)
            for g in range(nv):
                for t_ in range(nv):
                    x, z = pm[i], pm[k]
                    y, t = pv[g], pv[t_]
                    ghi = v.basis_product(g, t_)
                    acc = _vscale(_mul_vv(v, zeik, ghi), frac(ksign(y * z)))
                    _vadd(acc, omega_apply(mik, ghi), frac(ksign(y * z)))
                    _vadd(acc, _mul_vb(v, omega_apply(
                        mb(k), s.omega[i].column(g)), t_),
                        frac(ksign(z * (x + y))))
                    _vadd(acc, omega_apply(
                        mb(i), _mul_vb(v, s.omega[k].column(g), t_)),
                        frac(-ksign(y * z)))
                    _vadd(acc, _mul_vb(v, omega_apply(
                        mb(i), s.omega[k].column(t_)), g),
                        frac(ksign(y * (z + t))))
                    _vadd(acc, omega_apply(
                        mb(k), _mul_vb(v, s.omega[i].column(t_), g)),
                        frac(-ksign(t * y + (x + y) * z)))
                    if acc:
                        w2.append(Witness((i, k, g, t_),
                                          Element.sparse(nv, acc),
                                          Element.zero(nv)))

    w3 = []
    for i in range(nm):
        for j in range(nm):
            zeij = zeta_apply(mb(i), mb(j))
            for l in range(nm):
                zejl = zeta_apply(mb(j), mb(l))
                zeli = zeta_apply(mb(l), mb(i))
                for h in range(nv):
                    x, y, t = pm[i], pm[j], pm[l]
                    z = pv[h]
                    acc = _vscale(_mul_vv(v, s.omega[i].column(h), zejl),
                                  frac(ksign(y * z)))
                    _vadd(acc, omega_apply(mb(l), _mul_vb(v, zeij, h)),
                          frac(ksign(t * (x + y + z))))
                    _vadd(acc, _mul_vb(v, omega_apply(mb(j), zeli), h),
                          frac(ksign(t * (x + z) + x * y)))
                    if acc:
                        w3.append(Witness((i, j, l, h),
                                          Element.sparse(nv, acc),
                                          Element.zero(nv)))

    w4 = []
    for i in range(nm):
        for j in range(nm):
            for k in range(nm):
                for l in range(nm):
                    x, y, z, t = pm[i], pm[j], pm[k], pm[l]
                    acc = _vscale(
                        omega_apply(m.basis_product(i, k),
                                    zeta_apply(mb(j), mb(l))),
                        frac(-ksign(y * z)))
                    _vadd(acc, omega_apply(mb(i), omega_apply(
                        mb(l), zeta_apply(mb(j), mb(k)))),
                        frac(ksign(t * (y + z))))
                    _vadd(acc, omega_apply(mb(k), omega_apply(
                        mb(j), zeta_apply(mb(l), mb(i)))),
                        frac(ksign(x * (y + z + t) + y * z)))
                    _vadd(acc, omega_apply(
                        mb(i), zeta_apply(m.basis_product(j, k), mb(l))),
                        frac(-1))
                    _vadd(acc, omega_apply(
                        mb(k), zeta_apply(m.basis_product(l, i), mb(j))),
                        frac(-ksign((x + y) * (z + t))))
                    # minus the right-hand side
                    _vadd(acc, zeta_apply(m.basis_product(i, k),
                                          m.basis_product(j, l)),
                          frac(ksign(y * z)))
                    _vadd(acc, _mul_vv(v, zeta_apply(mb(i), mb(k)),
                                       zeta_apply(mb(j), mb(l))),
                          frac(ksign(y * z)))
                    _vadd(acc, zeta_apply(
                        _mul_vb(m, m.basis_product(i, j), k), mb(l)),
                        frac(-1))
                    _vadd(acc, zeta_apply(
                        _mul_vb(m, m.basis_product(j, k), l), mb(i)),
                        frac(-ksign(x * (y + z + t))))
                    _vadd(acc, zeta_apply(
                        _mul_vb(m, m.basis_product(k, l), i), mb(j)),
                        frac(-ksign((x + y) * (z + t))))
                    _vadd(acc, zeta_apply(
                        _mul_vb(m, m.basis_product(l, i), j), mb(k)),
                        frac(-ksign(t * (x + y + z))))
                    if acc:
                        w4.append(Witness((i, j, k, l),
                                          Element.sparse(nv, acc),
                                          Element.zero(nv)))

    w5 = []
    for i in range(nm):
        for j in range(nm):
            mij = m.basis_product(i, j)
            for k in range(nm):
                mik = m.basis_product(i, k)
                mjk = m.basis_product(j, k)
                for t_ in range(nv):
                    x, y, z = pm[i], pm[j], pm[k]
                    acc = _vscale(
                        omega_apply(mik, s.omega[j].column(t_)),
                        frac(ksign(y * z)))
                    _vadd(acc, _mul_vb(v, zeta_apply(mij, mb(k)), t_),
                          frac(-1))
                    _vadd(acc, omega_apply(
                        _mul_vb(m, mij, k), {t_: ONE}), frac(-1))
                    _vadd(acc, omega_apply(
                        mb(i), omega_apply(mjk, {t_: ONE})))
                    _vadd(acc, omega_apply(mb(j), omega_apply(
                        mb(i), s.omega[k].column(t_))),
                        frac(-ksign(x * y)))
                    _vadd(acc, omega_apply(mb(k), omega_apply(
                        mb(j), s.omega[i].column(t_))),
                        frac(ksign((x + y) * z + x * y)))
                    if acc:
                        w5.append(Witness((i, j, k, t_),
                                          Element.sparse(nv, acc),
                                          Element.zero(nv)))

    return GsdReport(operators=report(op_wit), cond1=report(w1),
                     cond2=report(w2), cond3=report(w3),
                     cond4=report(w4), cond5=report(w5))


# ---------------------------------------------------------------------------
# the criterion-5 data and random data against the reference

def criterion_5_data():
    """(line, vext, data) of the five criterion-5 datasets."""
    pairs = [(catalog_get("example_M", n=n, m=m).algebra,
              catalog_get("example_M", n=n, m=m).extras)
             for n, m in ((1, (1,)), (1, (2,)), (2, (1, 2)), (3, (2, 1, 2)))]
    pairs.append(gde_abelian12_parts())
    return [semidirect_data_from_gde(q, g) for q, g in pairs]


@pytest.mark.parametrize("case", range(5))
def test_criterion_5_reports_match_the_reference(case):
    line, vext, data = criterion_5_data()[case]
    got = check_gsd_conditions(line, vext, data)
    assert got.passed
    assert got == reference_conditions(line, vext, data)


small = st.sampled_from([Fraction(0)] * 4 + [Fraction(1), Fraction(-1),
                                             Fraction(2), Fraction(1, 2),
                                             Fraction(-3, 2)])


def _homogeneous(draw, space, parity):
    """A random element of the given parity."""
    return Element([draw(small) if space.parity(r) == parity else 0
                             for r in range(space.dim)])


@st.composite
def semidirect_data(draw):
    """Random M and V of dimension <= 3, omega_i of parity |i| and zeta
    even and graded-skew; zeta_ii = 0 for even i is forced by skewness."""
    m = draw(graded_algebras().filter(lambda a: a.dim <= 3))
    v = draw(graded_algebras().filter(lambda a: a.dim <= 3))
    nm, nv = m.dim, v.dim
    pm = [m.space.parity(i) for i in range(nm)]
    omega = []
    for i in range(nm):
        cols = [_homogeneous(draw, v.space, (pm[i] + v.space.parity(c)) % 2)
                for c in range(nv)]
        omega.append(OperatorMap([[cols[c].entries.get(r, 0)
                                   for c in range(nv)]
                                  for r in range(nv)], pm[i]))
    zeta = [[Element.zero(nv)] * nm for _ in range(nm)]
    for i in range(nm):
        for j in range(i, nm):
            if i == j and pm[i] == EVEN:
                continue
            el = _homogeneous(draw, v.space, (pm[i] + pm[j]) % 2)
            zeta[i][j] = el
            zeta[j][i] = el.scale(-ksign(pm[i] * pm[j]))
    return m, v, SemidirectData(m, v, omega, zeta)


@settings(max_examples=60, deadline=None)
@given(semidirect_data())
def test_random_reports_match_the_reference(data):
    m, v, s = data
    assert check_gsd_conditions(m, v, s) == reference_conditions(m, v, s)


# ---------------------------------------------------------------------------
# each condition fails on its own

def _abelian_line():
    return catalog_get("abelian", p=1, q=0).algebra.algebra


def _zero_twist(nm, nv):
    return [[Element.zero(nv)] * nm for _ in range(nm)]


def test_twist_off_the_center_fails_cond4_alone(m7):
    m, v = m7.algebra, _abelian_line()
    zeta = _zero_twist(7, 1)
    zeta[0][1], zeta[1][0] = Element([1]), Element([-1])
    data = SemidirectData(m, v, [OperatorMap.zero(1)] * 7, zeta)
    rep = check_gsd_conditions(m, v, data)
    assert rep.failures() == ["cond4"]
    assert len(rep.cond4.witnesses) == 192
    with pytest.raises(PreconditionError, match="compatibility cond4 fails"):
        generalized_semidirect_product(m, v, data)


def test_action_of_a_perfect_algebra_fails_cond5_alone(sl2):
    m, v = sl2.algebra, _abelian_line()
    omega = [OperatorMap([[1]], EVEN)] + [OperatorMap.zero(1)] * 2
    data = SemidirectData(m, v, omega, _zero_twist(3, 1))
    rep = check_gsd_conditions(m, v, data)
    assert rep.failures() == ["cond5"]
    assert len(rep.cond5.witnesses) == 4
    with pytest.raises(PreconditionError, match="compatibility cond5 fails"):
        generalized_semidirect_product(m, v, data)


def test_non_derivation_fails_the_operator_identity_first(sl2):
    m, v = _abelian_line(), sl2.algebra
    e00 = OperatorMap([[1, 0, 0], [0, 0, 0], [0, 0, 0]], EVEN)
    data = SemidirectData(m, v, [e00], _zero_twist(1, 3))
    rep = check_gsd_conditions(m, v, data)
    assert rep.first_failure() == "operators"
    assert not rep.cond1.passed and not rep.cond2.passed
    with pytest.raises(PreconditionError,
                       match="compatibility operators fails"):
        generalized_semidirect_product(m, v, data)


def test_data_on_other_algebras_are_refused(sl2, m7):
    line, vext, data = criterion_5_data()[0]
    for m, v in ((sl2.algebra, vext), (line, m7.algebra)):
        with pytest.raises(InputError, match="belongs to other algebras"):
            check_gsd_conditions(m, v, data)
        with pytest.raises(InputError, match="belongs to other algebras"):
            generalized_semidirect_product(m, v, data)
