"""The integer scan kernel against a dense Fraction reference.

The reference evaluates every basis tuple through `core.product`, with no
pruning and no cleared denominators, so it shares no code with the kernel
beyond the structure constants themselves.  The form-invariance and
super-anticommutativity references are the full loops over all basis
triples and pairs that the term-wise scans replaced.  The rotation law and
the Lie shortcut that `check_malcev` relies on are checked on the dense
reference itself, and the path tests pin which Malcev pass runs on which
input.  The operator-identity
reference is the per-triple scan on Fraction dicts, and the skewness and
operator-to-cocycle references are the dense Gram products, that the
term-wise operator scan and the sparse form pairing replaced.
"""

from fractions import Fraction
from itertools import product as tuples
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmalcev import (EVEN, ODD, BilinearForm, Cocycle, Element, OperatorMap,
                     QuadraticAlgebra, SuperAlgebra, SuperSpace, Witness,
                     catalog_get, check_cocycle, check_form, check_jacobi,
                     check_malcev, check_malcev_operator,
                     check_skew_supersymmetric, check_super_anticommutativity,
                     cocycle_from_operator, direct_sum, linalg, product)
from qmalcev import core
from qmalcev.core import (_mul_vb, _mul_vv, _report, _vadd,
                          ksign)
from qmalcev.document import parse_document
from qmalcev.linalg import frac

from test_scan_golden import _pair_dropped

SCALARS = st.builds(Fraction, st.integers(-4, 4).filter(bool),
                    st.integers(1, 6))


@st.composite
def graded_algebras(draw, anti=st.booleans(), scalars=SCALARS):
    """Random graded algebras of dimension <= 5 with constants drawn from
    `scalars`, mixed denominators by default; anticommutative or not, as
    `anti` draws."""
    p = draw(st.integers(0, 4))
    q = draw(st.integers(0 if p else 1, 5 - p))
    space = SuperSpace(p, q)
    n = space.dim
    par = [space.parity(i) for i in range(n)]
    anti = draw(anti)
    constants = {}
    for _ in range(draw(st.integers(0, 10))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        ks = [k for k in range(n) if par[k] == (par[i] + par[j]) % 2]
        if not ks:
            continue
        k = draw(st.sampled_from(ks))
        c = draw(scalars)
        constants[(i, j, k)] = c
        if anti:
            sign = -ksign(par[i] * par[j])
            if i == j and sign == -1:
                del constants[(i, j, k)]
            else:
                constants[(j, i, k)] = sign * c
    return SuperAlgebra(space, constants)


def basis(n):
    return [Element.basis(n, i) for i in range(n)]


def malcev_sides(a):
    """{(i, j, k, l): (lhs, rhs)} of the Malcev identity at every basis
    quadruple, in lexicographic order."""
    n, par, b = a.dim, [a.space.parity(i) for i in range(a.dim)], basis(a.dim)

    def mul(*xs):
        acc = xs[0]
        for x in xs[1:]:
            acc = product(a, acc, x)
        return acc

    out = {}
    for i, j, k, l in tuples(range(n), repeat=4):
        x, y, z, t = par[i], par[j], par[k], par[l]
        lhs = product(a, mul(b[i], b[k]), mul(b[j], b[l])).scale(
            ksign(y * z))
        rhs = (mul(b[i], b[j], b[k], b[l])
               + mul(b[j], b[k], b[l], b[i]).scale(ksign(x * (y + z + t)))
               + mul(b[k], b[l], b[i], b[j]).scale(ksign((x + y) * (z + t)))
               + mul(b[l], b[i], b[j], b[k]).scale(ksign(t * (x + y + z))))
        out[(i, j, k, l)] = (lhs, rhs)
    return out


def malcev_reference(a):
    return [Witness(key, lhs, rhs)
            for key, (lhs, rhs) in malcev_sides(a).items() if lhs != rhs]


def jacobi_reference(a):
    n, par, b = a.dim, [a.space.parity(i) for i in range(a.dim)], basis(a.dim)
    out = []
    for i, j, k in tuples(range(n), repeat=3):
        x, y, z = par[i], par[j], par[k]
        acc = (product(a, product(a, b[i], b[j]), b[k]).scale(ksign(x * z))
               + product(a, product(a, b[j], b[k]), b[i]).scale(ksign(y * x))
               + product(a, product(a, b[k], b[i]), b[j]).scale(ksign(z * y)))
        if not acc.is_zero():
            out.append(Witness((i, j, k), acc, Element.zero(n)))
    return out


def cocycle_reference(a, w):
    n, par, b = a.dim, [a.space.parity(i) for i in range(a.dim)], basis(a.dim)

    def mul3(u, v, s):
        return product(a, product(a, u, v), s)

    out = list(w.graded_skew_report(a.space).witnesses)
    for i, j, k, l in tuples(range(n), repeat=4):
        x, y, z, t = par[i], par[j], par[k], par[l]
        lhs = ksign(y * z) * w.value(product(a, b[i], b[k]),
                                     product(a, b[j], b[l]))
        rhs = (w.value(mul3(b[i], b[j], b[k]), b[l])
               + ksign(x * (y + z + t)) * w.value(mul3(b[j], b[k], b[l]), b[i])
               + ksign((x + y) * (z + t)) * w.value(mul3(b[k], b[l], b[i]),
                                                    b[j])
               + ksign(t * (x + y + z)) * w.value(mul3(b[l], b[i], b[j]),
                                                  b[k]))
        if lhs != rhs:
            out.append(Witness((i, j, k, l), lhs, rhs))
    return out


@st.composite
def algebras_with_cocycles(draw):
    a = draw(graded_algebras())
    n = a.dim
    parity = draw(st.sampled_from((EVEN, ODD)))
    vals = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            ok = (a.space.parity(i) + a.space.parity(j)) % 2 == parity
            if ok and draw(st.booleans()):
                vals[i][j] = draw(SCALARS)
    return a, Cocycle(vals, parity)


# b_0 b_0 = b_2 and b_0 b_1 = b_0 = -b_1 b_0 on (3|0): graded Jacobi holds,
# super-anticommutativity and the Malcev identity fail
NOT_ANTI_JACOBI = SuperAlgebra(SuperSpace(3, 0), {
    (0, 0, 2): 1, (0, 1, 0): 1, (1, 0, 0): -1})


@settings(max_examples=60, deadline=None)
@given(graded_algebras())
@example(NOT_ANTI_JACOBI)
def test_malcev_kernel_matches_dense_reference(a):
    rep = check_malcev(a)
    assert list(rep.witnesses) == malcev_reference(a)
    assert rep.passed == (not rep.witnesses)


def _algebra(even_dim, odd_dim, constants):
    """An algebra from {(i, j, k): c}; each (i, j, k) also gets its
    super-anticommutative mirror (j, i, k)."""
    space = SuperSpace(even_dim, odd_dim)
    table = {}
    for (i, j, k), c in constants.items():
        table[(i, j, k)] = c
        table[(j, i, k)] = -ksign(space.parity(i) * space.parity(j)) * c
    return SuperAlgebra(space, table)


# b_0 b_1 = -b_1, b_1 b_2 = -b_0 on (1|2): witnesses at the periodic
# quadruples (1, 2, 1, 2) and (2, 1, 2, 1)
PERIODIC = _algebra(1, 2, {(0, 1, 1): -1, (1, 2, 0): -1})
# b_1 b_0 = b_0, b_1 b_2 = b_2 and the odd square b_2 b_2 = b_0 on (2|1)
ODD_SQUARE = _algebra(2, 1, {(1, 0, 0): 1, (1, 2, 2): 1, (2, 2, 0): 1})
# the odd square b_1 b_1 = b_0 and b_0 b_1 = b_1 on (1|1), whose chain
# terms sit at periodic quadruples such as (0, 1, 0, 1) and (1, 1, 1, 1)
ODD_LINE = _algebra(1, 1, {(1, 1, 0): 1, (0, 1, 1): 1})


@settings(max_examples=60, deadline=None)
@given(graded_algebras(anti=st.just(True)))
@example(PERIODIC)
@example(ODD_SQUARE)
@example(ODD_LINE)
def test_anticommutative_scan_obeys_rotation_law(a):
    """F(y, z, t, x) = (-1)^{x(y+z+t)} F(x, y, z, t) for F = lhs - rhs,
    every Lie superalgebra is Malcev, and the kernel, which relies on
    both, lists the reference's witnesses."""
    par = [a.space.parity(i) for i in range(a.dim)]
    sides = malcev_sides(a)
    for (i, j, k, l), (lhs, rhs) in sides.items():
        x, y, z, t = par[i], par[j], par[k], par[l]
        rlhs, rrhs = sides[(j, k, l, i)]
        assert rlhs - rrhs == (lhs - rhs).scale(ksign(x * (y + z + t)))
    rep = check_malcev(a)
    assert list(rep.witnesses) == malcev_reference(a)
    assert rep.notes == ()
    if check_jacobi(a).passed:
        assert rep.passed


GOLDEN_DIR = Path(__file__).parent / "golden"


def _malcev_passes(monkeypatch, a):
    """check_malcev(a), the Malcev passes it ran ("orbit" or "full") and
    how many rows of chain products ((b_p b_q) b_r) b_w they formed."""
    passes, chains = [], []

    def spy(name, label):
        real = getattr(core, name)

        def wrapper(*args):
            passes.append(label)
            return real(*args)
        monkeypatch.setattr(core, name, wrapper)

    def rows(*args):
        for row in real_rows(*args):
            chains.append(row)
            yield row

    spy("_malcev_orbit_sums", "orbit")
    spy("_malcev_sums", "full")
    real_rows = core._chain_rows
    monkeypatch.setattr(core, "_chain_rows", rows)
    return check_malcev(a), passes, len(chains)


@pytest.mark.parametrize("name", ["osp12", "sl2+sl2"])
def test_lie_superalgebras_form_no_chain_term(monkeypatch, name):
    if name == "sl2+sl2":
        sl2 = catalog_get("sl2").algebra.algebra
        a = direct_sum(sl2, sl2)
    else:
        a = catalog_get(name).algebra.algebra
    rep, passes, chains = _malcev_passes(monkeypatch, a)
    assert rep == _report(())
    assert (passes, chains) == ([], 0)


@pytest.mark.parametrize("name", ["m7", "gde_abelian12", "m7+osp12"])
def test_malcev_non_lie_runs_only_the_orbit_pass(monkeypatch, name):
    """m7 + osp12 has the chain term ((b_i b_i) b_i) b_i of an odd b_i at
    the periodic key (i, i, i, i), once for each of its four rotations."""
    if name == "m7+osp12":
        a = direct_sum(catalog_get("m7").algebra.algebra,
                       catalog_get("osp12").algebra.algebra)
    else:
        a = catalog_get(name).algebra.algebra
    rep, passes, _chains = _malcev_passes(monkeypatch, a)
    assert rep == _report(())
    assert passes == ["orbit"]


@pytest.mark.parametrize("name", ["defect_gde2", "defect_osc2",
                                  "defect_sl2_gde1"])
def test_non_anticommutative_documents_run_the_full_pass(monkeypatch, name):
    q, _op, _gde = parse_document((GOLDEN_DIR / (name + ".json")).read_text())
    rep, passes, _chains = _malcev_passes(monkeypatch, q.algebra)
    assert passes == ["full"]
    assert rep.notes


def test_non_malcev_anticommutative_runs_only_the_orbit_pass(monkeypatch):
    """The witnesses of an anticommutative algebra that fails Malcev are
    copied from the canonical sums along each rotation orbit, with no full
    pass; PERIODIC has witnesses at periodic keys, ODD_SQUARE and ODD_LINE
    at keys with odd indices, where the copies carry Koszul signs."""
    for a in (PERIODIC, ODD_SQUARE, ODD_LINE):
        with monkeypatch.context() as patch:
            rep, passes, _chains = _malcev_passes(patch, a)
        assert passes == ["orbit"]
        assert rep.witnesses
        assert list(rep.witnesses) == malcev_reference(a)
    # the golden pair-dropped cases, whose witnesses scan_witnesses.json pins
    for args, count in ((("m7", 0, 1, 2), 608), (("osp12", 0, 1, 1), 146)):
        with monkeypatch.context() as patch:
            rep, passes, _chains = _malcev_passes(patch, _pair_dropped(*args))
        assert (passes, len(rep.witnesses)) == (["orbit"], count)


# ODD_LINE without the mirror b_1 b_0 = -b_1: not anticommutative
ODD_LINE_ONE_SIDED = SuperAlgebra(SuperSpace(1, 1), {(1, 1, 0): 1,
                                                     (0, 1, 1): 1})


@settings(max_examples=60, deadline=None)
@given(graded_algebras())
@example(ODD_LINE)
@example(ODD_LINE_ONE_SIDED)
def test_jacobi_kernel_matches_dense_reference(a):
    """ODD_LINE and ODD_LINE_ONE_SIDED have the term (b_1 b_1) b_1 != 0 of
    an odd b_1, which the sum at (1, 1, 1) takes once per rotation."""
    rep = check_jacobi(a)
    assert list(rep.witnesses) == jacobi_reference(a)


@settings(max_examples=40, deadline=None)
@given(algebras_with_cocycles())
def test_cocycle_kernel_matches_dense_reference(pair):
    a, w = pair
    rep = check_cocycle(a, w)
    assert list(rep.witnesses) == cocycle_reference(a, w)


def invariance_reference(a, g):
    n = a.dim
    out = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = Fraction(0)
                for m, c in a.basis_product(i, j).items():
                    lhs += c * g[m][k]
                rhs = Fraction(0)
                for m, c in a.basis_product(j, k).items():
                    rhs += g[i][m] * c
                if lhs != rhs:
                    out.append(Witness((i, j, k), lhs, rhs))
    return out


def anticommutativity_reference(a):
    n, par = a.dim, [a.space.parity(i) for i in range(a.dim)]
    out = []
    for i in range(n):
        for j in range(i, n):
            lhs = a.basis_product(i, j)
            s = -ksign(par[i] * par[j])
            rhs = {k: s * c for k, c in a.basis_product(j, i).items()}
            if lhs != rhs:
                out.append(Witness((i, j), Element.from_seq(
                    [lhs.get(k, 0) for k in range(n)]), Element.from_seq(
                    [rhs.get(k, 0) for k in range(n)])))
    return out


@st.composite
def algebras_with_grams(draw):
    """A graded algebra and a sparse Gram matrix with mixed denominators,
    any parity pattern: mostly not invariant."""
    a = draw(graded_algebras())
    n = a.dim
    g = [[Fraction(0)] * n for _ in range(n)]
    for _ in range(draw(st.integers(1, 3 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        g[i][j] = draw(SCALARS)
    return a, g


@settings(max_examples=80, deadline=None)
@given(algebras_with_grams())
def test_form_invariance_matches_full_triple_loop(pair):
    a, g = pair
    rep = check_form(a, BilinearForm(g)).invariant
    assert list(rep.witnesses) == invariance_reference(a, g)
    assert rep.passed == (not rep.witnesses)


@settings(max_examples=60, deadline=None)
@given(graded_algebras())
def test_anticommutativity_matches_full_pair_loop(a):
    assert (list(check_super_anticommutativity(a).witnesses)
            == anticommutativity_reference(a))


def malcev_operator_reference(a, f):
    """The per-triple operator-identity scan on Fraction dicts."""
    n = a.dim
    f.validate_parity(a.space)
    par = [a.space.parity(i) for i in range(n)]
    witnesses = []
    for i in range(n):
        fi = f.column(i)
        for j in range(n):
            fj = f.column(j)
            for k in range(n):
                x, y, z = par[i], par[j], par[k]
                lhs = f.apply_vec(_mul_vb(a, a.basis_product(i, j), k))
                rhs = _mul_vb(a, _mul_vb(a, fi, j), k)
                _vadd(rhs, _mul_vv(a, fj, a.basis_product(i, k)),
                      frac(-ksign(x * y)))
                _vadd(rhs, _mul_vb(a, _mul_vb(a, f.column(k), i), j),
                      frac(-ksign(z * (x + y))))
                _vadd(rhs, _mul_vb(a, f.apply_vec(a.basis_product(j, k)), i),
                      frac(-ksign(x * (y + z))))
                if lhs != rhs:
                    witnesses.append(Witness((i, j, k), Element.sparse(n, lhs),
                                             Element.sparse(n, rhs)))
    return _report(witnesses)


def skew_reference(b, f, space):
    """Skew-supersymmetry from the dense products F^T G and G F."""
    n = b.dim
    g = b.matrix()
    fm = [list(r) for r in f.matrix]
    lhs_m = linalg.mat_mul(linalg.transpose(fm), g)
    rhs_m = linalg.mat_mul(g, fm)
    witnesses = []
    for i in range(n):
        s = frac(-ksign(f.parity * space.parity(i)))
        for j in range(n):
            if lhs_m[i][j] != s * rhs_m[i][j]:
                witnesses.append(Witness((i, j), lhs_m[i][j],
                                         s * rhs_m[i][j]))
    return _report(witnesses)


def cocycle_from_operator_reference(q, f):
    fm = [list(r) for r in f.matrix]
    return Cocycle(linalg.mat_mul(linalg.transpose(fm), q.form.matrix()),
                   f.parity)


@st.composite
def algebras_with_operators(draw):
    """A graded algebra, a homogeneous operator with mixed denominators
    (dense, sparse or zero) and a sparse Gram matrix of any pattern."""
    a, g = draw(algebras_with_grams())
    n = a.dim
    parity = draw(st.sampled_from((EVEN, ODD)))
    density = draw(st.sampled_from((0, 1, 3)))
    m = [[Fraction(0)] * n for _ in range(n)]
    for r in range(n):
        for c in range(n):
            if ((a.space.parity(c) + parity) % 2 == a.space.parity(r)
                    and draw(st.integers(0, 3)) < density):
                m[r][c] = draw(SCALARS)
    return a, OperatorMap(m, parity), BilinearForm(g)


@settings(max_examples=80, deadline=None)
@given(algebras_with_operators())
def test_operator_identity_matches_per_triple_scan(case):
    a, f, _b = case
    rep = check_malcev_operator(a, f)
    assert rep == malcev_operator_reference(a, f)
    assert rep.passed == (not rep.witnesses)


@settings(max_examples=80, deadline=None)
@given(algebras_with_operators())
def test_skew_and_cocycle_match_dense_gram_products(case):
    a, f, b = case
    assert (check_skew_supersymmetric(b, f, a.space)
            == skew_reference(b, f, a.space))
    q = QuadraticAlgebra(a, b, validated=True)
    assert cocycle_from_operator(q, f) == cocycle_from_operator_reference(q, f)
