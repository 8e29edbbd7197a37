"""The modular multiplication-algebra certificate, the ideal-closure memo
and the lazily computed advisory report.

Full rank mod p of the multiplication algebra lifts to Q; a rank deficit
mod p proves nothing, so simplicity falls back to the exact search.  The
memoized closures are checked against a plain fixpoint over `core.product`.
The closure dimensions are checked against the old flat generators of
`references`, over Q and mod p.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from qmalcev import (GradedSubspace, SuperAlgebra, catalog_get, change_basis,
                     direct_sum_quadratic, emit_tree, inductive_decompose,
                     product, simplicity)
from qmalcev import core, decompose
from qmalcev.core import (_CERT_PRIME, Element, _ideal_candidates,
                          _multiplication_algebra_dim, center, ideal_closure)
from qmalcev.linalg import basis_vector, dense

import references
from test_scan_kernel import graded_algebras

NON_ABELIAN = [
    ("sl2", {}),
    ("m7", {}),
    ("osp12", {}),
    ("example_M", {"n": 1, "m": (1,)}),
    ("example_M", {"n": 2, "m": (1, 2)}),
    ("example_gde", {"n": 1, "m": (2,)}),
    ("example_gde", {"n": 2, "m": (1, 1)}),
    ("gde_abelian12", {}),
]

FULL = {"sl2", "m7", "osp12"}


def fresh(a):
    """A copy of a with empty caches."""
    return SuperAlgebra(a.space, a.constants, name=a.name)


def full_mod_p(a):
    """Whether M(A) spans every n x n matrix modulo 2^61 - 1."""
    return _multiplication_algebra_dim(a, _CERT_PRIME) == a.dim ** 2


def refusing(monkeypatch, refused):
    """Patch _multiplication_algebra_dim to raise for the modulus refused
    and to run as before for the other."""
    real = core._multiplication_algebra_dim

    def closure(a, p=0):
        if p == refused:
            raise AssertionError("closure run for p = %d" % p)
        return real(a, p)

    monkeypatch.setattr(core, "_multiplication_algebra_dim", closure)


@pytest.mark.parametrize("name,params", NON_ABELIAN)
def test_mod_p_verdict_matches_rational_closure(name, params):
    a = fresh(catalog_get(name, **params).algebra.algebra)
    n = a.dim
    full = full_mod_p(a)
    assert full == (_multiplication_algebra_dim(a) == n * n)
    assert full == (name in FULL)


@settings(max_examples=60, deadline=None)
@given(graded_algebras())
def test_full_mod_p_implies_full_over_q(a):
    if a.is_abelian():
        return
    if full_mod_p(a):
        assert _multiplication_algebra_dim(a) == a.dim * a.dim


@settings(max_examples=80, deadline=None)
@given(graded_algebras())
def test_closure_dimensions_match_the_flat_generators(a):
    """The column-map L_i and R_j close to the dimension that the old flat
    generators reach, over Q and mod p."""
    for p in (0, _CERT_PRIME):
        flat = references._multiplication_generators(a, p)
        want = len(references._enveloping_basis(flat, a.dim, p))
        assert _multiplication_algebra_dim(fresh(a), p) == want


@pytest.mark.parametrize("name,params",
                         [e for e in NON_ABELIAN if e[0] not in FULL])
def test_central_algebra_skips_the_mod_p_closure(monkeypatch, name, params):
    """Each non-full entry has a nonzero center, so simplicity goes
    straight to the candidates, and the first center column closes to the
    ideal it reports."""
    a = catalog_get(name, **params).algebra.algebra
    refusing(monkeypatch, _CERT_PRIME)
    rep = simplicity(fresh(a))
    first = GradedSubspace.from_vectors(a.space, [center(a).rows[0]])
    assert rep.simple is False
    assert rep.ideal == ideal_closure(fresh(a), first)


@pytest.mark.parametrize("name", sorted(FULL))
def test_centerless_algebra_is_certified_mod_p(monkeypatch, name):
    def refuse(*args):
        raise AssertionError("certified without the mod-p closure")

    monkeypatch.setattr(core, "_ideal_candidates", refuse)
    refusing(monkeypatch, 0)
    rep = simplicity(fresh(catalog_get(name).algebra.algebra))
    assert rep.simple is True


@pytest.mark.parametrize("i", range(3))
def test_deficit_mod_p_falls_back_to_the_rational_closure(i):
    sl2 = catalog_get("sl2").algebra.algebra
    cols = [basis_vector(3, j) for j in range(3)]
    cols[i][i] = _CERT_PRIME
    a = change_basis(sl2, cols)
    assert not full_mod_p(a)
    rep = simplicity(a)
    assert rep.simple is True
    assert rep.note == "multiplication algebra is full"


def test_denominators_are_cleared_before_reduction():
    """sl2+sl2 in a basis that mixes the summands has constants with
    denominators 5, 10 and 15; reducing their numerators alone would
    certify the non-simple sum as full."""
    q = direct_sum_quadratic(catalog_get("sl2").algebra,
                             catalog_get("sl2").algebra)
    cols = []
    for i in range(3):
        c = [0] * 6
        c[i], c[3 + i] = 1, Fraction(1, 3)
        cols.append(c)
    for i in range(3):
        c = [0] * 6
        c[i], c[3 + i] = Fraction(1, 2), 1
        cols.append(c)
    a = change_basis(q.algebra, cols)
    assert {c.denominator for c in a.constants.values()} == {5, 10, 15}
    assert not full_mod_p(a)
    assert _multiplication_algebra_dim(a) == 18
    assert simplicity(a).simple is not True


def reference_closure(a, seed: GradedSubspace) -> GradedSubspace:
    """Fixpoint of adding b_j x and x b_j for every column x."""
    n = a.dim
    basis = [Element.basis(n, j) for j in range(n)]
    cur = seed
    while True:
        columns = [dense(r, n) for r in cur.rows]
        vecs = [list(c) for c in columns]
        for col in columns:
            x = Element(col)
            for b in basis:
                vecs.append(list(dense(product(a, b, x).entries, n)))
                vecs.append(list(dense(product(a, x, b).entries, n)))
        nxt = GradedSubspace.from_vectors(a.space, vecs)
        if nxt.dim == cur.dim:
            return nxt
        cur = nxt


@pytest.mark.parametrize("q", [
    direct_sum_quadratic(catalog_get("sl2").algebra,
                         catalog_get("abelian", p=1, q=0).algebra),
    catalog_get("example_gde", n=2, m=(1, 2)).algebra,
], ids=["sl2+abelian10", "example_gde2"])
def test_cached_closure_equals_reference(q):
    a = fresh(q.algebra)
    for seed in _ideal_candidates(a):
        sub = GradedSubspace.from_vectors(a.space, seed)
        if sub.dim == 0:
            continue
        want = reference_closure(a, sub)
        assert ideal_closure(a, sub) == want
        # the closure is stored under its own columns: an ideal closes to
        # itself, and a second call is served from the memo
        assert ideal_closure(a, want) == want
        assert ideal_closure(a, sub) is ideal_closure(a, sub)


def test_advisory_report_is_computed_on_read(monkeypatch):
    q = direct_sum_quadratic(catalog_get("sl2").algebra,
                             catalog_get("abelian", p=1, q=0).algebra)

    def refuse(_q):
        raise RuntimeError("advisory computed")

    monkeypatch.setattr(decompose, "check_reductive_even", refuse)
    tree = inductive_decompose(q)
    assert emit_tree(tree)
    with pytest.raises(RuntimeError, match="advisory computed"):
        tree.advisory_reductive
