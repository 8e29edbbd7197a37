import pytest

from qmalcev import (EVEN, OperatorMap, SuperAlgebra, SuperSpace,
                     catalog_get, change_basis_quadratic,
                     check_completely_reducible_action, check_reductive_even,
                     classify_U, direct_sum_quadratic, double_extension_even,
                     generalized_double_extension, inductive_decompose,
                     rebuild, reduce_even, reduce_odd, reductive_report,
                     verify_gde_data)
from qmalcev.errors import PreconditionError


def oscillator():
    """Even double extension of the 2-dim abelian plane by a rotation."""
    ab2 = catalog_get("abelian", p=2, q=0).algebra
    rot = OperatorMap.from_images(2, {0: [0, 1], 1: [-1, 0]}, EVEN)
    out, _ = double_extension_even(ab2, rot)
    return out


def assert_odd_round_trip(q):
    red = reduce_odd(q)
    assert red.n.dim == q.dim - 2
    assert red.phi_check.passed and red.psi_check.passed
    assert verify_gde_data(red.n, red.gde).passed
    ext, _ = generalized_double_extension(red.n, red.gde)
    adapted = change_basis_quadratic(q, [list(c) for c in red.basis])
    assert ext.algebra.constants == adapted.algebra.constants
    assert ext.form == adapted.form
    return red


def test_reduce_odd_hyperbolic_plane():
    red = assert_odd_round_trip(catalog_get("odd_hyperbolic").algebra)
    assert red.n.dim == 0
    assert all(all(x == 0 for x in row) for row in red.gde.d.matrix)
    assert red.gde.a0.is_zero()


def test_reduce_odd_extension_family(k21):
    red = assert_odd_round_trip(k21)
    # the reduction of the n = 2 member is the n = 1 member, entry-exact
    k1 = catalog_get("example_gde", n=1, m=(2,)).algebra
    assert red.n.algebra.constants == k1.algebra.constants
    assert red.n.form == k1.form


def test_reduce_odd_five_dim_instance():
    assert_odd_round_trip(catalog_get("gde_abelian12").algebra)


def test_reduce_odd_requires_central_odd(sl2):
    with pytest.raises(PreconditionError):
        reduce_odd(sl2)


def test_reduce_odd_certifies_irreducibility():
    # not simple, but the trace form on Gamma_s has rank 1
    red = reduce_odd(catalog_get("example_gde", n=1, m=(2,)).algebra)
    assert red.irreducible_certified is True


def test_reduce_odd_records_reducibility(sl2):
    plane = catalog_get("odd_hyperbolic").algebra
    ds = direct_sum_quadratic(sl2, plane)
    red = reduce_odd(ds)
    assert red.irreducible_certified is False
    assert red.n.algebra.constants == sl2.algebra.constants


def test_oscillator_frozen_table():
    """Hand-derived table: basis [e, a, b, e*] with ea = b, eb = -a,
    ab = e*, hyperbolic (e, e*) pairing."""
    from fractions import Fraction

    osc = oscillator()
    one = Fraction(1)
    assert osc.algebra.constants == {
        (0, 1, 2): one, (1, 0, 2): -one,
        (0, 2, 1): -one, (2, 0, 1): one,
        (1, 2, 3): one, (2, 1, 3): -one,
    }
    assert osc.form.gram[0][3] == one and osc.form.gram[3][0] == one


def test_reduce_even_round_trip_oscillator():
    osc = oscillator()
    red = reduce_even(osc)
    assert red.n.dim == 2
    assert red.phi_check.passed
    ext, _ = double_extension_even(red.n, red.operator)
    adapted = change_basis_quadratic(osc, [list(c) for c in red.basis])
    assert ext.algebra.constants == adapted.algebra.constants
    assert ext.form == adapted.form


def test_reduce_even_gram_corrects_anisotropic_dual():
    """In a sheared basis the first pairing vector has B(e,e) != 0; the
    reduction corrects it exactly and the round trip stays entry-exact."""
    osc = oscillator()
    sheared = change_basis_quadratic(
        osc, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert sheared.form.gram[0][0] != 0
    red = reduce_even(sheared)
    ext, _ = double_extension_even(red.n, red.operator)
    adapted = change_basis_quadratic(sheared, [list(c) for c in red.basis])
    assert ext.algebra.constants == adapted.algebra.constants
    assert ext.form == adapted.form


def test_reduce_even_refuses_splittable_plane():
    with pytest.raises(PreconditionError, match="split first"):
        reduce_even(catalog_get("even_hyperbolic").algebra)


def test_reduce_even_requires_central_even(k21):
    with pytest.raises(PreconditionError):
        reduce_even(catalog_get("osp12").algebra)


def test_classify_labels(sl2, m7, osp12, m2):
    assert classify_U(catalog_get("zero").algebra).tag == "zero"
    assert classify_U(catalog_get("one_dim_lie").algebra).tag == "one_dim_lie"
    assert classify_U(m7).tag == "simple_non_lie_malcev"
    assert classify_U(sl2).tag == "simple_lie_superalgebra"
    assert classify_U(osp12).tag == "simple_lie_superalgebra"
    assert classify_U(m2.algebra).tag == "not_in_U"


def test_reductive_reports(sl2, k21):
    rep = check_reductive_even(k21)
    assert rep.reductive is True
    assert rep.certificate == "abelian"
    rep2 = check_reductive_even(sl2)
    assert rep2.reductive is True
    assert "simple" in rep2.certificate


def test_reductive_rejects_solvable():
    solv = SuperAlgebra(SuperSpace(2, 0), {(0, 1, 1): 1, (1, 0, 1): -1})
    rep = reductive_report(solv)
    assert rep.reductive is False


def test_reductive_rejects_a_center_inside_the_square():
    # dim Z + dim A^2 = 1 + 3 = 4, but Z lies in A^2: not a direct sum
    rep = check_reductive_even(oscillator())
    assert (rep.reductive, rep.center_dim, rep.square_dim,
            rep.decomposes) == (False, 1, 3, False)


def test_completely_reducible_action_failure(k21):
    rep = check_completely_reducible_action(k21)
    assert rep.completely_reducible is False
    n = k21.dim
    y = rep.witness_subspace
    assert y.dim == 3
    # exactly span{y_1, y_2, e*}
    for idx in (4, 5, 6):
        assert y.contains([1 if i == idx else 0 for i in range(n)])
    into, kills, nonzero = rep.obstruction_triple
    assert into and kills and nonzero


def test_completely_reducible_action_success(sl2):
    triv = direct_sum_quadratic(sl2, catalog_get("abelian", p=0, q=2).algebra)
    assert check_completely_reducible_action(triv).completely_reducible
    ab = catalog_get("abelian", p=2, q=2).algebra
    assert check_completely_reducible_action(ab).completely_reducible


def test_completely_reducible_nontrivial_semisimple(osp12):
    # genuinely nonzero action with a semisimple enveloping algebra
    rep = check_completely_reducible_action(osp12)
    assert rep.completely_reducible is True
    assert "semisimple" in rep.certificate


def assert_tree_rebuilds(q):
    tree = inductive_decompose(q)
    out = rebuild(tree)
    assert out.algebra.constants == q.algebra.constants
    assert out.form == q.form
    assert out.algebra.space == q.algebra.space
    return tree


def test_decompose_odd_plane():
    tree = assert_tree_rebuilds(catalog_get("odd_hyperbolic").algebra)
    root = tree.root
    assert root.kind == "odd_gde"
    assert root.child.kind == "leaf" and root.child.label.tag == "zero"


def test_decompose_simple_leaf(m7):
    tree = assert_tree_rebuilds(m7)
    assert tree.root.kind == "leaf"
    assert tree.root.label.tag == "simple_non_lie_malcev"


def test_decompose_five_dim():
    tree = assert_tree_rebuilds(catalog_get("gde_abelian12").algebra)
    assert tree.root.kind == "odd_gde"


def test_decompose_sum_pipeline(sl2):
    k = catalog_get("example_gde", n=2, m=(1, 1)).algebra
    q = direct_sum_quadratic(sl2, k)
    tree = assert_tree_rebuilds(q)
    assert tree.root.kind == "sum"
    tags = sorted(l.label.tag for l in tree.leaves())
    assert set(tags) <= {"simple_lie_superalgebra", "one_dim_lie", "zero"}
    assert "simple_lie_superalgebra" in tags and "one_dim_lie" in tags


def test_decompose_oscillator_uses_even_reduction():
    tree = assert_tree_rebuilds(oscillator())
    assert tree.root.kind == "even_de"
    # the reduced plane splits into two anisotropic lines
    inner = tree.root.child
    assert inner.kind == "sum"
    assert sorted(l.label.tag for l in tree.leaves()) == ["one_dim_lie",
                                                          "one_dim_lie"]


def test_leaf_labels_reproducible(sl2):
    k = catalog_get("example_gde", n=2, m=(1, 2)).algebra
    tree = inductive_decompose(direct_sum_quadratic(sl2, k))
    for leaf in tree.leaves():
        assert classify_U(leaf.algebra).tag == leaf.label.tag


def test_decompose_records_reductive_advisory(k21):
    tree = inductive_decompose(k21)
    assert tree.advisory_reductive is not None
    assert tree.advisory_reductive.reductive is True


@pytest.mark.parametrize("name,params", [
    ("zero", {}),
    ("one_dim_lie", {}),
    ("abelian", {"p": 2, "q": 2}),
    ("abelian", {"p": 0, "q": 4}),
    ("sl2", {}),
    ("m7", {}),
    ("osp12", {}),
    ("example_gde", {"n": 1, "m": (2,)}),
    ("example_gde", {"n": 2, "m": (1, 2)}),
    ("odd_hyperbolic", {}),
    ("even_hyperbolic", {}),
    ("gde_abelian12", {}),
])
def test_decompose_rebuild_exact_across_catalog(name, params):
    q = catalog_get(name, **params).algebra
    tree = assert_tree_rebuilds(q)
    for leaf in tree.leaves():
        assert classify_U(leaf.algebra).tag == leaf.label.tag


def test_decompose_semisimple_sum(m7, osp12):
    q = direct_sum_quadratic(m7, osp12)
    tree = assert_tree_rebuilds(q)
    assert tree.root.kind == "sum"
    assert sorted(l.label.tag for l in tree.leaves()) == [
        "simple_lie_superalgebra", "simple_non_lie_malcev"]


def test_rebuild_single_nodes():
    z = catalog_get("zero").algebra
    from qmalcev.decompose import Leaf
    from qmalcev import ULabel

    leaf = Leaf(z, ULabel("zero"))
    assert rebuild(leaf).dim == 0
