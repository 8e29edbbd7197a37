"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every comparison is zero-tolerance (entry-exact equality of Fractions);
the only numeric bounds are the stated wall-clock limits.  Each test
prints a single verdict line; run with -s to see them inline.
"""

import io
import itertools
import json
import random
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from qmalcev import (Element, EVEN, ODD, GdeData, OperatorMap, catalog_get,
                     change_basis_quadratic, check_cocycle,
                     check_completely_reducible_action, check_gsd_conditions,
                     check_jacobi, check_malcev, check_malcev_operator,
                     check_reductive_even, check_skew_supersymmetric,
                     classify_U, cocycle_from_operator, direct_sum_quadratic,
                     emit_document, gde_abelian12_parts,
                     generalized_double_extension,
                     generalized_semidirect_product, inductive_decompose,
                     operator_from_cocycle, parse_algebra_document, rebuild,
                     reduce_odd, semidirect_data_from_gde, simplicity,
                     SuperAlgebra, verify_gde_data)
from qmalcev.catalog import example_m_uncorrected_data
from qmalcev.cli import run as cli_run
from qmalcev.linalg import basis_vector

ONE = Fraction(1)


def verdict(number, ok, text):
    print("ACCEPTANCE %2d: %s — %s" % (number, "PASS" if ok else "FAIL",
                                       text))
    assert ok, "criterion %d failed: %s" % (number, text)


def all_m_vectors(n):
    return [tuple(v) for v in itertools.product((1, 2), repeat=n)]


def test_criterion_1_malcev_not_lie_separation():
    q = catalog_get("m7").algebra
    t0 = time.perf_counter()
    malcev = check_malcev(q.algebra)
    jacobi = check_jacobi(q.algebra)
    elapsed = time.perf_counter() - t0
    ok = (malcev.passed and not jacobi.passed and len(jacobi.witnesses) >= 1
          and elapsed < 1.0)
    verdict(1, ok, "m7 satisfies the Malcev scan (7^4 quadruples) and fails "
                   "Jacobi with a witness in %.3fs" % elapsed)


def test_m7_simplicity_certified():
    """m7 is simple, certified by a full multiplication algebra."""
    a = catalog_get("m7").algebra.algebra
    rep = simplicity(SuperAlgebra(a.space, a.constants, name=a.name))
    ok = rep.simple is True and rep.note == "multiplication algebra is full"
    print("ACCEPTANCE m7: %s — simplicity(m7) is %r (%s)"
          % ("PASS" if ok else "FAIL", rep.simple, rep.note))
    assert ok


def test_criterion_2_example_reproduction():
    checked = 0
    for n in (1, 2, 3):
        for m in all_m_vectors(n):
            base = catalog_get("example_M", n=n, m=m)
            ext = catalog_get("example_gde", n=n, m=m).algebra
            assert ext.validated
            rebuilt, _ = generalized_double_extension(base.algebra,
                                                      base.extras)
            assert rebuilt.algebra.constants == ext.algebra.constants
            assert rebuilt.form == ext.form
            C = ext.algebra.constants
            a, e, estar = 0, 1, 2 * n + 2
            for i, mi in enumerate(map(Fraction, m)):
                v, y = 2 + i, 2 + n + i
                assert C.get((e, v, a)) == mi          # e v_i = m_i a
                assert C.get((a, v, y)) == ONE         # a v_i = y_i - m_i e*
                assert C.get((a, v, estar)) == -mi
            checked += 1
    q, uncorrected = example_m_uncorrected_data(2, (1, 2))
    report = verify_gde_data(q, uncorrected)
    uncorrected_rejected = (not report.passed
                            and report.first_failure() == "skew"
                            and len(report.skew.witnesses) >= 1)
    ok = checked == 14 and uncorrected_rejected
    verdict(2, ok, "all 14 (n, m) family members match the extension table "
                   "entry-exactly with the frozen brackets; the uncorrected "
                   "operator data fails with a skew witness")


def test_criterion_3_non_complete_reducibility():
    results = []
    for n, m in ((2, (1, 1)), (2, (1, 2)), (3, (1, 2, 2))):
        q = catalog_get("example_gde", n=n, m=m).algebra
        rep = check_completely_reducible_action(q)
        y = rep.witness_subspace
        dim = q.dim
        want = [basis_vector(dim, 2 + n + i) for i in range(n)]
        want.append(basis_vector(dim, dim - 1))
        witness_ok = (y is not None and y.dim == n + 1
                      and all(y.contains(v) for v in want))
        into, kills, nonzero = rep.obstruction_triple
        red = check_reductive_even(q)
        results.append(rep.completely_reducible is False and witness_ok
                       and into and kills and nonzero
                       and red.reductive is True
                       and red.certificate == "abelian")
    verdict(3, all(results),
            "the extended family action is not completely reducible with "
            "witness span{y_i, e*}; the even part certifies reductive "
            "(abelian line)")


def test_criterion_4_round_trip():
    cases = [catalog_get("example_gde", n=1, m=(2,)).algebra,
             catalog_get("example_gde", n=2, m=(1, 2)).algebra,
             catalog_get("odd_hyperbolic").algebra,
             catalog_get("gde_abelian12").algebra]
    ok = True
    for q in cases:
        red = reduce_odd(q)
        ok = ok and red.n.dim == q.dim - 2
        ext, _ = generalized_double_extension(red.n, red.gde)
        adapted = change_basis_quadratic(q, red.basis)
        ok = ok and ext.algebra.constants == adapted.algebra.constants
        ok = ok and ext.form == adapted.form
    verdict(4, ok, "reduce-then-extend reproduces constants and Gram "
                   "entry-exactly in the witness basis for every catalog "
                   "entry with a central odd vector")


def test_criterion_5_semidirect_consistency():
    datasets = [(catalog_get("example_M", n=n, m=m).algebra,
                 catalog_get("example_M", n=n, m=m).extras)
                for n, m in ((1, (1,)), (1, (2,)), (2, (1, 2)),
                             (3, (2, 1, 2)))]
    datasets.append(gde_abelian12_parts())
    ok = True
    for q, gde in datasets:
        line, vext, data = semidirect_data_from_gde(q, gde)
        rep = check_gsd_conditions(line, vext, data)
        ok = ok and rep.passed
        gsd = generalized_semidirect_product(line, vext, data)
        ext, _ = generalized_double_extension(q, gde)
        ok = ok and gsd.constants == ext.algebra.constants
        ok = ok and gsd.space == ext.algebra.space
    verdict(5, ok, "every verified extension datum passes all five "
                   "semidirect conditions and the two constructions agree "
                   "entry-exactly")


def _random_homogeneous(space, parity, rng):
    n = space.dim
    m = [[Fraction(0)] * n for _ in range(n)]
    for c in range(n):
        for r in range(n):
            if (space.parity(c) + parity) % 2 == space.parity(r):
                m[r][c] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    return OperatorMap(m, parity)


def test_criterion_6_cocycle_operator_correspondence():
    entries = [catalog_get("zero"), catalog_get("one_dim_lie"),
               catalog_get("abelian", p=1, q=2), catalog_get("sl2"),
               catalog_get("m7"), catalog_get("osp12"),
               catalog_get("example_M", n=2, m=(1, 2)),
               catalog_get("example_gde", n=1, m=(2,)),
               catalog_get("odd_hyperbolic"), catalog_get("even_hyperbolic"),
               catalog_get("gde_abelian12")]
    rng = random.Random(0x5EED)
    disagreements = 0
    round_trips = 0
    for entry in entries:
        q = entry.algebra
        for t in range(20):
            parity = rng.choice((EVEN, ODD))
            f = _random_homogeneous(q.space, parity, rng)
            w = cocycle_from_operator(q, f)
            back = operator_from_cocycle(q, w)
            assert back == f
            round_trips += 1
            lhs = check_cocycle(q.algebra, w).passed
            rhs = (check_malcev_operator(q.algebra, f).passed
                   and check_skew_supersymmetric(q.form, f, q.space).passed)
            if lhs != rhs:
                disagreements += 1
    ok = round_trips == 20 * len(entries) and disagreements == 0
    verdict(6, ok, "%d exact correspondence round trips with %d equivalence "
                   "disagreements" % (round_trips, disagreements))


def test_criterion_7_decomposition_pipeline():
    t0 = time.perf_counter()
    q = direct_sum_quadratic(catalog_get("sl2").algebra,
                             catalog_get("example_gde", n=2, m=(1, 1))
                             .algebra)
    tree = inductive_decompose(q)
    out = rebuild(tree)
    elapsed = time.perf_counter() - t0
    tags = sorted(l.label.tag for l in tree.leaves())
    allowed = {"simple_lie_superalgebra", "simple_non_lie_malcev",
               "one_dim_lie", "zero"}

    def has_odd_node(node):
        if node.kind == "odd_gde":
            return True
        if node.kind == "sum":
            return any(has_odd_node(c) for c in node.children)
        if node.kind == "leaf":
            return False
        return has_odd_node(node.child)

    ok = (tree.root.kind == "sum"
          and set(tags) <= allowed
          and "simple_lie_superalgebra" in tags
          and "one_dim_lie" in tags
          and has_odd_node(tree.root)
          and out.algebra.constants == q.algebra.constants
          and out.form == q.form
          and elapsed < 10.0)
    verdict(7, ok, "sum root with leaves %s via odd reductions; rebuild "
                   "entry-exact in %.2fs" % (tags, elapsed))


def test_criterion_8_degenerate_gates():
    sl2 = catalog_get("sl2").algebra
    g = GdeData(OperatorMap.zero(3, ODD), Element.zero(3))
    ext, wit = generalized_double_extension(sl2, g)
    ds = direct_sum_quadratic(sl2, catalog_get("odd_hyperbolic").algebra)
    perm = [basis_vector(5, i) for i in range(3)]
    perm += [basis_vector(5, wit.e_index), basis_vector(5, wit.estar_index)]
    reordered = change_basis_quadratic(ext, perm)
    trivial_ok = (reordered.algebra.constants == ds.algebra.constants
                  and reordered.form == ds.form)

    from qmalcev import b_irreducible_components

    plane = catalog_get("even_hyperbolic").algebra
    comps = b_irreducible_components(plane)
    split_ok = (len(comps) == 2
                and comps.components[0].form.gram == ((Fraction(2),),)
                and comps.components[1].form.gram == ((Fraction(-2),),)
                and all(classify_U(c).tag == "one_dim_lie"
                        for c in comps.components))
    verdict(8, trivial_ok and split_ok,
            "trivial extension equals the orthogonal sum with the odd "
            "plane exactly; the even plane splits into one-dimensional "
            "leaves with form values 2 and -2")


def test_criterion_9_scale_check():
    q = direct_sum_quadratic(
        direct_sum_quadratic(catalog_get("sl2").algebra,
                             catalog_get("m7").algebra),
        direct_sum_quadratic(catalog_get("osp12").algebra,
                             catalog_get("abelian", p=3, q=2).algebra))
    assert q.dim == 20 and q.validated
    t0 = time.perf_counter()
    rep = check_malcev(q.algebra)
    elapsed = time.perf_counter() - t0
    ok = rep.passed and elapsed < 30.0
    verdict(9, ok, "full Malcev scan of the validated 20-dimensional sum "
                   "in %.2fs (exact arithmetic)" % elapsed)


def test_criterion_10_serialization_and_cli():
    names = [("zero", {}), ("one_dim_lie", {}),
             ("abelian", {"p": 1, "q": 2}), ("abelian", {"p": 0, "q": 2}),
             ("sl2", {}), ("m7", {}), ("osp12", {}),
             ("example_M", {"n": 1, "m": (1,)}),
             ("example_M", {"n": 2, "m": (1, 2)}),
             ("example_gde", {"n": 2, "m": (1, 1)}),
             ("odd_hyperbolic", {}), ("even_hyperbolic", {}),
             ("gde_abelian12", {})]
    byte_ok = True
    for name, params in names:
        entry = catalog_get(name, **params)
        text = emit_document(entry.algebra, gde=entry.extras)
        q, _op, gde = parse_algebra_document(text)
        byte_ok = byte_ok and emit_document(q, gde=gde) == text

    def run_quiet(*argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli_run(list(argv))
        return code, out.getvalue()

    import tempfile, os

    with tempfile.TemporaryDirectory() as td:
        good = os.path.join(td, "good.json")
        code, text = run_quiet("catalog", "m7")
        open(good, "w").write(text)
        checks = [run_quiet("check", good)[0] == 0]
        doc = json.loads(text)
        doc["constants"] = doc["constants"][1:]
        mutated = os.path.join(td, "mutated.json")
        open(mutated, "w").write(json.dumps(doc, sort_keys=True,
                                            separators=(",", ":")) + "\n")
        checks.append(run_quiet("check", mutated)[0] == 3)
        garbage = os.path.join(td, "garbage.json")
        open(garbage, "w").write("{broken")
        checks.append(run_quiet("check", garbage)[0] == 2)
        checks.append(run_quiet("catalog", "unknown_name")[0] == 4)
        sl2_path = os.path.join(td, "sl2.json")
        open(sl2_path, "w").write(run_quiet("catalog", "sl2")[1])
        checks.append(run_quiet("reduce", sl2_path)[0] == 4)
    verdict(10, byte_ok and all(checks),
            "byte-identical emit/parse across the catalog; CLI exit codes "
            "0/2/3/4 verified on the good/mutated matrix")


def test_declared_dimension_check_follows_the_nonzeros():
    """The 83-byte document of dimension 400 with no constants and no Gram
    entries: every scan runs over the (empty) nonzeros, only the Gram
    kernel has 400 vectors."""
    text = ('{"constants":[],"even_dim":400,"format_version":1,"gram":[],'
            '"name":"z","odd_dim":0}')
    assert len(text) == 83
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli_run(["check", "-"])
    finally:
        sys.stdin = saved
    elapsed = time.perf_counter() - t0
    checks = json.loads(out.getvalue())["checks"]
    failures = {name: rep["failures"] for name, rep in checks.items()}
    ok = (code == 3 and failures.pop("form_nondegenerate") == 400
          and not any(failures.values()) and elapsed < 5.0)
    verdict(11, ok, "check of a 400-dim zero document exits 3 with 400 "
                    "kernel witnesses in %.2fs" % elapsed)
