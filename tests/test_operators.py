import random
from fractions import Fraction

import pytest

from qmalcev import (Cocycle, EVEN, ODD, OperatorMap, catalog_get,
                     check_cocycle, check_malcev_operator,
                     check_skew_supersymmetric, cocycle_from_operator,
                     operator_from_cocycle, split_endomorphism)
from qmalcev.errors import GradingError


def abelian12():
    return catalog_get("abelian", p=1, q=2).algebra


def d_abelian12(flip=False):
    # u -> w, z -> -u (or +u when flipped), w -> 0
    return OperatorMap.from_images(
        3, {0: [0, 1, 0], 2: [1 if flip else -1, 0, 0]}, ODD)


def random_homogeneous_operator(space, parity, rng):
    n = space.dim
    m = [[Fraction(0)] * n for _ in range(n)]
    for c in range(n):
        for r in range(n):
            if (space.parity(c) + parity) % 2 == space.parity(r):
                m[r][c] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    return OperatorMap(m, parity)


def test_operator_parity_validation():
    # an odd operator on a purely odd space has nowhere to map
    with pytest.raises(GradingError):
        OperatorMap([[0, 1], [1, 0]], ODD).validate_parity(
            catalog_get("odd_hyperbolic").algebra.space)


def test_any_map_is_operator_on_abelian():
    q = abelian12()
    rng = random.Random(7)
    for parity in (EVEN, ODD):
        f = random_homogeneous_operator(q.space, parity, rng)
        assert check_malcev_operator(q.algebra, f).passed


def test_left_multiplication_is_operator(sl2):
    # ad(h) on a Lie algebra satisfies the five-term identity
    adh = OperatorMap.from_images(3, {1: [0, 2, 0], 2: [0, 0, -2]}, EVEN)
    assert check_malcev_operator(sl2.algebra, adh).passed
    assert check_skew_supersymmetric(sl2.form, adh, sl2.space).passed


def test_operator_space_is_linear(sl2):
    adh = OperatorMap.from_images(3, {1: [0, 2, 0], 2: [0, 0, -2]}, EVEN)
    adx = OperatorMap.from_images(3, {0: [0, -2, 0], 2: [1, 0, 0]}, EVEN)
    for a, b in ((1, 1), (2, -3), (0, 5)):
        combo = [[a * adh.matrix[r][c] + b * adx.matrix[r][c]
                  for c in range(3)] for r in range(3)]
        f = OperatorMap(combo, EVEN)
        assert check_malcev_operator(sl2.algebra, f).passed


def test_random_dense_map_fails_on_simple(m7):
    rng = random.Random(3)
    f = random_homogeneous_operator(m7.space, EVEN, rng)
    rep = check_malcev_operator(m7.algebra, f)
    assert not rep.passed and rep.witnesses


def test_skew_example_and_flip():
    q = abelian12()
    good = d_abelian12()
    assert check_skew_supersymmetric(q.form, good, q.space).passed
    bad = d_abelian12(flip=True)
    rep = check_skew_supersymmetric(q.form, bad, q.space)
    assert not rep.passed
    assert any(w.index == (0, 2) for w in rep.witnesses)  # the (u, z) pair


def test_zero_map_skew(sl2):
    z = OperatorMap.zero(3, EVEN)
    assert check_skew_supersymmetric(sl2.form, z, sl2.space).passed


def test_zero_cocycle_passes(m7):
    w = Cocycle([[0] * 7 for _ in range(7)], EVEN)
    assert check_cocycle(m7.algebra, w).passed


def test_cocycle_from_valid_operator_passes():
    q = abelian12()
    w = cocycle_from_operator(q, d_abelian12())
    assert w.parity == ODD
    assert check_cocycle(q.algebra, w).passed


def test_cocycle_identity_violation_detected(m7):
    vals = [[Fraction(0)] * 7 for _ in range(7)]
    vals[0][1] = Fraction(1)
    vals[1][0] = Fraction(-1)
    w = Cocycle(vals, EVEN)
    rep = check_cocycle(m7.algebra, w)
    assert not rep.passed


def test_cocycle_of_the_wrong_parity_is_refused(osp12):
    # b_0 is even and b_3 odd, so an even cocycle cannot pair them
    vals = [[0] * 5 for _ in range(5)]
    vals[0][3], vals[3][0] = 1, -1
    # the first offending entry in row-major order is named
    with pytest.raises(GradingError,
                       match=r"cocycle entry \(0,3\) violates parity even"):
        check_cocycle(osp12.algebra, Cocycle(vals, EVEN))


def test_round_trip_exact():
    q = abelian12()
    d = d_abelian12()
    w = cocycle_from_operator(q, d)
    back = operator_from_cocycle(q, w)
    assert back == d
    z = Cocycle([[0] * 3 for _ in range(3)], ODD)
    assert operator_from_cocycle(q, z) == OperatorMap.zero(3, ODD)


def test_correspondence_equivalence(osp12):
    rng = random.Random(11)
    for parity in (EVEN, ODD):
        for _ in range(6):
            f = random_homogeneous_operator(osp12.space, parity, rng)
            w = cocycle_from_operator(osp12, f)
            lhs = check_cocycle(osp12.algebra, w).passed
            rhs = (check_malcev_operator(osp12.algebra, f).passed
                   and check_skew_supersymmetric(osp12.form, f,
                                                 osp12.space).passed)
            assert lhs == rhs


def test_non_skew_operator_gives_non_skew_values(sl2):
    f = OperatorMap.from_images(3, {0: [1, 0, 0]}, EVEN)  # h -> h
    w = cocycle_from_operator(sl2, f)
    assert not w.graded_skew_report(sl2.space).passed


def test_split_endomorphism(osp12):
    n = osp12.dim
    rng = random.Random(5)
    dense = [[Fraction(rng.randint(-2, 2)) for _ in range(n)]
             for _ in range(n)]
    ev, od = split_endomorphism(dense, osp12.space)
    for r in range(n):
        for c in range(n):
            assert ev.matrix[r][c] + od.matrix[r][c] == dense[r][c]
    ev.validate_parity(osp12.space)
    od.validate_parity(osp12.space)
