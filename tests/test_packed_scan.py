"""The packed-int encoding of the scan kernel.

`core._packed` stores an int vector {k: c} as one int, `bits` bits a
coordinate from a base index, and `core._unpacked` reads its balanced
digits back.  The Malcev and Jacobi passes add whole packed vectors, so a
final sum decodes exactly when its coordinates are balanced digits, however
far the partial sums stray.  These tests check the round trip at the digit
limits, sums that carry and borrow across slots, the slot width of the
kernels the suite builds (conftest checks each one as it is built), both
passes against the dense Fraction references on constants with numerators
up to 10^12, and that the memory of the Malcev pass follows the blocks of a
direct sum rather than its dimension.
"""

import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmalcev import (SuperAlgebra, SuperSpace, catalog_get, check_jacobi,
                     check_malcev, direct_sum, product)
from qmalcev.core import (Element, _packed, _scan_kernel, _ScanKernel,
                          _unpacked)

from conftest import slot_bound
from test_scan_kernel import (NOT_ANTI_JACOBI, ODD_LINE, ODD_LINE_ONE_SIDED,
                              ODD_SQUARE, PERIODIC, graded_algebras,
                              jacobi_reference, malcev_reference)

BITS = (2, 3, 4, 7, 16, 61)


def _round_trip(vec, base, bits):
    return _unpacked(_packed(vec, base, bits), base, bits)


@pytest.mark.parametrize("bits", BITS)
def test_round_trip_at_the_digit_limits(bits):
    top = 2 ** (bits - 1) - 1
    cases = [
        {0: top}, {0: -top}, {0: -top - 1},
        {3: top, 4: -top},
        {5: -top, 6: top, 9: -top},  # negative leading and trailing digits
        {5: -1, 6: 1}, {5: 1, 6: -1, 7: 1},  # borrows from the next slot
        {7: -top, 8: -top, 9: -top},
        {7: top, 8: top, 12: top},
    ]
    for vec in cases:
        for base in sorted({0, min(vec) // 2, min(vec)}):
            assert _round_trip(vec, base, bits) == vec, (vec, base)
    assert _packed({}, 3, bits) == 0 and _unpacked(0, 3, bits) == {}


@pytest.mark.parametrize("bits", BITS)
def test_sums_carry_across_slots(bits):
    """The int sum of packed vectors decodes to the coordinate sum when that
    is in range, though the partial sums leave it."""
    top = 2 ** (bits - 1) - 1
    base = 4
    u = {4: top, 5: -top, 7: top}
    v = {4: -top, 5: top - 1, 6: -top, 7: 1 - top}
    x, y = _packed(u, base, bits), _packed(v, base, bits)
    assert _unpacked(x + y, base, bits) == {5: -1, 6: -top, 7: 1}
    assert _unpacked(100 * x - 99 * x, base, bits) == u
    assert _unpacked(7 * x + 3 * y - 7 * x - 3 * y, base, bits) == {}
    assert _unpacked(-x, base, bits) == {k: -c for k, c in u.items()}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(BITS), st.data())
def test_round_trip_of_drawn_vectors(bits, data):
    half = 2 ** (bits - 1)
    vec = data.draw(st.dictionaries(
        st.integers(0, 40), st.integers(-half, half - 1).filter(bool),
        max_size=12))
    base = data.draw(st.integers(0, min(vec, default=0)))
    assert _round_trip(vec, base, bits) == vec


# numerators up to 10^12 over denominators up to 7
BIG = st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12).filter(bool),
                st.integers(1, 7))

# two summands that fail the Malcev identity, the second in a block whose
# least index is not 0
TWO_BLOCKS = direct_sum(ODD_SQUARE, PERIODIC)
TWO_BLOCKS_ONE_SIDED = direct_sum(NOT_ANTI_JACOBI, ODD_LINE_ONE_SIDED)
SCALED = SuperAlgebra(SuperSpace(1, 2), {
    key: Fraction(10 ** 12 - 1, 7) * c
    for key, c in PERIODIC.constants.items()})


@settings(max_examples=40, deadline=None)
@given(graded_algebras(scalars=BIG))
@example(TWO_BLOCKS)
@example(TWO_BLOCKS_ONE_SIDED)
@example(SCALED)
@example(direct_sum(ODD_LINE, SCALED))
def test_big_constants_match_the_dense_references(a):
    """Anticommutative algebras (the orbit pass) and others (the full pass)
    with large constants list exactly the witnesses of the references."""
    assert list(check_malcev(a).witnesses) == malcev_reference(a)
    assert list(check_jacobi(a).witnesses) == jacobi_reference(a)


@settings(max_examples=40, deadline=None)
@given(graded_algebras(scalars=BIG))
@example(TWO_BLOCKS)
def test_decoded_table_is_the_scaled_triple_products(a):
    """The dict view of the packed table is D^2 (b_a b_b) b_c, D the lcm of
    the denominators, at exactly the (a, b, c) where that is nonzero."""
    kern = _scan_kernel(a)
    n = a.dim
    basis = [Element.basis(n, i) for i in range(n)]
    want = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                v = product(a, product(a, basis[i], basis[j]), basis[k])
                if not v.is_zero():
                    want.setdefault((i, j), {})[k] = {
                        m: int(x * kern.scale ** 2)
                        for m, x in v.entries.items()}
    assert kern.triples == want


def test_every_kernel_has_room_for_its_sums():
    """The slot width of a few kernels against slot_bound, and no wider
    than the bound needs; conftest checks every kernel the suite builds."""
    names = ("sl2", "osp12", "m7", "gde_abelian12")
    algebras = [catalog_get(name).algebra.algebra for name in names]
    for a in algebras + [TWO_BLOCKS, SCALED, direct_sum(ODD_LINE, SCALED)]:
        bits, bound = _ScanKernel(a).bits, slot_bound(a)
        assert 2 ** (bits - 2) <= bound < 2 ** (bits - 1)


def _m7_sum(copies):
    m7 = catalog_get("m7").algebra.algebra
    a = m7
    for _ in range(copies - 1):
        a = direct_sum(a, m7)
    return a


def test_malcev_memory_follows_the_blocks():
    """The Malcev pass over 30 copies of m7 (dim 210) keeps one int a
    quadruple, each spanning one copy's 7 slots, not 210.  No int of the
    table is wider than 7 slots, and the pass's traced peak, with the kernel
    and the Jacobi report it reads already built, stays under 5.5 MB (5.2 MB
    when each sum was a dict).  The whole check, kernel included, stays
    under 1.48 s, a loose bound: the dict pass took 0.22 s on a 2-vCPU
    host, 1.44 s under tracemalloc."""
    a = _m7_sum(30)
    start = time.perf_counter()
    assert check_malcev(a).passed
    assert time.perf_counter() - start < 1.48
    b = _m7_sum(30)
    assert not check_jacobi(b).passed
    kern = _scan_kernel(b)
    assert max(x.bit_length() for row in kern.packed.values()
               for x in row.values()) <= 7 * kern.bits
    tracemalloc.start()
    try:
        assert check_malcev(b).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.5e6
