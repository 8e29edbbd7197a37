from fractions import Fraction

import pytest

from qmalcev import (catalog_get, check_form, check_jacobi, check_malcev,
                     gde_abelian12_parts, verify_gde_data)
from qmalcev.catalog import CATALOG_NAMES, M7_TRACE_SCALE
from qmalcev.errors import PreconditionError

ALL_INSTANCES = [
    ("zero", {}),
    ("one_dim_lie", {}),
    ("abelian", {"p": 2, "q": 2}),
    ("abelian", {"p": 0, "q": 4}),
    ("sl2", {}),
    ("m7", {}),
    ("osp12", {}),
    ("example_M", {"n": 1, "m": (1,)}),
    ("example_M", {"n": 2, "m": (1, 2)}),
    ("example_M", {"n": 3, "m": (2, 2, 1)}),
    ("example_gde", {"n": 1, "m": (2,)}),
    ("example_gde", {"n": 2, "m": (1, 1)}),
    ("odd_hyperbolic", {}),
    ("even_hyperbolic", {}),
    ("gde_abelian12", {}),
]


@pytest.mark.parametrize("name,params", ALL_INSTANCES)
def test_every_entry_fully_validates(name, params):
    entry = catalog_get(name, **params)
    q = entry.algebra
    assert q.validated
    assert check_malcev(q.algebra).passed
    assert check_form(q.algebra, q.form).passed
    if entry.extras is not None:
        assert verify_gde_data(q, entry.extras).passed


def test_m7_properties():
    q = catalog_get("m7").algebra
    assert check_malcev(q.algebra).passed
    assert not check_jacobi(q.algebra).passed


def test_m7_trace_form_is_scaled_gram():
    from qmalcev.core import _multiplication_generators
    from qmalcev.quadratic import _trace_rows

    q = catalog_get("m7").algebra
    a = q.algebra
    tf = list(_trace_rows(_multiplication_generators(a)[a.dim:], a.dim))
    for i in range(7):
        for j in range(7):
            assert tf[i].get(j, 0) == M7_TRACE_SCALE * q.form.gram[i][j]


def test_extension_equals_extended_base(m2):
    from qmalcev import generalized_double_extension

    ext, _ = generalized_double_extension(m2.algebra, m2.extras)
    cat = catalog_get("example_gde", n=2, m=(1, 2)).algebra
    assert ext.algebra.constants == cat.algebra.constants
    assert ext.form == cat.form


def test_five_dim_parts_are_consistent():
    base, gde = gde_abelian12_parts()
    assert base.validated and verify_gde_data(base, gde).passed
    from qmalcev import generalized_double_extension

    ext, _ = generalized_double_extension(base, gde)
    cat = catalog_get("gde_abelian12").algebra
    assert ext.algebra.constants == cat.algebra.constants


def test_parameter_validation():
    with pytest.raises(PreconditionError):
        catalog_get("example_M", n=2, m=(1, 0))
    with pytest.raises(PreconditionError):
        catalog_get("example_M", n=2, m=(1,))
    with pytest.raises(PreconditionError):
        catalog_get("abelian", p=1, q=3)  # odd q cannot be non-degenerate
    with pytest.raises(PreconditionError):
        catalog_get("no_such_thing")
    with pytest.raises(PreconditionError):
        catalog_get("sl2", n=3)


def test_names_cover_contract():
    for name in ("zero", "one_dim_lie", "abelian", "sl2", "m7", "osp12",
                 "example_M", "example_gde", "odd_hyperbolic",
                 "even_hyperbolic", "gde_abelian12"):
        assert name in CATALOG_NAMES


def test_rational_parameters_accepted():
    entry = catalog_get("example_M", n=1, m=("1/2",))
    assert verify_gde_data(entry.algebra, entry.extras).passed
    d = entry.extras.d
    assert d.matrix[0][1] == Fraction(1, 2)
