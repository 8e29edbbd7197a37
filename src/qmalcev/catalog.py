"""Ground-truth constructors used by the tests, the acceptance suite, and
the command line.

Every entry is validated at construction time: scanned in full (Malcev
identity plus all four scalar-product axioms), or, for the odd double
extensions, built from data that the admissibility verifier accepts, which
makes them quadratic Malcev by construction.  Entries carrying extension
data also pass the admissibility verifier.  The seven-dimensional simple
non-Lie algebra uses the imaginary-octonion commutator convention with Fano
triples (123)(145)(176)(246)(257)(347)(365), scaled to unit structure
constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .core import ODD, Element, SuperAlgebra, SuperSpace
from .errors import PreconditionError
from .extensions import (GdeData, generalized_double_extension,
                         verified_gde_data)
from .linalg import ONE, frac
from .operators import OperatorMap
from .quadratic import BilinearForm, QuadraticAlgebra


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    parameters: tuple
    algebra: QuadraticAlgebra
    extras: object = None  # GdeData when the entry ships extension data


FANO_TRIPLES = ((1, 2, 3), (1, 4, 5), (1, 7, 6), (2, 4, 6), (2, 5, 7),
                (3, 4, 7), (3, 6, 5))

# trace form tr(R_x R_y) of the m7 convention equals this multiple of its Gram
M7_TRACE_SCALE = Fraction(-6)


def _zero():
    alg = SuperAlgebra(SuperSpace(0, 0), {}, name="zero")
    return QuadraticAlgebra.validate(alg, BilinearForm.zero(0))


def _one_dim_lie():
    alg = SuperAlgebra(SuperSpace(1, 0), {}, name="one_dim_lie")
    form = BilinearForm([[ONE]])
    return QuadraticAlgebra.validate(alg, form)


def _abelian(p, q):
    if q % 2 != 0:
        raise PreconditionError("abelian(p, q) needs even q for a "
                                "non-degenerate odd block")
    space = SuperSpace(p, q)
    alg = SuperAlgebra(space, {}, name="abelian(%d,%d)" % (p, q))
    entries = {}
    for i in range(p):
        entries[(i, i)] = ONE
    for t in range(q // 2):
        i, j = p + 2 * t, p + 2 * t + 1
        entries[(i, j)] = ONE
        entries[(j, i)] = -ONE
    form = BilinearForm.from_entries(p + q, entries)
    return QuadraticAlgebra.validate(alg, form)


def _sl2():
    # basis (h, x, y): [h,x] = 2x, [h,y] = -2y, [x,y] = h; trace form of the
    # defining representation: B(h,h) = 2, B(x,y) = 1
    consts = {
        (0, 1, 1): frac(2), (1, 0, 1): frac(-2),
        (0, 2, 2): frac(-2), (2, 0, 2): frac(2),
        (1, 2, 0): ONE, (2, 1, 0): -ONE,
    }
    alg = SuperAlgebra(SuperSpace(3, 0), consts, name="sl2")
    form = BilinearForm.from_entries(3, {(0, 0): frac(2), (1, 2): ONE,
                                         (2, 1): ONE})
    return QuadraticAlgebra.validate(alg, form)


def _m7():
    # indices 0..6 stand for the seven imaginary units e1..e7
    eps = {}
    for (a, b, c) in FANO_TRIPLES:
        for (i, j, k) in ((a, b, c), (b, c, a), (c, a, b)):
            eps[(i - 1, j - 1)] = (k - 1, 1)
            eps[(j - 1, i - 1)] = (k - 1, -1)
    consts = {}
    for (i, j), (k, s) in eps.items():
        consts[(i, j, k)] = frac(s)
    alg = SuperAlgebra(SuperSpace(7, 0), consts, name="m7")
    form = BilinearForm.from_entries(7, {(i, i): ONE for i in range(7)})
    return QuadraticAlgebra.validate(alg, form)


def _osp12():
    # evens (h, e, f), odds (u, w):
    # [h,e] = 2e, [h,f] = -2f, [e,f] = h
    # [h,u] = u, [h,w] = -w, [e,w] = u, [f,u] = w
    # uu = -2e, ww = 2f, uw = wu = h
    H, E, F, U, W = 0, 1, 2, 3, 4
    consts = {
        (H, E, E): frac(2), (E, H, E): frac(-2),
        (H, F, F): frac(-2), (F, H, F): frac(2),
        (E, F, H): ONE, (F, E, H): -ONE,
        (H, U, U): ONE, (U, H, U): -ONE,
        (H, W, W): -ONE, (W, H, W): ONE,
        (E, W, U): ONE, (W, E, U): -ONE,
        (F, U, W): ONE, (U, F, W): -ONE,
        (U, U, E): frac(-2),
        (W, W, F): frac(2),
        (U, W, H): ONE, (W, U, H): ONE,
    }
    alg = SuperAlgebra(SuperSpace(3, 2), consts, name="osp12")
    form = BilinearForm.from_entries(5, {
        (H, H): frac(2), (E, F): ONE, (F, E): ONE,
        (U, W): frac(2), (W, U): frac(-2),
    })
    return QuadraticAlgebra.validate(alg, form)


def _renamed(q, name):
    """The validated q under another name, its int table carried across
    unchanged."""
    return QuadraticAlgebra(
        SuperAlgebra._from_ints(q.space, *q.algebra.int_table(), name),
        q.form, validated=True)


def _check_params(n, m):
    if n < 1:
        raise PreconditionError("the family needs n >= 1")
    m = tuple(frac(x) for x in m)
    if len(m) != n:
        raise PreconditionError("need exactly n parameters")
    if any(x == 0 for x in m):
        raise PreconditionError("parameters must be nonzero")
    return m


def _example_m_algebra(n):
    """(1|2n) base family: a.v_i = y_i, v_i.v_j = delta a, y_i central."""
    space = SuperSpace(1, 2 * n)
    A = 0

    def V(i):
        return 1 + i

    def Y(i):
        return 1 + n + i

    consts = {}
    for i in range(n):
        consts[(A, V(i), Y(i))] = ONE
        consts[(V(i), A, Y(i))] = -ONE
        consts[(V(i), V(i), A)] = ONE
    alg = SuperAlgebra(space, consts, name="example_M")
    entries = {(A, A): ONE}
    for i in range(n):
        entries[(Y(i), V(i))] = ONE
        entries[(V(i), Y(i))] = -ONE
    form = BilinearForm.from_entries(space.dim, entries)
    return QuadraticAlgebra.validate(alg, form)


def _example_m_operator(n, m, corrected=True):
    """The odd operator of the base family.

    corrected=False gives the sign variant with d(a) = +sum m_i y_i, which
    is not skew-supersymmetric against this form (kept for the regression
    test that the verifier rejects it).  The shipped correction flips the
    sign of d(a); correcting d(v_i) instead, or reorienting the odd block
    of the form, would break the expected extension brackets
    e.v_i = m_i a and a.v_i = y_i - m_i e*.
    """
    images = {1 + i: {0: m[i]} for i in range(n)}
    images[0] = {1 + n + i: -m[i] if corrected else m[i] for i in range(n)}
    return OperatorMap.from_images(1 + 2 * n, images, ODD)


def _example_m(n, m):
    m = _check_params(n, m)
    q = _renamed(_example_m_algebra(n), "example_M(%d)" % n)
    d = _example_m_operator(n, m, corrected=True)
    gde = verified_gde_data(q, d, Element.basis(q.dim, 0))
    return q, gde


def example_m_uncorrected_data(n, m):
    """The sign variant before correction, kept for the regression test
    that the admissibility verifier rejects it (skew-supersymmetry
    witness)."""
    m = _check_params(n, m)
    q = _example_m_algebra(n)
    d = _example_m_operator(n, tuple(m), corrected=False)
    return q, GdeData(d, Element.basis(q.dim, 0))


def _example_gde(n, m):
    q, gde = _example_m(n, m)
    out, _ = generalized_double_extension(q, gde)
    return _renamed(out, "example_gde(%d)" % n)


def _odd_hyperbolic():
    alg = SuperAlgebra(SuperSpace(0, 2), {}, name="odd_hyperbolic")
    form = BilinearForm.from_entries(2, {(0, 1): ONE, (1, 0): -ONE})
    return QuadraticAlgebra.validate(alg, form)


def _even_hyperbolic():
    alg = SuperAlgebra(SuperSpace(2, 0), {}, name="even_hyperbolic")
    form = BilinearForm.from_entries(2, {(0, 1): ONE, (1, 0): ONE})
    return QuadraticAlgebra.validate(alg, form)


def gde_abelian12_parts():
    """The abelian (1|2) base (u even; w, z odd; B(u,u)=1, B(w,z)=1) and the
    verified data d(u) = w, d(z) = -u, d(w) = 0, a0 = u."""
    base = _renamed(_abelian(1, 2), "abelian12")
    d = OperatorMap.from_images(3, {0: {1: ONE}, 2: {0: -ONE}}, ODD)
    gde = verified_gde_data(base, d, Element.basis(3, 0))
    return base, gde


def _gde_abelian12():
    base, gde = gde_abelian12_parts()
    out, _ = generalized_double_extension(base, gde)
    return _renamed(out, "gde_abelian12")


# name -> builder of (algebra, extension data or None) from the parameters
_BUILDERS = {
    "zero": lambda: (_zero(), None),
    "one_dim_lie": lambda: (_one_dim_lie(), None),
    "abelian": lambda p, q: (_abelian(p, q), None),
    "sl2": lambda: (_sl2(), None),
    "m7": lambda: (_m7(), None),
    "osp12": lambda: (_osp12(), None),
    "example_M": _example_m,
    "example_gde": lambda n, m: (_example_gde(n, m), None),
    "odd_hyperbolic": lambda: (_odd_hyperbolic(), None),
    "even_hyperbolic": lambda: (_even_hyperbolic(), None),
    "gde_abelian12": lambda: (_gde_abelian12(), None),
}

CATALOG_NAMES = tuple(_BUILDERS)


@lru_cache(maxsize=None)
def _build(name, params):
    algebra, extras = _BUILDERS[name](*params)
    return CatalogEntry(name, params, algebra, extras=extras)


def catalog_get(name, **params) -> CatalogEntry:
    """Fetch a validated entry; see CATALOG_NAMES for the vocabulary.

    abelian takes p and q; example_M and example_gde take n and a length-n
    sequence m of nonzero rationals.
    """
    if name not in CATALOG_NAMES:
        raise PreconditionError("unknown catalog name %r" % name)
    if name == "abelian":
        try:
            key = (int(params.pop("p")), int(params.pop("q")))
        except KeyError as exc:
            raise PreconditionError("abelian needs p and q") from exc
    elif name in ("example_M", "example_gde"):
        try:
            n = int(params.pop("n"))
            m = tuple(frac(x) for x in params.pop("m"))
        except KeyError as exc:
            raise PreconditionError("%s needs n and m" % name) from exc
        key = (n, m)
    else:
        key = ()
    if params:
        raise PreconditionError("unexpected parameters: %s"
                                % ", ".join(sorted(params)))
    return _build(name, key)
