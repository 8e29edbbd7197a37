"""Central extensions, semidirect products, and double extensions.

Orientation convention used throughout the constructive direction: the new
hyperbolic pair (e, e*) is paired as B~(e, e*) = +1.  In the odd case the
bracket table is then

    ee  = A0
    eX  = D(X) + (-1)^x B(X, A0) e*
    XY  = (XY)_M + B(D(X), Y) e*
    e* . everything = 0

which is the unique orientation for which B~ stays invariant (flipping the
sign of e* gives the equivalent table with minus signs and B~(e*, e) = +1).
The even case uses eX = D(X), XY = (XY)_M + B(D(X), Y) e*, ee = 0 with a
symmetric hyperbolic (e, e*) block.

Semidirect data (omega, zeta) define one product on P = M + V,
b_i b_j = [b_i, b_j]_M + zeta(i, j) and b_i h = omega_i(h); the five
compatibility conditions are signed words in that product.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from . import linalg
from .core import (_EMPTY, EVEN, ODD, Element, SuperAlgebra, SuperSpace,
                   _direct_sum, _product, _scan_kernel, _side_witnesses,
                   _vadd, _vector_witness, check_malcev,
                   direct_sum_embeddings, ksign)
from .errors import AxiomError, InputError, PreconditionError
from .linalg import ONE, _add, cleared, frac
from .operators import (OperatorMap, _int_map, _line_extension,
                        check_malcev_operator, check_skew_supersymmetric)
from .quadratic import (BilinearForm, QuadraticAlgebra, _form_pairing,
                        _require_validated)
from .reports import CheckReport, ItemizedReport, Witness, _report


@dataclass(frozen=True)
class GdeData:
    """Data for an odd-line double extension: odd operator d and even a0."""

    d: OperatorMap
    a0: Element


@dataclass(frozen=True)
class ExtensionWitness:
    """Where the new vectors landed and how the input basis embeds."""

    e_index: int
    estar_index: int
    embedding: tuple


def extension_layout(space: SuperSpace, parity):
    """The space of an extension of `space` by a hyperbolic pair (e, e*) of
    the given parity, and where its basis vectors land: the layout of the
    direct sum (line e, space, line e*).  So e comes first and e* last in
    their parity's block.  Extensions and reductions both place their
    vectors here, and this is the one place an ExtensionWitness is built."""
    line = SuperSpace(1 - parity, parity)
    ext, (e, embedding, estar) = direct_sum_embeddings(line, space, line)
    return ext, ExtensionWitness(e[0], estar[0], tuple(embedding))


@dataclass(frozen=True)
class GdeReport(ItemizedReport):
    """Itemized admissibility report for odd double-extension data."""

    skew: CheckReport
    operator: CheckReport
    square: CheckReport          # d^2(a0) = (1/2) a0 a0
    compat_action: CheckReport   # d(a0 X) = a0 d(X) - d(a0) X
    compat_outer: CheckReport    # (a0 X)Y expansion in d
    compat_inner: CheckReport    # a0 (XY) expansion in d


def verify_gde_data(q: QuadraticAlgebra, g: GdeData) -> GdeReport:
    """Check, in order: skewness, the operator identity, the square rule,
    and the three compatibility equations between d and a0 (the last four
    on ints, see _gde_conditions)."""
    _require_validated(q)
    a = q.algebra
    n = a.dim
    if g.d.dim != n or len(g.a0) != n:
        raise InputError("extension data does not match the algebra")
    if g.d.parity != ODD:
        raise InputError("extension operator must be odd")
    if g.a0.homogeneous_parity(a.space) not in (None, EVEN):
        raise InputError("a0 must be even homogeneous")
    g.d.validate_parity(a.space)

    skew = check_skew_supersymmetric(q.form, g.d, a.space)
    oper = check_malcev_operator(a, g.d)
    return GdeReport(skew, oper, *_gde_conditions(a, g.d, g.a0))


def _gde_conditions(a: SuperAlgebra, d: OperatorMap, a0: Element):
    """The reports of the square rule and the three compatibility
    equations, X = b_i and Y = b_j:

        square  d^2(a0) = (1/2) a0 a0                        at ("a0",)
        action  d(a0 X) = a0 d(X) - d(a0) X                   at (i,)
        outer   (a0 X) Y = d(d(X) Y) + d^2(XY)
                           + (-1)^x d(X) d(Y) + (-1)^{xy} d^2(Y) X
        inner   a0 (XY) = d(d(X) Y) + d^2(X) Y
                          - (-1)^{xy} { d^2(Y) X + d(d(Y) X) }  at (i, j)

    All on ints: the constants are the scan kernel's (scaled by D), d is
    scaled by F (operators._int_map) and a0 by A, the lcm of its
    denominators.  So each side is its true value times one scale: F^2 A
    for d^2(a0) and 2 A^2 D for (1/2) a0 a0, F A D on both sides of the
    action, A D^2 on the left of outer and inner and F^2 D on their right.
    As in the scans, each term is added into the sum of every key where it
    occurs, so a key is visited only when some term there is nonzero, and
    the keys are sorted.  The sides are compared at a common scale, and a
    witness is divided back, exactly, only when it is read.
    """
    n = a.dim
    kern = _scan_kernel(a)
    par, dscale = kern.par, kern.scale
    fscale, dmap = _int_map(d.cols)
    ascale, a0v = cleared(a0.entries)                 # A a0
    dcols = {i: v for i in range(n) if (v := dmap({i: 1}))}    # F d(b_i)
    users = {}  # w -> [(j, F d(b_j) at b_w)]
    for j, v in dcols.items():
        for w, y in v.items():
            users.setdefault(w, []).append((j, y))
    a0r = kern.right_products(a0v)                    # m -> A D a0 b_m

    # A D a0 vec for an int vector vec: the sum of vec[m] a0 b_m
    times_a0 = functools.partial(linalg.combine, a0r)

    square = ({("a0",): dmap(dmap(a0v))}, {("a0",): times_a0(a0v)})
    action = ({}, {})
    for i, u in a0r.items():
        _add(action[0], (i,), dmap(u), 1)
    for i, v in dcols.items():
        _add(action[1], (i,), times_a0(v), 1)
    for i, v in kern.right_products(dmap(a0v)).items():
        _add(action[1], (i,), v, -1)

    outer, inner = ({}, {}), ({}, {})
    for i, u in a0r.items():
        for j, v in kern.right_products(u).items():
            _add(outer[0], (i, j), v, 1)
    for (i, j), vec in kern.pairs.items():
        _add(inner[0], (i, j), times_a0(vec), 1)
        _add(outer[1], (i, j), dmap(dmap(vec)), 1)
    for i, di in dcols.items():
        for w, u in kern.right_products(di).items():  # u = d(b_i) b_w
            s = ksign(par[i] * par[w])
            v = dmap(u)
            _add(outer[1], (i, w), v, 1)
            _add(inner[1], (i, w), v, 1)
            _add(inner[1], (w, i), v, -s)
            for j, y in users.get(w, ()):
                _add(outer[1], (i, j), u, ksign(par[i]) * y)
        for k, v in kern.right_products(dmap(di)).items():  # d^2(b_i) b_k
            s = ksign(par[i] * par[k])
            _add(outer[1], (k, i), v, s)
            _add(inner[1], (k, i), v, -s)
            _add(inner[1], (i, k), v, 1)

    return (_report(*_side_witnesses(n, *square, fscale ** 2 * ascale,
                                     2 * ascale ** 2 * dscale)),
            _report(*_side_witnesses(n, *action, fscale * ascale * dscale,
                                     fscale * ascale * dscale)),
            _report(*_side_witnesses(n, *outer, ascale * dscale ** 2,
                                     fscale ** 2 * dscale)),
            _report(*_side_witnesses(n, *inner, ascale * dscale ** 2,
                                     fscale ** 2 * dscale)))


def verified_gde_data(q: QuadraticAlgebra, d: OperatorMap,
                      a0: Element) -> GdeData:
    """GdeData(d, a0) if verify_gde_data passes it, PreconditionError naming
    the first failing condition if not: the one admissibility gate of odd
    extension data."""
    g = GdeData(d, a0)
    report = verify_gde_data(q, g)
    if not report.passed:
        raise PreconditionError("extension data rejected: %s fails"
                                % report.first_failure())
    return g


def central_extension(q: QuadraticAlgebra, d: OperatorMap) -> SuperAlgebra:
    """Adjoin an annihilating odd line with the twist (X,Y) -> -B(d(X),Y).

    Requires d to be an odd skew-supersymmetric operator satisfying the
    operator identity; the extension then satisfies the Malcev identity.
    """
    _require_validated(q)
    if d.parity != ODD:
        raise PreconditionError("central extension twist must be odd")
    d.validate_parity(q.space)
    skew = check_skew_supersymmetric(q.form, d, q.space)
    if not skew.passed:
        raise PreconditionError("twist operator is not skew-supersymmetric")
    oper = check_malcev_operator(q.algebra, d)
    if not oper.passed:
        raise PreconditionError("twist operator fails the operator identity")
    twist, _ = _form_pairing(q.form, d.cols)  # B(d(b_i), b_j)
    out = _line_extension(q.algebra,
                          {key: -w for key, w in sorted(twist.items())},
                          ODD, name="central_ext(%s)" % q.name)[0]
    rep = check_malcev(out)
    if not rep.passed:
        raise AxiomError("central extension failed the Malcev identity", rep)
    return out


def _extend(q: QuadraticAlgebra, d: OperatorMap, a0: Element):
    """Double extension of q by a hyperbolic pair (e, e*) of parity
    pi = d.parity: ee = a0, eX = d(X) + (-1)^x B(X, a0) e*,
    XY = (XY)_q + B(d(X), Y) e*, B(e, e*) = 1, B(e*, e) = (-1)^pi.

    The basis is laid out by extension_layout.  Returns the algebra, its
    form and the witness; nothing is checked here, each caller certifies
    what it returns.
    """
    pi = d.parity
    space, witness = extension_layout(q.space, pi)
    emap, e_idx, estar = (witness.embedding, witness.e_index,
                          witness.estar_index)
    constants = {(emap[i], emap[j], emap[k]): c
                 for (i, j, k), c in q.algebra.constants.items()}
    twist, _ = _form_pairing(q.form, d.cols)
    for (i, j), w in sorted(twist.items()):  # w = B(d(b_i), b_j)
        constants[(emap[i], emap[j], estar)] = w
    for k, c in sorted(a0.entries.items()):
        constants[(e_idx, e_idx, emap[k])] = c
    _, ga0 = _form_pairing(q.form, {0: a0.entries})  # B(b_j, a0)
    for j in range(q.dim):
        x = q.space.parity(j)
        image = {emap[r]: v for r, v in d.column(j).items()}
        if (j, 0) in ga0:
            image[estar] = ksign(x) * ga0[(j, 0)]
        back = frac(-ksign(pi * x))
        for r, v in image.items():
            constants[(e_idx, emap[j], r)] = v
            constants[(emap[j], e_idx, r)] = back * v
    gram = {(emap[i], emap[j]): v for (i, j), v in q.form.entries.items()}
    gram[(e_idx, estar)] = ONE
    gram[(estar, e_idx)] = frac(ksign(pi))
    name = ("gde(%s)" if pi == ODD else "de(%s)") % q.name
    alg = SuperAlgebra(space, constants, name=name)
    form = BilinearForm.from_entries(space.dim, gram)
    return alg, form, witness


def generalized_double_extension(q: QuadraticAlgebra, g: GdeData):
    """Odd-line double extension of a validated quadratic algebra.

    The data go through the admissibility gate on every call, and data
    that fail raise PreconditionError naming the first failing condition.
    Data that pass give a quadratic Malcev superalgebra by construction
    (the generalized double extension; Albuquerque-Benayadi, J. Pure Appl.
    Algebra 187 (2004)), so the result is returned validated without a
    scan of its own.  Output basis order: evens of the input, then e, then
    odds of the input, then e*; the returned witness records the placement.
    """
    _require_validated(q)
    verified_gde_data(q, g.d, g.a0)
    alg, form, witness = _extend(q, g.d, g.a0)
    return QuadraticAlgebra(alg, form, validated=True), witness


def double_extension_even(q: QuadraticAlgebra, d: OperatorMap):
    """Even-line double extension; validation is the admissibility gate.

    The operator must be skew-supersymmetric and satisfy the operator
    identity, and the result is then scanned in full (Malcev identity and
    all four form axioms), since admissibility of an even operator is not
    proved here.  Output basis order: e first, then evens of the input,
    then e*, then the odds of the input; ee = 0.
    """
    _require_validated(q)
    if d.parity != EVEN:
        raise PreconditionError("even double extension needs an even operator")
    d.validate_parity(q.space)
    if not check_skew_supersymmetric(q.form, d, q.space).passed:
        raise PreconditionError("operator is not skew-supersymmetric")
    if not check_malcev_operator(q.algebra, d).passed:
        raise PreconditionError("operator fails the operator identity")
    alg, form, witness = _extend(q, d, Element.zero(q.dim))
    return QuadraticAlgebra.validate(alg, form), witness


# ---------------------------------------------------------------------------
# generalized semidirect products


class SemidirectData:
    """Operators omega (one per basis vector of the acting algebra) and an
    even graded-skew bilinear twist zeta with values in the acted algebra."""

    def __init__(self, m: SuperAlgebra, v: SuperAlgebra, omega, zeta):
        self.m = m
        self.v = v
        self.omega = tuple(omega)
        self.zeta = tuple(tuple(row) for row in zeta)
        if len(self.omega) != m.dim:
            raise InputError("need one operator per basis vector")
        for i, op in enumerate(self.omega):
            if op.dim != v.dim:
                raise InputError("operator %d has wrong dimension" % i)
            if op.parity != m.space.parity(i):
                raise InputError("operator %d parity must match its basis "
                                 "vector" % i)
            op.validate_parity(v.space)
        if len(self.zeta) != m.dim:
            raise InputError("twist must be (dim m) x (dim m)")
        for i, row in enumerate(self.zeta):
            if len(row) != m.dim:
                raise InputError("twist must be square")
            for j, el in enumerate(row):
                if len(el) != v.dim:
                    raise InputError("twist values must live in the acted "
                                     "algebra")
                want = (m.space.parity(i) + m.space.parity(j)) % 2
                got = el.homogeneous_parity(v.space)
                if got is not None and got != want:
                    raise InputError("twist is not even as a bilinear map")
        for i in range(m.dim):
            for j in range(m.dim):
                s = -ksign(m.space.parity(i) * m.space.parity(j))
                lhs = self.zeta[j][i]
                rhs = self.zeta[i][j].scale(s)
                if lhs != rhs:
                    raise InputError("twist is not graded skew-symmetric")


@dataclass(frozen=True)
class GsdReport(ItemizedReport):
    """Per-condition verdicts for the semidirect compatibility system."""

    operators: CheckReport
    cond1: CheckReport
    cond2: CheckReport
    cond3: CheckReport
    cond4: CheckReport
    cond5: CheckReport


def _semidirect_algebra(m: SuperAlgebra, v: SuperAlgebra, s: SemidirectData):
    """The product on P = M + V that the data define, and the index maps
    amap, bmap of M and V into P: b_i b_j = [b_i, b_j]_M + zeta(i, j),
    b_i h = omega_i(h) = -(-1)^{|i||h|} h b_i, and V's own products."""
    plain, (amap, bmap) = _direct_sum(m, v)
    constants = dict(plain.constants)
    for i in range(m.dim):
        for j in range(m.dim):
            for h, c in s.zeta[i][j].entries.items():
                constants[(amap[i], amap[j], bmap[h])] = c
    for i in range(m.dim):
        op = s.omega[i]
        si = m.space.parity(i)
        for h in range(v.dim):
            back = frac(-ksign(si * v.space.parity(h)))
            for r, cval in op.column(h).items():
                constants[(amap[i], bmap[h], bmap[r])] = cval
                constants[(bmap[h], amap[i], bmap[r])] = back * cval
    out = SuperAlgebra(plain.space, constants,
                       name="gsd(%s,%s)" % (m.name, v.name))
    return out, amap, bmap


# The five conditions, each a V-valued sum that must vanish at every tuple
# of basis vectors of the kinds named (M or V, in argument order).  A term
# is (sign, word).  A word is an argument position, or (proj, left, right):
# the product of two words in P, kept whole ("P") or projected onto M or V.
# So omega_i(h) is ("P", i, h), zeta(i, j) is ("V", i, j) and [i, j]_M is
# ("M", i, j).  The sign "- xy zt" is -(-1)^{xy + zt}, where x, y, z, t are
# the parities of the arguments in order.
_GSD_CONDITIONS = (
    ("cond1", "MMVV", (
        ("+", ("P", ("P", ("P", 0, 1), 2), 3)),
        ("-", ("P", 0, ("P", ("P", 1, 2), 3))),
        ("- yz", ("P", ("P", 0, 2), ("P", 1, 3))),
        ("+ xy", ("P", 1, ("P", 0, ("P", 2, 3)))),
        ("+ xy zt", ("P", ("P", 1, ("P", 0, 3)), 2)))),
    ("cond2", "MMVV", (
        ("+ yz", ("P", ("P", 0, 1), ("P", 2, 3))),
        ("+ xy yz", ("P", ("P", 1, ("P", 0, 2)), 3)),
        ("- yz", ("P", 0, ("P", ("P", 1, 2), 3))),
        ("+ yz zt", ("P", ("P", 0, ("P", 1, 3)), 2)),
        ("- xy yz zt", ("P", 1, ("P", ("P", 0, 3), 2))))),
    ("cond3", "MMMV", (
        ("+ yt", ("P", ("P", 0, 3), ("V", 1, 2))),
        ("+ xz yz zt", ("P", 2, ("P", ("V", 0, 1), 3))),
        ("+ xy xz zt", ("P", ("P", 1, ("V", 2, 0)), 3)))),
    ("cond4", "MMMM", (
        ("- yz", ("P", ("M", 0, 2), ("V", 1, 3))),
        ("+ yt zt", ("P", 0, ("P", 3, ("V", 1, 2)))),
        ("+ xy xz xt yz", ("P", 2, ("P", 1, ("V", 3, 0)))),
        ("-", ("P", 0, ("V", ("M", 1, 2), 3))),
        ("- xz xt yz yt", ("P", 2, ("V", ("M", 3, 0), 1))),
        ("+ yz", ("V", ("M", 0, 2), ("M", 1, 3))),
        ("+ yz", ("P", ("V", 0, 2), ("V", 1, 3))),
        ("-", ("V", ("M", ("M", 0, 1), 2), 3)),
        ("- xy xz xt", ("V", ("M", ("M", 1, 2), 3), 0)),
        ("- xz xt yz yt", ("V", ("M", ("M", 2, 3), 0), 1)),
        ("- xt yt zt", ("V", ("M", ("M", 3, 0), 1), 2)))),
    ("cond5", "MMMV", (
        ("+ yz", ("P", ("M", 0, 2), ("P", 1, 3))),
        ("-", ("P", ("P", ("M", 0, 1), 2), 3)),
        ("+", ("P", 0, ("P", ("M", 1, 2), 3))),
        ("- xy", ("P", 1, ("P", 0, ("P", 2, 3)))),
        ("+ xy xz yz", ("P", 2, ("P", 1, ("P", 0, 3)))))),
)


@functools.lru_cache(maxsize=None)
def _parity_sign(spec, par):
    """The sign spec ("- xy zt" is -(-1)^{xy + zt}) at the parities par of
    the arguments x, y, z, t."""
    head, *monomials = spec.split()
    of = dict(zip("xyzt", par))
    e = sum(of[a] * of[b] for a, b in monomials)
    return frac(ksign(e) if head == "+" else -ksign(e))


def _bind(word, args):
    """The word with each argument position replaced by its index in P."""
    if isinstance(word, int):
        return args[word]
    proj, left, right = word
    return proj, _bind(left, args), _bind(right, args)


def check_gsd_conditions(m: SuperAlgebra, v: SuperAlgebra,
                         s: SemidirectData) -> GsdReport:
    """The operator identity for each omega_i, then the five compatibility
    conditions at every tuple of basis vectors, with one witness (sum, 0)
    at each tuple where a sum is nonzero, in lexicographic order.

    Every term is a word in the product P = M + V that the data define
    (_semidirect_algebra): omega_i(h) = b_i h, zeta(i, j) and [i, j]_M are
    the V and M parts of b_i b_j, and V's products are P's.  A word is an
    argument position, or (proj, left, right) for the product of two words
    in P, projected onto M or V or kept whole.  Each word is evaluated once
    per call for the basis vectors it is bound to, so the sub-products the
    terms share are formed once.
    """
    if s.m != m or s.v != v:
        raise InputError("semidirect data belongs to other algebras")
    failed = {i: rep for i in range(m.dim)
              if not (rep := check_malcev_operator(v, s.omega[i])).passed}
    operators = _report(list(failed), lambda i: Witness(
        (i,), "operator identity fails", failed[i].witnesses.keys[0]))

    p, amap, bmap = _semidirect_algebra(m, v, s)
    parts = {"M": set(amap), "V": set(bmap)}
    local = {k: h for h, k in enumerate(bmap)}    # P index -> V index

    @functools.lru_cache(maxsize=None)
    def value(word):
        """The P vector of a word bound to basis vectors of P."""
        if isinstance(word, int):
            return {word: ONE}
        proj, left, right = word
        out = _product(p, value(left), value(right))
        if proj == "P":
            return out
        return {k: c for k, c in out.items() if k in parts[proj]}

    embed = {"M": amap, "V": bmap}
    reports = {}
    for name, kinds, terms in _GSD_CONDITIONS:
        sums = {}
        for key in itertools.product(*(range(len(embed[k])) for k in kinds)):
            args = tuple(embed[k][i] for k, i in zip(kinds, key))
            par = tuple(p.space.parity(a) for a in args)
            acc = {}
            for spec, word in terms:
                _vadd(acc, value(_bind(word, args)), _parity_sign(spec, par))
            if acc:
                sums[key] = {local[k]: c for k, c in acc.items()}, _EMPTY
        reports[name] = _report(list(sums),
                                _vector_witness(v.dim, sums.__getitem__, 1))
    return GsdReport(operators=operators, **reports)


def generalized_semidirect_product(m: SuperAlgebra, v: SuperAlgebra,
                                   s: SemidirectData) -> SuperAlgebra:
    """Twisted product on the concatenated space; refuses when any
    compatibility condition fails, naming the condition."""
    report = check_gsd_conditions(m, v, s)
    if not report.passed:
        raise PreconditionError("semidirect compatibility %s fails"
                                % report.first_failure())
    out, _amap, _bmap = _semidirect_algebra(m, v, s)
    rep = check_malcev(out)
    if not rep.passed:
        raise AxiomError("semidirect product failed the Malcev identity", rep)
    return out


def semidirect_data_from_gde(q: QuadraticAlgebra, g: GdeData):
    """The acting odd line, the centrally extended module, and the data
    (omega(e), zeta(e,e)) whose semidirect product equals the odd double
    extension of q by g, entry for entry; the data must pass the
    admissibility gate."""
    _require_validated(q)
    verified_gde_data(q, g.d, g.a0)
    line = SuperAlgebra(SuperSpace(0, 1), {}, name="odd_line")
    vext = central_extension(q, g.d.negated())
    # q and e* where the central extension, a sum with an odd line, puts them
    _, (at, (estar,)) = direct_sum_embeddings(q.space, line.space)
    entries = {(at[i], at[j]): x for (i, j), x in g.d.entries.items()}
    _, ga0 = _form_pairing(q.form, {0: g.a0.entries})  # B(b_j, a0)
    for (j, _c), v in ga0.items():
        entries[(estar, at[j])] = ksign(q.space.parity(j)) * v
    dtilde = OperatorMap.from_entries(vext.dim, entries, ODD)
    a0_ext = Element.sparse(vext.dim,
                            {at[k]: x for k, x in g.a0.entries.items()})
    data = SemidirectData(line, vext, (dtilde,), ((a0_ext,),))
    return line, vext, data
