"""The inverse direction: reductions, classification, inductive trees.

An algebra with a central odd (resp. even) vector is peeled down by two
dimensions: e* is the first reduced-echelon column of the graded center,
e is solved from B(e, e*) = 1, and the product data of the complement of
span{e, e*} recovers the extension data exactly.  Applying the matching
extension to the reduced algebra reproduces the input entry-for-entry in
the recorded witness basis, which is what every tree node stores.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import linalg
from .core import (EVEN, ODD, CheckReport, Element, GradedSubspace,
                   SuperAlgebra, SuperSpace, Witness, _enveloping_basis,
                   _mul_vv, _multiplication_generators, _report,
                   _vadd, center, check_jacobi, ksign,
                   simplicity)
from .errors import AxiomError, GradingError, InputError, PreconditionError
from .linalg import ONE, ZERO
from .operators import OperatorMap, _int_map, check_malcev_operator
from .quadratic import (QuadraticAlgebra, _cut, _form_pairing,
                        _require_validated, _split, _trace_rows,
                        b_irreducible_components,
                        change_basis_quadratic, direct_sum_quadratic,
                        orthogonal_complement)
from .extensions import (ExtensionWitness, GdeData,
                         double_extension_even, generalized_double_extension,
                         verify_gde_data)


# ---------------------------------------------------------------------------
# reductions

@dataclass(frozen=True)
class OddReduction:
    n: QuadraticAlgebra
    gde: GdeData
    witness: ExtensionWitness
    basis: tuple                 # adapted basis columns in input coordinates
    phi_check: CheckReport       # recovered phi(X,Y) == B(D(X),Y)
    psi_check: CheckReport       # recovered psi(X) == (-1)^x B(X, A0)
    # True: proved B-irreducible; False: a splitting ideal was found;
    # None: none was found, but there is no proof that none exists
    irreducible_certified: object = None


@dataclass(frozen=True)
class EvenReduction:
    n: QuadraticAlgebra
    operator: OperatorMap
    witness: ExtensionWitness
    basis: tuple
    phi_check: CheckReport


def _first_center_column(q: QuadraticAlgebra, parity):
    z = center(q.algebra)
    rows = z.even_rows() if parity == EVEN else z.odd_rows()
    return rows[0] if rows else None


def _solve_dual_vector(q: QuadraticAlgebra, estar, parity):
    """First basis vector of the given parity pairing with e*, scaled so
    that B(e, e*) = 1, as a sparse vector."""
    space = q.space
    idxs = space.even_indices() if parity == EVEN else space.odd_indices()
    _, right = _form_pairing(q.form, {0: estar})  # B(b_j, e*)
    for b in idxs:
        if (b, 0) in right:
            return {b: ONE / right[(b, 0)]}
    raise PreconditionError("no basis vector pairs with the central vector; "
                            "the form would be degenerate")


def _adapted_basis(q: QuadraticAlgebra, e, estar, parity):
    """Sparse columns (N_even, e, N_odd, e*) for an odd e, (e, N_even, e*,
    N_odd) for an even one, N the orthogonal complement of span{e, e*};
    with the positions of e and e*."""
    a_sub = GradedSubspace.from_vectors(q.space, [e, estar])
    if a_sub.dim != 2:
        raise PreconditionError("e and e* are not independent")
    ncols = orthogonal_complement(q.form, a_sub)
    ne = ncols.even_rows()
    no = ncols.odd_rows()
    if parity == ODD:
        adapted = ne + [e] + no + [estar]
        e_idx, estar_idx = len(ne), len(ne) + 1 + len(no)
    else:
        adapted = [e] + ne + [estar] + no
        e_idx, estar_idx = 0, len(ne) + 1
    return adapted, e_idx, estar_idx


@dataclass(frozen=True)
class _Peeled:
    """What both reductions read off the input in the adapted basis."""

    n: QuadraticAlgebra   # the reduced algebra, validated
    d: OperatorMap        # D: column j is the N part of e X_j
    psi: list             # the e* coefficients of e X_j
    a0: Element           # the N part of ee
    phi_check: CheckReport
    witness: ExtensionWitness
    basis: tuple


def _peel(q: QuadraticAlgebra, e, estar, parity) -> _Peeled:
    """Rewrite q once in the adapted basis and cut N from it: the spill of
    N's products onto e* is phi, and D, psi and ee are read off e's row.
    N is validated by theorem, not by a scan: e* is central, so e*^perp is
    an ideal holding F e*, and N is e*^perp / F e*, which is quadratic
    Malcev (Albuquerque-Benayadi, J. Pure Appl. Algebra 187 (2004)).  A
    product with a component on e raises PreconditionError.
    """
    adapted, e_idx, estar_idx = _adapted_basis(q, e, estar, parity)
    rq = change_basis_quadratic(q, adapted)
    n_positions = [i for i in range(q.dim) if i not in (e_idx, estar_idx)]
    nq, spill = _cut(rq, n_positions, "reduced(%s)" % q.name)
    # e b_j for each position j of N, then ee
    erow = [rq.algebra.basis_product(e_idx, j)
            for j in n_positions + [e_idx]]
    if any(e_idx in vec for vec in (*spill.values(), *erow)):
        raise PreconditionError("products leak onto e; input is not "
                                "invariantly paired")
    ndim = nq.dim
    phi = {key: vec[estar_idx] for key, vec in spill.items()}
    where = {pos: a for a, pos in enumerate(n_positions)}
    psi = [vec.get(estar_idx, ZERO) for vec in erow[:ndim]]
    d = OperatorMap.from_images(
        ndim, {a_j: {where[m]: c for m, c in vec.items() if m != estar_idx}
               for a_j, vec in enumerate(erow[:ndim])}, parity)
    ee = erow[ndim]
    if estar_idx in ee:
        raise PreconditionError("ee leaks outside the complement")
    if parity == EVEN and (ee or any(psi)):
        raise PreconditionError("eX and ee must lie in the complement in "
                                "the even reduction")

    # phi(X_i, X_j) = B(D(X_i), X_j)
    want, _ = _form_pairing(nq.form, d.columns)
    phi_wit = [Witness(key, phi.get(key, ZERO), want.get(key, ZERO))
               for key in sorted(phi.keys() | want.keys())
               if phi.get(key, ZERO) != want.get(key, ZERO)]
    return _Peeled(nq, d, psi,
                   Element.sparse(ndim, {where[m]: c for m, c in ee.items()}),
                   _report(phi_wit),
                   ExtensionWitness(e_idx, estar_idx, tuple(n_positions)),
                   tuple(linalg.dense(col, q.dim) for col in adapted))


def reduce_odd(q: QuadraticAlgebra) -> OddReduction:
    """Peel one odd hyperbolic pair off a validated algebra with a central
    odd vector; the rebuilt extension equals the input in the witness basis."""
    _require_validated(q)
    if q.dim <= 1:
        raise PreconditionError("reduction needs dim > 1")
    estar = _first_center_column(q, ODD)
    if estar is None:
        raise PreconditionError("no nonzero central odd vector")
    # a reducible input is still reduced, and recorded as such
    ideal, proved = _split(q)
    certified = True if proved else (None if ideal is None else False)
    e = _solve_dual_vector(q, estar, ODD)
    r = _peel(q, e, estar, ODD)
    # psi(X) = (-1)^x B(X, a0)
    _, ga0 = _form_pairing(r.n.form, {0: r.a0.entries})
    psi_wit = []
    for j, psi in enumerate(r.psi):
        want = ksign(r.n.space.parity(j)) * ga0.get((j, 0), ZERO)
        if psi != want:
            psi_wit.append(Witness((j,), psi, want))
    report = verify_gde_data(r.n, GdeData(r.d, r.a0))
    if not report.passed:
        raise PreconditionError("recovered data fails admissibility: %s"
                                % report.first_failure())
    return OddReduction(n=r.n, gde=GdeData(r.d, r.a0),
                        witness=r.witness, basis=r.basis,
                        phi_check=r.phi_check,
                        psi_check=_report(psi_wit),
                        irreducible_certified=certified)


def reduce_even(q: QuadraticAlgebra) -> EvenReduction:
    """Even mirror of reduce_odd; only accepts irreducible inputs."""
    _require_validated(q)
    if q.dim <= 1:
        raise PreconditionError("reduction needs dim > 1")
    estar = _first_center_column(q, EVEN)
    if estar is None:
        raise PreconditionError("no nonzero central even vector")
    if _split(q)[0] is not None:
        raise PreconditionError("input splits along a non-degenerate ideal; "
                                "split first")
    if q.form._restricted([estar]).entries:  # B(e*, e*)
        raise PreconditionError("central vector is anisotropic; split first")
    e = _solve_dual_vector(q, estar, EVEN)
    bee = q.form._restricted([e]).entries.get((0, 0), ZERO)
    # correct e so that B(e, e) = 0, keeping B(e, e*) = 1 (exact over Q)
    _vadd(e, estar, -bee / 2)
    r = _peel(q, e, estar, EVEN)
    oper = check_malcev_operator(r.n.algebra, r.d)
    if not oper.passed:
        raise PreconditionError("recovered operator fails the operator "
                                "identity")
    return EvenReduction(n=r.n, operator=r.d, witness=r.witness, basis=r.basis,
                         phi_check=r.phi_check)


# ---------------------------------------------------------------------------
# classification

U_TAGS = ("zero", "one_dim_lie", "simple_non_lie_malcev",
          "simple_lie_superalgebra", "not_in_U")


@dataclass(frozen=True)
class ULabel:
    tag: str
    notes: tuple = ()
    inconclusive: bool = False

    def __post_init__(self):
        if self.tag not in U_TAGS:
            raise InputError("unknown base-set tag %r" % (self.tag,))


def classify_U(q: QuadraticAlgebra) -> ULabel:
    """Membership in the base set of the inductive description."""
    _require_validated(q)
    if q.dim == 0:
        return ULabel("zero")
    if q.space.even_dim == 1 and q.space.odd_dim == 0:
        return ULabel("one_dim_lie", notes=("one-dimensional, abelian by "
                                            "skew-symmetry",))
    rep = simplicity(q.algebra)
    if rep.simple is None:
        return ULabel("not_in_U", notes=("simplicity unknown: " + rep.note,),
                      inconclusive=True)
    if not rep.simple:
        return ULabel("not_in_U", notes=(rep.note,))
    lie = check_jacobi(q.algebra).passed
    if lie:
        return ULabel("simple_lie_superalgebra",
                      notes=("simple, graded Jacobi holds; type not "
                             "classified over the rationals",))
    return ULabel("simple_non_lie_malcev",
                  notes=("simple, graded Jacobi fails",))


@dataclass(frozen=True)
class ReductiveReport:
    reductive: bool
    center_dim: int
    square_dim: int
    decomposes: bool
    certificate: str


def even_part(a: SuperAlgebra) -> SuperAlgebra:
    p = a.space.even_dim
    consts = {k: c for k, c in a.constants.items()
              if k[0] < p and k[1] < p and k[2] < p}
    return SuperAlgebra(SuperSpace(p, 0), consts, name="%s_even" % a.name)


def _radical_image(gens, n) -> linalg.Span:
    """J V, the span of the columns of J's elements, for J the radical of
    the unital algebra A that the sparse n x n matrices gens
    {n*row + column: value} generate, acting on V = F^n.

    In characteristic 0 the radical of a matrix algebra is the kernel of
    its trace form tr(xy) (Jacobson, Lie Algebras, 1962), so J is one
    kernel on the `_enveloping_basis` closure.  The faithful A-module V is
    completely reducible exactly when A is semisimple, that is when
    J V = 0.  Otherwise J V is invariant, nonzero and, J being nilpotent,
    proper, with no invariant complement: for one, C, J C would lie in C
    and in J V, so J C = 0 and J V = J^2 V = ... = 0.
    """
    basis = _enveloping_basis(gens, n)
    image = linalg.Span(n)
    for x in linalg.int_kernel(list(_trace_rows(basis, n)), len(basis)):
        columns = {}  # column -> {row: value} of the element sum x_i basis_i
        for i, c in x.items():
            for pos, y in basis[i].items():
                row, col = divmod(pos, n)
                column = columns.setdefault(col, {})
                column[row] = column.get(row, 0) + c * y
        for column in columns.values():
            image.add(column)
    return image


def reductive_report(even: SuperAlgebra) -> ReductiveReport:
    """Is the (purely even) algebra g center + semisimple square?

    An abelian g is, and a g that is not the direct sum of its center and
    its square is not.  Past these two exits, g is reductive exactly when
    its unital multiplication algebra M(g), generated by all L_i and R_i,
    is semisimple, which `_radical_image` decides.  The ideals of g are its
    M(g)-submodules.  A reductive g is the center, a sum of trivial lines,
    plus simple ideals, each an irreducible submodule; so g is a faithful
    completely reducible M(g)-module and M(g) is semisimple.  Conversely,
    a semisimple M(g) splits g into minimal ideals that multiply each other
    to zero: the abelian ones are central lines and the others are simple.
    """
    if even.space.odd_dim != 0:
        raise InputError("reductive test applies to the even part")
    n = even.dim
    if even.is_abelian():
        return ReductiveReport(True, n, 0, True, certificate="abelian")
    z = center(even)
    square = GradedSubspace(even.space, even.int_table()[1].values())
    zdim, sdim = z.dim, square.dim
    both = linalg.row_span(z.int_rows + square.int_rows, n)
    if zdim + sdim != n or both.dim != n:
        return ReductiveReport(False, zdim, sdim, False,
                               certificate="center + square is not a direct "
                                           "sum decomposition")
    if _radical_image(_multiplication_generators(even), n).dim:
        return ReductiveReport(False, zdim, sdim, True,
                               certificate="multiplication algebra has a "
                                           "nonzero radical")
    return ReductiveReport(True, zdim, sdim, True,
                           certificate="semisimple multiplication algebra "
                                       "(trace form non-degenerate)")


def check_reductive_even(q: QuadraticAlgebra) -> ReductiveReport:
    _require_validated(q)
    return reductive_report(even_part(q.algebra))


@dataclass(frozen=True)
class ReducibilityReport:
    completely_reducible: bool
    certificate: str
    witness_subspace: object = None   # GradedSubspace of the odd part
    obstruction_triple: object = None  # (action into Y, action kills Y,
                                       #  action nonzero) booleans


def _odd_action_matrices(a: SuperAlgebra):
    """Left multiplication by even basis vectors, restricted to the odds, as
    sparse qd x qd matrices {qd*row + column: value}, read off the int
    table: the constants times D, which generate the same algebra."""
    p, qd = a.space.even_dim, a.space.odd_dim
    mats = [{} for _ in range(p)]
    for (i, j), vec in a.int_table()[1].items():
        if i < p <= j:
            for k, c in vec.items():
                mats[i][(k - p) * qd + j - p] = c
    return mats


def check_completely_reducible_action(
        q: QuadraticAlgebra) -> ReducibilityReport:
    """Exact test that the even part acts completely reducibly on the odds.

    The action is completely reducible exactly when the radical J of the
    unital enveloping algebra of the action matrices is zero, that is when
    its trace form is non-degenerate (characteristic zero; see
    `_radical_image`).  Otherwise the report carries Y = J V, the span of
    the columns of J's elements: a nonzero proper invariant subspace of
    the odd part with no invariant complement.
    """
    _require_validated(q)
    a = q.algebra
    p, qd = a.space.even_dim, a.space.odd_dim
    if qd == 0:
        return ReducibilityReport(True, certificate="no odd part")
    mats = _odd_action_matrices(a)
    if not any(mats):
        return ReducibilityReport(True, certificate="trivial action")
    y = _radical_image(mats, qd)
    if not y.dim:
        return ReducibilityReport(True,
                                  certificate="semisimple enveloping algebra "
                                              "(trace form non-degenerate)")
    return ReducibilityReport(
        False,
        certificate="enveloping trace form degenerate; the witness J V has "
                    "no invariant complement",
        witness_subspace=GradedSubspace(
            a.space, [{p + j: x for j, x in row.items()}
                      for row in y.int_rows()]),
        obstruction_triple=_obstruction_triple(a, y))


def _obstruction_triple(a: SuperAlgebra, y: linalg.Span):
    """(the even part maps the odds into y, it kills y, it acts nonzero)
    for a span y of odd coordinates."""
    p = a.space.even_dim
    images = [vec for (i, j), vec in a.pair_table().items() if i < p <= j]
    ys = [{p + j: x for j, x in row.items()} for row in y.int_rows()]
    return (all(y.contains({k - p: x for k, x in vec.items()})
                for vec in images),
            not any(_mul_vv(a, {i: 1}, v) for i in range(p) for v in ys),
            bool(images))


# ---------------------------------------------------------------------------
# decomposition trees

@dataclass(frozen=True)
class Leaf:
    kind = "leaf"
    algebra: QuadraticAlgebra
    label: ULabel
    note: str = ""


@dataclass(frozen=True)
class SumNode:
    kind = "sum"
    algebra: QuadraticAlgebra
    children: tuple
    basis: tuple  # adapted basis columns, node coordinates
    exhaustive: bool = True


@dataclass(frozen=True)
class OddExtensionNode:
    kind = "odd_gde"
    algebra: QuadraticAlgebra
    child: object
    gde: GdeData
    basis: tuple
    witness: ExtensionWitness = None


@dataclass(frozen=True)
class EvenExtensionNode:
    kind = "even_de"
    algebra: QuadraticAlgebra
    child: object
    operator: OperatorMap
    basis: tuple
    witness: ExtensionWitness = None


@dataclass(frozen=True)
class DecompositionTree:
    root: object

    @functools.cached_property
    def advisory_reductive(self) -> ReductiveReport:
        """The reductive report of the root's even part, computed on first
        read; emit_tree does not read it."""
        return check_reductive_even(self.root.algebra)

    def leaves(self):
        out = []

        def walk(node):
            if node.kind == "leaf":
                out.append(node)
            elif node.kind == "sum":
                for c in node.children:
                    walk(c)
            else:
                walk(node.child)

        walk(self.root)
        return out


def _decompose_node(q: QuadraticAlgebra):
    label = classify_U(q)
    if label.tag != "not_in_U":
        return Leaf(q, label)
    comps = b_irreducible_components(q)
    if len(comps) > 1:
        children = tuple(_decompose_node(c) for c in comps.components)
        basis = tuple(tuple(col) for col in _interleave(comps))
        return SumNode(q, children, basis, exhaustive=comps.exhaustive)
    zc = center(q.algebra)
    if zc.odd_rows():
        red = reduce_odd(q)
        child = _decompose_node(red.n)
        return OddExtensionNode(q, child, red.gde, red.basis, red.witness)
    if zc.even_rows():
        red = reduce_even(q)
        child = _decompose_node(red.n)
        return EvenExtensionNode(q, child, red.operator, red.basis,
                                 red.witness)
    note = "semisimple, unsplit (heuristic limit)" \
        if not label.inconclusive else \
        "semisimple, unsplit (heuristic limit; simplicity unknown)"
    return Leaf(q, label, note=note)


def _interleave(comps):
    """Adapted columns of a sum node: component evens, then component odds,
    in component order (matching the direct-sum convention)."""
    evens = []
    odds = []
    for comp, cols in zip(comps.components, comps.bases):
        pe = comp.space.even_dim
        evens.extend(cols[:pe])
        odds.extend(cols[pe:])
    return evens + odds


def inductive_decompose(q: QuadraticAlgebra) -> DecompositionTree:
    """Recursive description of q by sums, reductions, and base leaves.

    Recursion order: base-set leaf, orthogonal splitting, odd reduction,
    even reduction; a node with zero center that refuses to split becomes
    an explicitly labeled heuristic-limit leaf.  Every node records the
    adapted basis so the tree rebuilds its input exactly.  The advisory
    reductive report of the even part is left to the tree's first read.
    """
    _require_validated(q)
    return DecompositionTree(_decompose_node(q))


# the base-set tags that a leaf's dimension alone decides
_SHAPE_TAGS = {(0, 0): "zero", (1, 0): "one_dim_lie"}


def _check_shape_tag(leaf):
    """A (0|0) leaf is tagged zero and a (1|0) leaf one_dim_lie, and those
    two tags go on no other leaf; AxiomError otherwise."""
    space = leaf.algebra.space
    shape = (space.even_dim, space.odd_dim)
    tag = leaf.label.tag
    if _SHAPE_TAGS.get(shape) != (tag if tag in _SHAPE_TAGS.values()
                                  else None):
        raise AxiomError("leaf %r of dimension (%d|%d) is labelled %r"
                         % (leaf.algebra.name, shape[0], shape[1], tag))


def _carries(q: QuadraticAlgebra, r: QuadraticAlgebra, columns) -> bool:
    """Whether b_i -> P_i, for the columns P_i in r's coordinates, is a
    parity-preserving isometric homomorphism from q onto r: each P_i has
    the parity of b_i, r(P_i, P_j) = sum_k c_ijk P_k for every (i, j), zero
    products included, and P_i^T G_r P_j = G_q[i][j].

    The isometry pulls G_r back to G_q, so when q's form is nondegenerate
    the map is injective, and with dim q = dim r it is an isomorphism of
    graded algebras that carries q's form onto r's: every axiom that q
    satisfies holds in r, and no elimination is needed.  G_r is pulled back
    along the P_i as BilinearForm.restrict does.  The products are compared
    on ints: the columns are scaled by L, the lcm of their denominators
    (operators._int_map), and each side's constants by the lcm of their own
    denominators, D_q and D_r, so both are D_q D_r L^2 times the true ones.
    When the spaces are equal and the columns are the identity, this says
    that the constants and the Grams are equal, and that is what is
    compared.
    """
    n = q.dim
    if r.dim != n or len(columns) != n:
        return False
    identity = tuple(tuple(int(m == i) for m in range(n)) for i in range(n))
    if q.space == r.space and tuple(map(tuple, columns)) == identity:
        return (q.algebra.constants == r.algebra.constants
                and q.form == r.form)
    images = {}
    for i, col in enumerate(columns):
        vec = {m: x for m, x in enumerate(col) if x}
        if any(r.space.parity(m) != q.space.parity(i) for m in vec):
            return False
        images[i] = vec
    if r.form._restricted(images.values()) != q.form:
        return False
    scale, apply = _int_map(images)
    cols = {i: apply({i: 1}) for i in range(n)}
    dq, qtable = q.algebra.int_table()
    dr, rtable = r.algebra.int_table()
    # the image of a product of q in r, times L: the combination of the P_k
    want = {key: {k: dr * scale * x for k, x in img.items()}
            for key, vec in qtable.items() if (img := apply(vec))}
    got = {key: {k: dq * x for k, x in vec.items()}
           for key, vec in linalg.pulled_back(rtable, cols).items()}
    return got == want


def _mismatch(node, ext):
    """Raise why node.basis does not carry ext onto the node's stored
    algebra, checking in turn that the stored algebra passes every axiom
    (AxiomError), that the basis is invertible (InputError) and that it
    maps ext's graded pieces onto graded pieces in even-first order
    (GradingError); otherwise AxiomError names the mismatch."""
    stored = node.algebra
    QuadraticAlgebra.validate(stored.algebra, stored.form)
    cols = node.basis
    if ext.dim == len(cols):
        span = linalg.row_span(cols, len(cols))
        if span.dim < len(cols):
            raise InputError("corrupted witness: singular basis")
        # the rows that ext's even and odd basis vectors reach; the basis
        # is invertible, so the inverse's columns are homogeneous exactly
        # when these are disjoint, and ordered even-first when the even
        # rows come first
        reach = ({m for i in ext.space.even_indices()
                  for m, x in enumerate(cols[i]) if x},
                 {m for i in ext.space.odd_indices()
                  for m, x in enumerate(cols[i]) if x})
        if reach[0] & reach[1]:
            raise GradingError("basis column is not parity-homogeneous")
        if reach[0] and reach[1] and max(reach[0]) > min(reach[1]):
            raise GradingError("basis columns must be ordered even-first")
    raise AxiomError("rebuilt %s node %r does not match its stored document"
                     % (node.kind, stored.name))


def rebuild(node) -> QuadraticAlgebra:
    """Bottom-up reconstruction; equals the decomposed input entry-exactly.

    Each node is rebuilt from its children, and its basis must carry the
    rebuilt algebra onto the node's stored one (_carries).  The rebuilt
    algebra is validated: leaves are scanned when parsed, a sum of
    validated algebras is validated, an odd extension is quadratic Malcev
    by construction once verify_gde_data accepts its data (see
    generalized_double_extension), and an even extension is scanned when
    built.  So a node that passes is certified without a scan of its own
    and comes back validated; this is where parse_tree's sum and extension
    nodes are certified.  A node that fails raises, in this order: its
    stored algebra fails an axiom (AxiomError), its basis is singular
    (InputError) or not homogeneous (GradingError), or a mismatch
    (AxiomError naming the node).  A leaf is its stored algebra; only the
    tags that its dimension decides are checked (see _check_shape_tag).
    The simple tags, leaf notes and a sum's exhaustive flag are taken as
    stored.
    """
    if isinstance(node, DecompositionTree):
        return rebuild(node.root)
    if node.kind == "leaf":
        _check_shape_tag(node)
        return node.algebra
    if node.kind == "sum":
        ext = functools.reduce(direct_sum_quadratic,
                               map(rebuild, node.children))
    elif node.kind == "odd_gde":
        ext, _w = generalized_double_extension(rebuild(node.child), node.gde)
    elif node.kind == "even_de":
        ext, _w = double_extension_even(rebuild(node.child), node.operator)
    else:
        raise InputError("unknown node kind %r" % (node.kind,))
    stored = node.algebra
    if not _carries(ext, stored, node.basis):
        _mismatch(node, ext)
    return (stored if stored.validated
            else QuadraticAlgebra(stored.algebra, stored.form, validated=True))
