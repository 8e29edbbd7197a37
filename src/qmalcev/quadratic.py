"""Invariant scalar products and orthogonal structure.

A quadratic algebra pairs a superalgebra with an even, supersymmetric,
non-degenerate, invariant bilinear form.  Evenness kills the cross-parity
blocks; supersymmetry makes the even block symmetric and the odd block
antisymmetric.  All checks are exact scans with witnesses.

Every n x n matrix of the package is a `SparseMatrix`: a form's Gram, and
`operators.OperatorMap` and `operators.Cocycle`.  It keeps the nonzero
entries by row and by column, reads a dense square matrix or the
nonzeros, has one dense view and one parity check, and compares type,
dimension, parity and entries; each subclass adds only what is its own.
The pairing of vectors with the form, the orthogonal complement and the
lift of component bases go through `linalg.combine`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from . import linalg
from .core import (_CERT_PRIME, EVEN, Element, GradedSubspace, SuperAlgebra,
                   SuperSpace, _change_basis, _ideal_candidates,
                   _proper_ideals, _scan_kernel, center, check_malcev,
                   check_super_anticommutativity, ideal_closure, _direct_sum,
                   direct_sum_embeddings, memo, parity_name, simplicity)
from .errors import AxiomError, GradingError, InputError, PreconditionError
from .linalg import ONE, ZERO, frac
from .reports import (CheckReport, ItemizedReport, Witness, _mirror_witnesses,
                      _report, _value_witnesses)


class SparseMatrix:
    """One n x n matrix with a parity (EVEN unless given), stored as its
    nonzeros: `entries` {(i, j): x} in row-major order, indexed by row,
    `rows` {i: {j: x}}, and by column, `cols` {j: {i: x}}.  Immutable.
    `Cls(matrix[, parity])` reads a dense square matrix and `from_entries`
    the nonzeros; `matrix`, also named `gram`, is the one dense view, a
    tuple of row tuples.  The forms, the cocycles and the operators of the
    package are its subclasses, which name the matrix in their messages."""

    _name, _matrix_name = "matrix", "matrix"

    def __init__(self, matrix, parity: int = EVEN):
        rows = [tuple(frac(x) for x in row) for row in matrix]
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise InputError("%s must be square" % self._matrix_name)
        self._store(n, {(i, j): x for i, row in enumerate(rows)
                        for j, x in enumerate(row)}, parity)

    def _store(self, n, entries, parity):
        self.dim, self.parity = n, parity
        self.entries, self.rows, self.cols = {}, {}, {}
        for (i, j), x in sorted(entries.items()):
            if x:
                self.entries[(i, j)] = x
                self.rows.setdefault(i, {})[j] = x
                self.cols.setdefault(j, {})[i] = x
        return self

    @classmethod
    def from_entries(cls, n, entries, parity: int = EVEN):
        """The matrix with the given entries {(i, j): x}; zeros are
        dropped."""
        return cls.__new__(cls)._store(
            n, {key: frac(x) for key, x in entries.items()}, parity)

    @classmethod
    def zero(cls, n, parity: int = EVEN):
        return cls.from_entries(n, {}, parity)

    @property
    def matrix(self):
        """The dense matrix as a tuple of row tuples."""
        return tuple(tuple(self.rows.get(i, {}).get(j, ZERO)
                           for j in range(self.dim)) for i in range(self.dim))

    gram = matrix

    def column(self, j):
        """Sparse column j, for an operator the image of basis vector j;
        not to be mutated."""
        return self.cols.get(j, {})

    def apply_vec(self, vec):
        """The matrix times a sparse dict vector, as a sparse dict."""
        return linalg.combine(self.cols, vec)

    def validate_parity(self, space):
        """An entry (i, j) with |i| + |j| + parity odd must vanish: the
        first such nonzero entry in row-major order is named."""
        for i, j in self.entries:
            if (space.parity(i) + space.parity(j) + self.parity) % 2:
                raise GradingError("%s entry (%d,%d) violates parity %s"
                                   % (self._name, i, j,
                                      parity_name(self.parity)))
        return self

    def __eq__(self, other):
        return (type(other) is type(self) and self.dim == other.dim
                and self.parity == other.parity
                and self.entries == other.entries)

    def __repr__(self):
        return "%s(dim=%d, parity=%s)" % (type(self).__name__, self.dim,
                                          parity_name(self.parity))


class BilinearForm(SparseMatrix):
    """A bilinear form in the fixed basis, its `SparseMatrix` the Gram
    matrix; `gram` is its dense view, and `int_gram` its int copy."""

    _name, _matrix_name = "form", "Gram matrix"

    @property
    @memo
    def int_gram(self):
        """(E, {(i, j): {0: E G[i][j]}}, {i: {j: E G[i][j]}},
        {j: {i: E G[i][j]}}): the entries, one vector to linalg.scaled,
        times E, the lcm of their denominators, as a map to a line and by
        row and column; the one scaled copy, cached, that every integer
        path reads."""
        scale, line = linalg.scaled({0: self.entries})
        table, rows, cols = {}, {}, {}
        for (i, j), y in line[0].items():
            table[(i, j)] = {0: y}
            rows.setdefault(i, {})[j] = cols.setdefault(j, {})[i] = y
        return scale, table, rows, cols

    def _value(self, u, v):
        """B(u, v) for sparse vectors u and v, read off the int Gram's
        rows and divided back by E."""
        scale, _table, rows, _cols = self.int_gram
        return Fraction(sum(x * v.get(j, 0) for j, x
                            in linalg.combine(rows, u).items()), scale)

    @property
    @memo
    def _verdicts(self):
        """_nondegenerate_on's verdicts, by the subspace's key."""
        return {}

    def _nondegenerate_on(self, sub: GradedSubspace):
        """Whether the form restricted to a graded subspace is
        nondegenerate, memoized on this form by the subspace's key, so a
        split along an ideal that the search has just found nondegenerate
        reuses the verdict.  The int Gram is pulled back along the int
        rows; full rank modulo 2^61 - 1 proves it, as in _kernel_basis, and
        only on a deficit mod p is the rank taken over Q."""
        verdict = self._verdicts.get(sub.key)
        if verdict is None:
            k, rows = sub.dim, {}
            for (i, j), vec in self._pulled_back(sub).items():
                rows.setdefault(i, {})[j] = vec[0]
            verdict = self._verdicts[sub.key] = any(
                linalg.row_span(rows.values(), k, p).dim == k
                for p in (_CERT_PRIME, 0))
        return verdict

    def _pulled_back(self, sub: GradedSubspace):
        """The int Gram pulled back along the int rows of a graded
        subspace, {(i, j): {0: x}} at its nonzero entries only; empty
        exactly when the form vanishes on the subspace."""
        return linalg.pulled_back(self.int_gram[1],
                                  dict(enumerate(sub.int_rows)))

    @property
    @memo
    def _kernel_basis(self):
        """A basis of the kernel {v : G v = 0} as sparse vectors, cached;
        empty exactly when the form is nondegenerate.  The Gram scaled to
        ints of rank n modulo the prime 2^61 - 1 has a determinant nonzero
        mod p, hence over Z and Q (as in core.simplicity's certificate);
        only on a rank deficit mod p is the kernel solved over Q."""
        rows = list(self.int_gram[2].values())
        if linalg.row_span(rows, self.dim, _CERT_PRIME).dim == self.dim:
            return []
        return linalg.sparse_kernel(rows, self.dim)

    def is_nondegenerate(self):
        return not self._kernel_basis


@dataclass(frozen=True)
class FormReport(ItemizedReport):
    even: CheckReport
    supersymmetric: CheckReport
    nondegenerate: CheckReport
    invariant: CheckReport


def check_form(a: SuperAlgebra, b: BilinearForm) -> FormReport:
    """The four scalar-product axioms, each with exact witnesses, read off
    the Gram's nonzeros.

    Evenness and supersymmetry can fail only at a pair (i, j) where G[i][j]
    or G[j][i] is nonzero, so those pairs alone are compared, in
    lexicographic order.  The nondegeneracy witnesses are the vectors of
    the form's kernel (BilinearForm._kernel_basis, certified mod p first).
    """
    n = a.dim
    if b.dim != n:
        raise InputError("form dimension does not match algebra")
    par = [a.space.parity(i) for i in range(n)]
    g = b.entries

    even = _report([(i, j) for i, j in g if par[i] != par[j]],
                   lambda key: Witness(key, g[key], ZERO))

    # at i <= j: G[i][j] against (-1)^{|i|} G[j][i]
    supersym = _mirror_witnesses({(i, j): x for (i, j), x in g.items()
                                  if par[i] == par[j]}, par.__getitem__, False)

    kernel, zero = b._kernel_basis, Element.zero(n)
    nondeg = _report(range(len(kernel)), lambda i: Witness(
        ("kernel",), Element.sparse(n, kernel[i]), zero))

    return FormReport(even=even, supersymmetric=_report(*supersym),
                      nondegenerate=nondeg,
                      invariant=_report(*_invariance_witnesses(a, b)))


def _invariance_witnesses(a: SuperAlgebra, b: BilinearForm):
    """The (i, j, k) with B(b_i b_j, b_k) != B(b_i, b_j b_k), in
    lexicographic order, and the builder of their witnesses (both sides).

    Both sides are sums of (constant x Gram entry) terms, so they are
    accumulated on the scan kernel's integer constants (scaled by D) and
    the Gram's rows and columns scaled by E, the lcm of its denominators:
    for each pair entry b_i b_j = sum_m c_m b_m, `linalg.combine` gives
    lhs(i, j, k) = sum_m c_m G[m][k] off the Gram rows and
    rhs(h, i, j) = sum_m G[h][m] c_m off its columns.  Every triple with a
    nonzero side is reached this way; the sorted keys whose sides differ
    are divided back by D E.
    """
    kern = _scan_kernel(a)
    gscale, _table, grows, gcols = b.int_gram
    lhs, rhs = {}, {}
    for (i, j), vec in kern.pairs.items():
        for k, x in linalg.combine(grows, vec).items():
            lhs[(i, j, k)] = x
        for h, x in linalg.combine(gcols, vec).items():
            rhs[(h, i, j)] = x
    return _value_witnesses(lhs, rhs, kern.scale * gscale)


def _form_pairing(b: BilinearForm, vectors):
    """B(v_c, b_j) at (c, j) and B(b_j, v_c) at (j, c) for the sparse
    vectors {c: {r: x}}, from their nonzeros and the Gram's; nonzero values
    only.  For an operator's columns {i: f(b_i)} these are B(f(b_i), b_j)
    and B(b_i, f(b_j)) at (i, j); for {0: v}, B(b_j, v) is at (j, 0)."""
    left, right = {}, {}
    for c, vec in vectors.items():
        left.update(((c, j), x)
                    for j, x in linalg.combine(b.rows, vec).items())
        right.update(((j, c), x)
                     for j, x in linalg.combine(b.cols, vec).items())
    return left, right


class QuadraticAlgebra:
    """A superalgebra together with an invariant scalar product."""

    def __init__(self, algebra: SuperAlgebra, form: BilinearForm,
                 validated: bool = False):
        if form.dim != algebra.dim:
            raise InputError("form dimension does not match algebra")
        self.algebra = algebra
        self.form = form
        self.validated = validated

    @classmethod
    def validate(cls, algebra: SuperAlgebra, form: BilinearForm):
        """Run the full axiom suite and return a validated instance: the
        four form axioms, the Malcev identity, then super-anticommutativity,
        each failure an AxiomError naming it."""
        freport = check_form(algebra, form)
        if not freport.passed:
            raise AxiomError("form axioms failed: %s"
                             % ", ".join(freport.failures()), freport)
        mreport = check_malcev(algebra)
        if not mreport.passed:
            raise AxiomError("Malcev identity failed with %d witnesses"
                             % len(mreport.witnesses), mreport)
        areport = check_super_anticommutativity(algebra)
        if not areport.passed:
            raise AxiomError("super-anticommutativity failed with %d "
                             "witnesses" % len(areport.witnesses), areport)
        return cls(algebra, form, validated=True)

    @property
    def space(self) -> SuperSpace:
        return self.algebra.space

    @property
    def dim(self):
        return self.algebra.dim

    @property
    def name(self):
        return self.algebra.name

    def __eq__(self, other):
        return (isinstance(other, QuadraticAlgebra)
                and self.algebra == other.algebra
                and self.form == other.form)

    def __repr__(self):
        return "QuadraticAlgebra(%r, dim=(%d|%d))" % (
            self.name, self.space.even_dim, self.space.odd_dim)


def _require_validated(q: QuadraticAlgebra):
    if not q.validated:
        raise PreconditionError("operation requires a validated quadratic "
                                "algebra")


def orthogonal_complement(b: BilinearForm, s: GradedSubspace):
    """{v : B(c, v) = 0 for every row c of s}, one sparse kernel; a
    subspace of another dimension raises InputError.  B is even, so the
    functional B(c, .) of a homogeneous c meets the coordinates of c's
    parity only, and the kernel vectors are homogeneous.  The functionals
    are read on ints, off s's int rows and the form's int Gram rows."""
    if s.space.dim != b.dim:
        raise InputError("subspace dimension does not match the form")
    return GradedSubspace(s.space, _perp(b, s.int_rows))


def _perp(b: BilinearForm, int_rows):
    """Int vectors spanning {v : B(c, v) = 0 for every int row c}, one int
    kernel of the functionals B(c, .) read off the int Gram's rows; a
    degenerate form raises PreconditionError."""
    if not b.is_nondegenerate():
        raise PreconditionError("form is degenerate")
    grows = b.int_gram[2]
    return linalg.int_kernel([linalg.combine(grows, vec) for vec in int_rows],
                             b.dim)


def _rewrite(q: QuadraticAlgebra, columns, name=""):
    """(algebra, gram), q in the basis of the columns: core._change_basis,
    and the Gram C^T G C as entries {(i, j): x}, the int Gram pulled back
    along the same int columns, E L^2 times the true one, divided back."""
    alg, scale, cols = _change_basis(q.algebra, columns, name)
    gscale, table = q.form.int_gram[:2]
    denom = gscale * scale ** 2
    return alg, {key: Fraction(vec[0], denom) for key, vec
                 in linalg.pulled_back(table, cols).items()}


def change_basis_quadratic(q: QuadraticAlgebra, columns, name=None):
    """Constants and Gram matrix C^T G C in the basis of the given columns,
    lists or sparse dicts (_rewrite); see core.change_basis, which also
    takes k < n columns of a subspace."""
    alg, gram = _rewrite(q, columns, q.name if name is None else name)
    return QuadraticAlgebra(alg, BilinearForm.from_entries(alg.dim, gram),
                            validated=q.validated)


def _cut(rewrite, gram, positions, name):
    """The algebra on the basis vectors at the given positions (even ones
    first) of a rewrite (_rewrite's algebra and Gram entries), its int
    table and Gram cut there, marked validated, which each caller proves;
    and the spill {(a, b): {m: x}}, the int components at the rewrite's
    scale at positions m outside of the product of the a-th and b-th."""
    where = {pos: a for a, pos in enumerate(positions)}
    scale, pairs = rewrite.int_table()
    cut, spill = {}, {}
    for (i, j), vec in pairs.items():
        if i in where and j in where:
            key = where[i], where[j]
            for k, x in vec.items():
                if k in where:
                    cut.setdefault(key, {})[where[k]] = x
                else:
                    spill.setdefault(key, {})[k] = x
    evens = sum(rewrite.space.parity(pos) == EVEN for pos in positions)
    alg = SuperAlgebra._from_ints(
        SuperSpace(evens, len(positions) - evens), scale, cut, name)
    form = BilinearForm.from_entries(
        len(positions), {(where[i], where[j]): x for (i, j), x in gram.items()
                         if i in where and j in where})
    return QuadraticAlgebra(alg, form, validated=True), spill


def _own_space(sub: GradedSubspace) -> SuperSpace:
    """The graded space of a subspace's own basis, its rows."""
    evens = len(sub.even_rows())
    return SuperSpace(evens, sub.dim - evens)


def _laid_out(maps, parts):
    """The items of the parts in one list, each at the position that its
    part's index map, from direct_sum_embeddings, gives it."""
    out = [None] * sum(map(len, maps))
    for positions, part in zip(maps, parts):
        for pos, x in zip(positions, part):
            out[pos] = x
    return out


def orthogonal_split(q: QuadraticAlgebra, ideal: GradedSubspace):
    """Split along a graded ideal with non-degenerate form restriction.

    Returns (component on the ideal, component on its complement, witness),
    the witness being the rows of the ideal and of its complement as
    sparse dicts, laid out as direct_sum_embeddings lays out the sum of
    the components; in that basis direct_sum of the components reproduces
    the input constants.  An ideal of another space raises InputError.  q is
    rewritten once in that basis and both components are cut from it.
    They are validated by theorem, not by a scan: I^perp is an ideal with
    I I^perp = 0, and both summands of q = I + I^perp are quadratic Malcev
    (Medina-Revoy, Ann. Sci. ENS 18 (1985); Albuquerque-Benayadi, J. Pure
    Appl. Algebra 187 (2004)).
    """
    return _orthogonal_split(q, ideal)[:3]


def _orthogonal_split(q: QuadraticAlgebra, ideal: GradedSubspace):
    """orthogonal_split's three values, and the two index maps of the
    layout of the witness."""
    _require_validated(q)
    if ideal.space != q.space:
        raise InputError("subspace does not lie in the algebra's space")
    if ideal.dim == 0 or ideal.dim == q.dim:
        raise PreconditionError("split requires a proper nonzero ideal")
    if ideal_closure(q.algebra, ideal).dim != ideal.dim:
        raise PreconditionError("subspace is not an ideal")
    if not q.form._nondegenerate_on(ideal):
        raise PreconditionError("form restriction to the ideal is degenerate")
    comp = orthogonal_complement(q.form, ideal)
    _, maps = direct_sum_embeddings(_own_space(ideal), _own_space(comp))
    witness_cols = [dict(row)
                    for row in _laid_out(maps, (ideal.rows, comp.rows))]
    rewrite, gram = _rewrite(q, witness_cols)
    inside, outside = maps
    side = [i in inside for i in range(q.dim)]
    if any(len({side[i], side[j], *map(side.__getitem__, vec)}) > 1
           for (i, j), vec in rewrite.int_table()[1].items()):
        raise PreconditionError("cross products do not vanish; split is "
                                "invalid")
    qa, _ = _cut(rewrite, gram, inside, "%s[0]" % q.name)
    qb, _ = _cut(rewrite, gram, outside, "%s[1]" % q.name)
    return qa, qb, witness_cols, maps


def direct_sum_quadratic(qa: QuadraticAlgebra,
                         qb: QuadraticAlgebra) -> QuadraticAlgebra:
    alg, maps = _direct_sum(qa.algebra, qb.algebra)
    form = BilinearForm.from_entries(alg.dim, {
        (at[i], at[j]): x for q, at in zip((qa, qb), maps)
        for (i, j), x in q.form.entries.items()})
    return QuadraticAlgebra(alg, form,
                            validated=qa.validated and qb.validated)


@dataclass(frozen=True)
class ComponentsReport:
    components: tuple  # QuadraticAlgebra per component
    bases: tuple  # adapted basis columns of each component, original coords
    exhaustive: bool

    def __len__(self):
        return len(self.components)

    def __iter__(self):
        return iter(self.components)


def _symmetric_centroid(q: QuadraticAlgebra):
    """A basis over Q of the symmetric centroid Gamma_s(q), the even maps T
    with T(xy) = T(x)y = xT(y) and B(Tx, y) = B(x, Ty), each scaled to ints
    as a vector of F^(n^2) (see `linalg.commutant`).

    T(x b_j) = T(x) b_j for every x is T R_j = R_j T, so Gamma_s is the
    commutant of the R_j among the even maps that are self-adjoint for B,
    solved exactly over Q on the R_j of `int_factors` and the int Gram.
    The diagonal of the B rows counts: on the skew odd block
    B(T b_i, b_i) = 0 is a real condition.  On a super-anticommutative
    algebra T(xy) = T(x)y over all ordered pairs gives T(xy) = xT(y), so
    the L_i are not written; on any algebra, fewer rows only enlarge the
    solved space, which keeps the rank bound that _split reads.
    """
    _require_validated(q)
    return linalg.commutant(q.algebra.int_factors()[1].values(),
                            [q.space.parity(i) for i in range(q.dim)],
                            q.form.int_gram[2:])


def _trace_rank(maps, n, stop=None):
    """Rank of the trace form (S, T) -> tr(ST) on the n x n matrices maps,
    vectors of F^(n^2) (`linalg.trace_rows`), taken row by row; once the
    rank reaches stop, that is returned without the remaining rows."""
    span = linalg.Span(len(maps))
    for row in linalg.trace_rows(maps, n):
        span.add(row)
        if span.dim == stop:
            break
    return span.dim


def _solvable(a: SuperAlgebra) -> bool:
    """Whether the derived series A, A^2, (A^2)^2, ... reaches 0: each
    term is spanned by the products of the previous term's int rows, the
    algebra's int table pulled back along them (linalg.pulled_back)."""
    pairs = a.int_table()[1]
    return _reaches_zero(
        a, lambda term: linalg.pulled_back(pairs, term).values())


def _nilpotent(a: SuperAlgebra) -> bool:
    """Whether the lower central series A, A^2, A^2 A, ... reaches 0: each
    term is spanned by the previous term's int rows times the basis
    vectors, read off `int_factors` by linalg.combine_table."""
    lefts = a.int_factors()[0]
    return _reaches_zero(a, lambda term: (
        vec for row in term.values()
        for vec in linalg.combine_table(lefts, row).values()))


def _reaches_zero(a: SuperAlgebra, products) -> bool:
    """Whether the series of A that products(term) spans term by term
    reaches 0, each term {k: int row} reduced over Q by linalg.Span.
    Every term lies in the one before, so the dimension falls until it
    reaches 0 or a term equals the one before it; there the series stops
    at a nonzero term."""
    term = {i: {i: 1} for i in range(a.dim)}
    while term:
        span = linalg.row_span(products(term), a.dim)
        if span.dim == len(term):
            return False
        term = dict(enumerate(span.int_rows()))
    return True


@memo
def _split(q: QuadraticAlgebra):
    """The split verdict (ideal, proved), kept on q: a proper graded
    ideal with a nondegenerate restriction, or None; and whether None is
    proved, not merely that no candidate closed to such an ideal.

    The verdict is reached in this order, each step only where the steps
    before it left it open:
    1. Structural certificates, which close no candidate and solve no
       Gamma_s; each proves None.
       - Dimension at most 1, or `simplicity` True: no proper ideal.
       - Shape (0|2): odd times odd is even, so q is abelian, and each of
         its lines is isotropic under the skew form.
       - Solvable with dim Z = 1.  On a quadratic algebra Z = (A^2)^perp
         (Medina-Revoy, Ann. Sci. ENS 18 (1985); Albuquerque-Benayadi,
         J. Pure Appl. Algebra 187 (2004)): z is central iff
         B(zx, y) = B(z, xy) = 0 for all x, y.  A nonzero solvable algebra
         has A^2 != A, so a nonzero center.  A split q = I + J along
         nonzero orthogonal graded ideals gives two quadratic solvable
         algebras with nonzero centers, and IJ = 0 puts Z(I) + Z(J) in
         Z(q), so dim Z(q) >= 2.
    2. The first proper ideal of the `_ideal_candidates`, if its
       restriction is nondegenerate, splits q.  `simplicity` has closed it
       already and keeps it as its `ideal`, so this costs one rank; in a
       sum the center columns and basis vectors mostly close to a summand.
    3. The trace form on the symmetric centroid Gamma_s (Bajo-Benayadi,
       J. Pure Appl. Algebra 209 (2007)) of rank 1 proves None.  A split
       q = I + J puts the projections p_I, p_J in Gamma_s, with
       tr(p_I p_J) = 0 and tr(p_I p_I) = dim I > 0, so the rank is at
       least the number of components; it is only taken up to 2.  Where it
       is 1, no candidate can split q.
       - Gamma_s is solved only when Z lies in A^2 = Z^perp, that is when
         B vanishes on Z, a pullback of the int Gram.  Otherwise a graded
         complement W in Z of the radical of B on Z, which is Z
         intersected with A^2, is a nondegenerate central ideal, and
         q = W + W^perp is proper unless q = W is abelian.  An abelian q
         of a shape other than (0|0), (1|0) and (0|2) has another graded
         subspace with a nondegenerate restriction, an ideal: its even
         part, an anisotropic even line, or an odd plane.  So the rank is
         at least 2 there, and an abelian q, whose form is nondegenerate
         on Z = q, skips even the pullback.
       - On a nilpotent q (`_nilpotent`, a few spans) Gamma_s is solved
         before any other candidate is closed.  Otherwise the center
         columns and the basis vectors are closed first, and the first
         that splits q is returned.  This gate is for cost only: every
         node of an example_gde chain is nilpotent and is proved here,
         while sl2 + oscillator, oscillator + oscillator and
         example_gde + sl2, which are not nilpotent, have an isotropic
         center too and split at a basis vector; a solve ahead of it made
         the first two 30-50% slower.
    4. The candidates in order, from the first that step 3 did not close:
       the center columns, the basis vectors, same-parity sums and pairs,
       then seeded pseudo-random homogeneous vectors.  Each is closed by
       `core._proper_ideals`, and the first ideal with a nondegenerate
       restriction splits q; a closure that `simplicity` made is a memo
       hit in `ideal_closure`, and an ideal met twice one in
       `BilinearForm._nondegenerate_on`.
    Steps 2 and 3 only skip work: the ideal of step 2 is the first that
    step 4 would return, the candidates of step 3 are step 4's first ones
    in its order, and where step 3 proves None, step 4 finds none.
    """
    a = q.algebra
    if (q.dim <= 1 or (q.dim == 2 and not q.space.even_dim)
            or simplicity(a).simple is True
            or (center(a).dim == 1 and _solvable(a))):
        return None, True
    ideal = simplicity(a).ideal
    if ideal is not None and q.form._nondegenerate_on(ideal):
        return ideal, False

    def first(seeds):
        return next((ideal for ideal in _proper_ideals(a, seeds)
                     if q.form._nondegenerate_on(ideal)), None)

    seeds = _ideal_candidates(a)
    if not a.is_abelian() and not q.form._pulled_back(center(a)):
        ahead = 0 if _nilpotent(a) else center(a).dim + q.dim
        ideal = first(islice(seeds, ahead))
        if ideal is not None:
            return ideal, False
        if _trace_rank(_symmetric_centroid(q), q.dim, stop=2) == 1:
            return None, True
    return first(seeds), False


def b_irreducible_components(q: QuadraticAlgebra) -> ComponentsReport:
    """Orthogonal components along non-degenerate graded ideals.

    Each part is split along the ideal of its `_split` verdict until there
    is none.  The parts wait on a work list with the ideal's part on top,
    so the components come in the pre-order of the splits, and a part is
    dropped once it is split.  The basis columns are sparse
    {coordinate: value} dicts, each split's adapted columns lifted to q's
    coordinates through the part's own.  The exhaustive flag is True only
    when the verdict of every component proves it B-irreducible.
    """
    _require_validated(q)
    components, bases = [], []
    exhaustive = True
    work = [(q, [{i: ONE} for i in range(q.dim)])]
    while work:
        part, basis_cols = work.pop()
        ideal, proved = _split(part)
        if ideal is None:
            components.append(part)
            bases.append(tuple(basis_cols))
            exhaustive = exhaustive and proved
            continue
        qa, qb, cols, (amap, bmap) = _orthogonal_split(part, ideal)
        basis = dict(enumerate(basis_cols))
        lifted = [linalg.combine(basis, col) for col in cols]
        work.append((qb, [lifted[i] for i in bmap]))
        work.append((qa, [lifted[i] for i in amap]))
    return ComponentsReport(tuple(components), tuple(bases), exhaustive)
