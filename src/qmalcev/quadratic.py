"""Invariant scalar products and orthogonal structure.

A quadratic algebra pairs a superalgebra with an even, supersymmetric,
non-degenerate, invariant bilinear form.  Evenness kills the cross-parity
blocks; supersymmetry makes the even block symmetric and the odd block
antisymmetric.  All checks are exact scans with witnesses.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from . import linalg
from .core import (_CERT_PRIME, EVEN, ODD, CheckReport, Element,
                   GradedSubspace, SuperAlgebra, SuperSpace, Witness,
                   _EMPTY, _ideal_candidates, _proper_ideals, _report,
                   _scan_kernel, _vadd, center,
                   check_malcev, check_super_anticommutativity,
                   ideal_closure, direct_sum, direct_sum_embeddings,
                   simplicity, change_basis)
from .errors import AxiomError, InputError, PreconditionError
from .linalg import ONE, ZERO, frac


class BilinearForm:
    """A bilinear form in the fixed basis, stored as its nonzero Gram
    entries: `entries` {(i, j): G[i][j]} in row-major order, indexed by row,
    `rows` {i: {j: x}}, and by column, `cols` {j: {i: x}}.  Immutable; the
    dense `gram` and `matrix()`, and the int copy `int_gram`, are derived
    views."""

    def __init__(self, gram):
        rows = [tuple(frac(x) for x in row) for row in gram]
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise InputError("Gram matrix must be square")
        self._store(n, {(i, j): x for i, row in enumerate(rows)
                        for j, x in enumerate(row)})

    def _store(self, n, entries):
        self.dim = n
        self.entries, self.rows, self.cols = {}, {}, {}
        for (i, j), x in sorted(entries.items()):
            if x:
                self.entries[(i, j)] = x
                self.rows.setdefault(i, {})[j] = x
                self.cols.setdefault(j, {})[i] = x
        self._kernel = None  # _kernel_basis, on first use
        self._verdicts = {}  # _nondegenerate_on, by the subspace's key
        return self

    @classmethod
    def zero(cls, n):
        return cls.from_entries(n, {})

    @classmethod
    def from_entries(cls, n, entries):
        """The form with the given entries {(i, j): x}; zeros are dropped."""
        return cls.__new__(cls)._store(
            n, {key: frac(x) for key, x in entries.items()})

    @functools.cached_property
    def int_gram(self):
        """(E, {(i, j): {0: E G[i][j]}}, {i: {j: E G[i][j]}},
        {j: {i: E G[i][j]}}): the entries times E, the lcm of their
        denominators, as ints, as a map to a line and by row and column;
        the one scaled copy, cached, that every integer path reads."""
        scale = math.lcm(*(x.denominator for x in self.entries.values()))
        table, rows, cols = {}, {}, {}
        for (i, j), x in self.entries.items():
            y = x.numerator * (scale // x.denominator)
            table[(i, j)] = {0: y}
            rows.setdefault(i, {})[j] = cols.setdefault(j, {})[i] = y
        return scale, table, rows, cols

    @property
    def gram(self):
        """The dense Gram matrix as a tuple of row tuples."""
        return tuple(map(tuple, self.matrix()))

    def matrix(self):
        return [[self.rows.get(i, {}).get(j, ZERO) for j in range(self.dim)]
                for i in range(self.dim)]

    def restrict(self, columns):
        """Gram of the form restricted to the span of the given columns."""
        return self._restricted(columns).matrix()

    def _restricted(self, columns):
        """The form on the span of the given columns, C^T G C: the entries
        as a map to a line pulled back along the columns' nonzeros, on ints
        (G scaled by E and the columns by L, divided back by E L^2)."""
        gscale, table, _rows, _cols = self.int_gram
        cscale, vecs = linalg.scaled(
            dict(enumerate(map(linalg.sparse, columns))))
        denom = gscale * cscale ** 2
        return BilinearForm.from_entries(
            len(vecs), {key: Fraction(vec[0], denom) for key, vec
                        in linalg.pulled_back(table, vecs).items()})

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
            for (i, j), vec in linalg.pulled_back(
                    self.int_gram[1], dict(enumerate(sub.int_rows))).items():
                rows.setdefault(i, {})[j] = vec[0]
            verdict = self._verdicts[sub.key] = any(
                linalg.row_span(rows.values(), k, p).dim == k
                for p in (_CERT_PRIME, 0))
        return verdict

    def _kernel_basis(self):
        """A basis of the kernel {v : G v = 0} as sparse vectors, cached;
        empty exactly when the form is nondegenerate.  The Gram scaled to
        ints of rank n modulo the prime 2^61 - 1 has a determinant nonzero
        mod p, hence over Z and Q (as in core.simplicity's certificate);
        only on a rank deficit mod p is the kernel solved over Q."""
        if self._kernel is None:
            rows = list(self.int_gram[2].values())
            full = linalg.row_span(rows, self.dim, _CERT_PRIME)
            self._kernel = [] if full.dim == self.dim else (
                linalg.sparse_kernel(rows, self.dim))
        return self._kernel

    def is_nondegenerate(self):
        return not self._kernel_basis()

    def __eq__(self, other):
        return (isinstance(other, BilinearForm) and self.dim == other.dim
                and self.entries == other.entries)

    def __repr__(self):
        return "BilinearForm(dim=%d)" % self.dim


@dataclass(frozen=True)
class FormReport:
    even: CheckReport
    supersymmetric: CheckReport
    nondegenerate: CheckReport
    invariant: CheckReport

    @property
    def passed(self):
        return (self.even.passed and self.supersymmetric.passed
                and self.nondegenerate.passed and self.invariant.passed)

    def failures(self):
        names = ("even", "supersymmetric", "nondegenerate", "invariant")
        return [nm for nm in names if not getattr(self, nm).passed]


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

    even_wit = [Witness((i, j), x, ZERO) for (i, j), x in g.items()
                if par[i] != par[j]]

    sym_wit = []
    for i, j in sorted({(min(key), max(key)) for key in g
                        if par[key[0]] == par[key[1]]}):
        x, y = g.get((i, j), ZERO), g.get((j, i), ZERO)
        expected = y if par[i] == EVEN else -y
        if x != expected:
            sym_wit.append(Witness((i, j), x, expected))

    zero = Element.zero(n)
    nondeg_wit = [Witness(("kernel",), Element.sparse(n, v), zero)
                  for v in b._kernel_basis()]

    inv_wit = _invariance_witnesses(a, b)

    return FormReport(even=_report(even_wit), supersymmetric=_report(sym_wit),
                      nondegenerate=_report(nondeg_wit),
                      invariant=_report(inv_wit))


def _invariance_witnesses(a: SuperAlgebra, b: BilinearForm):
    """(i, j, k) with B(b_i b_j, b_k) != B(b_i, b_j b_k), in lexicographic
    order, with both sides.

    Both sides are sums of (constant x Gram entry) terms, so they are
    accumulated on the scan kernel's integer constants (scaled by D) and
    the Gram's rows and columns scaled by E, the lcm of its denominators:
    each pair entry b_i b_j = sum_m c_m b_m adds
    c_m G[m][k] to lhs(i, j, k) for each nonzero in Gram row m, and
    G[h][m] c_m to rhs(h, i, j) for each nonzero in Gram column m.  Every
    triple with a nonzero side is reached this way; the sorted keys whose
    sides differ are divided back by D E.
    """
    kern = _scan_kernel(a)
    gscale, _table, grows, gcols = b.int_gram
    lhs, rhs = {}, {}
    for (i, j), vec in kern.pairs.items():
        for m, c in vec.items():
            for k, x in grows.get(m, {}).items():
                lhs[(i, j, k)] = lhs.get((i, j, k), 0) + c * x
            for h, x in gcols.get(m, {}).items():
                rhs[(h, i, j)] = rhs.get((h, i, j), 0) + x * c
    denom = kern.scale * gscale
    return [Witness(key, Fraction(lhs.get(key, 0), denom),
                    Fraction(rhs.get(key, 0), denom))
            for key in sorted(lhs.keys() | rhs.keys())
            if lhs.get(key, 0) != rhs.get(key, 0)]


def _form_pairing(b: BilinearForm, vectors):
    """B(v_c, b_j) at (c, j) and B(b_j, v_c) at (j, c) for the sparse
    vectors {c: {r: x}}, from their nonzeros and the Gram's; nonzero values
    only.  For an operator's columns {i: f(b_i)} these are B(f(b_i), b_j)
    and B(b_i, f(b_j)) at (i, j); for {0: v}, B(b_j, v) is at (j, 0)."""
    left, right = {}, {}
    for c, vec in vectors.items():
        for r, x in vec.items():
            for j, g in b.rows.get(r, {}).items():
                left[(c, j)] = left.get((c, j), ZERO) + x * g
            for j, g in b.cols.get(r, {}).items():
                right[(j, c)] = right.get((j, c), ZERO) + g * x
    return ({key: v for key, v in left.items() if v},
            {key: v for key, v in right.items() if v})


class QuadraticAlgebra:
    """A superalgebra together with an invariant scalar product."""

    def __init__(self, algebra: SuperAlgebra, form: BilinearForm,
                 validated: bool = False):
        if form.dim != algebra.dim:
            raise InputError("form dimension does not match algebra")
        self.algebra = algebra
        self.form = form
        self.validated = validated
        self._verdict = None  # _split, on first use

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
    if not b.is_nondegenerate():
        raise PreconditionError("form is degenerate")
    grows = b.int_gram[2]
    rows = []
    for vec in s.int_rows:
        row = {}
        for r, x in vec.items():
            for j, g in grows.get(r, _EMPTY).items():
                row[j] = row.get(j, 0) + x * g
        rows.append(row)
    return GradedSubspace(s.space, linalg.int_kernel(rows, b.dim))


def change_basis_quadratic(q: QuadraticAlgebra, columns, name=None):
    """Constants and Gram matrix C^T G C in the basis of the given columns,
    lists or sparse dicts; see core.change_basis, which also takes k < n
    columns of a subspace."""
    cols = list(columns)
    alg = change_basis(q.algebra, cols, name=name)
    return QuadraticAlgebra(alg, q.form._restricted(cols),
                            validated=q.validated)


def _cut(q: QuadraticAlgebra, positions, name):
    """The algebra on q's basis vectors at the given positions (even ones
    first), with q's own constants and Gram there, marked validated, which
    each caller proves; and the spill {(a, b): {m: c}}, the components at
    positions m outside of the product of the a-th and b-th of them."""
    where = {pos: a for a, pos in enumerate(positions)}
    constants, spill = {}, {}
    for (i, j, k), c in q.algebra.constants.items():
        if i in where and j in where:
            if k in where:
                constants[(where[i], where[j], where[k])] = c
            else:
                spill.setdefault((where[i], where[j]), {})[k] = c
    evens = sum(q.space.parity(pos) == EVEN for pos in positions)
    alg = SuperAlgebra(SuperSpace(evens, len(positions) - evens), constants,
                       name=name)
    form = q.form._restricted({pos: ONE} for pos in positions)
    return QuadraticAlgebra(alg, form, validated=True), spill


def orthogonal_split(q: QuadraticAlgebra, ideal: GradedSubspace):
    """Split along a graded ideal with non-degenerate form restriction.

    Returns (component on the ideal, component on its complement, witness),
    the witness being the adapted basis columns ae + be + ao + bo as
    sparse dicts, in which direct_sum of the components reproduces the
    input constants.  An ideal of another space raises InputError.  q is
    rewritten once in that basis and both components are cut from it.
    They are validated by theorem, not by a scan: I^perp is an ideal with
    I I^perp = 0, and both summands of q = I + I^perp are quadratic Malcev
    (Medina-Revoy, Ann. Sci. ENS 18 (1985); Albuquerque-Benayadi, J. Pure
    Appl. Algebra 187 (2004)).
    """
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
    ae, ao = ideal.even_rows(), ideal.odd_rows()
    be = comp.even_rows()
    witness_cols = [dict(row) for row in ae + be + ao + comp.odd_rows()]
    rq = change_basis_quadratic(q, witness_cols)
    inside = [*range(len(ae)), *range(len(ae + be), len(ae + be + ao))]
    side = [i in inside for i in range(q.dim)]
    if any(len({side[m] for m in key}) > 1 for key in rq.algebra.constants):
        raise PreconditionError("cross products do not vanish; split is "
                                "invalid")
    qa, _ = _cut(rq, inside, "%s[0]" % q.name)
    qb, _ = _cut(rq, [i for i in range(q.dim) if not side[i]],
                 "%s[1]" % q.name)
    return qa, qb, witness_cols


def direct_sum_quadratic(qa: QuadraticAlgebra,
                         qb: QuadraticAlgebra) -> QuadraticAlgebra:
    alg = direct_sum(qa.algebra, qb.algebra)
    amap, bmap = direct_sum_embeddings(qa.space, qb.space)
    entries = {(amap[i], amap[j]): x
               for (i, j), x in qa.form.entries.items()}
    entries.update({(bmap[i], bmap[j]): x
                    for (i, j), x in qb.form.entries.items()})
    form = BilinearForm.from_entries(alg.dim, entries)
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
    with T(xy) = T(x)y = xT(y) and B(Tx, y) = B(x, Ty), each scaled to a
    sparse n x n int matrix {n*r + c: T[r][c]}.

    T is even, so its unknowns are the entries T[r][c] with b_r and b_c of
    the same parity.  The rows, linear in them, are
    sum_k c(i,j,k) T[r][k] - sum_m T[m][i] c(m,j,r), that is
    T(b_i b_j) - T(b_i) b_j at b_r, for every (i, j), read off the pair
    table, and sum_r T[r][i] G[r][j] - sum_r G[i][r] T[r][j] for every
    ordered same-parity (i, j), read off the Gram's nonzeros.  The diagonal
    i = j counts: on the skew odd block B(T b_i, b_i) = 0 is a real
    condition.  On a super-anticommutative algebra T(xy) = T(x)y over all
    ordered pairs gives T(xy) = xT(y), so those rows are not written; on
    any algebra, fewer rows only enlarge the solved space, which keeps the
    rank bound that _split reads.  The rows are read on ints, off the
    algebra's int table and the form's int Gram, each row scaled as a
    whole, which keeps the kernel; it is solved exactly over Q by
    `linalg.int_kernel`, each basis map scaled to ints.
    """
    _require_validated(q)
    n = q.dim
    par = [q.space.parity(i) for i in range(n)]
    cells = [(r, c) for r in range(n) for c in range(n) if par[r] == par[c]]
    unknown = {cell: u for u, cell in enumerate(cells)}
    same = [[r for r in range(n) if par[r] == x] for x in (EVEN, ODD)]
    pairs, right = q.algebra.int_table()[1], q.algebra.int_factors()[1]
    rows = []
    for i in range(n):
        for j in range(n):
            eqs = {}  # r -> T(b_i b_j) - T(b_i) b_j at b_r
            for k, c in pairs.get((i, j), {}).items():
                for r in same[par[k]]:
                    row = eqs.setdefault(r, {})
                    u = unknown[(r, k)]
                    row[u] = row.get(u, 0) + c
            for m, vec in right.get(j, _EMPTY).items():
                if par[m] == par[i]:
                    u = unknown[(m, i)]
                    for r, c in vec.items():
                        row = eqs.setdefault(r, {})
                        row[u] = row.get(u, 0) - c
            rows.extend(eqs.values())
    _scale, _table, grows, gcols = q.form.int_gram
    for i in range(n):
        for j in same[par[i]]:
            # B(T b_i, b_j) - B(b_i, T b_j)
            row = {}
            for r, g in gcols.get(j, {}).items():
                row[unknown[(r, i)]] = row.get(unknown[(r, i)], 0) + g
            for r, g in grows.get(i, {}).items():
                row[unknown[(r, j)]] = row.get(unknown[(r, j)], 0) - g
            rows.append(row)
    return [{n * cells[u][0] + cells[u][1]: x for u, x in vec.items()}
            for vec in linalg.int_kernel(rows, len(cells))]


def _trace_rows(mats, n):
    """The rows {j: tr(m_i m_j)} of the trace form on the sparse n x n
    matrices {n*row + column: value}, one per m_i in turn, nonzeros only:
    tr(m_i m_j) is the sum of m_i[r][c] m_j[c][r].  The form is symmetric,
    so row i takes its entries j < i from the rows before it."""
    rows = []
    for i, m in enumerate(mats):
        flipped = [(pos % n * n + pos // n, x) for pos, x in m.items()]
        row = {j: prev[i] for j, prev in enumerate(rows) if i in prev}
        row.update((j, t) for j in range(i, len(mats)) if (t := sum(
            x * mats[j].get(pos, 0) for pos, x in flipped)))
        rows.append(row)
        yield row


def _trace_rank(maps, n, stop=None):
    """Rank of the trace form (S, T) -> tr(ST) on the sparse n x n
    matrices {n*row + column: value}, taken row by row; once the rank
    reaches stop, that is returned without the remaining rows."""
    span = linalg.Span(len(maps))
    for row in _trace_rows(maps, n):
        span.add(row)
        if span.dim == stop:
            break
    return span.dim


def _solvable(a: SuperAlgebra) -> bool:
    """Whether the derived series A, A^2, (A^2)^2, ... reaches 0.

    Each term is spanned by the products of the previous term's int rows,
    the algebra's int table pulled back along them (linalg.pulled_back),
    and is reduced over Q by linalg.Span.  Every term lies in the one
    before, so the dimension falls until it reaches 0 or a term equals the
    one before it, a nonzero term that is its own square; there the series
    stops and A is not solvable.
    """
    pairs = a.int_table()[1]
    term = {i: {i: 1} for i in range(a.dim)}
    while term:
        span = linalg.row_span(linalg.pulled_back(pairs, term).values(),
                               a.dim)
        if span.dim == len(term):
            return False
        term = dict(enumerate(span.int_rows()))
    return True


def _split(q: QuadraticAlgebra):
    """The split verdict (ideal, proved), cached on q: a proper graded
    ideal with a nondegenerate restriction, or None; and whether None is
    proved, not merely that no candidate closed to such an ideal.

    The verdict is reached in this order:
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
    2. The center columns, then the basis vectors: the first
       `_ideal_candidates`, which in a sum mostly close to a summand.
    3. The trace form on the symmetric centroid Gamma_s (Bajo-Benayadi,
       J. Pure Appl. Algebra 209 (2007)) of rank 1 proves None.  A split
       q = I + J puts the projections p_I, p_J in Gamma_s, with
       tr(p_I p_J) = 0 and tr(p_I p_I) = dim I > 0, so the rank is at
       least the number of components; it is only taken up to 2.  Gamma_s
       is solved only when Z lies in A^2 = Z^perp, that is when B vanishes
       on Z.  Otherwise a graded complement W in Z of the radical of B on
       Z, which is Z intersected with A^2, is a nondegenerate central
       ideal, and q = W + W^perp is proper unless q = W is abelian.  An
       abelian q of a shape other than (0|0), (1|0) and (0|2) has another
       graded subspace with a nondegenerate restriction, an ideal: its
       even part, an anisotropic even line, or an odd plane.  So the rank
       is at least 2.
    4. The rest of the same candidates: same-parity sums and pairs, then
       seeded pseudo-random homogeneous vectors.
    Each candidate is closed by `core._proper_ideals`, and the first
    ideal with a nondegenerate restriction splits q; an ideal met twice is
    a memo hit in `BilinearForm._nondegenerate_on`.
    """
    if q._verdict is None:
        a = q.algebra

        def first(seeds):
            return next((ideal for ideal in _proper_ideals(a, seeds)
                         if q.form._nondegenerate_on(ideal)),
                        None)

        if (q.dim <= 1 or (q.dim == 2 and not q.space.even_dim)
                or simplicity(a).simple is True
                or (center(a).dim == 1 and _solvable(a))):
            q._verdict = (None, True)
        else:
            z = center(a)
            seeds = _ideal_candidates(a)
            ideal = first(islice(seeds, z.dim + q.dim))
            proved = (ideal is None
                      and not q.form._restricted(z.int_rows).entries
                      and _trace_rank(_symmetric_centroid(q), q.dim,
                                      stop=2) == 1)
            if ideal is None and not proved:
                ideal = first(seeds)
            q._verdict = (ideal, proved)
    return q._verdict


def b_irreducible_components(q: QuadraticAlgebra) -> ComponentsReport:
    """Orthogonal components along non-degenerate graded ideals.

    Each part is split along the ideal of its `_split` verdict until there
    is none.  The basis columns stay sparse, each split's adapted columns
    lifted to q's coordinates through the part's own, and are made dense
    only in the report.  The exhaustive flag is True only when the verdict
    of every component proves it B-irreducible.
    """
    _require_validated(q)
    components = []
    bases = []
    exhaustive = True

    def rec(part: QuadraticAlgebra, basis_cols):
        nonlocal exhaustive
        ideal, proved = _split(part)
        if ideal is None:
            components.append(part)
            bases.append(tuple(linalg.dense(c, q.dim) for c in basis_cols))
            exhaustive = exhaustive and proved
            return
        qa, qb, cols = orthogonal_split(part, ideal)
        lifted = []
        for col in cols:
            out = {}
            for idx, c in col.items():
                _vadd(out, basis_cols[idx], c)
            lifted.append(out)
        # adapted order is [A_even, B_even, A_odd, B_odd]
        ae, ao = qa.space.even_dim, qa.space.odd_dim
        be = qb.space.even_dim
        rec(qa, lifted[0:ae] + lifted[ae + be:ae + be + ao])
        rec(qb, lifted[ae:ae + be] + lifted[ae + be + ao:])

    rec(q, [{i: ONE} for i in range(q.dim)])
    return ComponentsReport(tuple(components), tuple(bases), exhaustive)
