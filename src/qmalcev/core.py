"""Graded structure-constant algebras over exact rationals.

A superalgebra lives on a Z2-graded space with the even basis vectors first.
Products are stored as a sparse tensor c[(i,j,k)] meaning b_i b_j = sum_k
c[(i,j,k)] b_k, with grading compatibility enforced at construction.

The identity checkers report an exact witness for every basis tuple on
which an identity fails; by multilinearity that decides it.  The Malcev,
Jacobi and cocycle scans share one integer kernel per algebra, and both of
its shortcuts are exact:

- Cleared denominators.  The constants are multiplied by D, the lcm of
  their denominators, and all scan arithmetic is on Python ints.  The
  Malcev identity is homogeneous of degree 3 in the constants, the Jacobi
  and cocycle identities of degree 2 (a cocycle's values are cleared by
  their own lcm W), so the scaled identity is the true one times D^3, D^2
  or D^2 W.  It fails on exactly the same tuples, and a witness is divided
  back, without rounding, only when it is built.
- Pruning.  With T[(a,b,c)] = (b_a b_b) b_c, every chain term of the
  identities is a T entry times one basis vector; the one other term is
  (b_i b_k)(b_j b_l).  Where all of them vanish the identity reads 0 = 0,
  anticommutative algebra or not, so the scans skip those tuples and
  visit the rest in lexicographic order, the witness order of a full scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import (GradingError, InconclusiveError, InputError,
                     PreconditionError)
from .linalg import ONE, ZERO, Span, frac

EVEN = 0
ODD = 1


def ksign(exponent: int) -> int:
    """(-1)**exponent for a Z2 exponent given as any int."""
    return -1 if exponent & 1 else 1


def parity_name(p: int) -> str:
    return "even" if p == EVEN else "odd"


@dataclass(frozen=True)
class SuperSpace:
    """Graded dimensions; basis index i is even exactly when i < even_dim."""

    even_dim: int
    odd_dim: int

    def __post_init__(self):
        if self.even_dim < 0 or self.odd_dim < 0:
            raise InputError("dimensions must be non-negative")

    @property
    def dim(self) -> int:
        return self.even_dim + self.odd_dim

    def parity(self, i: int) -> int:
        if not 0 <= i < self.dim:
            raise InputError("basis index %d out of range" % i)
        return EVEN if i < self.even_dim else ODD

    def even_indices(self):
        return range(self.even_dim)

    def odd_indices(self):
        return range(self.even_dim, self.dim)


@dataclass(frozen=True)
class Element:
    """A vector in the fixed basis; exact rational coordinates."""

    coords: tuple

    @classmethod
    def from_seq(cls, seq):
        return cls(tuple(frac(c) for c in seq))

    @classmethod
    def zero(cls, n):
        return cls((ZERO,) * n)

    @classmethod
    def basis(cls, n, i):
        return cls(tuple(ONE if j == i else ZERO for j in range(n)))

    def __len__(self):
        return len(self.coords)

    def __add__(self, other):
        return Element(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        return Element(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def scale(self, c):
        c = frac(c)
        return Element(tuple(c * a for a in self.coords))

    def is_zero(self):
        return all(a == 0 for a in self.coords)

    def support(self):
        return [i for i, a in enumerate(self.coords) if a != 0]

    def homogeneous_parity(self, space: SuperSpace):
        """Parity of a homogeneous element, None for 0, error when mixed."""
        sup = self.support()
        if not sup:
            return None
        ps = {space.parity(i) for i in sup}
        if len(ps) > 1:
            raise GradingError("element is not parity-homogeneous")
        return ps.pop()

    def parity_part(self, space: SuperSpace, parity: int):
        return Element(tuple(
            a if space.parity(i) == parity else ZERO
            for i, a in enumerate(self.coords)))


@dataclass(frozen=True)
class Witness:
    """One failing instance of an identity: index tuple plus both sides."""

    index: tuple
    lhs: object
    rhs: object


@dataclass(frozen=True)
class CheckReport:
    passed: bool
    witnesses: tuple = ()
    notes: tuple = ()

    def __bool__(self):
        return self.passed


def _report(witnesses, notes=()):
    return CheckReport(passed=not witnesses, witnesses=tuple(witnesses),
                       notes=tuple(notes))


class SuperAlgebra:
    """Structure constants on a graded space; immutable after construction."""

    def __init__(self, space: SuperSpace, constants, name: str = ""):
        self.space = space
        self.name = name
        table = {}
        n = space.dim
        for (i, j, k), c in constants.items():
            c = frac(c)
            if c == 0:
                continue
            if not (0 <= i < n and 0 <= j < n and 0 <= k < n):
                raise InputError("constant index (%d,%d,%d) out of range"
                                 % (i, j, k))
            if (space.parity(i) + space.parity(j)) % 2 != space.parity(k):
                raise GradingError(
                    "constant (%d,%d,%d) violates the grading" % (i, j, k))
            table[(i, j, k)] = c
        self.constants = table
        self._pairs = None
        self._kernel = None
        self._center = None
        self._simplicity = None

    @property
    def dim(self):
        return self.space.dim

    def is_abelian(self):
        return not self.constants

    def pair_table(self):
        """{(i, j): {k: c}} with only nonzero products present."""
        if self._pairs is None:
            pairs = {}
            for (i, j, k), c in self.constants.items():
                pairs.setdefault((i, j), {})[k] = c
            self._pairs = pairs
        return self._pairs

    def basis_product(self, i, j):
        return self.pair_table().get((i, j), {})

    def __eq__(self, other):
        return (isinstance(other, SuperAlgebra)
                and self.space == other.space
                and self.constants == other.constants)

    def __repr__(self):
        return "SuperAlgebra(%r, dim=(%d|%d), nnz=%d)" % (
            self.name, self.space.even_dim, self.space.odd_dim,
            len(self.constants))


# ---------------------------------------------------------------------------
# sparse vector helpers (dict index -> Fraction)

def _vadd(acc, vec, scale=ONE):
    if scale == 0:
        return acc
    for k, c in vec.items():
        s = acc.get(k, ZERO) + scale * c
        if s == 0:
            acc.pop(k, None)
        else:
            acc[k] = s
    return acc


def _vscale(vec, scale):
    if scale == 1:
        return dict(vec)
    return {k: scale * c for k, c in vec.items()} if scale != 0 else {}


def _mul_vv(a: SuperAlgebra, u, v):
    """Product of two sparse vectors."""
    pairs = a.pair_table()
    out = {}
    for i, ci in u.items():
        for j, cj in v.items():
            pv = pairs.get((i, j))
            if pv:
                _vadd(out, pv, ci * cj)
    return out


def _mul_vb(a: SuperAlgebra, u, j):
    """u . b_j for a sparse vector u."""
    pairs = a.pair_table()
    out = {}
    for i, ci in u.items():
        pv = pairs.get((i, j))
        if pv:
            _vadd(out, pv, ci)
    return out


def _mul_bv(a: SuperAlgebra, i, v):
    """b_i . v for a sparse vector v."""
    pairs = a.pair_table()
    out = {}
    for j, cj in v.items():
        pv = pairs.get((i, j))
        if pv:
            _vadd(out, pv, cj)
    return out


def _to_element(n, vec):
    coords = [ZERO] * n
    for k, c in vec.items():
        coords[k] = c
    return Element(tuple(coords))


def _from_element(x: Element):
    return {i: c for i, c in enumerate(x.coords) if c != 0}


# ---------------------------------------------------------------------------
# operations

def product(a: SuperAlgebra, x: Element, y: Element) -> Element:
    """Bilinear extension of the structure constants."""
    n = a.dim
    if len(x) != n or len(y) != n:
        raise InputError("element length does not match algebra dimension")
    out = [ZERO] * n
    xc, yc = x.coords, y.coords
    for (i, j, k), c in a.constants.items():
        xi = xc[i]
        if xi == 0:
            continue
        yj = yc[j]
        if yj == 0:
            continue
        out[k] += xi * yj * c
    return Element(tuple(out))


def check_super_anticommutativity(a: SuperAlgebra) -> CheckReport:
    """b_i b_j = -(-1)^{p(i)p(j)} b_j b_i for all basis pairs."""
    n = a.dim
    par = [a.space.parity(i) for i in range(n)]
    witnesses = []
    for i in range(n):
        for j in range(i, n):
            lhs = a.basis_product(i, j)
            rhs = _vscale(a.basis_product(j, i), -ksign(par[i] * par[j]))
            if lhs != rhs:
                witnesses.append(Witness((i, j), _to_element(n, lhs),
                                         _to_element(n, rhs)))
    return _report(witnesses)


class _ScanKernel:
    """Integer tables that the identity scans of one algebra share.

    The constants are scaled by D, the lcm of their denominators, so every
    entry is an int.  `right[c]` maps m to the scaled product b_m b_c, and
    `triples[(a, b, c)]` is the scaled (b_a b_b) b_c, present only when
    nonzero.  `after`, `middle` and `first` index the triple keys by the
    other two positions, so a scan can list the tuples where a triple term
    is nonzero without visiting the rest.
    """

    def __init__(self, a: SuperAlgebra):
        n = a.dim
        self.n = n
        self.par = [a.space.parity(i) for i in range(n)]
        self.scale = math.lcm(*(c.denominator
                                for c in a.constants.values()))
        pairs, rows, right = {}, {}, {c: {} for c in range(n)}
        for (i, j), vec in a.pair_table().items():
            ivec = {k: c.numerator * (self.scale // c.denominator)
                    for k, c in vec.items()}
            pairs[(i, j)] = ivec
            rows.setdefault(i, {})[j] = ivec
            right[j][i] = ivec
        self.pairs = pairs
        self.right = right
        self.pair_rows = {i: set(row) for i, row in rows.items()}
        triples = {}
        after, middle, first = {}, {}, {}
        for (ta, tb), pv in pairs.items():
            acc = {}
            for m, x in pv.items():
                for c, mc in rows.get(m, {}).items():
                    out = acc.setdefault(c, {})
                    for k, y in mc.items():
                        out[k] = out.get(k, 0) + x * y
            for c, out in acc.items():
                out = {k: v for k, v in out.items() if v}
                if out:
                    triples[(ta, tb, c)] = out
                    after.setdefault((ta, tb), set()).add(c)
                    middle.setdefault((ta, c), set()).add(tb)
                    first.setdefault((tb, c), set()).add(ta)
        self.triples = triples
        self.after = after
        self.middle = middle
        self.first = first

    def add_times(self, acc, vec, d, s):
        """acc += s * vec . b_d for a scaled sparse vector vec."""
        r = self.right[d]
        for m, x in vec.items():
            rm = r.get(m)
            if rm:
                x *= s
                for k, y in rm.items():
                    acc[k] = acc.get(k, 0) + x * y

    def add_product(self, acc, u, v, s):
        """acc += s * u v for scaled sparse vectors u, v."""
        pairs = self.pairs
        for m, x in u.items():
            for m2, y in v.items():
                pv = pairs.get((m, m2))
                if pv:
                    xy = s * x * y
                    for k, z in pv.items():
                        acc[k] = acc.get(k, 0) + xy * z

    def quadruples(self):
        """(i, j, k, l) in lexicographic order, skipping only tuples where
        (b_i b_k)(b_j b_l) and the four chain terms of the Malcev and
        cocycle identities all vanish."""
        n = self.n
        full = range(n)
        triples, pairs, rows = self.triples, self.pairs, self.pair_rows
        after, middle, first = self.after, self.middle, self.first
        empty = frozenset()
        for i in full:
            for j in full:
                ij = first.get((i, j), empty)
                jrow = rows.get(j, empty)
                for k in full:
                    if (i, j, k) in triples:
                        ls = full
                    else:
                        cand = (after.get((j, k), empty)
                                | middle.get((k, i), empty) | ij)
                        if (i, k) in pairs:
                            cand = cand | jrow
                        if not cand:
                            continue
                        ls = sorted(cand)
                    for l in ls:
                        yield i, j, k, l


def _scan_kernel(a: SuperAlgebra) -> _ScanKernel:
    if a._kernel is None:
        a._kernel = _ScanKernel(a)
    return a._kernel


def _scaled_element(n, vec, denom):
    coords = [ZERO] * n
    for k, c in vec.items():
        coords[k] = Fraction(c, denom)
    return Element(tuple(coords))


def check_malcev(a: SuperAlgebra) -> CheckReport:
    """Four-variable Malcev identity on all basis quadruples.

    (-1)^{yz}(XZ)(YT) = ((XY)Z)T + (-1)^{x(y+z+t)}((YZ)T)X
                      + (-1)^{(x+y)(z+t)}((ZT)X)Y + (-1)^{t(x+y+z)}((TX)Y)Z
    """
    n = a.dim
    notes = []
    anti = check_super_anticommutativity(a)
    if not anti.passed:
        notes.append("super-anticommutativity fails; identity scan is "
                     "reported but may be meaningless")
    kern = _scan_kernel(a)
    par, pairs, triples = kern.par, kern.pairs, kern.triples
    add_times, add_product = kern.add_times, kern.add_product
    denom = kern.scale ** 3
    witnesses = []
    for i, j, k, l in kern.quadruples():
        x, y, z, t = par[i], par[j], par[k], par[l]
        acc = {}
        u, v = pairs.get((i, k)), pairs.get((j, l))
        if u and v:
            add_product(acc, u, v, ksign(y * z))
        tv = triples.get((i, j, k))
        if tv:
            add_times(acc, tv, l, -1)
        tv = triples.get((j, k, l))
        if tv:
            add_times(acc, tv, i, -ksign(x * (y + z + t)))
        tv = triples.get((k, l, i))
        if tv:
            add_times(acc, tv, j, -ksign((x + y) * (z + t)))
        tv = triples.get((l, i, j))
        if tv:
            add_times(acc, tv, k, -ksign(t * (x + y + z)))
        if not any(acc.values()):
            continue
        lhs = {}
        if u and v:
            add_product(lhs, u, v, ksign(y * z))
        rhs = dict(lhs)
        for key, c in acc.items():
            rhs[key] = rhs.get(key, 0) - c
        witnesses.append(Witness((i, j, k, l),
                                 _scaled_element(n, lhs, denom),
                                 _scaled_element(n, rhs, denom)))
    return _report(witnesses, notes)


def check_jacobi(a: SuperAlgebra) -> CheckReport:
    """Graded Jacobi identity on all basis triples.

    (-1)^{xz}(XY)Z + (-1)^{yx}(YZ)X + (-1)^{zy}(ZX)Y = 0
    """
    n = a.dim
    kern = _scan_kernel(a)
    par, triples = kern.par, kern.triples
    after, middle, first = kern.after, kern.middle, kern.first
    empty = frozenset()
    denom = kern.scale ** 2
    witnesses = []
    for i in range(n):
        for j in range(n):
            ks = (after.get((i, j), empty) | middle.get((j, i), empty)
                  | first.get((i, j), empty))
            for k in sorted(ks):
                x, y, z = par[i], par[j], par[k]
                acc = {}
                for key, s in (((i, j, k), ksign(x * z)),
                               ((j, k, i), ksign(y * x)),
                               ((k, i, j), ksign(z * y))):
                    for m, c in triples.get(key, {}).items():
                        acc[m] = acc.get(m, 0) + s * c
                acc = {m: c for m, c in acc.items() if c}
                if acc:
                    witnesses.append(Witness(
                        (i, j, k), _scaled_element(n, acc, denom),
                        Element.zero(n)))
    return _report(witnesses)


class GradedSubspace:
    """Homogeneous-column subspace in reduced column-echelon form."""

    def __init__(self, space: SuperSpace, columns):
        self.space = space
        self.columns = tuple(tuple(c) for c in columns)
        for col in self.columns:
            Element(col).homogeneous_parity(space)

    @classmethod
    def from_vectors(cls, space: SuperSpace, vectors):
        """Graded span: split parity parts, echelonize each block."""
        p = space.even_dim
        n = space.dim
        evens, odds = [], []
        for v in vectors:
            v = list(v)
            ev = v[:p] + [ZERO] * (n - p)
            od = [ZERO] * p + v[p:]
            if not linalg.is_zero_vec(ev):
                evens.append(ev)
            if not linalg.is_zero_vec(od):
                odds.append(od)
        cols = (linalg.column_echelon_columns(evens)
                + linalg.column_echelon_columns(odds))
        return cls(space, cols)

    @property
    def dim(self):
        return len(self.columns)

    def even_columns(self):
        return [c for c in self.columns
                if Element(c).homogeneous_parity(self.space) == EVEN]

    def odd_columns(self):
        return [c for c in self.columns
                if Element(c).homogeneous_parity(self.space) in (ODD,)]

    def contains(self, vector):
        span = Span(self.space.dim)
        for col in self.columns:
            span.add(list(col))
        return span.contains(list(vector))

    def __eq__(self, other):
        return (isinstance(other, GradedSubspace)
                and self.space == other.space
                and self.columns == other.columns)

    def __repr__(self):
        return "GradedSubspace(dim=%d of %d)" % (self.dim, self.space.dim)


def center(a: SuperAlgebra) -> GradedSubspace:
    """{X : b_j X = 0 for all j}, graded by construction."""
    if a._center is not None:
        return a._center
    n = a.dim
    if n == 0:
        a._center = GradedSubspace(a.space, [])
        return a._center
    rows = []
    for j in range(n):
        for k in range(n):
            row = [a.constants.get((j, i, k), ZERO) for i in range(n)]
            if not linalg.is_zero_vec(row):
                rows.append(row)
    vecs = linalg.kernel(rows, cols=n)
    a._center = GradedSubspace.from_vectors(a.space, vecs)
    return a._center


def ideal_closure(a: SuperAlgebra, seed: GradedSubspace) -> GradedSubspace:
    """Smallest graded two-sided multiplication-closed subspace over seed."""
    n = a.dim
    span = Span(n)
    work = []
    for col in seed.columns:
        if span.add(list(col)):
            work.append(list(col))
    while work:
        v = work.pop()
        vd = {i: c for i, c in enumerate(v) if c != 0}
        for j in range(n):
            for prod in (_mul_bv(a, j, vd), _mul_vb(a, vd, j)):
                if prod:
                    w = [ZERO] * n
                    for k, c in prod.items():
                        w[k] = c
                    if span.add(w):
                        work.append(w)
    return GradedSubspace.from_vectors(a.space, span.vectors())


def direct_sum_embeddings(sa: SuperSpace, sb: SuperSpace):
    """Index maps of the two summands into the concatenated graded space."""
    p1, q1 = sa.even_dim, sa.odd_dim
    p2, q2 = sb.even_dim, sb.odd_dim
    amap = [i if i < p1 else p2 + i for i in range(p1 + q1)]
    bmap = [p1 + j if j < p2 else p1 + q1 + j for j in range(p2 + q2)]
    return amap, bmap


def direct_sum(a: SuperAlgebra, b: SuperAlgebra) -> SuperAlgebra:
    """Block-diagonal structure constants on the concatenated graded space."""
    space = SuperSpace(a.space.even_dim + b.space.even_dim,
                       a.space.odd_dim + b.space.odd_dim)
    amap, bmap = direct_sum_embeddings(a.space, b.space)
    constants = {}
    for (i, j, k), c in a.constants.items():
        constants[(amap[i], amap[j], amap[k])] = c
    for (i, j, k), c in b.constants.items():
        constants[(bmap[i], bmap[j], bmap[k])] = c
    name = "sum(%s,%s)" % (a.name or "?", b.name or "?")
    return SuperAlgebra(space, constants, name=name)


def change_basis(a: SuperAlgebra, basis_columns) -> SuperAlgebra:
    """Rewrite the constants in the basis given as a list of column vectors.

    The columns must be homogeneous and ordered even-first so the result is
    again a valid graded algebra on the same (p|q) space.
    """
    n = a.dim
    cols = [list(c) for c in basis_columns]
    cmat = [[cols[j][i] for j in range(n)] for i in range(n)]
    cinv = linalg.inverse(cmat)
    if cinv is None:
        raise InputError("basis change matrix is singular")
    constants = {}
    for i in range(n):
        xi = Element.from_seq(cols[i])
        for j in range(n):
            w = product(a, xi, Element.from_seq(cols[j]))
            coords = linalg.mat_vec(cinv, list(w.coords))
            for k, c in enumerate(coords):
                if c != 0:
                    constants[(i, j, k)] = c
    return SuperAlgebra(a.space, constants, name=a.name)


@dataclass(frozen=True)
class SimplicityReport:
    simple: object  # True / False / None for inconclusive
    ideal: object = None  # a proper nonzero graded ideal when simple is False
    note: str = ""


def _left_matrix(a, i):
    n = a.dim
    m = linalg.zero_matrix(n, n)
    for (p, j, k), c in a.constants.items():
        if p == i:
            m[k][j] = c
    return m


def _right_matrix(a, i):
    n = a.dim
    m = linalg.zero_matrix(n, n)
    for (j, p, k), c in a.constants.items():
        if p == i:
            m[k][j] = c
    return m


def _random_homogeneous_vectors(space: SuperSpace, seed, rounds):
    import random

    rng = random.Random(seed)
    out = []
    for _ in range(rounds):
        for parity, idxs in ((EVEN, list(space.even_indices())),
                             (ODD, list(space.odd_indices()))):
            if not idxs:
                continue
            v = [ZERO] * space.dim
            for i in idxs:
                v[i] = Fraction(rng.randint(-3, 3))
            if not linalg.is_zero_vec(v):
                out.append(v)
    return out


def _ideal_candidates(a: SuperAlgebra, seed=0x5EED):
    """Deterministic seed subspaces whose closures are tested as ideals."""
    n = a.dim
    par = [a.space.parity(i) for i in range(n)]
    z = center(a)
    for col in z.columns:
        yield [list(col)]
    for i in range(n):
        yield [linalg.basis_vector(n, i)]
    for i in range(n):
        for j in range(i + 1, n):
            if par[i] == par[j]:
                v = linalg.basis_vector(n, i)
                v[j] = ONE
                yield [v]
    for i in range(n):
        for j in range(i + 1, n):
            if par[i] == par[j]:
                yield [linalg.basis_vector(n, i), linalg.basis_vector(n, j)]
    for v in _random_homogeneous_vectors(a.space, seed, rounds=4):
        yield [v]


def _multiplication_algebra_dim(a: SuperAlgebra):
    """Dimension of the unital algebra generated by all L_i and R_i."""
    n = a.dim
    if n == 0:
        return 0
    gens = [_left_matrix(a, i) for i in range(n)]
    gens += [_right_matrix(a, i) for i in range(n)]
    gens = [g for g in gens if any(any(x != 0 for x in row) for row in g)]
    span = Span(n * n)
    basis = []

    def flat(m):
        return [x for row in m for x in row]

    def push(m):
        if span.add(flat(m)):
            basis.append(m)
            return True
        return False

    push(linalg.identity(n))
    for g in gens:
        push(g)
    work = list(basis)
    while work:
        m = work.pop()
        for g in gens:
            for prod in (linalg.mat_mul(g, m), linalg.mat_mul(m, g)):
                if push(prod):
                    work.append(prod)
    return span.dim


def simplicity(a: SuperAlgebra) -> SimplicityReport:
    """Exact but possibly inconclusive simplicity test.

    False comes with a witness ideal found by closing candidate seeds
    (center columns, basis vectors, same-parity pairwise sums and pairs,
    seeded pseudo-random homogeneous vectors).  True is certified when the
    unital multiplication algebra is the full matrix algebra, which rules
    out invariant subspaces altogether.  Results are cached on the
    (immutable) algebra.
    """
    if a._simplicity is not None:
        return a._simplicity
    a._simplicity = _simplicity_uncached(a)
    return a._simplicity


def _simplicity_uncached(a: SuperAlgebra) -> SimplicityReport:
    n = a.dim
    if n == 0:
        return SimplicityReport(False, note="zero algebra")
    if a.is_abelian():
        return SimplicityReport(False, note="abelian")
    for seed in _ideal_candidates(a):
        sub = GradedSubspace.from_vectors(a.space, seed)
        if sub.dim == 0:
            continue
        ideal = ideal_closure(a, sub)
        if 0 < ideal.dim < n:
            return SimplicityReport(False, ideal=ideal,
                                    note="proper ideal found")
    if _multiplication_algebra_dim(a) == n * n:
        return SimplicityReport(True, note="multiplication algebra is full")
    return SimplicityReport(None, note="candidate search exhausted without "
                                       "certificate")


def is_simple(a: SuperAlgebra) -> bool:
    if a.dim < 1:
        raise PreconditionError("is_simple requires dim >= 1")
    rep = simplicity(a)
    if rep.simple is None:
        raise InconclusiveError("simplicity test inconclusive: " + rep.note)
    return rep.simple
