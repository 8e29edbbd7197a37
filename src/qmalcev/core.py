"""Graded structure-constant algebras over exact rationals.

A superalgebra lives on a Z2-graded space with the even basis vectors first.
Products are stored as a sparse tensor c[(i,j,k)] meaning b_i b_j = sum_k
c[(i,j,k)] b_k, with grading compatibility enforced at construction.

The identity checkers report an exact witness for every basis tuple on
which an identity fails; by multilinearity that decides it.  The Malcev,
Jacobi and cocycle scans, and the form-invariance scan of
`quadratic.check_form`, share one integer kernel per algebra, and both of
its shortcuts are exact:

- Cleared denominators.  The constants are multiplied by D, the lcm of
  their denominators, and all scan arithmetic is on Python ints.  The
  Malcev identity is homogeneous of degree 3 in the constants, the Jacobi
  and cocycle identities of degree 2 (a cocycle's values are cleared by
  their own lcm W), so the scaled identity is the true one times D^3, D^2
  or D^2 W.  It fails on exactly the same tuples, and a witness is divided
  back, without rounding, only when it is built.
- Term-wise accumulation.  With T[(a,b,c)] = (b_a b_b) b_c, every chain
  term of the Malcev and cocycle identities is a T entry times one basis
  vector, and the one other term is (b_i b_k)(b_j b_l); the Jacobi terms
  are T entries.  Each identity is a signed sum of such terms, so the scans
  walk the nonzero pair and T entries once, add each product into the sum
  of every tuple where it occurs, with that position's sign, and never
  visit a tuple where all terms vanish: there the identity reads 0 = 0,
  anticommutative algebra or not.  Integer addition is exact and
  order-free, so each sum equals the tuple's full evaluation; the tuples
  whose sum is nonzero are then sorted, which is the lexicographic witness
  order of a full scan.
- Orbits.  The Jacobi sum is the same at the three rotations of a triple,
  and on a super-anticommutative algebra lhs - rhs of the Malcev identity
  changes only by a Koszul sign along the four rotations of a quadruple.
  Those scans add each term only at the least rotation of its tuple and
  copy every nonzero sum, with its sign, to the other rotations.
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
        self._anti = None
        self._jacobi = None
        self._closures = {}

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


def _add(sums, key, vec, s):
    """sums[key] += s * vec for a sparse vector vec; zeros are kept."""
    acc = sums.setdefault(key, {})
    for m, c in vec.items():
        acc[m] = acc.get(m, 0) + s * c


def _pulled_back(table, cols):
    """{(i, j): sum over (s, t) of cols[i][s] cols[j][t] table[(s, t)]}, the
    bilinear map table {(s, t): {k: x}} on basis pairs at the pairs of
    sparse vectors cols {i: {s: x}}; nonzero entries only.  This is the one
    basis rewrite, of a pair table (change_basis) and of a form's entries
    as a map to a line (BilinearForm.restrict).  The work follows the
    nonzeros of the table and of the vectors."""
    rows, users = {}, {}
    for (s, t), vec in table.items():
        rows.setdefault(s, []).append((t, vec))
    for j, vec in cols.items():
        for t, x in vec.items():
            users.setdefault(t, []).append((j, x))
    out = {}
    for i, u in cols.items():
        left = {}  # {t: the product of cols[i] with b_t}
        for s, x in u.items():
            for t, vec in rows.get(s, ()):
                _add(left, t, vec, x)
        for t, vec in left.items():
            for j, y in users.get(t, ()):
                _add(out, (i, j), vec, y)
    return {key: nz for key, vec in out.items()
            if (nz := {k: x for k, x in vec.items() if x})}


def _to_element(n, vec):
    coords = [ZERO] * n
    for k, c in vec.items():
        coords[k] = c
    return Element(tuple(coords))


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
    """b_i b_j = -(-1)^{p(i)p(j)} b_j b_i for all basis pairs.

    Both sides vanish unless (i, j) or (j, i) is in the pair table, so only
    those pairs are compared, in the order of a full scan over i <= j.  The
    report is cached on the (immutable) algebra: check_malcev reads it for
    its note and QuadraticAlgebra.validate for its verdict.
    """
    if a._anti is not None:
        return a._anti
    n = a.dim
    parity = a.space.parity
    witnesses = []
    for i, j in sorted({(min(i, j), max(i, j)) for i, j in a.pair_table()}):
        lhs = a.basis_product(i, j)
        rhs = _vscale(a.basis_product(j, i),
                      -ksign(parity(i) * parity(j)))
        if lhs != rhs:
            witnesses.append(Witness((i, j), _to_element(n, lhs),
                                     _to_element(n, rhs)))
    a._anti = _report(witnesses)
    return a._anti


def _scaled(table):
    """D, the lcm of the denominators in the sparse vectors {key: {k: x}},
    and D times each vector as ints."""
    scale = math.lcm(*(x.denominator for vec in table.values()
                       for x in vec.values()))
    return scale, {key: {k: x.numerator * (scale // x.denominator)
                         for k, x in vec.items()}
                   for key, vec in table.items()}


class _ScanKernel:
    """Integer tables that the identity scans of one algebra share.

    The constants are scaled by D, the lcm of their denominators, so every
    entry is an int.  `pairs[(i, j)]` is the scaled product b_i b_j,
    `rows[i]` maps j to the same vector, `columns[m]` lists the pairs
    ((i, j), c) whose product has c != 0 at b_m, and `triples[(a, b)]` maps
    c to the scaled (b_a b_b) b_c.  Only nonzero vectors are stored.
    """

    def __init__(self, a: SuperAlgebra):
        self.par = [a.space.parity(i) for i in range(a.dim)]
        self.scale, pairs = _scaled(a.pair_table())
        rows, columns = {}, {}
        for (i, j), ivec in pairs.items():
            rows.setdefault(i, {})[j] = ivec
            for k, c in ivec.items():
                columns.setdefault(k, []).append(((i, j), c))
        self.pairs = pairs
        self.rows = rows
        self.columns = columns
        self.triples = {}
        for key, pv in pairs.items():
            prods = self.right_products(pv)
            if prods:
                self.triples[key] = prods

    def right_products(self, vec):
        """{w: vec . b_w} for a scaled sparse vector vec, with only the w
        where the product is nonzero."""
        acc = {}
        rows = self.rows
        for m, x in vec.items():
            for w, mw in rows.get(m, {}).items():
                out = acc.setdefault(w, {})
                for k, y in mw.items():
                    out[k] = out.get(k, 0) + x * y
        out = {}
        for w, prod in acc.items():
            prod = {k: v for k, v in prod.items() if v}
            if prod:
                out[w] = prod
        return out


def _scan_kernel(a: SuperAlgebra) -> _ScanKernel:
    if a._kernel is None:
        a._kernel = _ScanKernel(a)
    return a._kernel


def _chain_keys(par, p, q, r, w):
    """The quadruples (i, j, k, l) whose Malcev or cocycle identity has the
    chain term ((b_p b_q) b_r) b_w on its right side, each with its sign:
    as ((XY)Z)T, ((YZ)T)X, ((ZT)X)Y and ((TX)Y)Z in turn."""
    x, y, z, t = par[p], par[q], par[r], par[w]
    return (((p, q, r, w), 1),
            ((w, p, q, r), ksign(t * (x + y + z))),
            ((r, w, p, q), ksign((z + t) * (x + y))),
            ((q, r, w, p), ksign(x * (y + z + t))))


def _scaled_element(n, vec, denom):
    coords = [ZERO] * n
    for k, c in vec.items():
        coords[k] = Fraction(c, denom)
    return Element(tuple(coords))


def _side_witnesses(n, lhs, rhs, lscale, rscale):
    """Witness(key, lhs, rhs) at each sorted key where the int vector sums
    lhs {key: {k: x}}, the left side times lscale, and rhs, the right side
    times rscale, differ as rationals.  Both are brought to the lcm of the
    two scales, compared there, and divided back only in a witness."""
    g = math.gcd(lscale, rscale)
    lmul, rmul = rscale // g, lscale // g
    denom = lscale * lmul
    witnesses = []
    for key in sorted(lhs.keys() | rhs.keys()):
        left = {m: c * lmul for m, c in lhs.get(key, {}).items() if c}
        right = {m: c * rmul for m, c in rhs.get(key, {}).items() if c}
        if left != right:
            witnesses.append(Witness(key, _scaled_element(n, left, denom),
                                     _scaled_element(n, right, denom)))
    return witnesses


def _least_rotation(key):
    """The lexicographically least of the four rotations of a quadruple."""
    i, j, k, l = key
    return min(key, (j, k, l, i), (k, l, i, j), (l, i, j, k))


def _rotations(par, key):
    """{rotation: sign} for each distinct rotation of the tuple key, first
    to last, with the Koszul sign of moving its head past its tail."""
    out = {}
    total, head = sum(par[i] for i in key), 0
    for s, i in enumerate(key):
        out.setdefault(key[s:] + key[:s], ksign(head * (total - head)))
        head += par[i]
    return out


def _least_chain_keys(par, p, q, r, w):
    """The entries of _chain_keys(par, p, q, r, w) whose key is the least of
    the four: one, unless the least index occurs more than once."""
    lo = min(p, q, r, w)
    if (p == lo) + (q == lo) + (r == lo) + (w == lo) > 1:
        keys = _chain_keys(par, p, q, r, w)
        least = min(keys)[0]
        return [entry for entry in keys if entry[0] == least]
    x, y, z, t = par[p], par[q], par[r], par[w]
    if p == lo:
        return (((p, q, r, w), 1),)
    if w == lo:
        return (((w, p, q, r), ksign(t * (x + y + z))),)
    if r == lo:
        return (((r, w, p, q), ksign((z + t) * (x + y))),)
    return (((q, r, w, p), ksign(x * (y + z + t))),)


def _malcev_sums(kern: _ScanKernel):
    """{(i, j, k, l): the scaled lhs - rhs of the Malcev identity}, summed
    term by term at every quadruple where a term is nonzero."""
    par, triples, columns = kern.par, kern.triples, kern.columns
    diff = {}
    # (b_i b_k)(b_j b_l) = sum over m of c(j, l, m) (b_i b_k) b_m
    for (i, k), trow in triples.items():
        for m, tv in trow.items():
            for (j, l), c in columns.get(m, ()):
                c *= ksign(par[j] * par[k])
                acc = diff.setdefault((i, j, k, l), {})
                for r, x in tv.items():
                    acc[r] = acc.get(r, 0) + c * x
    for (p, q), trow in triples.items():
        for r, tv in trow.items():
            for w, vec in kern.right_products(tv).items():
                for key, s in _chain_keys(par, p, q, r, w):
                    acc = diff.setdefault(key, {})
                    for m, c in vec.items():
                        acc[m] = acc.get(m, 0) - s * c
    return diff


def _malcev_orbit_sums(kern: _ScanKernel):
    """{canonical key: the scaled lhs - rhs of the Malcev identity} on a
    super-anticommutative algebra, where the canonical key of a quadruple
    is the least of its four rotations.  Each term is added only at the
    canonical key among the keys where it occurs; a chain term at a
    periodic key such as (i, j, i, j) lands there once per rotation that
    equals it, each time with that rotation's sign.  The chain product
    ((b_p b_q) b_r) b_w is formed only for p <= q, and serves (q, p, r, w)
    too: b_q b_p is b_p b_q times -(-1)^{|p||q|}."""
    par, triples, columns = kern.par, kern.triples, kern.columns
    diff = {}
    for (i, k), trow in triples.items():
        if k < i:  # (k, l, i, j) is less
            continue
        for m, tv in trow.items():
            for (j, l), c in columns.get(m, ()):
                if j < i or l < i:
                    continue
                key = (i, j, k, l)
                if i in (j, k, l) and key != _least_rotation(key):
                    continue
                c *= ksign(par[j] * par[k])
                acc = diff.setdefault(key, {})
                for r, x in tv.items():
                    acc[r] = acc.get(r, 0) + c * x
    for (p, q), trow in triples.items():
        if q < p:
            continue
        mirror = -ksign(par[p] * par[q])
        for r, tv in trow.items():
            for w, vec in kern.right_products(tv).items():
                for key, s in _least_chain_keys(par, p, q, r, w):
                    _add(diff, key, vec, -s)
                if p < q:
                    for key, s in _least_chain_keys(par, q, p, r, w):
                        _add(diff, key, vec, -s * mirror)
    return diff


def _malcev_witnesses(kern: _ScanKernel, n, diff):
    """Witness(key, lhs, rhs) at each sorted key of diff {key: scaled
    lhs - rhs} where the difference is nonzero.  The lhs
    (-1)^{yz} (b_i b_k)(b_j b_l) is evaluated there, and rhs = lhs - diff."""
    par, pairs, triples = kern.par, kern.pairs, kern.triples
    denom = kern.scale ** 3
    witnesses = []
    for key in sorted(diff):
        acc = diff[key]
        if not any(acc.values()):
            continue
        i, j, k, l = key
        lhs = {}
        trow, v = triples.get((i, k), {}), pairs.get((j, l), {})
        for m, c in v.items():
            c *= ksign(par[j] * par[k])
            for r, x in trow.get(m, {}).items():
                lhs[r] = lhs.get(r, 0) + c * x
        rhs = dict(lhs)
        for m, c in acc.items():
            rhs[m] = rhs.get(m, 0) - c
        witnesses.append(Witness(key, _scaled_element(n, lhs, denom),
                                 _scaled_element(n, rhs, denom)))
    return witnesses


def check_malcev(a: SuperAlgebra) -> CheckReport:
    """Four-variable Malcev identity on all basis quadruples.

    (-1)^{yz}(XZ)(YT) = ((XY)Z)T + (-1)^{x(y+z+t)}((YZ)T)X
                      + (-1)^{(x+y)(z+t)}((ZT)X)Y + (-1)^{t(x+y+z)}((TX)Y)Z

    On a super-anticommutative algebra two theorems decide it:

    - Every Lie superalgebra is Malcev (Sagle, Trans. AMS 101 (1961);
      Albuquerque-Benayadi, J. Pure Appl. Algebra 187 (2004) in the graded
      case), so when the graded Jacobi identity holds the report passes
      with no further scan.  `check_jacobi` caches its report on the
      algebra, so this costs nothing when the caller runs it anyway.
    - With F(x, y, z, t) = lhs - rhs, F(y, z, t, x) = (-1)^{x(y+z+t)}
      F(x, y, z, t).  So one pass sums each term only at its canonical
      key, the lexicographically least of the four rotations, and F at
      each other rotation is that rotation's Koszul sign times F there.
      The witnesses are listed from those canonical sums, with the lhs
      evaluated at the witness keys only.

    Any other algebra gets the full pass over every quadruple, with a note
    when super-anticommutativity fails.
    """
    n = a.dim
    kern = _scan_kernel(a)
    if not check_super_anticommutativity(a).passed:
        return _report(_malcev_witnesses(kern, n, _malcev_sums(kern)),
                       ["super-anticommutativity fails; identity scan is "
                        "reported but may be meaningless"])
    if check_jacobi(a).passed:
        return _report(())
    diff = {}
    for key, acc in _malcev_orbit_sums(kern).items():
        if any(acc.values()):
            for rot, s in _rotations(kern.par, key).items():
                diff[rot] = {m: s * c for m, c in acc.items()}
    return _report(_malcev_witnesses(kern, n, diff))


def check_jacobi(a: SuperAlgebra) -> CheckReport:
    """Graded Jacobi identity on all basis triples.

    (-1)^{xz}(XY)Z + (-1)^{yx}(YZ)X + (-1)^{zy}(ZX)Y = 0

    On every graded algebra the three terms at (y, z, x) are the three at
    (x, y, z) in another order, so the sum is the same at the three
    rotations of a triple.  Each term is added once, at the least of its
    rotations ((i, i, i) takes it three times, once per rotation that
    equals it), and each witness is copied to the other rotations.

    The report is cached on the (immutable) algebra: check_malcev reads it
    for its Lie shortcut, so `check`, `QuadraticAlgebra.validate` and
    `classify_U` share one pass.
    """
    if a._jacobi is not None:
        return a._jacobi
    n = a.dim
    kern = _scan_kernel(a)
    par = kern.par
    sums = {}
    for (p, q), trow in kern.triples.items():
        for r, tv in trow.items():
            # (b_p b_q) b_r is (XY)Z at (p, q, r), (YZ)X at (r, p, q) and
            # (ZX)Y at (q, r, p); each time its sign is (-1)^{p(p) p(r)}
            s = ksign(par[p] * par[r])
            if p == q == r:
                key, s = (p, p, p), 3 * s
            else:
                key = min((p, q, r), (r, p, q), (q, r, p))
            acc = sums.setdefault(key, {})
            for m, c in tv.items():
                acc[m] = acc.get(m, 0) + s * c
    denom = kern.scale ** 2
    zero = Element.zero(n)
    witnesses = []
    for key, acc in sums.items():
        acc = {m: c for m, c in acc.items() if c}
        if acc:
            value = _scaled_element(n, acc, denom)
            witnesses += [Witness(rot, value, zero)
                          for rot in _rotations(par, key)]
    witnesses.sort(key=lambda w: w.index)
    a._jacobi = _report(witnesses)
    return a._jacobi


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
    rows = {}  # (j, k) -> {i: c(j, i, k)}, the coefficient of b_k in b_j X
    for (j, i, k), c in a.constants.items():
        rows.setdefault((j, k), {})[i] = c
    vecs = linalg.kernel(list(rows.values()), cols=a.dim)
    a._center = GradedSubspace.from_vectors(a.space, vecs)
    return a._center


def ideal_closure(a: SuperAlgebra, seed: GradedSubspace) -> GradedSubspace:
    """Smallest graded two-sided multiplication-closed subspace over seed.

    Memoized on the (immutable) algebra by the seed's columns; the result is
    stored under its own columns too, since an ideal is its own closure.
    """
    key = seed.columns
    closed = a._closures.get(key)
    if closed is None:
        closed = _ideal_closure_uncached(a, seed)
        a._closures[key] = closed
        a._closures.setdefault(closed.columns, closed)
    return closed


def _ideal_closure_uncached(a: SuperAlgebra, seed: GradedSubspace):
    n = a.dim
    span = Span(n)
    work = [linalg.sparse(col) for col in seed.columns if span.add(col)]
    while work:
        v = work.pop()
        for j in range(n):
            for prod in (_mul_bv(a, j, v), _mul_vb(a, v, j)):
                if span.add(prod):
                    work.append(prod)
    # the seeds and their products with basis vectors are homogeneous, so
    # the reduced rows are too, even ones first: from_vectors's columns
    return GradedSubspace(a.space, span.vectors())


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


def change_basis(a: SuperAlgebra, columns, name=None) -> SuperAlgebra:
    """The constants of a in the basis b'_1..b'_k given as k <= n columns.

    This is the one routine that rewrites constants in a basis: a full
    change of basis when k = n, the algebra on a subspace when k < n.  The
    columns must be independent (InputError), homogeneous and ordered
    even-first (GradingError); the result lives on their (p|k-p) space and
    keeps a's name unless one is given.  One elimination of [C^T | I], C the
    n x k matrix of the columns, picks k pivot rows P and inverts the block
    C[P] once, so a product w in the span has coordinates C[P]^-1 w[P].
    The products of the columns are the pair table pulled back along them
    (_pulled_back).  When k < n every product is checked against the span,
    and a subspace that is not closed under the product raises
    PreconditionError.
    """
    n = a.dim
    cols = [[frac(x) for x in c] for c in columns]
    k = len(cols)
    if k > n or any(len(c) != n for c in cols):
        raise InputError("need at most %d basis columns of length %d"
                         % (n, n))
    red, pivots = linalg.rref([c + linalg.basis_vector(k, i)
                               for i, c in enumerate(cols)])
    if pivots and pivots[-1] >= n:
        raise InputError("basis columns are linearly dependent")
    # coordinate m of w is the sum over rows s of red[s][n + m] * w[pivots[s]]
    solve = [{r: red[s][n + m] for s, r in enumerate(pivots)
              if red[s][n + m] != 0} for m in range(k)]
    vecs = [{r: x for r, x in enumerate(c) if x != 0} for c in cols]
    par = []
    for v in vecs:
        kinds = {a.space.parity(r) for r in v}
        if len(kinds) != 1:
            raise GradingError("basis column is not parity-homogeneous")
        par.append(kinds.pop())
    if par != sorted(par):
        raise GradingError("basis columns must be ordered even-first")
    constants = {}
    products = _pulled_back(a.pair_table(), dict(enumerate(vecs)))
    for (i, j), w in sorted(products.items()):
        coords = [sum((c * w[r] for r, c in row.items() if r in w), ZERO)
                  for row in solve]
        if k < n:
            span = {}
            for v, c in zip(vecs, coords):
                _vadd(span, v, c)
            if span != w:
                raise PreconditionError("subspace is not closed under the "
                                        "product")
        for m, c in enumerate(coords):
            if c != 0:
                constants[(i, j, m)] = c
    space = SuperSpace(par.count(EVEN), par.count(ODD))
    return SuperAlgebra(space, constants,
                        name=a.name if name is None else name)


@dataclass(frozen=True)
class SimplicityReport:
    simple: object  # True / False / None for inconclusive
    ideal: object = None  # a proper nonzero graded ideal when simple is False
    note: str = ""


def _multiplication_generators(a, p=0):
    """L_0..L_{n-1}, then R_0..R_{n-1}, as sparse n x n matrices
    {n*row + column: value}.  Modulo a prime p the constants are first
    scaled to integers by the lcm of their denominators, which spans the
    same algebra over Q."""
    n = a.dim
    scale = math.lcm(*(c.denominator for c in a.constants.values()))
    left = [{} for _ in range(n)]
    right = [{} for _ in range(n)]
    for (i, j, k), c in a.constants.items():
        x = c.numerator * (scale // c.denominator) % p if p else c
        if x:
            left[i][k * n + j] = x
            right[j][k * n + i] = x
    return left + right


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


def _ideal_candidates(a: SuperAlgebra):
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
    for v in _random_homogeneous_vectors(a.space, 0x5EED, rounds=4):
        yield [v]


def _proper_ideals(a: SuperAlgebra, seeds):
    """The closures of the seeds' nonzero graded spans, if proper ideals."""
    for seed in seeds:
        sub = GradedSubspace.from_vectors(a.space, seed)
        ideal = ideal_closure(a, sub) if sub.dim else sub
        if 0 < ideal.dim < a.dim:
            yield ideal


def _enveloping_basis(gens, n, p=0):
    """Basis of the unital associative algebra generated by the given sparse
    n x n matrices {n*row + column: value}, over Q or modulo the prime p.

    This is the one enveloping closure.  It holds the identity and is
    closed under left products with the generators only: every word
    g_1...g_k is g_1 applied to a shorter word, so right products would add
    nothing.  It stops as soon as the span reaches n^2.
    """
    by_column = []  # per generator: column l -> [(row k, value)]
    for g in gens:
        cols = {}
        for pos, x in g.items():
            k, l = divmod(pos, n)
            cols.setdefault(l, []).append((k, x))
        if cols:
            by_column.append(cols)
    span = Span(n * n, p)
    identity = {i * n + i: 1 for i in range(n)}
    span.add(identity)
    basis = [identity]
    work = [identity]
    while work:
        m = work.pop()
        for g in by_column:
            prod = {}
            for pos, x in m.items():
                l, col = divmod(pos, n)
                for k, c in g.get(l, ()):
                    prod[k * n + col] = prod.get(k * n + col, 0) + c * x
            prod = linalg.sparse(prod, p)
            if span.add(prod):
                basis.append(prod)
                if len(basis) == n * n:
                    return basis
                work.append(prod)
    return basis


def _multiplication_algebra_dim(a: SuperAlgebra):
    """Dimension of the unital algebra generated by all L_i and R_i."""
    return len(_enveloping_basis(_multiplication_generators(a), a.dim))


_CERT_PRIME = (1 << 61) - 1


def _full_multiplication_algebra_mod_p(a: SuperAlgebra) -> bool:
    """Whether the unital algebra generated by all L_i and R_i, with the
    constants scaled to integers by the lcm of their denominators, spans
    every n x n matrix modulo the prime 2^61 - 1."""
    n = a.dim
    gens = _multiplication_generators(a, _CERT_PRIME)
    return len(_enveloping_basis(gens, n, _CERT_PRIME)) == n * n


def simplicity(a: SuperAlgebra) -> SimplicityReport:
    """Exact but possibly inconclusive simplicity test.

    True is certified when the unital multiplication algebra M(A), generated
    by all L_i and R_i, is the full matrix algebra: a proper ideal is an
    M(A)-invariant subspace, and the full matrix algebra leaves none.  The
    certificate is tried first, modulo the prime p = 2^61 - 1 on integer
    generators (the constants times the lcm D of their denominators, which
    spans the same algebra over Q).  Rank n^2 mod p means n^2 integer words
    whose stacked n^2 x n^2 matrix has a minor that is nonzero mod p, hence
    nonzero over Z, so the words are independent over Q and M(A) is full
    over Q as well.  Both closures, mod p and over Q, are the one
    `_enveloping_basis` on the shared eliminator `linalg.Span`.  The mod-p
    closure is skipped when the center is nonzero: on a super-anticommutative
    algebra a central vector is killed by every L_i and R_i, so its line is
    a proper M(A)-invariant subspace and the rank would fall short.  (On
    any algebra the skip changes no answer, only the work: a full M(A)
    leaves no proper ideal for the candidates to find, and the closure over
    Q then certifies it.)  A rank deficit mod p proves nothing over Q; then
    False comes with the first of `_proper_ideals` of the
    `_ideal_candidates`.  If there is none, M(A) is closed over Q, which
    may still certify True.  Results are cached on the immutable algebra.
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
    if not center(a).columns and _full_multiplication_algebra_mod_p(a):
        return SimplicityReport(True, note="multiplication algebra is full")
    for ideal in _proper_ideals(a, _ideal_candidates(a)):
        return SimplicityReport(False, ideal=ideal, note="proper ideal found")
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
