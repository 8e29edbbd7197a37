"""Graded structure-constant algebras over exact rationals.

A superalgebra lives on a Z2-graded space with the even basis vectors first.
The products b_i b_j = sum_k c(i, j, k) b_k are stored once, as the int
table (D, {(i, j): {k: D c(i, j, k)}}), nonzero entries only, with D the lcm
of the denominators.  One store, `SuperAlgebra._store`, checks each index
against the range and the grading, for the constructor, the document reader
and the builders that rewrite, cut and sum int tables (`change_basis`,
`_summed`).  Fractions are formed only at the boundary: the constructor and
the reader read them, `constants`, `pair_table()` and `product` divide by
D, and a witness divides its sums back; emit prints from the store.
A vector times the int table is one `linalg.combine_table`, and u v is
`linalg.combine` of the products u b_w with v.  The L_i and R_j that
generate the multiplication algebra are the int table's column maps,
`int_factors`, which `linalg.enveloping_basis` closes.

The identity checkers report an exact witness for every basis tuple on
which an identity fails; by multilinearity that decides it.  The Malcev,
Jacobi, super-anticommutativity and operator scans, and the invariance
scan of `quadratic.check_form`, share one integer kernel per algebra
(`operators.check_cocycle` reads the cocycle identity off a Malcev scan),
and its shortcuts are exact:

- Cleared denominators.  The scans read the int table, so all their
  arithmetic is on Python ints.  The Malcev identity is homogeneous of
  degree 3 in the constants and the Jacobi identity of degree 2, so the
  scaled identity is the true one times D^3 or D^2.  It fails on exactly
  the same tuples, and a witness is divided back, without rounding, only
  when it is built.
- Term-wise accumulation.  With T[(a,b,c)] = (b_a b_b) b_c, every chain
  term of the Malcev identity is a T entry times one basis vector, and
  the one other term is (b_i b_k)(b_j b_l); the Jacobi terms are T
  entries.  Each identity is a signed sum of such terms, so the scans
  walk the nonzero pair and T entries once, add each product into the sum
  of every tuple where it occurs, with that position's sign, and never
  visit a tuple where all terms vanish: there the identity reads 0 = 0,
  anticommutative algebra or not.  Integer addition is exact and
  order-free, so each sum equals the tuple's full evaluation; the tuples
  whose sum is nonzero are then sorted, which is the lexicographic witness
  order of a full scan.
- Packed vectors.  Every vector of a scan lies in one block, a class of
  the least equivalence with i ~ j ~ k whenever c(i, j, k) != 0.  The
  Malcev and Jacobi passes hold it as one int, `bits` bits a coordinate
  from the block's least index, and add a term with one multiply-add.
  With A the largest |entry| and s the most nonzeros of a scaled pair
  vector, a T coordinate is at most s A^2 and one of a Malcev term at most
  s^2 A^3, so a Malcev sum (one term minus four) is at most 5 s^2 A^3 and
  a Jacobi sum (three T entries) at most 3 s A^2.  bits = bitlen(5 s^2
  A^3) + 1 makes each a balanced digit, below 2^(bits-1) in absolute
  value; int addition is exact whatever the partial sums, so each final
  sum decodes exactly, and is 0 exactly when the vector is.
- Orbits.  The Jacobi sum is the same at the three rotations of a triple,
  and on a super-anticommutative algebra lhs - rhs of the Malcev identity
  changes only by a Koszul sign along the four rotations of a quadruple.
  The scans add each term only at the rotations of its tuple led by its
  least index (the Jacobi scan at the least of them), and each nonzero
  sum stands, with its sign, for the other rotations.

A failing report (`reports.CheckReport`) keeps the sorted failing keys and
the int sums behind them; `_vector_witness` turns the two sides at a key
into Elements only when a caller reads that witness, and only then is the
Malcev lhs evaluated there, rhs being lhs minus the packed difference.
"""

from __future__ import annotations

import functools
import math
import random
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from . import linalg
from .errors import (GradingError, InconclusiveError, InputError,
                     PreconditionError)
from .linalg import ONE, ZERO, Span, frac
from .reports import CheckReport, Witness, _report

EVEN = 0
ODD = 1


def ksign(exponent: int) -> int:
    """(-1)**exponent for a Z2 exponent given as any int."""
    return -1 if exponent & 1 else 1


def parity_name(p: int) -> str:
    return "even" if p == EVEN else "odd"


def memo(fn):
    """fn(x) computed on the first call and kept on x, the one cache of what
    an immutable object derives: the attribute "_" + fn's name, not read
    through x.__dict__, which would slow every attribute read of x."""
    name = "_" + fn.__name__

    @functools.wraps(fn)
    def kept(x):
        value = getattr(x, name, _EMPTY)
        if value is _EMPTY:
            value = fn(x)
            setattr(x, name, value)
        return value
    return kept


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


class Element:
    """A vector of F^dim in the fixed basis, stored as its nonzero
    coordinates `entries` {i: exact rational}.  The constructor reads a
    dense sequence, each coordinate through `linalg.frac`, but no dense
    view is kept; `document.vector_texts` prints `entries`.  Equality and
    hashing follow the coordinates, whichever constructor built the
    vector."""

    __slots__ = ("dim", "entries")

    def __init__(self, coords):
        self.dim = len(coords)
        self.entries = {i: x for i, c in enumerate(coords) if (x := frac(c))}

    @classmethod
    def sparse(cls, n, entries):
        """The vector of F^n with the nonzero coordinates {i: value}."""
        el = cls.__new__(cls)
        el.dim, el.entries = n, dict(entries)
        return el

    @classmethod
    def zero(cls, n):
        return cls.sparse(n, {})

    @classmethod
    def basis(cls, n, i):
        return cls.sparse(n, {i: ONE})

    def __len__(self):
        return self.dim

    def __eq__(self, other):
        return (isinstance(other, Element) and self.dim == other.dim
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.dim, frozenset(self.entries.items())))

    def __repr__(self):
        return "Element(%d, %r)" % (self.dim, self.entries)

    def __add__(self, other):
        return Element.sparse(self.dim, linalg.combine(
            {0: self.entries, 1: other.entries}, {0: ONE, 1: ONE}))

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return Element.sparse(self.dim,
                              linalg.combine({0: self.entries}, {0: frac(c)}))

    def is_zero(self):
        return not self.entries

    def homogeneous_parity(self, space: SuperSpace):
        """Parity of a homogeneous element, None for 0, error when mixed."""
        ps = {space.parity(i) for i in self.entries}
        if len(ps) > 1:
            raise GradingError("element is not parity-homogeneous")
        return ps.pop() if ps else None

    def parity_part(self, space: SuperSpace, parity: int):
        return Element.sparse(self.dim, {i: x for i, x in self.entries.items()
                                         if space.parity(i) == parity})


class SuperAlgebra:
    """Structure constants on a graded space, stored once as the int table
    (module docstring); immutable.  The constructor reads Fraction, int or
    string constants, and the package's builders pass `_from_ints` ints."""

    def __init__(self, space: SuperSpace, constants, name: str = ""):
        pairs = {}
        for (i, j, k), c in constants.items():
            if c := frac(c):
                pairs.setdefault((i, j), {})[k] = c
        self._store(space, *linalg.scaled(pairs), name)

    @classmethod
    def _from_ints(cls, space: SuperSpace, scale, pairs, name=""):
        """The algebra with the products pairs[(i, j)] / scale, int vectors
        with nonzero entries, scale and entries divided by their gcd."""
        g = math.gcd(scale, *(x for v in pairs.values() for x in v.values()))
        if g != 1:
            scale, pairs = scale // g, {key: {k: x // g for k, x in v.items()}
                                        for key, v in pairs.items()}
        return cls.__new__(cls)._store(space, scale, pairs, name)

    def _store(self, space, scale, pairs, name):
        """The one store; it checks each index's range and grading."""
        n, p = space.dim, space.even_dim
        for (i, j), vec in pairs.items():
            for k in vec:
                if not (0 <= i < n and 0 <= j < n and 0 <= k < n):
                    raise InputError("constant index (%d,%d,%d) out of range"
                                     % (i, j, k))
                if (i >= p) ^ (j >= p) ^ (k >= p):  # odd: index >= even_dim
                    raise GradingError(
                        "constant (%d,%d,%d) violates the grading" % (i, j, k))
        self.space, self.name, self._int = space, name, (scale, pairs)
        self._closures = {}  # ideal_closure's memo, by seed
        return self

    @property
    def dim(self):
        return self.space.dim

    def is_abelian(self):
        return not self._int[1]

    def int_table(self):
        """(D, {(i, j): D b_i b_j}), the store."""
        return self._int

    @property
    @memo
    def constants(self):
        """{(i, j, k): c}, nonzero constants only."""
        d, pairs = self._int
        return MappingProxyType({(i, j, k): Fraction(x, d) for (i, j), vec
                                 in pairs.items() for k, x in vec.items()})

    @memo
    def pair_table(self):
        """{(i, j): {k: c}}, nonzero products only."""
        d, pairs = self._int
        return MappingProxyType({key: {k: Fraction(x, d) for k, x
                                       in vec.items()}
                                 for key, vec in pairs.items()})

    @memo
    def int_factors(self):
        """The int table's vectors by factor, {i: {j: D b_i b_j}} and
        {j: {i: D b_i b_j}}; the scan kernel, the closures and Gamma_s
        read them."""
        lefts, rights = defaultdict(dict), defaultdict(dict)
        for (i, j), vec in self._int[1].items():
            lefts[i][j] = rights[j][i] = vec
        return dict(lefts), dict(rights)

    def __eq__(self, other):
        return (isinstance(other, SuperAlgebra)
                and self.space == other.space and self._int == other._int)

    def __repr__(self):
        return "SuperAlgebra(%r, dim=(%d|%d), nnz=%d)" % (
            self.name, self.space.even_dim, self.space.odd_dim,
            sum(map(len, self._int[1].values())))


def _summed(space: SuperSpace, parts, extra, name=""):
    """The algebra on space whose products are those of each algebra of
    parts [(algebra, its index map into space)] moved along the map, plus
    the Fraction products extra {(i, j): {k: x}}: the int tables summed."""
    tables = [(*a.int_table(), at) for a, at in parts]
    tables.append((*linalg.scaled(extra), range(space.dim)))
    scale, acc = math.lcm(*(s for s, _pairs, _at in tables)), {}
    for s, pairs, at in tables:
        m = scale // s
        for (i, j), vec in pairs.items():
            out = acc.setdefault((at[i], at[j]), {})
            for k, x in vec.items():
                out[at[k]] = out.get(at[k], 0) + m * x
    return SuperAlgebra._from_ints(space, scale, {
        key: vec if all(vec.values()) else {k: x for k, x in vec.items() if x}
        for key, vec in acc.items() if any(vec.values())}, name)


# ---------------------------------------------------------------------------
# operations

def product(a: SuperAlgebra, x: Element, y: Element) -> Element:
    """Bilinear extension of the structure constants: `_product` divided
    by D."""
    if x.dim != a.dim or y.dim != a.dim:
        raise InputError("element length does not match algebra dimension")
    return _scaled_elements(a.dim, a.int_table()[0])(
        _product(a, x.entries, y.entries))


def _product(a: SuperAlgebra, u, v):
    """D u v for sparse vectors u and v: u times the int table's vectors by
    left factor (`linalg.combine_table`), then times v (`linalg.combine`)."""
    return linalg.combine(linalg.combine_table(a.int_factors()[0], u), v)


@memo
def check_super_anticommutativity(a: SuperAlgebra) -> CheckReport:
    """b_i b_j = -(-1)^{p(i)p(j)} b_j b_i for all basis pairs.

    Both sides vanish unless (i, j) or (j, i) is in the pair table, so only
    those pairs are compared, as (i, j) with i <= j, on the scan kernel's
    scaled ints.  The report is kept on the (immutable) algebra:
    check_malcev reads it for its note and QuadraticAlgebra.validate for
    its verdict.
    """
    kern = _scan_kernel(a)
    lhs, rhs = {}, {}
    for (i, j), vec in kern.pairs.items():
        if i <= j:
            lhs[(i, j)] = vec
        if j <= i:
            s = -ksign(kern.par[i] * kern.par[j])
            rhs[(j, i)] = {k: s * c for k, c in vec.items()}
    return _report(*_side_witnesses(a.dim, lhs, rhs, kern.scale, kern.scale))


_EMPTY = MappingProxyType({})  # the default of lookups


def _packed(vec, base, bits):
    """The int vector {k: c} as one int, the sum of c 2^(bits (k - base))."""
    x = 0
    for k, c in vec.items():
        x += c << bits * (k - base)
    return x


def _unpacked(x, base, bits):
    """{k: c} for the nonzero balanced digits c, each in [-2^(bits-1),
    2^(bits-1)), of a packed int x: the inverse of _packed."""
    out, half, mask = {}, 1 << (bits - 1), (1 << bits) - 1
    while x:
        skip = ((x & -x).bit_length() - 1) // bits  # zero slots below
        x >>= bits * skip
        base += skip
        out[base] = ((x + half) & mask) - half
        x = (x + half) >> bits
        base += 1
    return out


class _ScanKernel:
    """Integer tables that the identity scans of one algebra share.

    The constants are scaled by D, so every entry is an int.  `pairs[(i,
    j)]` is the scaled product b_i b_j, and `columns[m]` lists the pairs
    ((i, j), c) whose product has c != 0 at b_m.  `packed[(a, b)]` maps c
    to T(a, b, c), the sum over m of c(a, b, m) b_m b_c, packed from
    `base[a]`, the least index of a's block, and summed from the packed
    pair rows.  Only nonzero vectors are stored.  `right_products(vec)` is
    {w: vec b_w}, `linalg.combine_table` on the algebra's `int_factors`.
    """

    def __init__(self, a: SuperAlgebra):
        n = a.dim
        self.par = [EVEN] * a.space.even_dim + [ODD] * a.space.odd_dim
        self.scale, pairs = a.int_table()
        base = list(range(n))  # a forest of the blocks; a parent is less
        top = width = 0
        for (i, j), vec in pairs.items():
            width = max(width, len(vec))
            for k, c in vec.items():
                if not -top <= c <= top:
                    top = abs(c)
                if base[i] == base[j] == base[k]:
                    continue
                ri, rj, rk = i, j, k  # their roots, joined under the least
                while base[ri] != ri:
                    ri = base[ri]
                while base[rj] != rj:
                    rj = base[rj]
                while base[rk] != rk:
                    rk = base[rk]
                least = min(ri, rj, rk)
                base[ri] = base[rj] = base[rk] = least
                base[i] = base[j] = base[k] = least
        for i in range(n):  # now each index's root, the least of its block
            base[i] = base[base[i]]
        bits = (5 * width ** 2 * top ** 3).bit_length() + 1
        lefts = a.int_factors()[0]
        packed_rows = {i: {j: _packed(vec, base[i], bits)
                           for j, vec in row.items()}
                       for i, row in lefts.items()}
        packed, columns = {}, {}
        for key, vec in pairs.items():
            for m, c in vec.items():
                columns.setdefault(m, []).append((key, c))
            if acc := linalg.combine(packed_rows, vec):
                packed[key] = acc
        self.pairs, self.columns = pairs, columns
        self.base, self.bits, self.packed = base, bits, packed
        self.right_products = functools.partial(linalg.combine_table, lefts)

    @property
    @memo
    def triples(self):
        """`packed` as {k: int} vectors, on first use by the operator
        scan."""
        base, bits = self.base, self.bits
        return {key: {c: _unpacked(x, base[key[0]], bits)
                      for c, x in row.items()}
                for key, row in self.packed.items()}


@memo
def _scan_kernel(a: SuperAlgebra) -> _ScanKernel:
    return _ScanKernel(a)


@functools.cache
def _chain_signs(x, y, z, f):
    """f times the signs of the chain term ((b_p b_q) b_r) b_w, x, y, z the
    parities of p, q, r, on the right side of the Malcev identity at (w, p,
    q, r), (r, w, p, q) and (q, r, w, p), as ((TX)Y)Z, ((ZT)X)Y and
    ((YZ)T)X: three pairs, each indexed by |w|.  As ((XY)Z)T it is 1."""
    return ((f, f * ksign(x + y + z)),
            (f * ksign(z * (x + y)), f * ksign((z + 1) * (x + y))),
            (f * ksign(x * (y + z)), f * ksign(x * (y + z + 1))))


def _scaled_elements(n, denom):
    """element(vec), the Element of F^n with the coordinates c / denom of
    the int vector {k: c}, c != 0, keeping one Fraction per c across its
    calls."""
    fracs = {}

    def element(vec):
        entries = {}
        for k, c in vec.items():
            x = fracs.get(c)
            if x is None:
                x = fracs[c] = (Fraction(c) if denom == 1
                                else Fraction(c, denom))
            entries[k] = x
        el = Element.__new__(Element)  # Element.sparse, less its copy
        el.dim, el.entries = n, entries
        return el
    return element


def _vector_witness(n, sides, denom):
    """witness(key), Witness(key, lhs, rhs) for the int vectors (lhs, rhs) =
    sides(key), each divided back by denom into an Element of F^n; a caller
    that needs only the ints reads witness.sides."""
    element = _scaled_elements(n, denom)

    def witness(key):
        left, right = sides(key)
        return Witness(key, element(left), element(right))
    witness.sides = sides
    return witness


def _side_witnesses(n, lhs, rhs, lscale, rscale):
    """The sorted keys where the int vector sums lhs {key: {k: x}}, the left
    side times lscale, and rhs, the right side times rscale, differ as
    rationals, and the builder of their witnesses.  Both are brought to the
    lcm of the two scales, compared there, and divided back only in a
    witness."""
    g = math.gcd(lscale, rscale)
    lmul, rmul = rscale // g, lscale // g
    sides = {}
    for key in sorted(lhs.keys() | rhs.keys()):
        left, right = lhs.get(key, _EMPTY), rhs.get(key, _EMPTY)
        if lmul == rmul and left == right:  # equal at equal scales
            continue
        left = {m: c * lmul for m, c in left.items() if c}
        right = {m: c * rmul for m, c in right.items() if c}
        if left != right:
            sides[key] = left, right
    if not sides:  # a passing report needs no builder
        return (), None
    return list(sides), _vector_witness(n, sides.__getitem__, lscale * lmul)


def _rotations(par, key):
    """{rotation: sign} for each distinct rotation of the tuple key, first
    to last, with the Koszul sign of moving its head past its tail."""
    out = {}
    total, head = sum(par[i] for i in key), 0
    for s, i in enumerate(key):
        out.setdefault(key[s:] + key[:s], ksign(head * (total - head)))
        head += par[i]
    return out


def _chain_rows(kern: _ScanKernel, ordered):
    """(p, q, r, {w: ((b_p b_q) b_r) b_w, packed}) for each (p, q, r) with
    (b_p b_q) b_r != 0, only p <= q when ordered; each product is read off
    the table as the sum over a of c(p, q, a) T(a, r, w)."""
    packed, pairs = kern.packed, kern.pairs
    for (p, q), trow in packed.items():
        if ordered and q < p:
            continue
        pv = pairs[(p, q)]
        for r in trow:
            row = {}
            for a, c in pv.items():
                arow = packed.get((a, r))
                if arow:
                    for w, x in arow.items():
                        row[w] = row.get(w, 0) + c * x
            if row:
                yield p, q, r, row


def _lhs_sums(kern: _ScanKernel, led):
    """{(i, j, k, l): the scaled lhs (-1)^{yz} (b_i b_k)(b_j b_l) of the
    Malcev identity, packed}, at every quadruple where it is nonzero, or
    only at those led by their least index, i <= j, k, l, when led."""
    par, columns, diff = kern.par, kern.columns, {}
    # (b_i b_k)(b_j b_l) = sum over m of c(j, l, m) (b_i b_k) b_m
    for (i, k), trow in kern.packed.items():
        if led and k < i:
            continue
        odd = par[k]
        for m, x in trow.items():
            for (j, l), c in columns.get(m, ()):
                if led and (j < i or l < i):
                    continue
                key = (i, j, k, l)
                diff[key] = diff.get(key, 0) + (
                    -c if odd and par[j] else c) * x
    return diff


def _malcev_sums(kern: _ScanKernel):
    """{(i, j, k, l): the scaled lhs - rhs of the Malcev identity, packed},
    summed term by term at every quadruple where a term is nonzero."""
    par, diff = kern.par, _lhs_sums(kern, False)
    for p, q, r, row in _chain_rows(kern, False):
        wpqr, rwpq, qrwp = _chain_signs(par[p], par[q], par[r], -1)
        for w, v in row.items():
            t = par[w]
            for key, s in (((p, q, r, w), -1), ((w, p, q, r), wpqr[t]),
                           ((r, w, p, q), rwpq[t]), ((q, r, w, p), qrwp[t])):
                diff[key] = diff.get(key, 0) + s * v
    return diff


def _malcev_orbit_sums(kern: _ScanKernel):
    """{(i, j, k, l): the scaled lhs - rhs of the Malcev identity, packed}
    on a super-anticommutative algebra, summed in full at each quadruple
    led by its least index, ties such as (i, j, i, l) included.  A chain
    term ((b_p b_q) b_r) b_w goes to (w, p, q, r) when w <= lo = min(p, q,
    r), and to each of (p, q, r, w), (r, w, p, q) and (q, r, w, p) that lo
    leads when w >= lo.  It is formed only for p <= q and serves (q, p, r,
    w) too: b_q b_p is b_p b_q times -(-1)^{|p||q|}."""
    par, diff = kern.par, _lhs_sums(kern, True)
    for p0, q0, r, row in _chain_rows(kern, True):
        lo = min(p0, q0, r)
        orders = [(p0, q0, -1)]
        if p0 < q0:
            orders.append((q0, p0, ksign(par[p0] * par[q0])))
        for p, q, f in orders:
            wpqr, rwpq, qrwp = _chain_signs(par[p], par[q], par[r], f)
            for w, v in row.items():
                if w <= lo:
                    key = (w, p, q, r)
                    diff[key] = diff.get(key, 0) + wpqr[par[w]] * v
                if w >= lo:
                    if p == lo:
                        key = (p, q, r, w)
                        diff[key] = diff.get(key, 0) + f * v
                    if r == lo:
                        key = (r, w, p, q)
                        diff[key] = diff.get(key, 0) + rwpq[par[w]] * v
                    if q == lo:
                        key = (q, r, w, p)
                        diff[key] = diff.get(key, 0) + qrwp[par[w]] * v
    return diff


def _malcev_report(kern: _ScanKernel, n, sums, orbits, notes=()):
    """The report failing where F = lhs - rhs of the Malcev identity is not
    0, from sums {key: F, scaled and packed}: at their nonzero keys, and if
    orbits, at each rotation whose first least index is such a key's head,
    F there being its Koszul sign times F at the key.  A witness evaluates
    lhs = (-1)^{yz} (b_i b_k)(b_j b_l) at its key, and rhs = lhs - F."""
    par, pairs, packed = kern.par, kern.pairs, kern.packed
    base, bits = kern.base, kern.bits
    keys = []
    for key, x in sums.items():
        if x:
            keys.append(key)
            if orbits:  # key[t:] + key[:t] for t past the last key[0]
                keys += [key[t:] + key[:t]
                         for t in range(4 - key[::-1].index(key[0]), 4)]
    keys.sort()

    def sides(key):
        i, j, k, l = key
        trow = packed.get((i, k), _EMPTY)
        lhs = ksign(par[j] * par[k]) * sum(
            c * trow.get(m, 0) for m, c in pairs.get((j, l), _EMPTY).items())
        s = key.index(min(key)) if orbits else 0
        led = key[s:] + key[:s]
        return (_unpacked(lhs, base[i], bits), _unpacked(
            lhs - _rotations(par, key)[led] * sums[led], base[i], bits))
    return _report(keys, _vector_witness(n, sides, kern.scale ** 3), notes)


def check_malcev(a: SuperAlgebra) -> CheckReport:
    """Four-variable Malcev identity on all basis quadruples.

    (-1)^{yz}(XZ)(YT) = ((XY)Z)T + (-1)^{x(y+z+t)}((YZ)T)X
                      + (-1)^{(x+y)(z+t)}((ZT)X)Y + (-1)^{t(x+y+z)}((TX)Y)Z

    On a super-anticommutative algebra two theorems decide it:

    - Every Lie superalgebra is Malcev (Sagle, Trans. AMS 101 (1961);
      Albuquerque-Benayadi, J. Pure Appl. Algebra 187 (2004) in the graded
      case), so when the graded Jacobi identity holds the report passes
      with no further scan.  `check_jacobi` keeps its report on the
      algebra, so this costs nothing when the caller runs it anyway.
    - With F(x, y, z, t) = lhs - rhs, F(y, z, t, x) = (-1)^{x(y+z+t)}
      F(x, y, z, t).  So one pass sums F only at the quadruples led by
      their least index, and F elsewhere is its Koszul sign times F at its
      rotation that starts at the first place of that index.  The report
      keeps those sums alone and reads F and the lhs at a key only when
      its witness is built.

    Any other algebra gets the full pass over every quadruple, with a note
    when super-anticommutativity fails.
    """
    n, kern = a.dim, _scan_kernel(a)
    if not check_super_anticommutativity(a).passed:
        return _malcev_report(kern, n, _malcev_sums(kern), False,
                              ["super-anticommutativity fails; identity "
                               "scan is reported but may be meaningless"])
    if check_jacobi(a).passed:
        return _report(())
    return _malcev_report(kern, n, _malcev_orbit_sums(kern), True)


@memo
def check_jacobi(a: SuperAlgebra) -> CheckReport:
    """Graded Jacobi identity on all basis triples.

    (-1)^{xz}(XY)Z + (-1)^{yx}(YZ)X + (-1)^{zy}(ZX)Y = 0

    On every graded algebra the three terms at (y, z, x) are the three at
    (x, y, z) in another order, so the sum is the same at the three
    rotations of a triple.  Each term is added at every one of its
    rotations that its least index leads ((i, i, i) takes it three times,
    once per rotation), so each led triple holds its full sum, and each
    nonzero sum is copied to the other rotations.

    The report is kept on the (immutable) algebra: check_malcev reads it
    for its Lie shortcut, so `check`, `QuadraticAlgebra.validate` and
    `classify_U` share one pass.
    """
    n, kern = a.dim, _scan_kernel(a)
    par = kern.par
    sums = {}
    for (p, q), trow in kern.packed.items():
        for r, x in trow.items():
            # (b_p b_q) b_r is (XY)Z at (p, q, r), (YZ)X at (r, p, q) and
            # (ZX)Y at (q, r, p); each time its sign is (-1)^{p(p) p(r)}
            x *= ksign(par[p] * par[r])
            if p <= q and p <= r:
                sums[(p, q, r)] = sums.get((p, q, r), 0) + x
            if r <= p and r <= q:
                sums[(r, p, q)] = sums.get((r, p, q), 0) + x
            if q <= r and q <= p:
                sums[(q, r, p)] = sums.get((q, r, p), 0) + x
    failing = {rot: key for key, x in sums.items() if x
               for rot in _rotations(par, key)}
    if not failing:
        return _report(())
    element, values = _scaled_elements(n, kern.scale ** 2), {}
    zero = Element.zero(n)

    def witness(rot):  # the rotations of a key share its value and zero
        key = failing[rot]
        value = values.get(key)
        if value is None:
            value = values[key] = element(
                _unpacked(sums[key], kern.base[key[0]], kern.bits))
        return Witness(rot, value, zero)
    return _report(sorted(failing), witness)


def _vector(n, v):
    """v, a list or a {coordinate: value} dict, as a sparse vector of F^n;
    InputError when it is not one."""
    if not (all(0 <= i < n for i in v) if isinstance(v, dict)
            else len(v) == n):
        raise InputError("vector does not fit a space of dimension %d" % n)
    return linalg.sparse(v)


class GradedSubspace:
    """The span of homogeneous columns, lists or dicts (InputError when one
    does not fit the space, GradingError when one mixes parities), stored
    as the primitive int rows `int_rows` of one `linalg.Span`, in pivot
    order, so the even rows come first.  They are unique, so `key`, the
    rows as sorted (coordinate, value) pairs, names the subspace; the memos
    of ideal closures and form restrictions are keyed by it.  The reduced
    echelon `rows`, sparse dicts of Fractions, are a derived view."""

    def __init__(self, space: SuperSpace, columns):
        span = Span(space.dim)
        for col in columns:
            vec = _vector(space.dim, col)
            if len({i < space.even_dim for i in vec}) > 1:
                raise GradingError("element is not parity-homogeneous")
            span.add(vec)
        self._store(space, span)

    def _store(self, space, span):
        self.space, self._span, self.int_rows = space, span, span.int_rows()
        self._evens = sum(c < space.even_dim for c in span.pivot_columns())
        self.key = tuple(tuple(sorted(row.items())) for row in self.int_rows)
        return self

    @property
    @memo
    def rows(self):
        """The reduced echelon rows, 1 at each pivot, as Fractions."""
        return self._span.rows()

    @classmethod
    def from_vectors(cls, space: SuperSpace, vectors):
        """Graded span: the span of the vectors' even and odd parts."""
        p = space.even_dim
        vecs = [_vector(space.dim, v) for v in vectors]
        return cls(space, [{i: x for i, x in v.items() if (i < p) == even}
                           for v in vecs for even in (True, False)])

    @property
    def dim(self):
        return self._span.dim

    def even_rows(self):
        return self.rows[:self._evens]

    def odd_rows(self):
        return self.rows[self._evens:]

    def contains(self, vector):
        return self._span.contains(_vector(self.space.dim, vector))

    def __eq__(self, other):
        return (isinstance(other, GradedSubspace)
                and self.space == other.space and self.key == other.key)

    def __repr__(self):
        return "GradedSubspace(dim=%d of %d)" % (self.dim, self.space.dim)


@memo
def center(a: SuperAlgebra) -> GradedSubspace:
    """{X : b_j X = 0 for all j}, one sparse kernel; each row (j, k) of the
    system meets one parity, so the kernel vectors are homogeneous."""
    rows = {}  # (j, k) -> {i: D c(j, i, k)}, for b_k in b_j X
    for (j, i), vec in a.int_table()[1].items():
        for k, c in vec.items():
            rows.setdefault((j, k), {})[i] = c
    return GradedSubspace(a.space,
                          linalg.int_kernel(list(rows.values()), a.dim))


def ideal_closure(a: SuperAlgebra, seed: GradedSubspace) -> GradedSubspace:
    """Smallest graded two-sided multiplication-closed subspace over seed.

    Int rows times the int table, b_j v then v b_j for each j in turn
    where either is nonzero.  Memoized on the (immutable) algebra by the
    seed's key; the result is stored under its own key too, since an ideal
    is its own closure.  A seed in another space raises InputError.
    """
    if seed.space != a.space:
        raise InputError("subspace does not lie in the algebra's space")
    closed = a._closures.get(seed.key)
    if closed is None:
        lefts, rights = a.int_factors()
        span = Span(a.dim)
        work = [row for row in seed.int_rows if span.add(row)]
        while work:
            v = work.pop()
            left = linalg.combine_table(rights, v)  # j -> b_j v
            right = linalg.combine_table(lefts, v)  # j -> v b_j
            for j in sorted(left.keys() | right.keys()):
                for prod in (left.get(j), right.get(j)):
                    if prod and span.add(prod):
                        work.append(prod)
        # the seeds and their products with basis vectors are homogeneous,
        # so the reduced rows are too
        closed = GradedSubspace.__new__(GradedSubspace)._store(a.space, span)
        a._closures[seed.key] = closed
        a._closures.setdefault(closed.key, closed)
    return closed


def direct_sum_embeddings(*spaces):
    """The graded sum of the spaces and one index map per space into it:
    the even basis vectors of each space in turn, then the odd ones.  This
    is the one layout of sums, splits, extensions and reductions."""
    even = 0
    odd = total = sum(s.even_dim for s in spaces)
    maps = []
    for s in spaces:
        maps.append([*range(even, even + s.even_dim),
                     *range(odd, odd + s.odd_dim)])
        even, odd = even + s.even_dim, odd + s.odd_dim
    return SuperSpace(total, odd - total), maps


def direct_sum(a: SuperAlgebra, b: SuperAlgebra) -> SuperAlgebra:
    """Block-diagonal structure constants on the concatenated graded space."""
    return _direct_sum(a, b)[0]


def _direct_sum(a: SuperAlgebra, b: SuperAlgebra):
    """direct_sum, and the index maps of a and b into it."""
    space, maps = direct_sum_embeddings(a.space, b.space)
    name = "sum(%s,%s)" % (a.name or "?", b.name or "?")
    return _summed(space, zip((a, b), maps), {}, name), maps


def change_basis(a: SuperAlgebra, columns, name=None) -> SuperAlgebra:
    """a in the basis of the columns (_change_basis), a's name by default."""
    return _change_basis(a, columns, a.name if name is None else name)[0]


def _change_basis(a: SuperAlgebra, columns, name=""):
    """a in the basis of k <= n columns, lists or sparse dicts, on the
    (p|k-p) space, then L, the lcm of their denominators, and the columns
    times L as int dicts: the one rewrite of constants in a basis, the
    algebra on a subspace when k < n.  The columns must be independent
    (InputError), homogeneous and ordered even-first (GradingError).  Their
    products are the int table pulled back along them (linalg.pulled_back),
    D L^2 times the true ones.  One `linalg.Span` of the rows [C^T | I]
    reduces each product w to (w - C x | -x) times its multiplier m, which
    is (0 | -x) exactly when w = C x lies in the span of the columns C (a
    product outside it, on a subspace that is not closed, raises
    PreconditionError); -x / (D L^2 m) is reduced by the gcd and the
    products brought to the lcm of what is left, the new D, on ints."""
    n = a.dim
    vecs = [{r: y for r, x in _vector(n, c).items() if (y := frac(x))}
            for c in columns]
    k = len(vecs)
    if k > n:
        raise InputError("need at most %d basis columns" % n)
    scale, cols = linalg.scaled(dict(enumerate(vecs)))
    span = linalg.row_span(({**v, n + m: scale} for m, v in cols.items()),
                           n + k)
    pivots = span.pivot_columns()
    if pivots and pivots[-1] >= n:
        raise InputError("basis columns are linearly dependent")
    par = []
    for v in vecs:
        kinds = {a.space.parity(r) for r in v}
        if len(kinds) != 1:
            raise GradingError("basis column is not parity-homogeneous")
        par.append(kinds.pop())
    if par != sorted(par):
        raise GradingError("basis columns must be ordered even-first")
    d, pairs = a.int_table()
    denom, lcm, reduced = d * scale ** 2, 1, {}
    for key, w in linalg.pulled_back(pairs, cols).items():
        mult, rest = span.int_reduce(w)
        if min(rest) < n:
            raise PreconditionError("subspace is not closed under the "
                                    "product")
        g = math.gcd(denom * mult, *rest.values())
        den = denom * mult // g
        reduced[key] = den, {m - n: -x // g for m, x in rest.items()}
        lcm = math.lcm(lcm, den)
    alg = SuperAlgebra._from_ints(
        SuperSpace(par.count(EVEN), par.count(ODD)), lcm,
        {key: {k: x * (lcm // den) for k, x in vec.items()}
         for key, (den, vec) in reduced.items()}, name)
    return alg, scale, cols


@dataclass(frozen=True)
class SimplicityReport:
    simple: object  # True / False / None for inconclusive
    ideal: object = None  # a proper nonzero graded ideal when simple is False
    note: str = ""


def _multiplication_generators(a):
    """L_i and R_j, for the b_i and b_j with a nonzero product, as column
    maps {column: {row: x}}: `int_factors`, the constants times D, which
    generate the same algebra.  Column j of L_i and column i of R_j are
    D b_i b_j."""
    lefts, rights = a.int_factors()
    return [*lefts.values(), *rights.values()]


def _ideal_candidates(a: SuperAlgebra):
    """Deterministic seed subspaces whose closures are tested as ideals."""
    n = a.dim
    par = [a.space.parity(i) for i in range(n)]
    for row in center(a).int_rows:
        yield [row]
    for i in range(n):
        yield [{i: 1}]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
             if par[i] == par[j]]
    for i, j in pairs:
        yield [{i: 1, j: 1}]
    for i, j in pairs:
        yield [{i: 1}, {j: 1}]
    rng = random.Random(0x5EED)  # seeded homogeneous vectors
    for _ in range(4):
        for idxs in (a.space.even_indices(), a.space.odd_indices()):
            v = {i: x for i in idxs if (x := rng.randint(-3, 3))}
            if v:
                yield [v]


def _proper_ideals(a: SuperAlgebra, seeds):
    """The closures of the seeds' nonzero graded spans, if proper ideals."""
    for seed in seeds:
        sub = GradedSubspace.from_vectors(a.space, seed)
        ideal = ideal_closure(a, sub) if sub.dim else sub
        if 0 < ideal.dim < a.dim:
            yield ideal


_CERT_PRIME = (1 << 61) - 1


def _multiplication_algebra_dim(a: SuperAlgebra, p=0):
    """Dimension of the unital algebra generated by all L_i and R_i, over Q
    or modulo the prime p (on the int generators), as far as n^2."""
    gens = _multiplication_generators(a)
    return len(linalg.enveloping_basis(gens, a.dim, p))


@memo
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
    `linalg.enveloping_basis` on the shared eliminator `linalg.Span`.  The
    mod-p closure is skipped when the center is nonzero: on a
    super-anticommutative algebra a central vector is killed by every L_i
    and R_i, so its line is a proper M(A)-invariant subspace and the rank
    would fall short.  (On
    any algebra the skip changes no answer, only the work: a full M(A)
    leaves no proper ideal for the candidates to find, and the closure over
    Q then certifies it.)  A rank deficit mod p proves nothing over Q; then
    False comes with the first of `_proper_ideals` of the
    `_ideal_candidates`.  If there is none, M(A) is closed over Q, which
    may still certify True.  The report is kept on the immutable algebra.
    """
    n = a.dim
    if n == 0:
        return SimplicityReport(False, note="zero algebra")
    if a.is_abelian():
        return SimplicityReport(False, note="abelian")
    if (not center(a).dim
            and _multiplication_algebra_dim(a, _CERT_PRIME) == n * n):
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
