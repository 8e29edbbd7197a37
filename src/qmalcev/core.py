"""Graded structure-constant algebras over exact rationals.

A superalgebra lives on a Z2-graded space with the even basis vectors first.
Products are stored as a sparse tensor c[(i,j,k)] meaning b_i b_j = sum_k
c[(i,j,k)] b_k, with grading compatibility enforced at construction.

The identity checkers report an exact witness for every basis tuple on
which an identity fails; by multilinearity that decides it.  The Malcev,
Jacobi, super-anticommutativity and cocycle scans, and the form-invariance
scan of `quadratic.check_form`, share one integer kernel per algebra, and
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
  Those scans add each term only at the least rotation of its tuple and
  copy every nonzero sum, with its sign, to the other rotations.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from . import linalg
from .errors import (GradingError, InconclusiveError, InputError,
                     PreconditionError)
from .linalg import ONE, ZERO, Span, _add, frac

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


class Element:
    """A vector of F^dim in the fixed basis, stored as its nonzero
    coordinates `entries` {i: exact rational}.  The dense tuple `coords` is
    a view for the printers, built on each read.  Equality and hashing
    follow the coordinates, whichever constructor built the vector."""

    __slots__ = ("dim", "entries")

    def __init__(self, coords):
        self.dim = len(coords)
        self.entries = {i: c for i, c in enumerate(coords) if c}

    @classmethod
    def sparse(cls, n, entries):
        """The vector of F^n with the nonzero coordinates {i: value}."""
        el = cls.__new__(cls)
        el.dim, el.entries = n, dict(entries)
        return el

    @classmethod
    def from_seq(cls, seq):
        return cls([frac(c) for c in seq])

    @classmethod
    def zero(cls, n):
        return cls.sparse(n, {})

    @classmethod
    def basis(cls, n, i):
        return cls.sparse(n, {i: ONE})

    @property
    def coords(self):
        return linalg.dense(self.entries, self.dim)

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
        return Element.sparse(self.dim, _vadd(dict(self.entries),
                                              other.entries))

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return Element.sparse(self.dim, _vscale(self.entries, frac(c)))

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
        n, p = space.dim, space.even_dim
        for (i, j, k), c in constants.items():
            if not (c := frac(c)):
                continue
            if not (0 <= i < n and 0 <= j < n and 0 <= k < n):
                raise InputError("constant index (%d,%d,%d) out of range"
                                 % (i, j, k))
            if (i >= p) ^ (j >= p) ^ (k >= p):  # odd: index >= even_dim
                raise GradingError(
                    "constant (%d,%d,%d) violates the grading" % (i, j, k))
            table[(i, j, k)] = c
        self.constants = table
        # caches of the immutable algebra, each filled on first use
        self._pairs = self._ints = self._factors = self._kernel = None
        self._center = self._simplicity = self._anti = self._jacobi = None
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

    def int_table(self):
        """(D, {(i, j): D b_i b_j}), D the lcm of the constants'
        denominators: the one int copy of the pair table, cached."""
        if self._ints is None:
            self._ints = linalg.scaled(self.pair_table())
        return self._ints

    def int_factors(self):
        """The int table's vectors by factor, {i: {j: D b_i b_j}} and
        {j: {i: D b_i b_j}}, cached; the closures and Gamma_s read them."""
        if self._factors is None:
            lefts, rights = {}, {}
            for (i, j), vec in self.int_table()[1].items():
                lefts.setdefault(i, {})[j] = rights.setdefault(j, {})[i] = vec
            self._factors = lefts, rights
        return self._factors

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
    return _mul_vv(a, u, {j: ONE})


# ---------------------------------------------------------------------------
# operations

def product(a: SuperAlgebra, x: Element, y: Element) -> Element:
    """Bilinear extension of the structure constants."""
    if x.dim != a.dim or y.dim != a.dim:
        raise InputError("element length does not match algebra dimension")
    return Element.sparse(a.dim, _mul_vv(a, x.entries, y.entries))


def check_super_anticommutativity(a: SuperAlgebra) -> CheckReport:
    """b_i b_j = -(-1)^{p(i)p(j)} b_j b_i for all basis pairs.

    Both sides vanish unless (i, j) or (j, i) is in the pair table, so only
    those pairs are compared, in the order of a full scan over i <= j, on
    the scan kernel's scaled ints.  The report is cached on the (immutable)
    algebra: check_malcev reads it for its note and QuadraticAlgebra.validate
    for its verdict.
    """
    if a._anti is not None:
        return a._anti
    n, kern = a.dim, _scan_kernel(a)
    pairs, par = kern.pairs, kern.par
    witnesses = []
    for i, j in sorted({(i, j) if i <= j else (j, i) for i, j in pairs}):
        s = -ksign(par[i] * par[j])
        if pairs.get((i, j), _EMPTY) != {
                k: s * c for k, c in pairs.get((j, i), _EMPTY).items()}:
            witnesses.append(Witness(
                (i, j), Element.sparse(n, a.basis_product(i, j)),
                Element.sparse(n, _vscale(a.basis_product(j, i), s))))
    a._anti = _report(witnesses)
    return a._anti


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
    j)]` is the scaled product b_i b_j, `rows[i]` maps j to the same vector
    and `columns[m]` lists the pairs ((i, j), c) whose product has c != 0
    at b_m.  `packed[(a, b)]` maps c to T(a, b, c), the sum over m of
    c(a, b, m) b_m b_c, packed from `base[a]`, the least index of a's
    block, and summed from the packed pair rows.  Only nonzero vectors are
    stored.
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
        rows, packed_rows = {}, {}
        for (i, j), vec in pairs.items():
            if i not in rows:
                rows[i], packed_rows[i] = {}, {}
            rows[i][j], packed_rows[i][j] = vec, _packed(vec, base[i], bits)
        packed, columns = {}, {}
        for key, vec in pairs.items():
            acc = {}
            for m, c in vec.items():
                columns.setdefault(m, []).append((key, c))
                for w, y in packed_rows.get(m, _EMPTY).items():
                    acc[w] = acc.get(w, 0) + c * y
            if acc and len(vec) > 1:
                acc = {w: y for w, y in acc.items() if y}
            if acc:
                packed[key] = acc
        self.pairs, self.rows, self.columns = pairs, rows, columns
        self.base, self.bits, self.packed = base, bits, packed

    @functools.cached_property
    def triples(self):
        """`packed` as {k: int} vectors, on first use by the operator and
        cocycle scans."""
        base, bits = self.base, self.bits
        return {key: {c: _unpacked(x, base[key[0]], bits)
                      for c, x in row.items()}
                for key, row in self.packed.items()}

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


def _scaled_element(n, vec, denom, fracs):
    """The Element of F^n with the coordinates c / denom of the int vector
    {k: c}, c != 0; fracs, local to the caller's call, keeps one Fraction
    per c."""
    entries = {}
    for k, c in vec.items():
        x = fracs.get(c)
        if x is None:
            x = fracs[c] = Fraction(c) if denom == 1 else Fraction(c, denom)
        entries[k] = x
    return Element.sparse(n, entries)


def _side_witnesses(n, lhs, rhs, lscale, rscale):
    """Witness(key, lhs, rhs) at each sorted key where the int vector sums
    lhs {key: {k: x}}, the left side times lscale, and rhs, the right side
    times rscale, differ as rationals.  Both are brought to the lcm of the
    two scales, compared there, and divided back only in a witness."""
    g = math.gcd(lscale, rscale)
    lmul, rmul = rscale // g, lscale // g
    denom, fracs = lscale * lmul, {}
    witnesses = []
    for key in sorted(lhs.keys() | rhs.keys()):
        left = {m: c * lmul for m, c in lhs.get(key, {}).items() if c}
        right = {m: c * rmul for m, c in rhs.get(key, {}).items() if c}
        if left != right:
            witnesses.append(Witness(
                key, _scaled_element(n, left, denom, fracs),
                _scaled_element(n, right, denom, fracs)))
    return witnesses


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


def _malcev_sums(kern: _ScanKernel):
    """{(i, j, k, l): the scaled lhs - rhs of the Malcev identity, packed},
    summed term by term at every quadruple where a term is nonzero."""
    par, columns = kern.par, kern.columns
    diff = {}
    # (b_i b_k)(b_j b_l) = sum over m of c(j, l, m) (b_i b_k) b_m
    for (i, k), trow in kern.packed.items():
        odd = par[k]
        for m, x in trow.items():
            for (j, l), c in columns.get(m, ()):
                key = (i, j, k, l)
                diff[key] = diff.get(key, 0) + (
                    -c if odd and par[j] else c) * x
    for p, q, r, row in _chain_rows(kern, False):
        for w, v in row.items():
            for key, s in _chain_keys(par, p, q, r, w):
                diff[key] = diff.get(key, 0) - s * v
    return diff


def _malcev_orbit_sums(kern: _ScanKernel):
    """{canonical key: the scaled lhs - rhs of the Malcev identity, packed}
    on a super-anticommutative algebra, where the canonical key of a
    quadruple is the least of its four rotations.  Each term is added only
    at the canonical key among the keys where it occurs; a chain term at a
    periodic key such as (i, j, i, j) lands there once per rotation that
    equals it, each time with that rotation's sign.  The chain product
    ((b_p b_q) b_r) b_w is formed only for p <= q, and serves (q, p, r, w)
    too: b_q b_p is b_p b_q times -(-1)^{|p||q|}."""
    par, columns = kern.par, kern.columns
    diff = {}
    for (i, k), trow in kern.packed.items():
        if k < i:  # (k, l, i, j) is less
            continue
        odd = par[k]
        for m, x in trow.items():
            for (j, l), c in columns.get(m, ()):
                if j < i or l < i:
                    continue
                key = (i, j, k, l)
                if i in (j, k, l) and key != min(
                        key, (j, k, l, i), (k, l, i, j), (l, i, j, k)):
                    continue
                diff[key] = diff.get(key, 0) + (
                    -c if odd and par[j] else c) * x
    for p0, q0, r, row in _chain_rows(kern, True):
        orders = [(p0, q0, -1)]
        if p0 < q0:
            orders.append((q0, p0, ksign(par[p0] * par[q0])))
        for p, q, f in orders:
            # the least rotation of (p, q, r, w) starts at w when w < lo,
            # and at lo when w > lo and lo occurs once in (p, q, r)
            x, y, z = par[p], par[q], par[r]
            lo = min(p, q, r)
            once = (p == lo) + (q == lo) + (r == lo) == 1
            for w, v in row.items():
                t = par[w]
                if w < lo:
                    entries = (((w, p, q, r), ksign(t * (x + y + z))),)
                elif w == lo or not once:  # ties: the least of the four
                    keys = _chain_keys(par, p, q, r, w)
                    least = min(keys)[0]
                    entries = [e for e in keys if e[0] == least]
                elif p == lo:
                    entries = (((p, q, r, w), 1),)
                elif r == lo:
                    entries = (((r, w, p, q), ksign((z + t) * (x + y))),)
                else:
                    entries = (((q, r, w, p), ksign(x * (y + z + t))),)
                for key, s in entries:
                    diff[key] = diff.get(key, 0) + f * s * v
    return diff


def _malcev_witnesses(kern: _ScanKernel, n, diff):
    """Witness(key, lhs, rhs) at each sorted key of diff {key: packed scaled
    lhs - rhs} where the difference is nonzero.  The lhs
    (-1)^{yz} (b_i b_k)(b_j b_l) is evaluated there, and rhs = lhs - diff."""
    par, pairs, packed = kern.par, kern.pairs, kern.packed
    base, bits = kern.base, kern.bits
    denom, fracs = kern.scale ** 3, {}
    witnesses = []
    for key in sorted(key for key, x in diff.items() if x):
        i, j, k, l = key
        trow = packed.get((i, k), _EMPTY)
        lhs = ksign(par[j] * par[k]) * sum(
            c * trow.get(m, 0) for m, c in pairs.get((j, l), _EMPTY).items())
        witnesses.append(Witness(
            key, _scaled_element(n, _unpacked(lhs, base[i], bits), denom,
                                 fracs),
            _scaled_element(n, _unpacked(lhs - diff[key], base[i], bits),
                            denom, fracs)))
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
    n, kern = a.dim, _scan_kernel(a)
    if not check_super_anticommutativity(a).passed:
        return _report(_malcev_witnesses(kern, n, _malcev_sums(kern)),
                       ["super-anticommutativity fails; identity scan is "
                        "reported but may be meaningless"])
    if check_jacobi(a).passed:
        return _report(())
    diff = {}
    for key, x in _malcev_orbit_sums(kern).items():
        if x:
            for rot, s in _rotations(kern.par, key).items():
                diff[rot] = s * x
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
    n, kern = a.dim, _scan_kernel(a)
    par = kern.par
    sums = {}
    for (p, q), trow in kern.packed.items():
        for r, x in trow.items():
            # (b_p b_q) b_r is (XY)Z at (p, q, r), (YZ)X at (r, p, q) and
            # (ZX)Y at (q, r, p); each time its sign is (-1)^{p(p) p(r)}
            s = ksign(par[p] * par[r])
            if p < q and p < r:
                key = (p, q, r)
            elif q < r and q < p:
                key = (q, r, p)
            elif r < p and r < q:
                key = (r, p, q)
            elif p == q == r:
                key, s = (p, p, p), 3 * s
            else:  # the least index occurs twice
                key = min((p, q, r), (r, p, q), (q, r, p))
            sums[key] = sums.get(key, 0) + s * x
    denom, fracs = kern.scale ** 2, {}
    zero = Element.zero(n)
    witnesses = []
    for key, x in sums.items():
        if x:
            value = _scaled_element(
                n, _unpacked(x, kern.base[key[0]], kern.bits), denom, fracs)
            witnesses += [Witness(rot, value, zero)
                          for rot in _rotations(par, key)]
    witnesses.sort(key=lambda w: w.index)
    a._jacobi = _report(witnesses)
    return a._jacobi


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
    echelon `rows` as Fractions and the dense `columns` are derived views."""

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

    @functools.cached_property
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

    @property
    def columns(self):
        return tuple(linalg.dense(row, self.space.dim) for row in self.rows)

    def even_columns(self):
        return list(self.columns[:self._evens])

    def odd_columns(self):
        return list(self.columns[self._evens:])

    def contains(self, vector):
        return self._span.contains(_vector(self.space.dim, vector))

    def __eq__(self, other):
        return (isinstance(other, GradedSubspace)
                and self.space == other.space and self.key == other.key)

    def __repr__(self):
        return "GradedSubspace(dim=%d of %d)" % (self.dim, self.space.dim)


def center(a: SuperAlgebra) -> GradedSubspace:
    """{X : b_j X = 0 for all j}, one sparse kernel; each row (j, k) of the
    system meets one parity, so the kernel vectors are homogeneous."""
    if a._center is None:
        rows = {}  # (j, k) -> {i: D c(j, i, k)}, for b_k in b_j X
        for (j, i), vec in a.int_table()[1].items():
            for k, c in vec.items():
                rows.setdefault((j, k), {})[i] = c
        a._center = GradedSubspace(
            a.space, linalg.int_kernel(list(rows.values()), a.dim))
    return a._center


def ideal_closure(a: SuperAlgebra, seed: GradedSubspace) -> GradedSubspace:
    """Smallest graded two-sided multiplication-closed subspace over seed.

    Int rows times the int table, b_j v then v b_j for each j.  Memoized
    on the (immutable) algebra by the seed's key; the result is stored
    under its own key too, since an ideal is its own closure.  A seed in
    another space raises InputError.
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
            left, right = {}, {}  # j -> b_j v, v b_j
            for i, x in v.items():
                for j, vec in rights.get(i, _EMPTY).items():
                    _add(left, j, vec, x)
                for j, vec in lefts.get(i, _EMPTY).items():
                    _add(right, j, vec, x)
            for j in range(a.dim):
                for prod in (left.get(j), right.get(j)):
                    if prod and span.add(prod):
                        work.append(prod)
        # the seeds and their products with basis vectors are homogeneous,
        # so the reduced rows are too
        closed = GradedSubspace.__new__(GradedSubspace)._store(a.space, span)
        a._closures[seed.key] = closed
        a._closures.setdefault(closed.key, closed)
    return closed


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
    """The constants of a in the basis b'_1..b'_k given as k <= n columns,
    lists or sparse dicts.

    This is the one routine that rewrites constants in a basis: a full
    change of basis when k = n, the algebra on a subspace when k < n.  The
    columns must be independent (InputError), homogeneous and ordered
    even-first (GradingError); the result lives on their (p|k-p) space and
    keeps a's name unless one is given.  The products of the columns,
    scaled by L, the lcm of their denominators, are the int table pulled
    back along them (linalg.pulled_back), D L^2 times the true ones.  One
    `linalg.Span` of the rows [C^T | I], C the n x k matrix of the columns,
    reduces each product w to (w - C x | -x) times its multiplier m, which
    is (0 | -x) exactly when w = C x lies in the span, so the constants are
    divided back by D L^2 m once; when k < n a product outside the span
    means that the subspace is not closed, and raises PreconditionError.
    """
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
    constants = {}
    d, pairs = a.int_table()
    denom = d * scale ** 2
    for (i, j), w in sorted(linalg.pulled_back(pairs, cols).items()):
        mult, rest = span.int_reduce(w)
        if min(rest) < n:
            raise PreconditionError("subspace is not closed under the "
                                    "product")
        for m in sorted(rest):
            constants[(i, j, m - n)] = Fraction(-rest[m], denom * mult)
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
    {n*row + column: value}, from the int table: the constants times the
    lcm of their denominators, which generate the same algebra, reduced
    mod p when p > 0."""
    n = a.dim
    left = [{} for _ in range(n)]
    right = [{} for _ in range(n)]
    for (i, j), vec in a.int_table()[1].items():
        for k, x in vec.items():
            if x := x % p if p else x:
                left[i][k * n + j] = x
                right[j][k * n + i] = x
    return left + right


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
    if not center(a).dim and _full_multiplication_algebra_mod_p(a):
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
