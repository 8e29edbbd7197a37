"""Exact linear algebra over the rationals, and ranks modulo a prime.

Vectors are sparse {column: value} dicts, or dense lists where a caller
has one, and every operation is exact; there are no floats anywhere.
Every elimination runs on one sparse eliminator, `Span`: its rows are int
{column: value} dicts, each a nonzero multiple of a row of the reduced
echelon form, so 0 at every other pivot.  The reduced echelon form of a
row space is unique, so every basis, kernel, solution, inverse and
determinant is the same whatever order the rows go in.  The package
reads spans, ranks and kernels off `Span`, `row_span`, `sparse_kernel`
and `int_kernel`.  The dense routines on lists of rows (`mat_mul`,
`transpose`, `inverse`, `kernel`, `solve`, `det`) have no caller in the
package; they stay because the benchmark harness imports `inverse` and
times them by name.

The field is given by a modulus p alone.  p = 0 is Q: vectors go in with
Fraction or int entries, their denominators are cleared (`cleared`,
`scaled`), and the elimination is fraction-free (Bareiss, Math. Comp. 22
(1968)), on primitive int rows; Fractions are formed only where a caller
reads a reduced row, a reduction or a kernel vector.  Callers that only
need the subspace read the int rows (`Span.int_rows`, `int_kernel`) and
feed the span int products.  A prime p gives int entries reduced with
% p and pivots inverted with pow(x, -1, p).  Mod p only ranks are read,
and only where they lift to Q: an integer matrix of rank r mod p has an
r x r minor that is nonzero mod p, hence nonzero over Z, so its rank over
Q is at least r.
"""

from __future__ import annotations

import math
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    """Coerce ints, strings like '3/4', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError("cannot interpret %r as an exact rational" % (x,))


def transpose(m):
    if not m:
        return []
    return [list(col) for col in zip(*m)]


def mat_mul(a, b):
    if not a or not b:
        return [[] for _ in a]
    bt = transpose(b)
    return [[sum((ra[k] * cb[k] for k in range(len(ra))), ZERO) for cb in bt]
            for ra in a]


def is_zero_vec(u):
    return all(a == 0 for a in u)


def sparse(v, p=0):
    """The vector v, a list or a {column: value} dict, as a dict without
    zeros; mod p > 0 its int entries are reduced to 0 <= x < p."""
    items = v.items() if isinstance(v, dict) else enumerate(v)
    if p:
        return {c: x % p for c, x in items if x % p}
    return {c: x for c, x in items if x}


def dense(v, n):
    """The sparse vector v {column: value} as a tuple of n entries."""
    out = [ZERO] * n
    for c, x in v.items():
        out[c] = x
    return tuple(out)


def cleared(v):
    """(L, L v) for the vector v, a list or a {column: value} dict of ints
    and Fractions: L is the lcm of the denominators and L v a sparse int
    dict."""
    v = sparse(v)
    for x in v.values():
        if type(x) is not int:
            break
    else:
        return 1, v
    scale = math.lcm(*(x.denominator for x in v.values()))
    return scale, {c: x.numerator * (scale // x.denominator)
                   for c, x in v.items()}


def scaled(table):
    """D, the lcm of the denominators in the sparse vectors {key: {k: x}},
    and D times each vector as ints."""
    scale = math.lcm(*(x.denominator for vec in table.values()
                       for x in vec.values()))
    return scale, {key: {k: x.numerator * (scale // x.denominator)
                         for k, x in vec.items()}
                   for key, vec in table.items()}


def pulled_back(table, cols):
    """{(i, j): sum over (s, t) of cols[i][s] cols[j][t] table[(s, t)]}, the
    bilinear map table {(s, t): {k: x}} on basis pairs at the pairs of
    sparse vectors cols {i: {s: x}}; nonzero entries only.  This is the one
    basis rewrite, of a pair table (core.change_basis) and of a form's
    entries as a map to a line (BilinearForm.restrict), both on ints.  The
    work follows the nonzeros of the table and of the vectors."""
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


def _add(sums, key, vec, s):
    """sums[key] += s * vec for a sparse vector vec; zeros are kept."""
    acc = sums.setdefault(key, {})
    for m, c in vec.items():
        acc[m] = acc.get(m, 0) + s * c


def _subtract(v, f, row, p):
    """v -= f * row in place, mod p, dropping zeros."""
    for c, y in row.items():
        x = (v.get(c, 0) - f * y) % p
        if x:
            v[c] = x
        else:
            v.pop(c, None)


def _eliminate(v, row, c):
    """v <- d v - x row in place for the int dicts v and row, with d and x
    their entries at c divided by gcd(v[c], row[c]), so that v vanishes at
    c; zeros are dropped.  Returns d, which is positive when row[c] is."""
    d, x = row[c], v[c]
    g = math.gcd(x, d)
    if g != 1:
        d, x = d // g, x // g
    if d != 1:
        for k in v:
            v[k] *= d
    for k, y in row.items():
        z = v.get(k, 0) - x * y
        if z:
            v[k] = z
        else:
            del v[k]
    return d


def _primitive(v, c):
    """v divided in place by the gcd of its entries, signed so that v[c]
    is positive."""
    g = math.gcd(*v.values())
    if v[c] < 0:
        g = -g
    if g != 1:
        for k in v:
            v[k] //= g


class Span:
    """Incrementally maintained reduced span of vectors over Q (p = 0) or
    modulo the prime p.

    This is the package's one eliminator.  Vectors go in as lists or
    dicts, with Fraction or int entries over Q and int entries mod p, and
    each row is an int dict whose pivot, its first column, is nonzero,
    with a 0 at every other pivot; sorted by pivot, the rows are the
    reduced row echelon form of what was added, each row times one
    nonzero scale.  Mod p that scale is 1.  Over Q each row is primitive:
    positive at its pivot, with the gcd of its entries 1, which makes it
    the one such multiple of its echelon row.  The elimination is
    fraction-free: v is reduced by the row r of pivot c as
    v <- d v - x r, with d = r[c] and x = v[c] both divided by their gcd,
    and the product of the d's is kept, so `reduce` and `add` still
    return exact Fractions.
    """

    def __init__(self, n, p=0):
        self.n = n
        self.p = p
        self._rows = {}  # pivot column -> row

    def int_reduce(self, v):
        """(s, w) over Q: w / s is `reduce(v)`, w a sparse int dict that
        vanishes at every pivot and s a positive int, the lcm of v's
        denominators times the product of the d's."""
        s, v = cleared(v)
        rows = self._rows
        for c in [c for c in v if c in rows]:
            s *= _eliminate(v, rows[c], c)
        return s, v

    def reduce(self, v):
        """v minus its component in the span, as a sparse dict that
        vanishes at every pivot; Fraction entries over Q."""
        p = self.p
        if p:
            v = sparse(v, p)
            for c in [c for c in v if c in self._rows]:
                _subtract(v, v[c], self._rows[c], p)
            return v
        s, v = self.int_reduce(v)
        return {c: Fraction(x, s) for c, x in v.items()}

    def add(self, v):
        """Insert v.  When the span grew, return (pivot column, value of
        the reduced v there); else None."""
        p = self.p
        if p:
            v = self.reduce(v)
            if not v:
                return None
            lead = min(v)
            x = v[lead]
            inv = pow(x, -1, p)
            v = {c: y * inv % p for c, y in v.items()}
            for row in self._rows.values():
                f = row.get(lead)
                if f:
                    _subtract(row, f, v, p)
            self._rows[lead] = v
            return lead, x
        s, v = self.int_reduce(v)
        if not v:
            return None
        lead = min(v)
        x = v[lead]
        _primitive(v, lead)
        for c, row in self._rows.items():
            if lead in row:
                _eliminate(row, v, lead)
                _primitive(row, c)
        self._rows[lead] = v
        return lead, Fraction(x) if s == 1 else Fraction(x, s)

    def contains(self, v):
        if self.p:
            return not self.reduce(v)
        return not self.int_reduce(v)[1]

    @property
    def dim(self):
        return len(self._rows)

    def pivot_columns(self):
        return sorted(self._rows)

    def int_rows(self):
        """The rows as the span keeps them, in increasing pivot order.
        They are its own dicts, which a later `add` reduces in place."""
        return [self._rows[c] for c in self.pivot_columns()]

    def rows(self):
        """The reduced echelon rows, 1 at each pivot, in increasing pivot
        order; over Q as new dicts of Fractions."""
        if self.p:
            return self.int_rows()
        return [{k: Fraction(y, row[c]) for k, y in row.items()}
                for c, row in zip(self.pivot_columns(), self.int_rows())]

    def vectors(self):
        """The reduced echelon rows as dense lists, in increasing pivot
        order."""
        return [list(dense(row, self.n)) for row in self.rows()]


def row_span(m, cols, p=0):
    """The Span of the rows m, lists or dicts, over Q or modulo p."""
    span = Span(cols, p)
    for row in m:
        span.add(row)
    return span


def kernel(m, cols=None):
    """Basis of the right null space, one vector per free column.  Rows
    may be lists or sparse dicts; cols is required when they are dicts."""
    if cols is None:
        cols = len(m[0]) if m else 0
    return [list(dense(v, cols)) for v in sparse_kernel(m, cols)]


def sparse_kernel(m, cols):
    """`kernel` as sparse {column: value} dicts, in free-column order: the
    vector of free column f is 1 at f and -row[f] / row[c] at the pivot c
    of each row, `int_kernel`'s vector divided by its value at f, its
    first key."""
    out = []
    for vec in int_kernel(m, cols):
        scale = next(iter(vec.values()))
        out.append({c: Fraction(x, scale) for c, x in vec.items()})
    return out


def int_kernel(m, cols):
    """A basis of the right null space of the rows m, one int vector per
    free column f, read off the rows' nonzeros: L at f and
    -row[f] L / row[c] at the pivot c of each row, where L is the lcm of
    the row[c] with row[f] != 0."""
    rows = row_span(m, cols)._rows
    basis = {f: [] for f in range(cols) if f not in rows}
    for pc, row in rows.items():
        for c, x in row.items():
            if c != pc:
                basis[c].append((pc, x, row[pc]))
    out = []
    for f, entries in basis.items():
        scale = math.lcm(*(d for _pc, _x, d in entries))
        vec = {f: scale}
        for pc, x, d in entries:
            vec[pc] = -x * (scale // d)
        out.append(vec)
    return out


def basis_vector(n, i):
    return list(dense({i: ONE}, n))


def solve(m, b):
    """One exact solution of m x = b, or None when inconsistent."""
    if not m:
        return [] if is_zero_vec(b) else None
    n = len(m[0])
    rows = row_span([list(r) + [x] for r, x in zip(m, b)], n + 1)._rows
    if n in rows:
        return None
    return list(dense({pc: Fraction(row.get(n, 0), row[pc])
                       for pc, row in rows.items()}, n))


def inverse(m):
    n = len(m)
    span = row_span([list(r) + basis_vector(n, i) for i, r in enumerate(m)],
                    2 * n)
    if span.pivot_columns() != list(range(n)):
        return None
    return [row[n:] for row in span.vectors()]


def det(m):
    """The product of the pivot values met as the rows go in, times the
    sign of the permutation taking each row to its pivot column.  Reducing
    a row subtracts earlier rows only, which keeps the determinant, and
    leaves it zero at every earlier pivot, so the reduced rows with their
    pivot columns put in row order form a triangular matrix."""
    span = Span(len(m))
    d = ONE
    leads = []
    for row in m:
        pivot = span.add(row)
        if pivot is None:
            return ZERO
        leads.append(pivot[0])
        d *= pivot[1]
    inversions = sum(1 for i, x in enumerate(leads) for y in leads[i + 1:]
                     if x > y)
    return -d if inversions & 1 else d

