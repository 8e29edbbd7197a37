"""Exact linear algebra over the rationals, and ranks modulo a prime.

Matrices handed in and out are lists of rows of Fraction, vectors are lists
of Fraction, and every operation is exact; there are no floats anywhere.
Every elimination (RREF, rank, kernel, solve, inverse, determinant, spans)
runs on one sparse eliminator, `Span`: its rows are {column: value} dicts
kept in reduced echelon form, with a 1 at each pivot and a 0 at every other
pivot.  The reduced echelon form of a row space is unique, so every basis,
kernel, solution, inverse and determinant is the same whatever order the
rows go in.

The field is given by a modulus p alone.  p = 0 is Q, with Fraction
entries; a prime p gives int entries reduced with % p and pivots inverted
with pow(x, -1, p).  Mod p only ranks are read, and only where they lift
to Q: an integer matrix of rank r mod p has an r x r minor that is nonzero
mod p, hence nonzero over Z, so its rank over Q is at least r.
"""

from __future__ import annotations

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


def zeros(n):
    return [ZERO] * n


def zero_matrix(rows, cols):
    return [[ZERO] * cols for _ in range(rows)]


def identity(n):
    m = zero_matrix(n, n)
    for i in range(n):
        m[i][i] = ONE
    return m


def transpose(m):
    if not m:
        return []
    return [list(col) for col in zip(*m)]


def mat_vec(m, v):
    return [sum((row[j] * v[j] for j in range(len(v))), ZERO) for row in m]


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


def _subtract(v, f, row, p):
    """v -= f * row in place, mod p when p > 0, dropping zeros."""
    for c, y in row.items():
        x = v.get(c, 0) - f * y
        if p:
            x %= p
        if x:
            v[c] = x
        else:
            v.pop(c, None)


class Span:
    """Incrementally maintained reduced span of vectors over Q (p = 0) or
    modulo the prime p.

    This is the package's one eliminator.  Each row is a {column: value}
    dict with a 1 at its pivot, which is its first column, and a 0 at every
    other pivot; sorted by pivot, the rows are the reduced row echelon form
    of what was added.  Vectors go in as lists or dicts, with int entries
    mod p.  Since the rows vanish at each other's pivots, a vector v of the
    span is the sum of v[c] times the row of pivot c.
    """

    def __init__(self, n, p=0):
        self.n = n
        self.p = p
        self._rows = {}  # pivot column -> reduced row

    def reduce(self, v):
        """v minus its component in the span, as a sparse dict that
        vanishes at every pivot."""
        v = sparse(v, self.p)
        for c in [c for c in v if c in self._rows]:
            _subtract(v, v[c], self._rows[c], self.p)
        return v

    def add(self, v):
        """Insert v.  When the span grew, return (pivot column, value of
        the reduced v there before it was scaled to 1); else None."""
        v = self.reduce(v)
        if not v:
            return None
        p = self.p
        lead = min(v)
        x = v[lead]
        if p:
            inv = pow(x, -1, p)
            v = {c: y * inv % p for c, y in v.items()}
        else:
            inv = ONE / x
            v = {c: y * inv for c, y in v.items()}
        for row in self._rows.values():
            f = row.get(lead)
            if f:
                _subtract(row, f, v, p)
        self._rows[lead] = v
        return lead, x

    def contains(self, v):
        return not self.reduce(v)

    @property
    def dim(self):
        return len(self._rows)

    def pivot_columns(self):
        return sorted(self._rows)

    def vectors(self):
        """The rows as dense lists, in increasing pivot order."""
        return [[self._rows[c].get(i, ZERO) for i in range(self.n)]
                for c in self.pivot_columns()]


def _row_span(m, cols):
    span = Span(cols)
    for row in m:
        span.add(row)
    return span


def rref(m):
    """Reduced row echelon form. Returns (new matrix, pivot column list)."""
    cols = len(m[0]) if m else 0
    span = _row_span(m, cols)
    return (span.vectors() + zero_matrix(len(m) - span.dim, cols),
            span.pivot_columns())


def rank(m):
    return len(rref(m)[1])


def kernel(m, cols=None):
    """Basis of the right null space, one vector per free column.  Rows
    may be lists or sparse dicts; cols is required when they are dicts."""
    if cols is None:
        cols = len(m[0]) if m else 0
    return [[v.get(c, ZERO) for c in range(cols)]
            for v in sparse_kernel(m, cols)]


def sparse_kernel(m, cols):
    """`kernel` as sparse {column: value} dicts, in free-column order: the
    vector of free column f is 1 at f and -row[f] at each pivot row's
    pivot, read off the reduced rows' nonzeros."""
    rows = _row_span(m, cols)._rows
    basis = {f: {f: ONE} for f in range(cols) if f not in rows}
    for pc, row in rows.items():
        for c, x in row.items():
            if c != pc:
                basis[c][pc] = -x
    return list(basis.values())


def basis_vector(n, i):
    v = zeros(n)
    v[i] = ONE
    return v


def solve(m, b):
    """One exact solution of m x = b, or None when inconsistent."""
    if not m:
        return [] if is_zero_vec(b) else None
    n = len(m[0])
    rows = _row_span([list(r) + [x] for r, x in zip(m, b)], n + 1)._rows
    if n in rows:
        return None
    x = zeros(n)
    for pc, row in rows.items():
        x[pc] = row.get(n, ZERO)
    return x


def inverse(m):
    n = len(m)
    span = _row_span([list(r) + basis_vector(n, i) for i, r in enumerate(m)],
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


def column_echelon_columns(vectors):
    """Deterministic reduced basis of the span of the given vectors.

    Input and output vectors are coordinate lists; the output columns are
    the nonzero rows of the RREF of the stacked input, so pivots appear in
    increasing coordinate order ("first" column = smallest pivot index).
    """
    return _row_span(vectors, len(vectors[0]) if vectors else 0).vectors()
