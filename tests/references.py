"""Old bodies of the package, kept as references for the tests.

- `_mul_vv` and `_mul_vb`, the products on the Fraction pair table.  The
  package forms every product on the int table (`core._product`).
- `_multiplication_generators`, `_odd_action_matrices` and
  `_enveloping_basis` on flat n x n matrices {n*row + column: value}.  The
  package keeps its generators as column maps {column: {row: value}} and
  leaves the flat layout to `linalg`.

pytest does not collect this file; the test modules import it.
"""

from qmalcev.core import _vadd
from qmalcev.linalg import ONE, Span, sparse


def _mul_vv(a, u, v):
    """Product of two sparse vectors."""
    pairs = a.pair_table()
    out = {}
    for i, ci in u.items():
        for j, cj in v.items():
            pv = pairs.get((i, j))
            if pv:
                _vadd(out, pv, ci * cj)
    return out


def _mul_vb(a, u, j):
    """u . b_j for a sparse vector u."""
    return _mul_vv(a, u, {j: ONE})


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


def _odd_action_matrices(a):
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


def _enveloping_basis(gens, n, p=0):
    """Basis of the unital associative algebra generated by the given sparse
    n x n matrices {n*row + column: value}, over Q or modulo the prime p:
    the identity, closed under left products with the generators, stopping
    as soon as the span reaches n^2."""
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
            prod = sparse(prod, p)
            if span.add(prod):
                basis.append(prod)
                if len(basis) == n * n:
                    return basis
                work.append(prod)
    return basis
