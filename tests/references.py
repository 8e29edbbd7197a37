"""Old bodies of the package, kept as references for the tests.

- `_mul_vv` and `_mul_vb`, the products on the Fraction pair table.  The
  package forms every product on the int table (`core._product`).
- `_multiplication_generators`, `_odd_action_matrices` and
  `_enveloping_basis` on flat n x n matrices {n*row + column: value}.  The
  package keeps its generators as column maps {column: {row: value}} and
  leaves the flat layout to `linalg`.
- `report`, `malcev_witnesses` and `jacobi_witnesses`, the eager witness
  lists.  The package keeps each failing report's keys and builds a
  witness only when it is read (`core.Witnesses`).
- `restricted`, the form on the span of some columns, C^T G C on ints,
  once `BilinearForm._restricted`.  The package pulls the int Gram back
  along the int columns of its one basis rewrite (`quadratic._rewrite`)
  and cuts each piece's Gram from it by index.
- `dense_gram`, C^T G C on dense lists of Fraction, the Gram that
  `tests/test_inherited_validation.py` rewrites its references with.
- `_vadd`, `_vscale` and `basis_product`, sparse Fraction vector sums,
  multiples and the Fraction product of two basis vectors, which the
  reference loop nests are written in.  The package keeps one int table
  and sums vectors with `linalg.combine`.

pytest does not collect this file; the test modules import it.
"""

from fractions import Fraction

from qmalcev.core import (_EMPTY, CheckReport, Element, Witness, _rotations,
                          _scan_kernel, _unpacked, ksign)
from qmalcev.linalg import ONE, ZERO, Span, dense, pulled_back, scaled, sparse
from qmalcev.quadratic import BilinearForm


def _vadd(acc, vec, scale=ONE):
    """acc += scale * vec in place for sparse vectors, dropping zeros."""
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
    """scale * vec for a sparse vector, as a new dict without zeros."""
    if scale == 1:
        return dict(vec)
    return {k: scale * c for k, c in vec.items()} if scale != 0 else {}


def basis_product(a, i, j):
    """b_i b_j as a sparse vector of Fractions, off the pair table."""
    return a.pair_table().get((i, j), {})


def report(witnesses, notes=()):
    """The CheckReport that holds the built witnesses as a tuple."""
    return CheckReport(passed=not witnesses, witnesses=tuple(witnesses),
                       notes=tuple(notes))


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


def malcev_witnesses(kern, n, diff):
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


def jacobi_witnesses(a):
    """Witness(rot, value, 0) at every rotation of each triple whose Jacobi
    sum is nonzero, one value Element per orbit, sorted by index: each term
    (b_p b_q) b_r of the scan kernel added once, at the least of its
    rotations, as `core.check_jacobi` adds it."""
    n, kern = a.dim, _scan_kernel(a)
    par = kern.par
    sums = {}
    for (p, q), trow in kern.packed.items():
        for r, x in trow.items():
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
    return witnesses


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


def restricted(form, columns):
    """The form on the span of the given columns, C^T G C: the entries as a
    map to a line pulled back along the columns' nonzeros, on ints (G
    scaled by E and the columns by L, divided back by E L^2)."""
    gscale, table, _rows, _cols = form.int_gram
    cscale, vecs = scaled(dict(enumerate(map(sparse, columns))))
    denom = gscale * cscale ** 2
    return BilinearForm.from_entries(
        len(vecs), {key: Fraction(vec[0], denom)
                    for key, vec in pulled_back(table, vecs).items()})


def dense_gram(gram, columns):
    """C^T G C for the dense n x n matrix gram and k columns, lists or
    sparse dicts, as a k x k list of rows of Fraction."""
    n = len(gram)
    cols = [dense(sparse(c), n) for c in columns]
    return [[sum((ci[r] * gram[r][s] * cj[s] for r in range(n)
                  for s in range(n)), ZERO) for cj in cols] for ci in cols]
