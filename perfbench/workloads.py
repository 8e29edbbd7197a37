"""Seeded job lists for the three benchmark workloads.

Every job is one `qmalcev` command line run on a document or tree text
fed on stdin.  The inputs are built from catalog leaves through the
package's public API; the seed changes leaf parameters, the values of the
disguising basis change and the job order, but never the template list,
the summand order or where a basis change or a defect sits, so each seed
asks for about the same amount of work.  No two jobs of one list share an input
text, and every job parses its own text, so no cache inside the package
can carry work from one job to the next.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from qmalcev import (EVEN, DecompositionTree, OperatorMap, QuadraticAlgebra,
                     SuperAlgebra, SumNode, catalog_get,
                     direct_sum_quadratic, double_extension_even,
                     emit_document, emit_tree, inductive_decompose)
from qmalcev.linalg import ONE, ZERO, inverse
from qmalcev.quadratic import BilinearForm

WORKLOADS = ("check", "decompose", "rebuild")

# Small rationals for catalog parameters and basis changes.  +-1 is left
# out: example_gde with m = +-1 decomposes in half the time, so a seed
# that drew it would ask for less work.
_SCALARS = tuple(Fraction(x) for x in
                 ("2", "-2", "1/2", "-1/2", "3", "-3", "2/3", "-3/2"))

# Leaf names: catalog names, gdeN = example_gde(N) with seeded m, oscK =
# even double extension of abelian(2K, 0), abPQ = abelian(P, Q); a
# trailing * puts the leaf in a seeded basis, a trailing ~ rescales its
# basis vectors by seeded scalars (same sparsity, other values).
#
# A run repeats the whole job list and takes each job's median over the
# passes (see worker.py), so the lists are kept short (1-2 s a pass) for a
# dozen or more passes to fit in one run.
#
# check: leaves and sums of two, dimension 5-8, each with the number of
# entries of its disguising basis change.  Each template runs four times:
# plain, plain with a dropped constant, disguised, disguised.  So half the
# inputs are disguised and a quarter are defective.
CHECK_TEMPLATES = (
    (("sl2", "sl2"), 2),              # 6
    (("osp12",), 2),                  # 5
    (("gde2",), 2),                   # 7
    (("sl2", "gde1"), 2),             # 8
    (("m7",), 1),                     # 7
    (("gde_abelian12",), 2),          # 5
    (("osc2",), 2),                   # 6
    (("gde1", "ab10"), 2),            # 6
)
CHECK_VARIANTS = ((False, False), (False, True), (True, False), (True, False))

# decompose: dimension 3-6, with the number of jobs per template:
# simplicity certificates of sl2 (some in a seeded basis), the splitting
# search, odd reductions (example_gde) and even reductions (oscillators).
# The simple superalgebras are left out: osp12 takes about 0.3 s, a
# fifth of a pass on its own, and m7 about 6 s (its certificate closes
# the multiplication algebra to dimension 49).
DECOMPOSE_TEMPLATES = (
    (("osc1",), 4),                   # 4
    (("osc1", "ab10"), 4),            # 5
    (("gde_abelian12~",), 4),         # 5
    (("gde1",), 4),                   # 5
    (("sl2~",), 4),                   # 3
    (("sl2~", "ab10"), 4),            # 4
    (("sl2*",), 3),                   # 3
    (("gde1", "ab10"), 2),            # 6
)

# rebuild: a sum root over two decomposed pieces, disguised at the root
# by a basis change with REBUILD_ENTRIES entries, with the number of jobs
# per template.  The odd pieces are chains of depth n+1 (example_gde(n)),
# the even ones an even double extension over a sum of lines.
REBUILD_TEMPLATES = (
    (("sl2", "ab10"), 6),             # 4
    (("sl2", "ab02"), 4),             # 5
    (("osc1", "ab10"), 5),            # 5
    (("gde1", "ab10"), 4),            # 6
    (("gde_abelian12", "ab10"), 3),   # 6
    (("gde2", "ab10"), 2),            # 8
)
REBUILD_ENTRIES = 2

SMOKE_TEMPLATES = {
    "check": ((("sl2", "gde1"), 2), (("osp12", "ab20"), 2)),
    "decompose": ((("sl2", "ab10"), 1), (("gde1",), 1)),
    "rebuild": ((("gde1", "sl2"), 1), (("osc1", "ab02"), 1)),
}


@dataclass(frozen=True)
class Job:
    """One CLI call: argv, stdin text and what a correct run returns."""

    argv: tuple
    stdin: str
    expect_exit: int
    dim: int
    nnz: int
    expect_stdout: str = None     # exact output, when known in advance
    dropped: tuple = None         # (i, j) of a removed constant


def _rational(rng):
    return rng.choice(_SCALARS)


class _Leaves:
    """Catalog leaves with seeded parameters, a few variants per kind."""

    def __init__(self, rng, variants=2):
        self.rng = rng
        self.variants = variants
        self._made = {}

    def get(self, name):
        key = (name, self.rng.randrange(self.variants))
        if key not in self._made:
            self._made[key] = self._build(name)
        return self._made[key]

    def _build(self, name):
        if name.endswith("~"):
            base = self._build(name[:-1])
            n = base.dim
            return rewrite(base, [[_rational(self.rng) if r == c else ZERO
                                   for r in range(n)] for c in range(n)])
        if name.endswith("*"):
            base = self._build(name[:-1])
            return rewrite(base, _unitriangular(self.rng, base.space, 2,
                                                _SCALARS))
        if name.startswith("gde") and name[3:].isdigit():
            n = int(name[3:])
            m = tuple(_rational(self.rng) for _ in range(n))
            return catalog_get("example_gde", n=n, m=m).algebra
        if name.startswith("osc"):
            return self._oscillator(int(name[3:]))
        if name.startswith("ab"):
            return catalog_get("abelian", p=int(name[2]),
                               q=int(name[3])).algebra
        return catalog_get(name).algebra

    def _oscillator(self, k):
        """Even double extension of abelian(2k, 0) by seeded rotations."""
        n = 2 * k
        rows = [[ZERO] * n for _ in range(n)]
        for t in range(k):
            c = _rational(self.rng)
            rows[2 * t + 1][2 * t] = c
            rows[2 * t][2 * t + 1] = -c
        base = catalog_get("abelian", p=n, q=0).algebra
        out, _ = double_extension_even(base, OperatorMap(rows, EVEN))
        return out


def _direct_sum(parts):
    acc = parts[0]
    for nxt in parts[1:]:
        acc = direct_sum_quadratic(acc, nxt)
    return acc


def _renamed(q, name):
    alg = SuperAlgebra(q.algebra.space, q.algebra.constants, name=name)
    return QuadraticAlgebra(alg, q.form, validated=q.validated)


def _unitriangular(rng, space, entries, values=(1, -1, 2, -2)):
    """Columns of I + N: N has seeded `values` at the first `entries`
    superdiagonal places inside the parity blocks, so the pattern, and with
    it the work a scan does, is the same for every seed.  Always
    invertible."""
    n = space.dim
    slots = [(i, i + 1) for blk in (space.even_indices(),
                                    space.odd_indices())
             for i in list(blk)[:-1]]
    cols = [[ONE if r == c else ZERO for r in range(n)] for c in range(n)]
    for i, j in slots[:entries]:
        cols[j][i] = Fraction(rng.choice(values))
    return cols


def rewrite(q, cols):
    """q in the basis whose vectors are the given columns (sparse)."""
    n = q.dim
    inv = inverse([[cols[j][i] for j in range(n)] for i in range(n)])
    inv_rows = [{c: v for c, v in enumerate(row) if v} for row in inv]
    vecs = [{r: v for r, v in enumerate(col) if v} for col in cols]
    pairs = q.algebra.pair_table()
    constants = {}
    for i in range(n):
        for j in range(n):
            w = {}
            for a, ca in vecs[i].items():
                for b, cb in vecs[j].items():
                    for k, c in pairs.get((a, b), {}).items():
                        w[k] = w.get(k, ZERO) + ca * cb * c
            w = {k: v for k, v in w.items() if v}
            for k in range(n):
                s = sum((inv_rows[k].get(r, ZERO) * v
                         for r, v in w.items()), ZERO)
                if s:
                    constants[(i, j, k)] = s
    g = q.form.gram
    gram = [[sum((ca * g[a][b] * cb for a, ca in vecs[i].items()
                  for b, cb in vecs[j].items()), ZERO)
             for j in range(n)] for i in range(n)]
    alg = SuperAlgebra(q.space, constants, name=q.name)
    return QuadraticAlgebra(alg, BilinearForm(gram), validated=q.validated)


def _drop_one(constants):
    """Remove the first constant (i,j,k), i != j, of its pair (i,j,k)/(j,i,k):
    anticommutativity fails at (min(i,j), max(i,j)) by construction."""
    i, j, k = min(key for key in constants if key[0] != key[1])
    out = dict(constants)
    del out[(i, j, k)]
    return out, (min(i, j), max(i, j))


def _nnz(q):
    return len(q.algebra.constants)


def _table_key(q):
    return (tuple(sorted(q.algebra.constants.items())), q.form.gram)


def _fresh(make, seen):
    """Draw (algebra, extra) from make() until the structure constants and
    Gram matrix differ from every earlier job's."""
    for _ in range(50):
        q, extra = make()
        key = _table_key(q)
        if key not in seen:
            seen.add(key)
            return q, extra
    raise RuntimeError("could not draw a distinct input")


def _check_jobs(rng, templates, variants):
    leaves = _Leaves(rng)
    seen = set()
    jobs = []
    for t_idx, (names, entries) in enumerate(templates):
        for v_idx, (disguise, defect) in enumerate(variants):
            def make():
                q = _direct_sum([leaves.get(nm) for nm in names])
                if disguise:
                    q = rewrite(q, _unitriangular(rng, q.space, entries))
                if not defect:
                    return q, None
                consts, dropped = _drop_one(q.algebra.constants)
                return (QuadraticAlgebra(SuperAlgebra(q.space, consts),
                                         q.form), dropped)
            q, dropped = _fresh(make, seen)
            q = _renamed(q, "check_%d_%d" % (t_idx, v_idx))
            jobs.append(Job(("check", "-"), emit_document(q),
                            3 if defect else 0, q.dim, _nnz(q),
                            dropped=dropped))
    return jobs


def _decompose_jobs(rng, templates):
    leaves = _Leaves(rng, variants=12)
    seen = set()
    jobs = []
    for t_idx, (names, repeats) in enumerate(templates):
        for r in range(repeats):
            def make():
                return _direct_sum([leaves.get(nm) for nm in names]), None
            q, _ = _fresh(make, seen)
            q = _renamed(q, "decompose_%d_%d" % (t_idx, r))
            jobs.append(Job(("decompose", "-"), emit_document(q), 0, q.dim,
                            _nnz(q)))
    return jobs


def _rebuild_jobs(rng, templates):
    leaves = _Leaves(rng, variants=1)
    pieces = {}
    jobs = []
    for t_idx, (names, repeats) in enumerate(templates):
        for r in range(repeats):
            for nm in names:
                if nm not in pieces:
                    pieces[nm] = inductive_decompose(leaves.get(nm)).root
            parts = [pieces[nm] for nm in names]
            total = _direct_sum([p.algebra for p in parts])
            disguise = _unitriangular(rng, total.space,
                                       REBUILD_ENTRIES)
            n = total.dim
            inv = inverse([[disguise[j][i] for j in range(n)]
                           for i in range(n)])
            basis = tuple(tuple(inv[i][j] for i in range(n))
                          for j in range(n))
            root_q = _renamed(rewrite(total, disguise),
                              "rebuild_%d_%d" % (t_idx, r))
            root = SumNode(root_q, tuple(parts), basis, exhaustive=True)
            source = emit_document(root_q)
            jobs.append(Job(("rebuild", "-"),
                            emit_tree(DecompositionTree(root)), 0, n,
                            _nnz(root_q), expect_stdout=source))
    return jobs


def build_jobs(workload, seed, smoke=False):
    """The job list of one workload; the same seed gives the same list."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % (workload,))
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "check":
        templates = SMOKE_TEMPLATES["check"] if smoke else CHECK_TEMPLATES
        jobs = _check_jobs(rng, templates, CHECK_VARIANTS)
    elif workload == "decompose":
        templates = (SMOKE_TEMPLATES["decompose"] if smoke
                     else DECOMPOSE_TEMPLATES)
        jobs = _decompose_jobs(rng, templates)
    else:
        templates = (SMOKE_TEMPLATES["rebuild"] if smoke
                     else REBUILD_TEMPLATES)
        jobs = _rebuild_jobs(rng, templates)
    rng.shuffle(jobs)
    return jobs
