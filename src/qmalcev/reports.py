"""Reports of the identity and axiom checks, and their witnesses.

A `CheckReport` is one identity's verdict.  When it fails, its
`witnesses` keep the count, the failing keys in scan order and what it
takes to evaluate one key: int sums and their scale, or the scan's packed
sums and kernel.  A `Witness`, with its Elements and Fractions, is built
only when a caller reads it, so `len` and `bool` cost nothing and the CLI,
which prints the count and the first 32, builds at most 32.  Every report
of the package is made by `_report`; `core._vector_witness` builds the
vector witnesses, and `_value_witnesses` the scalar ones.
"""

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Witness:
    """One failing instance of an identity: index tuple plus both sides."""

    index: tuple
    lhs: object
    rhs: object


class Witnesses(Sequence):
    """The witnesses of a report, built on read: `keys`, the failing keys
    in order, and `witness(key)`, which builds the Witness at one of them.
    `len` and `bool` build nothing, an index or a slice builds only what it
    returns, and iteration builds each in turn; it equals the tuple of its
    witnesses."""

    __slots__ = ("keys", "witness")

    def __init__(self, keys, witness):
        self.keys, self.witness = keys, witness

    def __len__(self):
        return len(self.keys)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.witness, self.keys[i]))
        return self.witness(self.keys[i])

    def __iter__(self):
        return map(self.witness, self.keys)

    def __eq__(self, other):
        return (isinstance(other, (tuple, Witnesses))
                and len(self) == len(other) and tuple(self) == tuple(other))

    def __hash__(self):
        return hash(tuple(self))


_NO_WITNESSES = Witnesses((), None)


@dataclass(frozen=True)
class CheckReport:
    """An identity's verdict: `passed`, its `witnesses` (a `Witnesses`,
    which keeps the count and the failing keys and builds a witness only
    when it is read) and its `notes`."""

    passed: bool
    witnesses: Witnesses = _NO_WITNESSES
    notes: tuple = ()

    def __bool__(self):
        return self.passed


def _report(keys, witness=None, notes=()):
    """The report that fails at the keys, in order, each witness built by
    witness(key) when read; it passes when there are none."""
    return CheckReport(passed=not keys,
                       witnesses=Witnesses(keys, witness) if keys
                       else _NO_WITNESSES, notes=tuple(notes))


class ItemizedReport:
    """Base of a frozen dataclass of CheckReports, one per condition in the
    order they are checked: `failures()` names the failing ones in that
    order, and `first_failure()` the first of them, or None."""

    def failures(self):
        return [f for f in self.__dataclass_fields__
                if not getattr(self, f).passed]

    @property
    def passed(self):
        return not self.failures()

    def first_failure(self):
        return next(iter(self.failures()), None)


def _value_witnesses(lhs, rhs, denom=1):
    """The sorted keys where the scalar sums lhs {key: x} and rhs {key: y}
    differ, a missing key read as 0, and the builder of Witness(key,
    lhs / denom, rhs / denom) at one of them, as Fractions."""
    return ([key for key in sorted(lhs.keys() | rhs.keys())
             if lhs.get(key, 0) != rhs.get(key, 0)],
            lambda key: Witness(key, Fraction(lhs.get(key, 0), denom),
                                Fraction(rhs.get(key, 0), denom)))


def _mirror_witnesses(entries, parity, skew):
    """`_value_witnesses` of x against (-1)^{|i||j|} y, negated when skew,
    at each (i, j) with i <= j, for x and y the values at (i, j) and (j, i)
    of a bilinear map given by its nonzero entries {(i, j): x}, |i| being
    parity(i): the one comparison of a form or a cocycle with its
    mirror."""
    lhs, rhs = {}, {}
    for (i, j), x in entries.items():
        if i <= j:
            lhs[(i, j)] = x
        if j <= i:
            rhs[(j, i)] = -x if skew ^ (parity(i) & parity(j)) else x
    return _value_witnesses(lhs, rhs)
