"""Command-line entry points.

Commands: check, center, operator-check, extend-odd, extend-even, reduce,
decompose, rebuild, catalog.  Input is a document file or '-' for stdin;
output is canonical JSON, so identical inputs give byte-identical outputs.
Exit codes: 0 ok, 2 parse/usage, 3 validation, 4 precondition,
5 inconclusive.  QMALCEV_REPORT=summary trims witnesses from reports.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from fractions import Fraction

from .catalog import CATALOG_NAMES, catalog_get
from .core import (CheckReport, check_jacobi, check_malcev,
                   check_super_anticommutativity, center)
from .decompose import inductive_decompose, rebuild, reduce_even, reduce_odd
from .document import (MAX_DIM, DocumentSyntaxError, canonical_json,
                       document_object, emit_document, emit_tree,
                       parse_document, parse_algebra_document, parse_tree,
                       scalar_text)
from .errors import (AxiomError, GradingError, InconclusiveError, InputError,
                     PreconditionError)
from .extensions import double_extension_even, generalized_double_extension
from .operators import check_malcev_operator, check_skew_supersymmetric
from .quadratic import check_form

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_PRECONDITION = 4
EXIT_INCONCLUSIVE = 5


def _witnesses_enabled():
    return os.environ.get("QMALCEV_REPORT", "witnesses") != "summary"


def _report_obj(rep: CheckReport):
    out = {"passed": rep.passed, "failures": len(rep.witnesses)}
    if rep.notes:
        out["notes"] = list(rep.notes)
    if _witnesses_enabled() and rep.witnesses:
        out["witnesses"] = [
            {"index": list(w.index), "lhs": _value_obj(w.lhs),
             "rhs": _value_obj(w.rhs)} for w in rep.witnesses[:32]]
    return out


def _value_obj(v):
    from .core import Element

    if isinstance(v, Element):
        return [scalar_text(c) for c in v.coords]
    try:
        return scalar_text(v)
    except (TypeError, AttributeError):
        return str(v)


def _read_input(path):
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise DocumentSyntaxError("cannot read %s: %s" % (path, exc)) from exc


def _cmd_check(args):
    q, operator, gde = parse_document(_read_input(args.file))
    anti = check_super_anticommutativity(q.algebra)
    malcev = check_malcev(q.algebra)
    jacobi = check_jacobi(q.algebra)
    form = check_form(q.algebra, q.form)
    passed = (anti.passed and malcev.passed and form.passed)
    out = {
        "name": q.algebra.name,
        "even_dim": q.space.even_dim,
        "odd_dim": q.space.odd_dim,
        "passed": passed,
        "checks": {
            "anticommutativity": _report_obj(anti),
            "malcev": _report_obj(malcev),
            "jacobi": _report_obj(jacobi),
            "form_even": _report_obj(form.even),
            "form_supersymmetric": _report_obj(form.supersymmetric),
            "form_nondegenerate": _report_obj(form.nondegenerate),
            "form_invariant": _report_obj(form.invariant),
        },
    }
    sys.stdout.write(canonical_json(out))
    return EXIT_OK if passed else EXIT_VALIDATION


def _cmd_center(args):
    q, _op, _gde = parse_algebra_document(_read_input(args.file))
    z = center(q.algebra)
    out = {
        "name": q.algebra.name,
        "even": [[scalar_text(x) for x in col] for col in z.even_columns()],
        "odd": [[scalar_text(x) for x in col] for col in z.odd_columns()],
    }
    sys.stdout.write(canonical_json(out))
    return EXIT_OK


def _cmd_operator_check(args):
    q, operator, _gde = parse_algebra_document(_read_input(args.file))
    if operator is None:
        raise PreconditionError("document carries no operator block")
    oper = check_malcev_operator(q.algebra, operator)
    skew = check_skew_supersymmetric(q.form, operator, q.space)
    out = {
        "name": q.algebra.name,
        "parity": "even" if operator.parity == 0 else "odd",
        "malcev_operator": _report_obj(oper),
        "skew_supersymmetric": _report_obj(skew),
        "passed": oper.passed and skew.passed,
    }
    sys.stdout.write(canonical_json(out))
    return EXIT_OK if (oper.passed and skew.passed) else EXIT_VALIDATION


def _cmd_extend_odd(args):
    q, _op, gde = parse_algebra_document(_read_input(args.file))
    if gde is None:
        raise PreconditionError("document carries no gde block")
    out, _wit = generalized_double_extension(q, gde)
    sys.stdout.write(emit_document(out, name="gde(%s)" % q.algebra.name))
    return EXIT_OK


def _cmd_extend_even(args):
    q, operator, _gde = parse_algebra_document(_read_input(args.file))
    if operator is None:
        raise PreconditionError("document carries no operator block")
    out, _wit = double_extension_even(q, operator)
    sys.stdout.write(emit_document(out, name="de(%s)" % q.algebra.name))
    return EXIT_OK


def _cmd_reduce(args):
    q, _op, _gde = parse_algebra_document(_read_input(args.file))
    z = center(q.algebra)
    if z.odd_rows():
        red = reduce_odd(q)
        doc = document_object(red.n, gde=red.gde)
        kind = "odd"
    elif z.even_rows():
        red = reduce_even(q)
        doc = document_object(red.n, operator=red.operator)
        kind = "even"
    else:
        raise PreconditionError("no central homogeneous vector; "
                                "nothing to reduce")
    out = {
        "document": doc,
        "witness": {
            "kind": kind,
            "e_index": red.witness.e_index,
            "estar_index": red.witness.estar_index,
            "embedding": list(red.witness.embedding),
            "basis": [[scalar_text(x) for x in col] for col in red.basis],
        },
    }
    sys.stdout.write(canonical_json(out))
    return EXIT_OK


def _cmd_decompose(args):
    q, _op, _gde = parse_algebra_document(_read_input(args.file))
    tree = inductive_decompose(q)
    sys.stdout.write(emit_tree(tree))
    return EXIT_OK


def _cmd_rebuild(args):
    tree = parse_tree(_read_input(args.file))
    q = rebuild(tree)
    sys.stdout.write(emit_document(q))
    return EXIT_OK


def _cmd_catalog(args):
    # the entry's dimension, read off its parameters before it is built
    n, p, q = args.n or 0, args.p or 0, args.q or 0
    dim = {"abelian": p + q, "example_M": 1 + 2 * n,
           "example_gde": 3 + 2 * n}.get(args.name, 0)
    if dim > MAX_DIM:
        raise InputError("%s has dimension %d, which exceeds the dimension "
                         "cap of %d" % (args.name, dim, MAX_DIM))
    params = {key: getattr(args, key) for key in ("n", "m", "p", "q")
              if getattr(args, key) is not None}
    entry = catalog_get(args.name, **params)
    sys.stdout.write(emit_document(entry.algebra, gde=entry.extras))
    return EXIT_OK


# One --m token: ASCII digits with an optional leading '-', then an optional
# /den; den == 0 is rejected by _rationals.
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _rationals(text):
    """The comma-separated --m tokens as Fractions.  argparse reports the
    ArgumentTypeError as a usage error, which exits 2."""
    out = []
    for tok in text.split(","):
        match = _RATIONAL.fullmatch(tok)
        den = int(match.group(2) or 1) if match else 0
        if den == 0:
            raise argparse.ArgumentTypeError(
                "%r is not an integer or num/den with den != 0" % tok)
        out.append(Fraction(int(match.group(1)), den))
    return tuple(out)


# One --n, --p or --q value: ASCII digits only, with no sign, space or '_'.
_DIGITS = re.compile(r"[0-9]+")


def _dimension(text):
    """A --n, --p or --q value: ASCII digits that spell an int no larger
    than the dimension cap MAX_DIM of documents.  argparse reports a
    ValueError or an ArgumentTypeError as a usage error, which exits 2."""
    if not _DIGITS.fullmatch(text):
        raise argparse.ArgumentTypeError(
            "%r is not a non-negative integer in ASCII digits" % text)
    value = int(text)
    if value > MAX_DIM:
        raise argparse.ArgumentTypeError(
            "%d exceeds the dimension cap of %d" % (value, MAX_DIM))
    return value


# Commands that read one document or tree; `catalog` takes options.  The
# handler of a command is `_cmd_<name with - as _>`, looked up when it runs.
FILE_COMMANDS = ("check", "center", "operator-check", "extend-odd",
                 "extend-even", "reduce", "decompose", "rebuild")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qmalcev",
        description="Exact tools for quadratic Malcev superalgebras given "
                    "by structure constants.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in FILE_COMMANDS:
        sub.add_parser(name).add_argument(
            "file", help="document path or - for stdin")

    pc = sub.add_parser("catalog")
    pc.add_argument("name", help="one of: %s" % ", ".join(CATALOG_NAMES))
    pc.add_argument("--n", type=_dimension, default=None)
    pc.add_argument("--m", type=_rationals, default=None,
                    help="comma-separated rationals, e.g. 1,2 or 1/2,3")
    pc.add_argument("--p", type=_dimension, default=None)
    pc.add_argument("--q", type=_dimension, default=None)
    return parser


# The parser holds no per-call state, so one per process serves every run.
_parser = functools.cache(build_parser)


def run(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        return globals()["_cmd_" + args.command.replace("-", "_")](args)
    except DocumentSyntaxError as exc:
        sys.stderr.write("parse error: %s\n" % exc)
        return EXIT_PARSE
    except GradingError as exc:
        sys.stderr.write("validation error (grading): %s\n" % exc)
        return EXIT_VALIDATION
    except AxiomError as exc:
        sys.stderr.write("validation error (axiom): %s\n" % exc)
        if _witnesses_enabled() and getattr(exc, "report", None) is not None:
            rep = exc.report
            witnesses = getattr(rep, "witnesses", ())
            for w in list(witnesses)[:8]:
                sys.stderr.write("  witness %s\n" % (w.index,))
        return EXIT_VALIDATION
    except PreconditionError as exc:
        sys.stderr.write("precondition error: %s\n" % exc)
        return EXIT_PRECONDITION
    except InconclusiveError as exc:
        sys.stderr.write("inconclusive: %s\n" % exc)
        return EXIT_INCONCLUSIVE
    except InputError as exc:
        sys.stderr.write("input error: %s\n" % exc)
        return EXIT_PARSE


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
