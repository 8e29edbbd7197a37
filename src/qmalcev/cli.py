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
import sys

from .catalog import CATALOG_NAMES, catalog_get
from .core import (CheckReport, check_jacobi, check_malcev,
                   check_super_anticommutativity, center)
from .decompose import inductive_decompose, rebuild, reduce_even, reduce_odd
from .document import (DocumentSyntaxError, canonical_json, document_object,
                       emit_document, emit_tree, parse_document,
                       parse_algebra_document, parse_tree, scalar_text)
from .errors import (AxiomError, GradingError, InconclusiveError, InputError,
                     PreconditionError)
from .extensions import (double_extension_even, generalized_double_extension,
                         verify_gde_data)
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
    report = verify_gde_data(q, gde)
    if not report.passed:
        raise PreconditionError("extension data rejected: %s fails"
                                % report.first_failure())
    from .extensions import GdeData

    out, _wit = generalized_double_extension(
        q, GdeData(gde.d, gde.a0, verified=True))
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
    if z.odd_columns():
        red = reduce_odd(q)
        doc = document_object(red.n, gde=red.gde)
        kind = "odd"
    elif z.even_columns():
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
    params = {}
    if args.n is not None:
        params["n"] = args.n
    if args.m is not None:
        params["m"] = tuple(tok for tok in args.m.split(",") if tok)
    if args.p is not None:
        params["p"] = args.p
    if args.q is not None:
        params["q"] = args.q
    entry = catalog_get(args.name, **params)
    sys.stdout.write(emit_document(entry.algebra, gde=entry.extras))
    return EXIT_OK


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
    pc.add_argument("--n", type=int, default=None)
    pc.add_argument("--m", type=str, default=None,
                    help="comma-separated rationals, e.g. 1,2 or 1/2,3")
    pc.add_argument("--p", type=int, default=None)
    pc.add_argument("--q", type=int, default=None)
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
