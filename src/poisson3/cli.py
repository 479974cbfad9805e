"""Command line front end.

Verbs: list, show, cohomology, invariant-cohomology, verify, schouten, dpi,
modular, resonances, jacobi.  Exit status 0 on success and on verify-pass,
1 on verify-fail, 2 on usage or domain errors.  Output is deterministic:
identical command lines produce byte-identical output.

In expressions, dx/dy/dz denote the coordinate vector fields (not 1-forms);
^ between generators is a wedge, between a variable and an integer a power.
"""

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from .cohomology import cell_multivectors, cohomology_table, resonance_range, resonances
from .expressions import format_multivector, parse_multivector
from .multivector import modular_vector_field, schouten_bracket
from .registry import KINDS, Algebra, jacobi_defect, linear_poisson, structure_constants
from .verification import FIXTURE_IDS, modular_class_check, verify

# most cochains the full table of a --dmax may span, and most pairs `resonances`
# prints; the cochains number sum over q and d <= dmax of binom(3, q) (d+1)(d+2)/2
# = 8 binom(dmax+3, 3), which first exceeds the budget at dmax 89
COCHAIN_BUDGET = 1_000_000

# schema for the JSON table documents emitted by cohomology verbs
TABLE_SCHEMA = {
    "type": "object",
    "required": ["algebra", "tau", "dmax", "cells", "totals", "stable"],
    "additionalProperties": False,
    "properties": {
        "algebra": {"type": "string"},
        "tau": {"type": ["string", "null"]},
        "dmax": {"type": "integer", "minimum": 0},
        "cells": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["q", "d", "dim_cochains", "rank_in", "rank_out",
                             "dim_h", "representatives"],
                "additionalProperties": False,
                "properties": {
                    "q": {"type": "integer", "minimum": 0, "maximum": 3},
                    "d": {"type": "integer", "minimum": 0},
                    "dim_cochains": {"type": "integer", "minimum": 0},
                    "rank_in": {"type": "integer", "minimum": 0},
                    "rank_out": {"type": "integer", "minimum": 0},
                    "dim_h": {"type": "integer", "minimum": 0},
                    "representatives": {
                        "type": "array", "items": {"type": "string"},
                    },
                },
            },
        },
        "totals": {
            "type": "object",
            "required": ["0", "1", "2", "3"],
            "additionalProperties": False,
            "properties": {
                key: {"type": "integer", "minimum": 0} for key in "0123"
            },
        },
        "stable": {"type": "boolean"},
    },
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="poisson3",
        description="Exact Poisson cohomology of linear Poisson structures on R^3.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_algebra_opts(p):
        p.add_argument("--algebra", required=True, choices=KINDS)
        p.add_argument("--tau", default=None, type=_rational,
                       help="rational parameter p/q for book and spiral")

    def add_output_opts(p, formats=("text", "json", "csv")):
        p.add_argument("--format", default="text", choices=formats)
        p.add_argument("--out", default=None, metavar="FILE",
                       help="write output to FILE instead of stdout")

    sub.add_parser("list", help="list algebra kinds and fixture ids")

    p = sub.add_parser("show", help="structure constants and Poisson structure")
    add_algebra_opts(p)

    for verb, blurb in (
        ("cohomology", "graded cohomology table"),
        ("invariant-cohomology", "cohomology of the rotation-invariant subcomplex"),
    ):
        p = sub.add_parser(verb, help=blurb)
        add_algebra_opts(p)
        p.add_argument("--dmax", type=int, required=True)
        p.add_argument("--q", default="0,1,2,3", type=_cochain_degrees,
                       help="comma separated cochain degrees to include, e.g. 1,2")
        add_output_opts(p)

    p = sub.add_parser("verify", help="check engine output against a fixture")
    p.add_argument("--id", required=True, choices=FIXTURE_IDS, dest="fixture_id")
    p.add_argument("--dmax", type=int, required=True)
    add_output_opts(p, ("text", "json"))

    p = sub.add_parser("schouten", help="bracket of two multivector expressions")
    p.add_argument("first")
    p.add_argument("second")

    p = sub.add_parser("dpi", help="Poisson differential of an expression")
    add_algebra_opts(p)
    p.add_argument("expression")

    p = sub.add_parser("modular", help="modular vector field and its class")
    add_algebra_opts(p)

    p = sub.add_parser("resonances", help="integer pairs (i, j) with i + tau*j = c")
    p.add_argument("--tau", required=True, type=_rational)
    p.add_argument("--c", required=True, type=_rational)
    p.add_argument("--dmax", type=int, required=True)

    p = sub.add_parser("jacobi", help="self-bracket [pi, pi] for a registry kind")
    add_algebra_opts(p)

    return parser


def _rational(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            "expected a rational number p/q, got %r" % (text,)) from None


def _cochain_degrees(text):
    try:
        degrees = {int(piece) for piece in text.split(",")}
    except ValueError:
        degrees = None
    if degrees is None or not degrees <= {0, 1, 2, 3}:
        raise argparse.ArgumentTypeError(
            "expected comma separated cochain degrees 0..3, got %r" % (text,))
    return tuple(sorted(degrees))


def _algebra(args):
    return Algebra(args.algebra, args.tau)


def _tau_str(tau):
    return None if tau is None else str(tau)


def _table_document(algebra, table, q_filter):
    doc_cells = []
    for q in q_filter:
        for d in range(table.dmax + 1):
            cell = table.cell(q, d)
            doc_cells.append({
                "q": q,
                "d": d,
                "dim_cochains": cell.dim_cochains,
                "rank_in": cell.rank_in,
                "rank_out": cell.rank_out,
                "dim_h": cell.dim_h,
                "representatives": [
                    format_multivector(rep) for rep in cell_multivectors(cell)
                ],
            })
    return {
        "algebra": algebra.name,
        "tau": _tau_str(algebra.tau),
        "dmax": table.dmax,
        "cells": doc_cells,
        "totals": {str(q): table.total(q) for q in range(4)},
        "stable": table.stable,
    }


def _render_table_text(doc, invariant):
    lines = []
    lines.append("algebra: %s" % doc["algebra"])
    lines.append("tau: %s" % ("none" if doc["tau"] is None else doc["tau"]))
    lines.append("dmax: %d" % doc["dmax"])
    if invariant:
        lines.append("subcomplex: rotation invariant")
    qs = sorted({cell["q"] for cell in doc["cells"]})
    dmax = doc["dmax"]
    width = max(3, max(len(str(cell["dim_h"])) for cell in doc["cells"]))
    header = " q\\d |" + "".join(str(d).rjust(width + 1) for d in range(dmax + 1))
    lines.append(header)
    lines.append("-" * len(header))
    by_cell = {(cell["q"], cell["d"]): cell for cell in doc["cells"]}
    for q in qs:
        row = "   %d |" % q
        for d in range(dmax + 1):
            row += str(by_cell[(q, d)]["dim_h"]).rjust(width + 1)
        lines.append(row)
    lines.append("totals: " + " ".join(
        "H^%s=%d" % (q, doc["totals"][q]) for q in "0123"))
    lines.append("stable: %s" % ("yes" if doc["stable"] else "no"))
    lines.append("representatives (nonzero cells):")
    for cell in doc["cells"]:
        if cell["dim_h"]:
            for rep in cell["representatives"]:
                lines.append("  q=%d d=%d: %s" % (cell["q"], cell["d"], rep))
    return "\n".join(lines) + "\n"


def _render_table_csv(doc):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["q", "d", "dim_cochains", "rank_in", "rank_out",
                     "dim_h", "representatives"])
    for cell in doc["cells"]:
        writer.writerow([
            cell["q"], cell["d"], cell["dim_cochains"], cell["rank_in"],
            cell["rank_out"], cell["dim_h"],
            "; ".join(cell["representatives"]),
        ])
    return buffer.getvalue()


def _emit(args, text):
    if getattr(args, "out", None):
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _check_budget(dmax):
    cochains = 4 * (dmax + 1) * (dmax + 2) * (dmax + 3) // 3
    if cochains > COCHAIN_BUDGET:
        raise ValueError(
            "dmax %d spans %d cochains, over the budget of %d"
            % (dmax, cochains, COCHAIN_BUDGET))


def _run_table(args, invariant):
    algebra = _algebra(args)
    _check_budget(args.dmax)
    table = cohomology_table(linear_poisson(algebra), args.dmax, invariant)
    doc = _table_document(algebra, table, args.q)
    if args.format == "json":
        text = json.dumps(doc, indent=2) + "\n"
    elif args.format == "csv":
        text = _render_table_csv(doc)
    else:
        text = _render_table_text(doc, invariant)
    _emit(args, text)
    return 0


def _run_verify(args):
    _check_budget(args.dmax)
    report = verify(args.fixture_id, args.dmax)
    if args.format == "json":
        doc = {
            "id": report.fixture_id,
            "dmax": report.dmax,
            "passed": report.passed,
            "cells_checked": report.cells_checked,
            "generator_cells": report.generator_cells,
            "exactness_checks": report.exactness_checks,
            "mismatches": list(report.mismatches),
        }
        text = json.dumps(doc, indent=2) + "\n"
    else:
        text = "\n".join(report.lines()) + "\n"
    _emit(args, text)
    return 0 if report.passed else 1


def _run_list(args):
    lines = ["algebras:"]
    for kind in KINDS:
        note = ""
        if kind == "book":
            note = "  (requires --tau with 0 < |tau| <= 1)"
        elif kind == "spiral":
            note = "  (requires --tau > 0)"
        lines.append("  " + kind + note)
    lines.append("fixtures:")
    for fixture_id in FIXTURE_IDS:
        lines.append("  " + fixture_id)
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _run_show(args):
    algebra = _algebra(args)
    constants = structure_constants(algebra)
    lines = ["algebra: %s" % algebra.name,
             "tau: %s" % ("none" if algebra.tau is None else algebra.tau)]
    lines.append("nonzero brackets:")
    pairs = sorted({(i, j) for (i, j, _k) in constants.c})
    if not pairs:
        lines.append("  (all brackets vanish)")
    for i, j in pairs:
        text = ""
        for k in range(3):
            value = constants.get(i, j, k)
            if not value:
                continue
            if text:  # the sign of a later term goes in its separator
                text += " - " if value < 0 else " + "
                value = abs(value)
            if value == 1:
                text += "e%d" % (k + 1,)
            elif value == -1:
                text += "-e%d" % (k + 1,)
            else:
                text += "%s e%d" % (value, k + 1)
        lines.append("  [e%d, e%d] = %s" % (i + 1, j + 1, text))
    pi = linear_poisson(algebra)
    lines.append("poisson structure: %s" % format_multivector(pi))
    lines.append("modular field: %s" % format_multivector(modular_vector_field(pi)))
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _run_schouten(args):
    first = parse_multivector(args.first)
    second = parse_multivector(args.second)
    sys.stdout.write(format_multivector(schouten_bracket(first, second)) + "\n")
    return 0


def _run_dpi(args):
    pi = linear_poisson(_algebra(args))
    value = parse_multivector(args.expression)
    sys.stdout.write(format_multivector(schouten_bracket(pi, value)) + "\n")
    return 0


def _run_modular(args):
    check = modular_class_check(_algebra(args))
    lines = [
        "modular field: %s" % format_multivector(check.field),
        "expected: %s" % format_multivector(check.expected),
        "matches table: %s" % ("yes" if check.matches else "no"),
        "cocycle: %s" % ("yes" if check.is_cocycle else "no"),
        "exact: %s" % ("yes" if check.is_exact else "no"),
        "unimodular: %s" % ("yes" if check.unimodular else "no"),
    ]
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _run_resonances(args):
    count = len(resonance_range(args.tau, args.c, args.dmax))
    if count > COCHAIN_BUDGET:
        raise ValueError("dmax %d gives %d resonance pairs, over the budget of %d"
                         % (args.dmax, count, COCHAIN_BUDGET))
    pairs = resonances(args.tau, args.c, args.dmax)
    if pairs:
        text = " ".join("(%d,%d)" % pair for pair in pairs)
    else:
        text = "none"
    sys.stdout.write(text + "\n")
    return 0


def _run_jacobi(args):
    algebra = _algebra(args)
    defect = jacobi_defect(algebra)
    lines = ["[pi, pi] = %s" % format_multivector(defect),
             "jacobi identity: %s" % ("satisfied" if defect.is_zero() else "violated")]
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


_HANDLERS = {
    "list": _run_list,
    "show": _run_show,
    "cohomology": lambda args: _run_table(args, invariant=False),
    "invariant-cohomology": lambda args: _run_table(args, invariant=True),
    "verify": _run_verify,
    "schouten": _run_schouten,
    "dpi": _run_dpi,
    "modular": _run_modular,
    "resonances": _run_resonances,
    "jacobi": _run_jacobi,
}

# options whose values may start with a minus sign (argparse would read
# them as flags); fused into --opt=value before parsing
_NUMERIC_OPTS = ("--tau", "--c")


def _fuse_numeric_options(argv):
    out = []
    skip = False
    for pos, arg in enumerate(argv):
        if skip:
            skip = False
            continue
        if arg in _NUMERIC_OPTS and pos + 1 < len(argv):
            out.append(arg + "=" + argv[pos + 1])
            skip = True
        else:
            out.append(arg)
    return out


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(_fuse_numeric_options(list(argv)))
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return _HANDLERS[args.verb](args)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        # ExpressionError is a ValueError
        sys.stderr.write("error: %s\n" % (exc,))
        return 2


def entrypoint():
    sys.exit(main())
