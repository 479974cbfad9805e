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
from json.encoder import encode_basestring_ascii as _json_string  # the C encoder

from .cohomology import cohomology_table, resonance_range, resonances
from .complexes import GradedBasis
from .expressions import format_coordinates, format_multivector, parse_multivector
from .multivector import modular_vector_field, schouten_bracket
from .registry import KINDS, Algebra, jacobi_defect, linear_poisson, structure_constants
from .verification import FIXTURE_IDS, modular_class_check, verify

# most cochains the full table of a --dmax may span, and most pairs `resonances`
# prints; the cochains number sum over q and d <= dmax of binom(3, q) (d+1)(d+2)/2
# = 8 binom(dmax+3, 3), which first exceeds the budget at dmax 89
COCHAIN_BUDGET = 1_000_000


def _algebra_opts(p):
    p.add_argument("--algebra", required=True, choices=KINDS)
    p.add_argument("--tau", default=None, type=_rational,
                   help="rational parameter p/q for book and spiral")


def _output_opts(p, formats=("text", "json", "csv")):
    p.add_argument("--format", default="text", choices=formats)
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write output to FILE instead of stdout")


def _table_opts(p):
    _algebra_opts(p)
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--q", default="0,1,2,3", type=_cochain_degrees,
                   help="comma separated cochain degrees to include, e.g. 1,2")
    _output_opts(p)


def _verify_opts(p):
    p.add_argument("--id", required=True, choices=FIXTURE_IDS, dest="fixture_id")
    p.add_argument("--dmax", type=int, required=True)
    _output_opts(p, ("text", "json"))


def _schouten_opts(p):
    p.add_argument("first")
    p.add_argument("second")


def _dpi_opts(p):
    _algebra_opts(p)
    p.add_argument("expression")


def _resonance_opts(p):
    p.add_argument("--tau", required=True, type=_rational)
    p.add_argument("--c", required=True, type=_rational)
    p.add_argument("--dmax", type=int, required=True)


def build_parser(verb=None):
    """The parser of every verb, or of `verb` alone.

    A one-verb parser lists every verb in its usage, as the full parser
    does, so the two print the same help, usage and errors for that verb.
    """
    parser = argparse.ArgumentParser(
        prog="poisson3",
        description="Exact Poisson cohomology of linear Poisson structures on R^3.",
    )
    if verb is None:
        sub = parser.add_subparsers(dest="verb", required=True)
    else:
        sub = parser.add_subparsers(dest="verb", required=True,
                                    metavar="{%s}" % ",".join(_VERBS))
    for name in _VERBS if verb is None else (verb,):
        blurb, add_options, _ = _VERBS[name]
        add_options(sub.add_parser(name, help=blurb))
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


def _printed_cells(table, qs):
    """Each cell a table verb prints, by q in `qs` and then by d, with the
    text of its representatives."""
    for q in qs:
        for d in range(table.dmax + 1):
            cell = table.cell(q, d)
            yield cell, format_coordinates(GradedBasis(q, d), cell.kernel_rows)


def _render_table_text(algebra, table, qs, invariant):
    dmax = table.dmax
    lines = ["algebra: %s" % algebra.name,
             "tau: %s" % ("none" if algebra.tau is None else algebra.tau),
             "dmax: %d" % dmax]
    if invariant:
        lines.append("subcomplex: rotation invariant")
    width = max(3, max(len(str(table.dim_h(q, d))) for q in qs for d in range(dmax + 1)))
    header = " q\\d |" + "".join(str(d).rjust(width + 1) for d in range(dmax + 1))
    lines += [header, "-" * len(header)]
    for q in qs:
        lines.append("   %d |" % q + "".join(
            str(table.dim_h(q, d)).rjust(width + 1) for d in range(dmax + 1)))
    lines.append("totals: " + " ".join("H^%d=%d" % (q, table.total(q)) for q in range(4)))
    lines.append("stable: %s" % ("yes" if table.stable else "no"))
    lines.append("representatives (nonzero cells):")
    for cell, reps in _printed_cells(table, qs):
        lines += ["  q=%d d=%d: %s" % (cell.q, cell.d, rep) for rep in reps]
    return "\n".join(lines) + "\n"


# the layout `json.dumps(doc, indent=2)` gives a table document and one cell
_JSON_TABLE = ('{\n  "algebra": %s,\n  "tau": %s,\n  "dmax": %d,\n  "cells": [\n%s\n  ],\n'
               '  "totals": {\n    "0": %d,\n    "1": %d,\n    "2": %d,\n    "3": %d\n  },\n'
               '  "stable": %s\n}\n')
_JSON_CELL = ('    {\n      "q": %d,\n      "d": %d,\n      "dim_cochains": %d,\n'
              '      "rank_in": %d,\n      "rank_out": %d,\n      "dim_h": %d,\n'
              '      "representatives": %s\n    }')


def _render_table_json(algebra, table, qs):
    """The table as `json.dumps(doc, indent=2)` and a line break would write
    it, in one pass.

    The document holds the algebra's name, tau as a string or null, dmax,
    one object per printed cell (q, d, dim_cochains, rank_in, rank_out,
    dim_h and the representatives' text), the totals of all four q keyed
    "0".."3", and `stable`.  With an indent, CPython's `json.dumps` runs its
    pure-Python encoder; here the layout is fixed and only the strings go
    through json's C encoder.
    """
    cells = [_JSON_CELL % (
        cell.q, cell.d, cell.dim_cochains, cell.rank_in, cell.rank_out, cell.dim_h,
        "[\n        " + ",\n        ".join(map(_json_string, reps)) + "\n      ]"
        if reps else "[]") for cell, reps in _printed_cells(table, qs)]
    return _JSON_TABLE % (
        _json_string(algebra.name),
        "null" if algebra.tau is None else _json_string(str(algebra.tau)),
        table.dmax,
        ",\n".join(cells),
        *map(table.total, range(4)),
        "true" if table.stable else "false")


def _render_table_csv(table, qs):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["q", "d", "dim_cochains", "rank_in", "rank_out",
                     "dim_h", "representatives"])
    writer.writerows([cell.q, cell.d, cell.dim_cochains, cell.rank_in, cell.rank_out,
                      cell.dim_h, "; ".join(reps)] for cell, reps in _printed_cells(table, qs))
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
    if args.format == "json":
        return 0, _render_table_json(algebra, table, args.q)
    if args.format == "csv":
        return 0, _render_table_csv(table, args.q)
    return 0, _render_table_text(algebra, table, args.q, invariant)


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
    return 0 if report.passed else 1, text


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
    return 0, "\n".join(lines) + "\n"


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
    return 0, "\n".join(lines) + "\n"


def _run_schouten(args):
    first = parse_multivector(args.first)
    second = parse_multivector(args.second)
    return 0, format_multivector(schouten_bracket(first, second)) + "\n"


def _run_dpi(args):
    pi = linear_poisson(_algebra(args))
    value = parse_multivector(args.expression)
    return 0, format_multivector(schouten_bracket(pi, value)) + "\n"


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
    return 0, "\n".join(lines) + "\n"


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
    return 0, text + "\n"


def _run_jacobi(args):
    algebra = _algebra(args)
    defect = jacobi_defect(algebra)
    lines = ["[pi, pi] = %s" % format_multivector(defect),
             "jacobi identity: %s" % ("satisfied" if defect.is_zero() else "violated")]
    return 0, "\n".join(lines) + "\n"


# each verb's help line, the function adding its options and its handler,
# in the order the full parser lists them; a handler returns (exit status,
# output text), and `main` writes the text through `_emit`
_VERBS = {
    "list": ("list algebra kinds and fixture ids", lambda p: None, _run_list),
    "show": ("structure constants and Poisson structure", _algebra_opts, _run_show),
    "cohomology": ("graded cohomology table", _table_opts,
                   lambda args: _run_table(args, invariant=False)),
    "invariant-cohomology": ("cohomology of the rotation-invariant subcomplex", _table_opts,
                             lambda args: _run_table(args, invariant=True)),
    "verify": ("check engine output against a fixture", _verify_opts, _run_verify),
    "schouten": ("bracket of two multivector expressions", _schouten_opts, _run_schouten),
    "dpi": ("Poisson differential of an expression", _dpi_opts, _run_dpi),
    "modular": ("modular vector field and its class", _algebra_opts, _run_modular),
    "resonances": ("integer pairs (i, j) with i + tau*j = c", _resonance_opts, _run_resonances),
    "jacobi": ("self-bracket [pi, pi] for a registry kind", _algebra_opts, _run_jacobi),
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


# the parsers built so far in this process, by verb; None keys the full one
_PARSERS = {}


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    argv = _fuse_numeric_options(list(argv))
    # the parser of the verb argv starts with; the full one answers anything
    # else: no verb, an unknown verb or a leading option such as --help
    verb = argv[0] if argv and argv[0] in _VERBS else None
    if verb not in _PARSERS:
        _PARSERS[verb] = build_parser(verb)
    try:
        args = _PARSERS[verb].parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        status, text = _VERBS[args.verb][2](args)
        _emit(args, text)
        return status
    except (ValueError, ZeroDivisionError, OSError) as exc:
        # ExpressionError is a ValueError
        sys.stderr.write("error: %s\n" % (exc,))
        return 2


def entrypoint():
    sys.exit(main())
