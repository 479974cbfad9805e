"""Regenerate the frozen expectation fixtures under src/poisson3/fixtures/.

Dimension grids come from the oracle enumerations in poisson3.verification
(monomial counting, no linear algebra).  Generator and witness strings are
hand-curated below; before anything is written, each generator is parsed and
checked to be closed for its structure, and each expected-exact target is
checked to have the stated degree.  The cocycle guard does use the bracket
engine, but only to abort on typos: no fixture VALUE is derived from the
engine's cohomology output.

Run from the repository root:  python tools/make_fixtures.py
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from poisson3.expressions import parse_multivector
from poisson3.multivector import schouten_bracket
from poisson3.registry import Algebra, linear_poisson
from poisson3.verification import FIXTURE_IDS, oracle_dimension_grid

DMAX_TABLE = 16

# fixture id -> (algebra kind, tau string or None, coefficient model,
#                dmax_min, generators, expected-exact targets)
FIXTURES = {
    "heisenberg": (
        "heisenberg", None, "smooth_shadow", 2,
        [
            (0, 1, ["z"]),
            (1, 0, ["dx", "dy"]),
            (1, 1, ["x*dx + z*dz", "x*dy", "x*dx - y*dy", "y*dx"]),
            (1, 2, ["x*z*dx + z^2*dz", "x^2*dy", "x^2*dx - 2*x*y*dy",
                    "2*x*y*dx - y^2*dy", "y^2*dx"]),
            (2, 0, ["dy^dz", "dx^dz"]),
            (2, 1, ["x*dy^dz", "y*dy^dz - x*dx^dz", "y*dx^dz",
                    "z*dy^dz", "z*dx^dz"]),
            (3, 0, ["dx^dy^dz"]),
            (3, 2, ["x^2*dx^dy^dz", "x*y*dx^dy^dz", "y^2*dx^dy^dz"]),
        ],
        [],
    ),
    "aff_x_r": (
        "aff_x_r", None, "smooth_shadow", 2,
        [
            (0, 1, ["z"]),
            (1, 0, ["dy", "dz"]),
            (1, 2, ["z^2*dy", "z^2*dz"]),
            (2, 0, ["dy^dz"]),
            (2, 1, ["z*dy^dz"]),
        ],
        [],
    ),
    "euclidean": (
        "euclidean", None, "smooth_shadow", 2,
        [
            (0, 2, ["x^2 + y^2"]),
            (1, 0, ["dz"]),
            (1, 1, ["x*dx + y*dy"]),
            (2, 0, ["dx^dy"]),
            (2, 1, ["x*dx^dz + y*dy^dz", "z*dx^dy"]),
            (3, 0, ["dx^dy^dz"]),
            (3, 1, ["z*dx^dy^dz"]),
        ],
        [],
    ),
    "open_book_tau_1": (
        "book", "1", "formal", 2,
        [
            (1, 0, ["dz"]),
            (1, 1, ["y*dx", "x*dy", "y*dy"]),
            (2, 1, ["y*dx^dz", "x*dy^dz", "y*dy^dz"]),
        ],
        [
            (2, 1, "x*dx^dz + y*dy^dz"),
            (2, 2, "x^2*dx^dy"),
            (2, 2, "x*y*dx^dy"),
            (2, 2, "y^2*dx^dy"),
        ],
    ),
    "open_book_tau_1_3": (
        "book", "1/3", "formal", 3,
        [
            (1, 0, ["dz"]),
            (1, 1, ["y*dy"]),
            (1, 3, ["y^3*dx"]),
            (2, 1, ["y*dy^dz"]),
            (2, 3, ["y^3*dx^dz"]),
        ],
        [],
    ),
    "open_book_tau_3_5": (
        "book", "3/5", "formal", 2,
        [
            (1, 0, ["dz"]),
            (1, 1, ["y*dy"]),
            (2, 1, ["y*dy^dz"]),
        ],
        [],
    ),
    "hyperbolic_2_3": (
        "book", "-2/3", "formal", 6,
        [
            (0, 5, ["x^2*y^3"]),
            (1, 0, ["dz"]),
            (1, 1, ["x*dx + y*dy"]),
            (1, 5, ["x^2*y^3*dz"]),
            (1, 6, ["x^3*y^3*dx + x^2*y^4*dy"]),
            (2, 1, ["x*dx^dz + y*dy^dz"]),
            (2, 6, ["x^3*y^3*dx^dz + x^2*y^4*dy^dz"]),
        ],
        [],
    ),
    "hyperbolic_1_1": (
        "book", "-1", "formal", 3,
        [
            (0, 2, ["x*y"]),
            (1, 0, ["dz"]),
            (1, 1, ["x*dx + y*dy"]),
            (1, 2, ["x*y*dz"]),
            (1, 3, ["x^2*y*dx + x*y^2*dy"]),
            (2, 0, ["dx^dy"]),
            (2, 1, ["x*dx^dz + y*dy^dz", "z*dx^dy"]),
            (2, 2, ["z^2*dx^dy"]),
            (2, 3, ["x^2*y*dx^dz + x*y^2*dy^dz", "z^3*dx^dy"]),
            (3, 0, ["dx^dy^dz"]),
            (3, 1, ["z*dx^dy^dz"]),
            (3, 2, ["z^2*dx^dy^dz"]),
        ],
        [],
    ),
    "semi_open_book": (
        "semi_open_book", None, "formal", 2,
        [
            (1, 0, ["dz"]),
            (1, 1, ["x*dy"]),
            (2, 1, ["y*dx^dz"]),
        ],
        [],
    ),
    "spiral": (
        "spiral", "1", "formal", 2,
        [
            (1, 0, ["dz"]),
            (1, 1, ["x*dx + y*dy"]),
            (2, 1, ["x*dx^dz + y*dy^dz"]),
        ],
        [],
    ),
    "so3_vanishing": (
        "so3", None, "formal", 2,
        [
            (0, 2, ["x^2 + y^2 + z^2"]),
            (3, 0, ["dx^dy^dz"]),
            (3, 2, ["x^2*dx^dy^dz + y^2*dx^dy^dz + z^2*dx^dy^dz"]),
        ],
        [],
    ),
    "sl2_vanishing": (
        "sl2", None, "formal", 2,
        [
            (0, 2, ["x^2 - y^2 + z^2"]),
            (3, 0, ["dx^dy^dz"]),
            (3, 2, ["x^2*dx^dy^dz - y^2*dx^dy^dz + z^2*dx^dy^dz"]),
        ],
        [],
    ),
}


def build_fixture(fixture_id):
    kind, tau, model, dmax_min, generators, exact = FIXTURES[fixture_id]
    algebra = Algebra(kind, None if tau is None else tau)
    pi = linear_poisson(algebra)
    grid = oracle_dimension_grid(algebra, DMAX_TABLE)

    for q, d, exprs in generators:
        assert d <= DMAX_TABLE
        expected = grid.get(q, {}).get(d, 0)
        if len(exprs) != expected:
            raise SystemExit(
                "%s (q=%d, d=%d): %d generators listed, oracle says %d"
                % (fixture_id, q, d, len(exprs), expected))
        for text in exprs:
            mv = parse_multivector(text)
            if mv.degree != q or not mv.is_coefficient_homogeneous(d):
                raise SystemExit(
                    "%s: generator %r is not homogeneous of (q=%d, d=%d)"
                    % (fixture_id, text, q, d))
            if not schouten_bracket(pi, mv).is_zero():
                raise SystemExit(
                    "%s: generator %r is not closed" % (fixture_id, text))
    for q, d, text in exact:
        mv = parse_multivector(text)
        if mv.degree != q or not mv.is_coefficient_homogeneous(d):
            raise SystemExit(
                "%s: exact target %r is not homogeneous of (q=%d, d=%d)"
                % (fixture_id, text, q, d))

    return {
        "id": fixture_id,
        "algebra": kind,
        "tau": tau,
        "coefficient_model": model,
        "source": "generator-family enumeration",
        "dmax_min": dmax_min,
        "dmax_table": DMAX_TABLE,
        "dims": {
            str(q): {str(d): n for d, n in sorted(by_degree.items())}
            for q, by_degree in grid.items() if by_degree
        },
        "generators": [
            {"q": q, "d": d, "exprs": list(exprs)}
            for q, d, exprs in generators
        ],
        "checks": {
            "exact": [
                {"q": q, "d": d, "expr": text} for q, d, text in exact
            ],
        },
    }


def main():
    if set(FIXTURES) != set(FIXTURE_IDS):
        raise SystemExit("fixture table out of sync with FIXTURE_IDS")
    out_dir = os.path.join(
        os.path.dirname(__file__), "..", "src", "poisson3", "fixtures")
    os.makedirs(out_dir, exist_ok=True)
    for fixture_id in FIXTURE_IDS:
        data = build_fixture(fixture_id)
        path = os.path.join(out_dir, fixture_id + ".json")
        with open(path, "w") as handle:
            json.dump(data, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote", os.path.relpath(path))


if __name__ == "__main__":
    main()
