"""Frozen expectations for the classified structures, and checks against them.

The dimension grids used here come from literal enumeration of generator
families (monomial counting), not from the bracket/complex machinery they are
used to test, so a disagreement indicts the engine and never the expectation.
Expectations are frozen as JSON fixtures shipped with the package; the
regeneration script under tools/ rebuilds them from the same enumerations.
"""

from collections import namedtuple
from fractions import Fraction
from importlib import resources
import json
from math import comb

from . import linalg
from .cohomology import class_table, coboundary_witness
from .complexes import differential_matrix, holding_stencils
from .expressions import parse_multivector
from .multivector import MultiVector, Polynomial, modular_vector_field, schouten_bracket
from .registry import Algebra, linear_poisson

FIXTURE_IDS = (
    "heisenberg",
    "aff_x_r",
    "euclidean",
    "open_book_tau_1",
    "open_book_tau_1_3",
    "open_book_tau_3_5",
    "hyperbolic_2_3",
    "hyperbolic_1_1",
    "semi_open_book",
    "spiral",
    "so3_vanishing",
    "sl2_vanishing",
)


# ---------------------------------------------------------------------------
# oracle dimension grids
# ---------------------------------------------------------------------------

def _empty_grid():
    return {0: {}, 1: {}, 2: {}, 3: {}}


def _xy_monomials(degree):
    """Exponent pairs (a, b) with x^a y^b of the given total degree (none if negative)."""
    return [(a, degree - a) for a in range(degree + 1)]


def _heisenberg_grid(dmax):
    # H0: z^d.  H1: [g, dxdy] for g(x, y) of degree d+1, plus
    # z^(d-1) (x dx + z dz) once d >= 1.  H2: [(g1 + z g2) dz, dxdy] with
    # g1 of degree d+1 and g2 of degree d (g2 constant contributes nothing).
    # H3: g(x, y) dxdydz.
    grid = _empty_grid()
    for d in range(dmax + 1):
        grid[0][d] = 1
        grid[1][d] = len(_xy_monomials(d + 1)) + (1 if d >= 1 else 0)
        grid[2][d] = len(_xy_monomials(d + 1)) + (
            len(_xy_monomials(d)) if d >= 1 else 0
        )
        grid[3][d] = len(_xy_monomials(d))
    return grid


def _aff_grid(dmax):
    # H0: f(z).  H1: f(z) dy and f(z) dz.  H2: f(z) dy^dz.  H3: 0.
    grid = _empty_grid()
    for d in range(dmax + 1):
        grid[0][d] = 1
        grid[1][d] = 2
        grid[2][d] = 1
    return grid


def _euclidean_grid(dmax):
    # With u = x^2 + y^2 and E = x dx + y dy:  H0: u^(d/2) (even d).
    # H1: u^(d/2) dz (even) and u^((d-1)/2) E (odd).  H2: z^d dx^dy in every
    # degree, plus x^d dx^dz (odd).  H3: z^d dx^dy^dz in every degree.
    # u dx^dy and u dx^dy^dz are exact, so H2 and H3 are not f(u) times
    # their degree-0 classes.
    grid = _empty_grid()
    for d in range(dmax + 1):
        grid[1][d] = 1
        grid[3][d] = 1
        if d % 2 == 0:
            grid[0][d] = 1
            grid[2][d] = 1
        else:
            grid[2][d] = 2
    return grid


def _generic_grid(dmax):
    # Shared by the book structure at a generic tau > 0, the repeated-
    # eigenvalue structure and the focus-type structure: constants, dz, one
    # weight field in degree one, and its wedge with dz.
    grid = _empty_grid()
    grid[0][0] = 1
    grid[1][0] = 1
    if dmax >= 1:
        grid[1][1] = 1
        grid[2][1] = 1
    return grid


def _book_grid(tau, dmax):
    # tau = -p/q: the hyperbolic grid below.  0 < tau <= 1: the generic grid
    # (1, dz, y dy and y dy^dz), plus y^n dx and y^n dx^dz, which close up
    # exactly when n tau = 1, and at tau = 1 also x dy and x dy^dz.
    if tau < 0:
        return _hyperbolic_grid(-tau.numerator, tau.denominator, dmax)
    grid = _generic_grid(dmax)
    n = tau.denominator
    if tau.numerator == 1 and n <= dmax:
        grid[1][n] = grid[2][n] = 3 if n == 1 else 1
    return grid


def _hyperbolic_grid(p, q, dmax):
    # Powers of the invariant monomial C = x^p y^q of degree w = p + q:
    # H0: C^n.  H1: C^n dz at n w and C^n (x dx + y dy) at n w + 1.
    # H2: C^n (x dx + y dy)^dz at n w + 1.  For p == q the weight field
    # x dx - y dy is divergence free, so z^d dxdy closes up and survives in
    # degree two and z^d top survives in degree three; for p != q both are
    # killed by the divergence term.
    grid = _empty_grid()
    w = p + q
    n = 0
    while n * w <= dmax:
        grid[0][n * w] = 1
        grid[1][n * w] = 1
        if n * w + 1 <= dmax:
            grid[1][n * w + 1] = 1
            grid[2][n * w + 1] = 1
        n += 1
    if p == q:
        for d in range(dmax + 1):
            grid[2][d] = grid[2].get(d, 0) + 1
            grid[3][d] = 1
    return grid


def _casimir_grid(dmax):
    # Even powers of the quadratic invariant: H0 and H3 in even degrees,
    # nothing in between.
    grid = _empty_grid()
    for k in range(dmax // 2 + 1):
        grid[0][2 * k] = 1
        grid[3][2 * k] = 1
    return grid


def _abelian_grid(dmax):
    # Every differential vanishes: H is the whole cochain space, the q-vectors
    # with coefficients of degree d.
    return {q: {d: comb(3, q) * comb(d + 2, 2) for d in range(dmax + 1)} for q in range(4)}


# the kinds without a parameter, and spiral, whose grid does not depend on tau
_GRIDS = {
    "abelian": _abelian_grid,
    "heisenberg": _heisenberg_grid,
    "aff_x_r": _aff_grid,
    "euclidean": _euclidean_grid,
    "semi_open_book": _generic_grid,
    "spiral": _generic_grid,
    "so3": _casimir_grid,
    "sl2": _casimir_grid,
}


def oracle_dimension_grid(algebra, dmax):
    """Expected dim H^q in each coefficient degree, keyed {q: {d: dim}}.

    `algebra` is an `Algebra`, or a fixture id, which stands for the algebra
    and tau its fixture records.  Zero entries are omitted.  The grid is
    produced by enumerating the closed-form generator families of the
    algebra's kind, at its tau for book: no bracket and no elimination.
    """
    if isinstance(algebra, str):
        algebra = expected_table(algebra).make_algebra()
    if dmax < 0:
        raise ValueError("dmax must be nonnegative, got %r" % (dmax,))
    if algebra.name == "book":
        return _book_grid(algebra.tau, dmax)
    return _GRIDS[algebra.name](dmax)


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

class Expectation:
    """A frozen cohomology expectation loaded from a fixture file."""

    __slots__ = ("fixture_id", "algebra", "tau", "coefficient_model", "source",
                 "dmax_min", "dmax_table", "dims", "generators", "exact_checks")

    def __init__(self, raw):
        self.fixture_id = raw["id"]
        self.algebra = raw["algebra"]
        self.tau = None if raw["tau"] is None else Fraction(raw["tau"])
        self.coefficient_model = raw["coefficient_model"]
        self.source = raw["source"]
        self.dmax_min = raw["dmax_min"]
        self.dmax_table = raw["dmax_table"]
        self.dims = {
            int(q): {int(d): n for d, n in by_degree.items()}
            for q, by_degree in raw["dims"].items()
        }
        self.generators = [
            (entry["q"], entry["d"], tuple(entry["exprs"]))
            for entry in raw["generators"]
        ]
        self.exact_checks = [
            (entry["q"], entry["d"], entry["expr"])
            for entry in raw["checks"]["exact"]
        ]

    def dim(self, q, d):
        return self.dims.get(q, {}).get(d, 0)

    def make_algebra(self):
        return Algebra(self.algebra, self.tau)


def load_fixture(fixture_id):
    """Raw JSON dict for one fixture id."""
    if fixture_id not in FIXTURE_IDS:
        raise ValueError("unknown fixture id %r" % (fixture_id,))
    path = resources.files("poisson3") / "fixtures" / (fixture_id + ".json")
    return json.loads(path.read_text())


def expected_table(fixture_id):
    """Load one fixture as an Expectation."""
    return Expectation(load_fixture(fixture_id))


# ---------------------------------------------------------------------------
# verification report
# ---------------------------------------------------------------------------

class Report:
    """Outcome of verifying computed cohomology against one fixture."""

    __slots__ = ("fixture_id", "dmax", "mismatches", "cells_checked",
                 "generator_cells", "exactness_checks")

    def __init__(self, fixture_id, dmax, mismatches, cells_checked,
                 generator_cells, exactness_checks):
        self.fixture_id = fixture_id
        self.dmax = dmax
        self.mismatches = tuple(mismatches)
        self.cells_checked = cells_checked
        self.generator_cells = generator_cells
        self.exactness_checks = exactness_checks

    @property
    def passed(self):
        return not self.mismatches

    def lines(self):
        out = ["verify %s dmax=%d: %s" % (
            self.fixture_id, self.dmax, "PASS" if self.passed else "FAIL")]
        out.append("  dimension cells checked: %d" % self.cells_checked)
        out.append("  generator spans checked: %d" % self.generator_cells)
        out.append("  exactness witnesses checked: %d" % self.exactness_checks)
        for text in self.mismatches:
            out.append("  MISMATCH " + text)
        return out

    def __repr__(self):
        return "Report(%r, dmax=%d, passed=%s)" % (
            self.fixture_id, self.dmax, self.passed)


def _check_generators(pi, table, q, d, exprs, mismatches):
    cell = table.cell(q, d)
    differential = differential_matrix(pi, q, d)  # read off pi's held stencil
    coords = []
    for text in exprs:
        vec = linalg.integer_normalize(differential.source.decompose(parse_multivector(text)))
        if not differential.kills(vec):
            mismatches.append(
                "generator %r at (q=%d, d=%d) is not closed" % (text, q, d))
            return
        coords.append(vec)
    if len(coords) != cell.dim_h:
        mismatches.append(
            "generator count at (q=%d, d=%d): fixture lists %d, dim H is %d"
            % (q, d, len(coords), cell.dim_h))
        return
    image = list(differential_matrix(pi, q - 1, d).columns) if q > 0 else []
    # a row lands exactly when it is independent of the rows before it, so
    # the rows that land before the representatives count the rank of the
    # exact terms and the generators
    landed = []
    linalg.echelon(image + coords + cell.kernel_rows, landed)
    spanned = len(image) + len(coords)
    if sum(k < spanned for k in landed) != cell.rank_in + len(coords):
        mismatches.append(
            "generators at (q=%d, d=%d) are dependent modulo exact terms"
            % (q, d))
        return
    # as many independent generators as classes: the spans agree exactly
    # when no representative lands, as one that lands lies outside the span
    # of the generators and the exact terms
    if landed and landed[-1] >= spanned:
        mismatches.append(
            "generator span at (q=%d, d=%d) differs from computed classes"
            % (q, d))


def verify(fixture_id, dmax):
    """Compare engine cohomology of one structure against its fixture.

    Checks every dimension cell up to dmax, then the generator families
    (closed, a test read off pi's held stencil with no bracket, independent
    modulo exact terms, and spanning the same classes the engine
    computed), then any recorded exactness witnesses.  The
    engine's side is `class_table`: the full complex's numbers, and a basis
    of each H that need not be the canonical one.
    """
    exp = expected_table(fixture_id)
    if not exp.dmax_min <= dmax <= exp.dmax_table:
        raise ValueError(
            "dmax for %s must lie in [%d, %d], got %d"
            % (fixture_id, exp.dmax_min, exp.dmax_table, dmax))
    pi = linear_poisson(exp.make_algebra())
    with holding_stencils(pi):  # each q's stencil is derived once for every check
        table = class_table(pi, dmax)
        mismatches = []
        cells = 0
        for q in range(4):
            for d in range(dmax + 1):
                cells += 1
                want = exp.dim(q, d)
                got = table.dim_h(q, d)
                if want != got:
                    mismatches.append(
                        "dim H^%d in degree %d: expected %d, computed %d"
                        % (q, d, want, got))
        gen_cells = 0
        for q, d, exprs in exp.generators:
            if d > dmax:
                continue
            gen_cells += 1
            _check_generators(pi, table, q, d, exprs, mismatches)
        exact = 0
        for q, d, text in exp.exact_checks:
            if d > dmax:
                continue
            exact += 1
            target = parse_multivector(text)
            if target.degree != q:
                mismatches.append(
                    "exactness target %r does not have degree %d" % (text, q))
                continue
            if coboundary_witness(pi, target) is None:
                mismatches.append(
                    "no primitive found for %r at (q=%d, d=%d)" % (text, q, d))
        return Report(fixture_id, dmax, mismatches, cells, gen_cells, exact)


# ---------------------------------------------------------------------------
# deformation identities
# ---------------------------------------------------------------------------

DeformationCheck = namedtuple(
    "DeformationCheck", ["deformed", "bracket", "closed_form", "residual"])


def _require_vars(poly, allowed, label):
    for mono in poly.terms:
        for axis in range(3):
            if mono[axis] and axis not in allowed:
                raise ValueError(
                    "%s may only involve %s" % (
                        label, "/".join("xyz"[i] for i in sorted(allowed))))


def _substitute_radial(profile):
    """Read a polynomial in x alone as a polynomial in u = x^2 + y^2."""
    u = (Polynomial.variable(0) ** 2) + (Polynomial.variable(1) ** 2)
    out = Polynomial.zero()
    for mono, coeff in profile.terms.items():
        out = out + (u ** mono[0]) * coeff
    return out


def deformation_identity_check(family, first, second):
    """Bracket a deformed structure with itself and compare the closed form.

    family "heisenberg": first/second are polynomials g1, g2 in x and y; the
    deformation adds [(g1 + z g2) dz, dxdy] to z dxdy and the self-bracket
    must equal 2 (dx g1 dy g2 - dx g2 dy g1) dxdydz.

    family "euclidean": first is a polynomial in x alone read as a profile
    f(u) with u = x^2 + y^2, second is a polynomial in z alone; the deformed
    structure is (x dy - y dx)^dz + f(u) (x dx + y dy)^dz + g(z) dxdy and the
    self-bracket must equal 4 g (f + u f') dxdydz.

    Returns DeformationCheck(deformed, bracket, closed_form, residual); the
    identity holds exactly when residual is zero.
    """
    data = []
    for value in (first, second):
        if isinstance(value, MultiVector):
            if value.degree != 0:
                raise ValueError("deformation data must be functions")
            value = value.component(0)
        data.append(value)
    first, second = data
    top = parse_multivector("dx^dy^dz")
    if family == "heisenberg":
        _require_vars(first, {0, 1}, "g1")
        _require_vars(second, {0, 1}, "g2")
        if first.terms.get((0, 0, 0)) or second.terms.get((0, 0, 0)):
            raise ValueError("deformation data must vanish at the origin")
        hamiltonian = parse_multivector("dz") * (first + Polynomial.variable(2) * second)
        deformed = (parse_multivector("z*dx^dy")
                    + schouten_bracket(hamiltonian, parse_multivector("dx^dy")))
        closed = top * (
            (first.diff(0) * second.diff(1)
             - second.diff(0) * first.diff(1)) * Fraction(2))
    elif family == "euclidean":
        _require_vars(first, {0}, "the radial profile")
        _require_vars(second, {2}, "g")
        f_of_u = _substitute_radial(first)
        fprime = _substitute_radial(first.diff(0))
        u = (Polynomial.variable(0) ** 2) + (Polynomial.variable(1) ** 2)
        deformed = (parse_multivector("-y*dx^dz + x*dy^dz")
                    + parse_multivector("x*dx^dz + y*dy^dz") * f_of_u
                    + parse_multivector("dx^dy") * second)
        closed = top * ((f_of_u + u * fprime) * second * Fraction(4))
    else:
        raise ValueError("unknown deformation family %r" % (family,))
    bracket = schouten_bracket(deformed, deformed)
    return DeformationCheck(deformed, bracket, closed, bracket - closed)


# ---------------------------------------------------------------------------
# modular classes
# ---------------------------------------------------------------------------

ModularCheck = namedtuple(
    "ModularCheck",
    ["field", "expected", "matches", "is_cocycle", "is_exact", "unimodular"])

# constant modular fields with respect to the standard volume, per kind
_MODULAR_TABLE = {
    "abelian": (0, 0, 0),
    "heisenberg": (0, 0, 0),
    "aff_x_r": (0, -1, 0),
    "euclidean": (0, 0, 0),
    "so3": (0, 0, 0),
    "sl2": (0, 0, 0),
}


def expected_modular_field(algebra):
    """Closed-table modular vector field for one classified algebra."""
    if not isinstance(algebra, Algebra):
        algebra = Algebra(algebra)
    if algebra.name in _MODULAR_TABLE:
        comps = _MODULAR_TABLE[algebra.name]
    elif algebra.name == "book":
        comps = (0, 0, -(1 + algebra.tau))
    elif algebra.name == "semi_open_book":
        comps = (0, 0, -2)
    elif algebra.name == "spiral":
        comps = (0, 0, -2 * algebra.tau)
    else:
        raise ValueError("no modular expectation for %r" % (algebra.name,))
    return MultiVector.vector(*(Polynomial.constant(Fraction(c)) for c in comps))


def modular_class_check(algebra, tau=None):
    """Compute the modular field of one kind and test it against the table.

    The field must agree with the closed table, be a cocycle for the
    structure, and be exact precisely when it vanishes (the class of a
    constant field on these structures is zero only for the zero field).
    """
    if not isinstance(algebra, Algebra):
        algebra = Algebra(algebra, tau)
    pi = linear_poisson(algebra)
    field = modular_vector_field(pi)
    expected = expected_modular_field(algebra)
    is_cocycle = schouten_bracket(pi, field).is_zero()
    if field.is_zero():
        is_exact = True
    else:
        is_exact = coboundary_witness(pi, field) is not None
    return ModularCheck(
        field=field,
        expected=expected,
        matches=field == expected,
        is_cocycle=is_cocycle,
        is_exact=is_exact,
        unimodular=field.is_zero(),
    )
