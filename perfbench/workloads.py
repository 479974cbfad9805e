"""The benchmark's workloads: their requests and the check of every output.

A request is one library call or one in-process `cli.main` call.  Each
request knows how to run itself and how to check what it returned; a check
gives an Outcome: the problems found (none when the output is correct), the
output's digest, the number of cochains the request computed and the bytes
it wrote to stdout.  The expected digests were recorded from the engine at
the commit that added the benchmark (record_digests.py) and live in
expected.json.
"""

import contextlib
import hashlib
import io
import json
import os
from collections import namedtuple
from math import comb

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

Outcome = namedtuple("Outcome", "problems digest cochains output_bytes")


def full_cochains(dmax):
    """Sum of dim C^{q,d} over q = 0..3 and d = 0..dmax of the full complex."""
    return sum(comb(3, q) * (d + 1) * (d + 2) // 2
               for q in range(4) for d in range(dmax + 1))


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def grid_problems(dims, grid, dmax, label):
    """Problems where computed dims {(q, d): n} differ from an oracle grid."""
    problems = []
    for q in range(4):
        for d in range(dmax + 1):
            want = grid[q].get(d, 0)
            got = dims.get((q, d))
            if got != want:
                problems.append("%s: dim H^%d in degree %d is %r, oracle says %d"
                                % (label, q, d, got, want))
    return problems


class VerifyRequest:
    """Library `verify(fixture_id, dmax)`."""

    def __init__(self, fixture_id, dmax):
        self.fixture_id = fixture_id
        self.dmax = dmax
        self.name = "verify %s %d" % (fixture_id, dmax)

    def setup(self, poisson3):
        self.p3 = poisson3
        # verify compares the engine with the frozen fixture dims; those must
        # equal the independent oracle grid for a pass to mean engine == oracle
        frozen = poisson3.expected_table(self.fixture_id)
        grid = poisson3.oracle_dimension_grid(self.fixture_id, self.dmax)
        dims = {(q, d): frozen.dim(q, d) for q in range(4) for d in range(self.dmax + 1)}
        self.setup_problems = grid_problems(dims, grid, self.dmax, "fixture " + self.fixture_id)

    def call(self):
        return self.p3.verify(self.fixture_id, self.dmax)

    def check(self, report):
        problems = list(self.setup_problems)
        if not report.passed:
            problems.append("verify failed: %s" % "; ".join(report.mismatches))
        if report.dmax != self.dmax or report.cells_checked != 4 * (self.dmax + 1):
            problems.append("verify checked %d cells up to dmax %d"
                            % (report.cells_checked, report.dmax))
        return Outcome(problems, digest("\n".join(report.lines())), full_cochains(self.dmax), 0)


class TableRequest:
    """Library `cohomology_table` of the abelian (zero) bivector.

    Every differential vanishes, so dim H = dim C in every cell.
    """

    def __init__(self, dmax):
        self.dmax = dmax
        self.name = "table abelian %d" % dmax

    def setup(self, poisson3):
        self.p3 = poisson3
        self.pi = poisson3.linear_poisson(poisson3.Algebra("abelian"))

    def call(self):
        return self.p3.cohomology_table(self.pi, self.dmax)

    def check(self, table):
        problems = []
        rows = []
        for q in range(4):
            for d in range(self.dmax + 1):
                cell = table.cell(q, d)
                want = comb(3, q) * (d + 1) * (d + 2) // 2
                if not cell.dim_h == cell.dim_cochains == want:
                    problems.append("abelian (q=%d, d=%d): dim H %d, dim C %d, expected %d"
                                    % (q, d, cell.dim_h, cell.dim_cochains, want))
                rows.append("%d %d %d %d %d %r" % (
                    q, d, cell.dim_cochains, cell.rank_in, cell.rank_out,
                    [sorted(rep.items()) for rep in cell.representatives]))
        return Outcome(problems, digest("\n".join(rows)), full_cochains(self.dmax), 0)


class CliRequest:
    """In-process `cli.main(argv)` with stdout captured.

    `oracle` names an oracle grid the JSON cells must match, or None.
    """

    def __init__(self, argv, oracle=None):
        self.argv = list(argv)
        self.oracle = oracle
        self.name = " ".join(self.argv)

    def setup(self, poisson3):
        from poisson3 import cli

        self.cli = cli
        self.dmax = int(self.argv[self.argv.index("--dmax") + 1])
        self.grid = (poisson3.oracle_dimension_grid(self.oracle, self.dmax)
                     if self.oracle else None)

    def call(self):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            status = self.cli.main(self.argv)
        return status, buffer.getvalue()

    def check(self, output):
        status, text = output
        size = len(text.encode())
        problems = []
        if status != 0:
            problems.append("exit status %r" % (status,))
        try:
            cells = json.loads(text)["cells"]
        except (ValueError, KeyError, TypeError) as exc:
            problems.append("stdout is not a cohomology document: %s" % (exc,))
            return Outcome(problems, digest(text), 0, size)
        if self.grid is not None:
            dims = {(c["q"], c["d"]): c["dim_h"] for c in cells}
            problems += grid_problems(dims, self.grid, self.dmax, self.oracle)
        return Outcome(problems, digest(text), sum(c["dim_cochains"] for c in cells), size)


def _cohomology(args, dmax, oracle=None):
    return CliRequest(["cohomology"] + args + ["--dmax", str(dmax), "--format", "json"], oracle)


def _invariant(args, dmax, oracle=None):
    return CliRequest(["invariant-cohomology"] + args + ["--dmax", str(dmax), "--format", "json"],
                      oracle)


# frozen here rather than read from the package, so that a fixture added
# later does not change the size of the sweep workload
FIXTURE_IDS = (
    "heisenberg", "aff_x_r", "euclidean", "open_book_tau_1", "open_book_tau_1_3",
    "open_book_tau_3_5", "hyperbolic_2_3", "hyperbolic_1_1", "semi_open_book",
    "spiral", "so3_vanishing", "sl2_vanishing",
)


def requests(workload):
    """The requests of one workload, in their canonical order."""
    if workload == "sweep":
        return [VerifyRequest(fid, 10) for fid in FIXTURE_IDS] + [TableRequest(10)]
    if workload == "deep":
        return [
            _cohomology(["--algebra", "heisenberg"], 20, "heisenberg"),
            _cohomology(["--algebra", "book", "--tau", "-2/3"], 20, "hyperbolic_2_3"),
            _cohomology(["--algebra", "sl2"], 16, "sl2_vanishing"),
        ]
    if workload == "invariant":
        return [
            _invariant(["--algebra", "euclidean"], 10, "euclidean"),
            _invariant(["--algebra", "so3"], 10, "so3_vanishing"),
            _invariant(["--algebra", "heisenberg"], 10),
            _invariant(["--algebra", "spiral", "--tau", "1"], 10),
        ]
    raise ValueError("unknown workload %r" % (workload,))


WORKLOADS = ("sweep", "deep", "invariant")


def load_expected():
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


def evaluate(request, output, expected):
    """The request's own check plus the recorded digest."""
    outcome = request.check(output)
    want = expected.get(request.name)
    if want is None:
        outcome.problems.append("no recorded digest for %r" % (request.name,))
    elif outcome.digest != want:
        outcome.problems.append("output digest %s differs from recorded %s"
                                % (outcome.digest[:12], want[:12]))
    return outcome
