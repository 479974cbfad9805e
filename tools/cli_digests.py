"""Print one digest line for each of a fixed list of CLI commands.

Each command runs in-process through `poisson3.cli.main`.  Its line holds
the sha256 of what it wrote to stdout, the byte count, the exit status and
the argv.  Run it at two commits and diff the output: equal lines mean the
change kept every byte these commands print.

The commands are:
  - `cohomology` as text, JSON and CSV for every kind, book and spiral at
    each tau of `TAUS`;
  - `invariant-cohomology` as text, JSON and CSV for the kinds of
    `INVARIANT`;
  - `verify` as text and JSON for every fixture, at the dmax moved into
    the fixture's [dmax_min, dmax_table];
  - `show` and `jacobi` for every kind and tau;
  - then, after those, the table verbs of the first two items restricted
    to `--q 1,2` and to `--q 3`, in all three formats; `resonances` at
    each distinct tau of `TAUS` and each c of `RESONANCE_CS`; `modular`
    for every kind and tau; and `list`;
  - last, `schouten` of every ordered pair of `EXPRESSIONS`, and `dpi` of
    each of them for every kind and tau, each after "--", as an expression
    may start with a minus sign.

Run from the repository root:  python tools/cli_digests.py [--dmax N]
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from poisson3 import cli
from poisson3.registry import KINDS
from poisson3.verification import FIXTURE_IDS, expected_table

# the taus of the fixtures and of the tests' registry tables
TAUS = {"book": ("1", "1/3", "3/5", "-2/3", "-1"), "spiral": ("1", "5/2")}

# the rotation-invariant kinds, as --algebra/--tau arguments
INVARIANT = (["--algebra", "euclidean"], ["--algebra", "so3"],
             ["--algebra", "heisenberg"], ["--algebra", "spiral", "--tau", "1"],
             ["--algebra", "abelian"], ["--algebra", "spiral", "--tau", "5/2"])

# the constants c of the `resonances` commands
RESONANCE_CS = ("1", "5/2")

# the inputs of `schouten` and `dpi`: one of each degree, 0, a repeated
# generator, fractions, a leading minus and sums with terms that cancel
EXPRESSIONS = ("0", "dx^dx", "3/2*x^2*y - 1/2*z", "x*dy + 2*z*dx - x*dy",
               "-1/3*y*z*dz^dx + x*dx^dy - x*dx^dy + y^2*dy^dz", "x*dx^dy^dz - dx^dy^dz")


def algebras():
    """The --algebra/--tau arguments of every kind, at each of its TAUS."""
    for kind in KINDS:
        for tau in TAUS.get(kind, (None,)):
            yield ["--algebra", kind] + ([] if tau is None else ["--tau", tau])


def commands(dmax):
    """The argv of every command, in print order."""
    table = ["--dmax", str(dmax), "--format"]
    out = [["cohomology", *algebra, *table, fmt]
           for algebra in algebras() for fmt in ("text", "json", "csv")]
    out += [["invariant-cohomology", *algebra, *table, fmt]
            for algebra in INVARIANT for fmt in ("text", "json", "csv")]
    for fixture_id in FIXTURE_IDS:
        fixture = expected_table(fixture_id)
        within = min(max(dmax, fixture.dmax_min), fixture.dmax_table)
        out += [["verify", "--id", fixture_id, "--dmax", str(within), "--format", fmt]
                for fmt in ("text", "json")]
    out += [[verb, *algebra] for algebra in algebras() for verb in ("show", "jacobi")]
    tables = [("cohomology", algebra) for algebra in algebras()]
    tables += [("invariant-cohomology", algebra) for algebra in INVARIANT]
    out += [[verb, *algebra, "--dmax", str(dmax), "--q", q, "--format", fmt]
            for verb, algebra in tables for q in ("1,2", "3") for fmt in ("text", "json", "csv")]
    taus = dict.fromkeys(tau for kind_taus in TAUS.values() for tau in kind_taus)
    out += [["resonances", "--tau", tau, "--c", c, "--dmax", str(dmax)]
            for tau in taus for c in RESONANCE_CS]
    out += [["modular", *algebra] for algebra in algebras()]
    out += [["list"]]
    out += [["schouten", "--", first, second] for first in EXPRESSIONS for second in EXPRESSIONS]
    out += [["dpi", *algebra, "--", text] for algebra in algebras() for text in EXPRESSIONS]
    return out


def digest_line(argv):
    """sha256, byte count and exit status of one command's stdout, then its argv."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        status = cli.main(argv)
    data = stdout.getvalue().encode()
    return "%s %d %d %s" % (hashlib.sha256(data).hexdigest(), len(data), status, " ".join(argv))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dmax", type=int, default=10,
                        help="coefficient degree of the table and verify commands (default 10)")
    args = parser.parse_args(argv)
    for command in commands(args.dmax):
        print(digest_line(command))
    return 0


if __name__ == "__main__":
    sys.exit(main())
