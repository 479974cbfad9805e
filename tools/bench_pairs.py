"""Time one benchmark workload in two checkouts, in alternating pairs.

    python3 tools/bench_pairs.py A B --workload W --pairs N

A and B are source checkouts.  Each checkout's worker is started by the
`spawn` of its own perfbench/run.py, so the worker protocol and the time
limit are the benchmark's, and the worker imports the engine from that
checkout's src/.  Pair i runs A's worker and B's worker once each, in fresh
interpreters, with seed i; A runs first in even pairs and B in odd ones, so
a drift in the host's speed falls on both sides.  For each of the
benchmark's end-to-end metrics, derived from a worker's result as run.py
derives them (reference times, setup_s from setup_ref_s), the tool prints
each side's median and quartiles over the pairs, the number of pairs in
which B was better, and whether the rule for claiming a gain holds: B
better in at least nine tenths of the pairs, ties counting for neither, and
B's median better than A's by more than A's interquartile range.  One line
per request follows, by name, in the same form for its ref_seconds, so a
change in one request shows beside the others.  A request's line counts
only the pairs in which it ran first on neither side, by the worker's
`order`: the first request of a fresh interpreter also pays for imports
the others find done (the first argparse parser imports `locale` through
gettext, 1.2-1.4 ms on a 2-core x86 host), which would read as a change
of whichever request the seed puts first.
It exits 1 if a worker fails or times out or a request reports a problem
(after printing each one to stderr), and 0 otherwise.
"""

import argparse
import importlib.util
import os
import sys
from statistics import median, quantiles

# name: (value from one worker result, higher is better)
METRICS = {
    "wall_ref_s": (lambda result: result["wall_ref_s"], False),
    "cochains_per_s": (lambda result: result["cochains"] / result["wall_ref_s"], True),
    "setup_s": (lambda result: result["setup_ref_s"], False),
    "peak_rss_mb": (lambda result: result["peak_rss_mb"], False),
}


def load_runner(checkout, name):
    """The checkout's perfbench/run.py, loaded as module `name`."""
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(checkout, "perfbench", "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_worker(runner, workload, seed):
    """(result, problems) of one worker run; result is None if it failed."""
    result = runner.spawn(workload, seed, timeout=runner.RUN_LIMIT_S)
    if result is None:
        return None, ["the worker failed or timed out"]
    return result, ["%s: %s" % (request["name"], problem)
                    for request in result["requests"] for problem in request["problems"]]


def quartiles(values):
    """(lower quartile, median, upper quartile); one value is all three."""
    return tuple(quantiles(values, n=4)) if len(values) > 1 else tuple(values * 3)


def summary(name, a_values, b_values, higher_is_better):
    """One line: each side's median [quartiles], the pairs B won and whether
    a gain may be claimed."""
    def spread(values):
        low, _, high = quartiles(values)
        return "%.4g [%.4g, %.4g]" % (median(values), low, high)

    wins = sum((b > a) if higher_is_better else (b < a) for a, b in zip(a_values, b_values))
    gain = (median(b_values) - median(a_values)) * (1 if higher_is_better else -1)
    low, _, high = quartiles(a_values)
    claim = 10 * wins >= 9 * len(a_values) and gain > high - low
    change = median(b_values) / median(a_values) - 1 if median(a_values) else 0.0
    return "%-14s A %s  B %s  B better in %d of %d pairs, median %+.1f%%, gain %s" % (
        name, spread(a_values), spread(b_values), wins, len(a_values), 100 * change,
        "claimable" if claim else "not claimable")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="the baseline checkout")
    parser.add_argument("b", help="the checkout compared with it")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    for checkout in (args.a, args.b):
        if not os.path.isfile(os.path.join(checkout, "perfbench", "run.py")):
            parser.error("%s has no perfbench/run.py" % (checkout,))
    runners = {"A": load_runner(args.a, "run_a"), "B": load_runner(args.b, "run_b")}

    results = {"A": [], "B": []}
    problems = []
    for seed in range(args.pairs):
        order = ("A", "B") if seed % 2 == 0 else ("B", "A")
        pair = {}
        for side in order:
            result, found = run_worker(runners[side], args.workload, seed)
            problems += ["%s seed %d: %s" % (side, seed, problem) for problem in found]
            pair[side] = result
        if None not in pair.values():
            for side, result in pair.items():
                results[side].append(result)
            print("pair %d (%s first): wall_ref_s A %.4f  B %.4f" % (
                seed, order[0], pair["A"]["wall_ref_s"], pair["B"]["wall_ref_s"]))
    if results["A"]:
        print("%s, %d pairs" % (args.workload, len(results["A"])))
        for name, (value, higher_is_better) in METRICS.items():
            print(summary(name, [value(r) for r in results["A"]],
                          [value(r) for r in results["B"]], higher_is_better))
        print("per request, ref_seconds over the pairs in which it did not run first:")
        seconds = {side: [{r["name"]: r["ref_seconds"] for r in result["requests"]}
                          for result in results[side]] for side in results}
        first = [{a["order"][0], b["order"][0]} for a, b in zip(results["A"], results["B"])]
        for request in sorted(seconds["A"][0].keys() & seconds["B"][0].keys()):
            kept = [n for n, names in enumerate(first) if request not in names]
            if kept:
                print(summary(request, *([seconds[side][n][request] for n in kept]
                                         for side in "AB"), False))
            else:
                print("%-14s ran first in every pair" % (request,))
    for problem in problems:
        sys.stderr.write(problem + "\n")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
