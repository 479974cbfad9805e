"""poisson3 benchmark: one command runs a workload, checks it, prints metrics.

    python3 perfbench/run.py --workload {sweep,deep,invariant} --seed N \
        --seconds S --trace {0,1}

Run from anywhere inside a source checkout; the engine is imported from the
checkout's src/.  Each workload is a closed loop with one client: a single
process and thread sending one request at a time.  Every repetition runs in
a fresh interpreter (worker.py), so nothing the program caches survives from
one repetition to the next, as for a user of the command line.  Repetitions
are started until the next one would end past S seconds (at least
MIN_REPETITIONS), and each metric is the median over repetitions.  Set-up
time is also sampled from SETUP_SAMPLES interpreters that stop after
set-up.  The seed only shuffles the order of the requests in a workload.

--trace 0 prints the end-to-end metrics, from untraced repetitions:
wall_ref_s, the time of the requests; cochains_per_s, the sum of dim C^{q,d}
over the cells computed per second of wall_ref_s; setup_s, from interpreter
start to the first request (import poisson3, inputs, fixture loads); and
peak_rss_mb of the repetition's process.  Times are reference times
(speed.py): measured times rescaled by the machine speed sampled while they
ran, because the shared hosts this runs on drift in speed by more than any
bound worth keeping.  The raw times are printed beside them.
--trace 1 alternates untraced and traced repetitions and prints per-layer
metrics from the traced ones.  Layer self times are raw seconds and add up,
with the unattributed remainder, to the traced raw wall time (trace.wall_s);
the tracing overhead is the difference of the traced and untraced medians
in reference seconds.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Every line before it is a human-readable metric or a JSON record
of the run (workload, seed, order, failures, samples).  The exit status is
0 when the run completed, whatever the checks found, and 2 when it could
not run at all.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from spans import LAYERS  # noqa: E402

MIN_REPETITIONS = 3
SETUP_SAMPLES = 15
RUN_LIMIT_S = 170.0

# per-layer metrics the run adds to the tracer's own
RUN_LAYER_METRICS = ("cli.output_bytes", "trace.unattributed_s", "trace.wall_s",
                     "trace.wall_ref_s", "plain.wall_ref_s", "trace.overhead_s")

END_TO_END_UNITS = {
    "wall_ref_s": "s",
    "cochains_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bits"):
        return "bits"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def spawn(workload, seed, trace=False, setup_only=False, timeout=None):
    """Run worker.py once; returns its result dict, or None if it failed."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", workload, "--seed", str(seed)]
    if trace:
        argv.append("--trace")
    if setup_only:
        argv.append("--setup-only")
    spawned = time.monotonic()
    argv += ["--spawned", repr(spawned)]
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.stderr.write("worker timed out: %s\n" % " ".join(argv[1:]))
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write("worker failed (%d): %s\n%s" % (
            proc.returncode, " ".join(argv[1:]), proc.stderr[-2000:]))
        return None
    return json.loads(lines[-1])


class Run:
    """Repetitions of one workload and what they found."""

    def __init__(self, workload, seed, seconds, trace):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.size = len(workloads.requests(workload))
        self.setup = []
        self.setup_raw = []
        self.plain = []
        self.traced = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.start = time.monotonic()

    def elapsed(self):
        return time.monotonic() - self.start

    def remaining(self):
        return max(RUN_LIMIT_S - self.elapsed(), 1.0)

    def repeat(self, trace):
        result = spawn(self.workload, self.seed, trace=trace, timeout=self.remaining())
        self.attempted += self.size
        if result is None:
            self.failed += self.size
            self.problems.append("a repetition did not complete")
            return None
        self.add_setup(result)
        for record in result["requests"]:
            if record["problems"]:
                self.failed += 1
                self.problems.append("%s: %s" % (record["name"], "; ".join(record["problems"])))
        (self.traced if trace else self.plain).append(result)
        return result

    def add_setup(self, result):
        self.setup.append(result["setup_ref_s"])
        self.setup_raw.append(result["setup_s"])

    def measure(self):
        for _ in range(SETUP_SAMPLES):
            result = spawn(self.workload, self.seed, setup_only=True, timeout=self.remaining())
            if result is None:
                self.problems.append("a set-up sample did not complete")
            else:
                self.add_setup(result)
        kinds = [False, True] if self.trace else [False]
        durations = []
        count = 0
        while True:
            trace = kinds[count % len(kinds)]
            began = self.elapsed()
            if self.repeat(trace) is None:
                break
            durations.append(self.elapsed() - began)
            count += 1
            estimate = max(durations[-len(kinds):])
            if count >= MIN_REPETITIONS and self.elapsed() + estimate > self.seconds:
                break
            if self.elapsed() + estimate > RUN_LIMIT_S:
                break

    def check_trace(self):
        """Traced outputs equal untraced ones; self times add up to wall."""
        plain = {r["name"]: r["digest"] for rep in self.plain for r in rep["requests"]}
        for rep in self.traced:
            for record in rep["requests"]:
                if plain.get(record["name"]) != record["digest"]:
                    self.problems.append("traced output of %s differs" % record["name"])
            layers = rep["layers"]
            own = sum(layers[name + ".self_s"] for name in LAYERS)
            unattributed = rep["wall_s"] - rep["top_level_s"]
            if abs(own + unattributed - rep["wall_s"]) > 1e-6:
                self.problems.append("layer self times plus remainder %r != wall %r"
                                     % (own + unattributed, rep["wall_s"]))

    def end_to_end(self):
        return {
            "wall_ref_s": median([rep["wall_ref_s"] for rep in self.plain]),
            "cochains_per_s": median([rep["cochains"] / rep["wall_ref_s"] for rep in self.plain]),
            "setup_s": median(self.setup),
            "peak_rss_mb": median([rep["peak_rss_mb"] for rep in self.plain]),
        }

    def raw(self):
        """Measured seconds before rescaling, for the record."""
        return {
            "wall_s": median([rep["wall_s"] for rep in self.plain]),
            "setup_s": median(self.setup_raw),
        }

    def per_layer(self):
        names = self.traced[0]["layers"] if self.traced else {}
        out = {name: median([rep["layers"][name] for rep in self.traced]) for name in names}
        out["cli.output_bytes"] = median([
            sum(r["output_bytes"] for r in rep["requests"]) for rep in self.traced])
        out["trace.unattributed_s"] = median(
            [rep["wall_s"] - rep["top_level_s"] for rep in self.traced])
        out["trace.wall_s"] = median([rep["wall_s"] for rep in self.traced])
        out["trace.wall_ref_s"] = median([rep["wall_ref_s"] for rep in self.traced])
        out["plain.wall_ref_s"] = median([rep["wall_ref_s"] for rep in self.plain])
        out["trace.overhead_s"] = out["trace.wall_ref_s"] - out["plain.wall_ref_s"]
        return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "poisson3", "__init__.py")):
        sys.stderr.write("error: no poisson3 sources under %s\n" % os.path.join(ROOT, "src"))
        return 2

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    run.measure()
    if not run.plain or (run.trace and not run.traced):
        sys.stderr.write("error: no repetition completed\n")
        for problem in run.problems[:20]:
            sys.stderr.write("  %s\n" % problem)
        return 2
    if run.trace:
        run.check_trace()
        values = run.per_layer()
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in values.items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in run.end_to_end().items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "order": run.plain[0]["order"],
        "repetitions": {"plain": len(run.plain), "traced": len(run.traced)},
        "setup_samples": len(run.setup),
        "failed_ratio": run.failed / run.attempted,
        "problems": run.problems[:20],
        "raw": run.raw(),
        "samples_wall_s": [rep["wall_s"] for rep in run.plain + run.traced],
        "samples_wall_ref_s": [rep["wall_ref_s"] for rep in run.plain + run.traced],
    }
    for name, metric in metrics.items():
        print("%-40s %.6g %s" % (name, metric["value"], metric["unit"]))
    for name, value in record["raw"].items():
        print("%-40s %.6g s" % ("raw " + name, value))
    print("%-40s %.6g %s" % ("failed_ratio", record["failed_ratio"], "ratio"))
    print(json.dumps(record))
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
