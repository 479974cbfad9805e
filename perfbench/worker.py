"""One repetition of a workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N --spawned T [--trace] [--setup-only]

`--spawned` is the parent's time.monotonic() just before it started this
process, so set-up time covers interpreter start, `import poisson3` and
building the inputs.  The requests then run one after another, in an order
shuffled by the seed, each starting after the previous one returned.  Only
the requests are timed; each output is checked after its request, outside
the timing.  The machine's speed is sampled during each request (speed.py)
and reference times are reported beside the raw ones.  The last line of
stdout is one JSON object with the results.
"""

import argparse
import json
import os
import random
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import poisson3  # noqa: E402

import speed  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, top_level_seconds  # noqa: E402

SETUP_BURSTS = 5


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    requests = workloads.requests(args.workload)
    for request in requests:
        request.setup(poisson3)
    expected = workloads.load_expected()
    random.Random(args.seed).shuffle(requests)
    setup_s = time.monotonic() - args.spawned
    samples = [speed.burst() for _ in range(SETUP_BURSTS)]
    result = {"setup_s": setup_s, "setup_ref_s": speed.rescale(setup_s, samples)}
    if not args.setup_only:
        result.update(run(requests, expected, args.trace))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


def _call(request):
    """(output, error) of one request; an exception is a failure, never fatal."""
    try:
        return request.call(), None
    except Exception as exc:
        return None, "%s: %s" % (type(exc).__name__, exc)


def _timed(request, tracer):
    """(output, error, seconds, reference seconds) of one request.

    Traced, the span clock stops for each speed burst, so bursts count in
    no layer; untraced, their time is taken out here.
    """
    sampler = speed.Sampler(on_burst=tracer.stop_clock if tracer else None)
    clock = tracer.now if tracer else time.perf_counter
    sampler.start()
    start = clock()
    try:
        output, error = _call(request)
    finally:
        sampler.stop()
    seconds = clock() - start
    if not tracer:
        seconds -= sampler.burst_s
    return output, error, seconds, speed.rescale(seconds, sampler.samples)


def run(requests, expected, trace):
    """Run the requests in order; returns timings, checks and layer metrics."""
    tracer = Tracer().install() if trace else None
    records = []
    try:
        for request in requests:
            if tracer:
                tracer.request = request.name
            output, error, seconds, ref_seconds = _timed(request, tracer)
            if error is None:
                try:
                    outcome = workloads.evaluate(request, output, expected)
                except Exception as exc:
                    error = "check raised %s: %s" % (type(exc).__name__, exc)
            if error is not None:
                outcome = workloads.Outcome([error], None, 0, 0)
            record = outcome._asdict()
            record.update(name=request.name, seconds=seconds, ref_seconds=ref_seconds)
            records.append(record)
    finally:
        if tracer:
            tracer.uninstall()
    out = {
        "order": [r["name"] for r in records],
        "requests": records,
        "wall_s": sum(r["seconds"] for r in records),
        "wall_ref_s": sum(r["ref_seconds"] for r in records),
        "cochains": sum(r["cochains"] for r in records),
    }
    if tracer:
        out["layers"] = tracer.layer_metrics()
        out["top_level_s"] = top_level_seconds(tracer.spans)
    return out


if __name__ == "__main__":
    sys.exit(main())
