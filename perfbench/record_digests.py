"""Record the output digest of every benchmark request into expected.json.

    python3 perfbench/record_digests.py

The digests are the byte-identity gate of the benchmark: rerun this only
when a change is meant to alter the engine's output, and say so.  Requests
whose own checks fail are not recorded.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import poisson3  # noqa: E402

import workloads  # noqa: E402


def main():
    recorded = {}
    for workload in workloads.WORKLOADS:
        for request in workloads.requests(workload):
            request.setup(poisson3)
            outcome = request.check(request.call())
            if outcome.problems:
                sys.stderr.write("%s: %s\n" % (request.name, "; ".join(outcome.problems)))
                return 1
            recorded[request.name] = outcome.digest
    with open(workloads.EXPECTED_PATH, "w") as handle:
        json.dump(recorded, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
