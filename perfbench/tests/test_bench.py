"""Tests of the benchmark itself: span arithmetic, checks, and unwrapping.

    python3 -m pytest perfbench/tests
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import poisson3  # noqa: E402
from poisson3 import cli, cohomology, complexes, linalg  # noqa: E402,F401

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _span(name, start, end, parent):
    return spans.Span(name, name.split(".")[0], start, end, parent, "r", False)


def test_self_times_of_a_synthetic_tree():
    tree = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("cohomology.cohomology_table", 1.0, 9.0, 0),
        _span("linalg.rref", 2.0, 5.0, 1),
        _span("linalg.integer_normalize", 3.0, 4.0, 2),
        _span("multivector.schouten_bracket", 6.0, 8.5, 1),
        _span("linalg.rref", 11.0, 12.5, -1),
    ]
    own = spans.self_times(tree)
    assert own["cli"] == 2.0
    assert own["cohomology"] == 2.5
    assert own["linalg"] == 3.0 + 1.5
    assert own["multivector"] == 2.5
    assert sum(own.values()) == spans.top_level_seconds(tree) == 11.5


def test_stopped_clock_is_charged_once():
    tracer = spans.Tracer()
    before = tracer.now()
    tracer.stop_clock(5.0)
    assert tracer.now() < before - 4.9
    # a burst that lands inside a counter hook is already off the clock
    stopped = tracer._count(lambda: tracer.stop_clock(1.0) or tracer._stopped)
    assert stopped == 5.0


def _module_attributes():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "poisson3" or name.startswith("poisson3.")
        for attr, value in vars(module).items()
    }


def test_uninstall_restores_every_rebound_attribute():
    before = _module_attributes()
    tracer = spans.Tracer().install()
    try:
        assert complexes.schouten_bracket is not before[("poisson3.complexes", "schouten_bracket")]
        assert poisson3.verify is not before[("poisson3", "verify")]
        assert linalg.rref is not before[("poisson3.linalg", "rref")]
        assert tracer._rebound
    finally:
        tracer.uninstall()
    after = _module_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_output_and_counters():
    pi = poisson3.linear_poisson("heisenberg")
    plain = cohomology.cohomology_table(pi, 3)
    tracer = spans.Tracer().install()
    try:
        traced = cohomology.cohomology_table(pi, 3)
    finally:
        tracer.uninstall()
    assert [(c.dim_h, c.representatives) for c in traced.cells.values()] == \
        [(c.dim_h, c.representatives) for c in plain.cells.values()]
    metrics = tracer.layer_metrics()
    assert metrics["cohomology.calls"] == 1
    assert metrics["cohomology.cells"] == 16
    assert metrics["cohomology.cochains"] == workloads.full_cochains(3)
    assert metrics["complexes.differential_matrix.calls"] == 16
    assert metrics["complexes.differential_matrix.distinct"] == 16
    assert metrics["multivector.schouten_bracket.calls"] == metrics["complexes.columns"]
    assert 0 < metrics["linalg.rref.useful_ratio"] <= 1
    own = sum(metrics[layer + ".self_s"] for layer in spans.LAYERS)
    assert abs(own - spans.top_level_seconds(tracer.spans)) < 1e-9


def _cli_request(oracle="heisenberg"):
    request = workloads.CliRequest(
        ["cohomology", "--algebra", "heisenberg", "--dmax", "2", "--format", "json"], oracle)
    request.setup(poisson3)
    return request


def test_correct_output_passes():
    request = _cli_request()
    output = request.call()
    expected = {request.name: workloads.digest(output[1])}
    assert workloads.evaluate(request, output, expected).problems == []


def test_corrupted_output_fails():
    request = _cli_request()
    status, text = request.call()
    expected = {request.name: workloads.digest(text)}
    corrupted = text.replace('"stable"', '"stable" ', 1)
    assert workloads.evaluate(request, (status, corrupted), expected).problems
    assert workloads.evaluate(request, (status, text[:-10]), expected).problems
    assert workloads.evaluate(request, (1, text), expected).problems


def test_wrong_dimension_fails():
    request = _cli_request()
    status, text = request.call()
    doc = json.loads(text)
    doc["cells"][0]["dim_h"] += 1
    # the digest is recorded from the corrupted text, so only the oracle catches it
    wrong = json.dumps(doc, indent=2) + "\n"
    outcome = workloads.evaluate(request, (status, wrong), {request.name: workloads.digest(wrong)})
    assert any("oracle" in problem for problem in outcome.problems)


def test_failed_verify_fails():
    request = workloads.VerifyRequest("heisenberg", 3)
    request.setup(poisson3)
    report = request.call()
    expected = {request.name: workloads.digest("\n".join(report.lines()))}
    assert workloads.evaluate(request, report, expected).problems == []
    failing = poisson3.Report("heisenberg", 3, ["dim H^0 in degree 0: expected 1, computed 2"],
                              report.cells_checked, report.generator_cells,
                              report.exactness_checks)
    assert workloads.evaluate(request, failing, expected).problems


class _Raising:
    name = "raising request"

    def call(self):
        raise ValueError("engine error")


def test_a_raising_request_is_counted_not_fatal():
    good = _cli_request()
    expected = {good.name: workloads.digest(good.call()[1])}
    result = worker.run([_Raising(), good], expected, trace=False)
    problems = [record["problems"] for record in result["requests"]]
    assert problems[0] == ["ValueError: engine error"]
    assert problems[1] == []


def test_benchmark_json_lists_what_the_run_prints():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    with open(os.path.join(BENCH, "layer_map.json")) as handle:
        layer_map = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    printed = set(spans.Tracer().layer_metrics()) | set(run.RUN_LAYER_METRICS)
    assert {m["name"] for m in spec["per_layer"]} == printed
    mapped = [name for group in layer_map["groups"] for name in group["metrics"]]
    assert sorted(mapped) == sorted(printed)
    for metric in spec["per_layer"]:
        assert metric["unit"] == run.layer_unit(metric["name"])
