"""Smoke tests of tools/bench_pairs.py, the alternating-pairs timing harness."""

import json
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_pairs.py"


def _run(*args):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          capture_output=True, text=True, timeout=120)


def _source_lines():
    """The repository's src/ line count, as the tool prints it last."""
    return sum(len(path.read_text().splitlines()) for path in (ROOT / "src").rglob("*.py"))


def _stand_in(tmp_path, worker, run_limit_s=None):
    """A checkout with the benchmark's perfbench/ and a stand-in worker."""
    perfbench = tmp_path / "perfbench"
    shutil.copytree(ROOT / "perfbench", perfbench)
    (perfbench / "worker.py").write_text(worker)
    if run_limit_s is not None:
        run = perfbench / "run.py"
        text = run.read_text()
        assert text.count("\nRUN_LIMIT_S = ") == 1
        run.write_text(text.replace("\nRUN_LIMIT_S = ", "\nRUN_LIMIT_S = %r  # " % run_limit_s))
    return tmp_path


def test_one_pair_of_the_checkout_against_itself():
    res = _run(ROOT, ROOT, "--workload", "invariant", "--pairs", "1")
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert lines[0].startswith("pair 0 (A first): wall_ref_s A ")
    assert lines[1] == "invariant, 1 pairs"
    assert [line.split()[0] for line in lines[2:6]] == [
        "wall_ref_s", "cochains_per_s", "setup_s", "peak_rss_mb"]
    # then one line per request of the workload, by name: its ref_seconds,
    # over the one pair unless the request ran first in it
    assert lines[6] == "per request, ref_seconds over the pairs in which it did not run first:"
    names = ["invariant-cohomology --algebra %s --dmax 10 --format json" % algebra
             for algebra in ("euclidean", "heisenberg", "so3", "spiral --tau 1")]
    first = " ran first in every pair"
    assert [line[:-len(first)] if line.endswith(first) else line.split(" A ")[0]
            for line in lines[7:-1]] == names
    assert sum(line.endswith(first) for line in lines[7:-1]) == 1
    assert all("of 1 pairs" in line for line in lines[2:6] + [
        line for line in lines[7:-1] if not line.endswith(first)])
    # last, each checkout's src/ line count
    assert lines[-1] == "src/ lines A %d B %d" % (_source_lines(), _source_lines())


def test_metrics_are_the_benchmarks_reference_values(tmp_path):
    # setup_s is the rescaled setup_ref_s, cochains_per_s is cochains over
    # wall_ref_s, and B's 200 per second is worse than the real worker's
    result = {"wall_ref_s": 0.5, "cochains": 100, "setup_s": 9.0, "setup_ref_s": 0.25,
              "peak_rss_mb": 20.0, "order": ["req"],
              "requests": [{"name": "req", "problems": [], "ref_seconds": 0.5}]}
    checkout = _stand_in(tmp_path, "print(%r)\n" % (json.dumps(result),))
    res = _run(ROOT, checkout, "--workload", "invariant", "--pairs", "1")
    assert res.returncode == 0, res.stderr
    lines = {line.split()[0]: line for line in res.stdout.splitlines()[2:6]}
    assert "B 200 [200, 200]" in lines["cochains_per_s"]
    assert "B better in 0 of 1 pairs" in lines["cochains_per_s"]
    assert "B 0.25 [0.25, 0.25]" in lines["setup_s"]
    # a request only one side ran gets no line of its own, and a checkout
    # with no src/ counts 0 lines
    assert res.stdout.splitlines()[6:] == [
        "per request, ref_seconds over the pairs in which it did not run first:",
        "src/ lines A %d B 0" % (_source_lines(),)]


def _seeded_worker(wall_ref_s, step):
    """A stand-in worker whose wall_ref_s is wall_ref_s + step * seed, all
    of it the time of its second request, "req"; "first" runs first."""
    result = {"wall_ref_s": None, "cochains": 100, "setup_ref_s": 0.1, "peak_rss_mb": 20.0,
              "order": ["first", "req"],
              "requests": [{"name": "first", "problems": [], "ref_seconds": 0.0},
                           {"name": "req", "problems": [], "ref_seconds": None}]}
    return ("import json, sys\nresult = %r\nseed = int(sys.argv[sys.argv.index('--seed') + 1])\n"
            "result['wall_ref_s'] = result['requests'][1]['ref_seconds'] = %r + %r * seed\n"
            "print(json.dumps(result))\n" % (result, wall_ref_s, step))


def test_a_gain_is_claimable_only_by_nine_tenths_of_the_pairs_and_the_quartiles(tmp_path):
    # A's wall_ref_s runs 0.50 .. 0.59 over the ten seeds, quartiles 0.5175
    # and 0.5725.  B 0.1 lower wins every pair by more than that spread, and
    # cochains_per_s with it; B 0.02 lower wins every pair by less; an equal
    # setup_s and peak_rss_mb win no pair
    a = _stand_in(tmp_path / "a", _seeded_worker(0.5, 0.01))
    lines = {}
    for shift in (0.1, 0.02):
        b = _stand_in(tmp_path / ("b%g" % shift), _seeded_worker(0.5 - shift, 0.01))
        res = _run(a, b, "--workload", "invariant", "--pairs", "10")
        assert res.returncode == 0, res.stderr
        lines[shift] = {line.split()[0]: line for line in res.stdout.splitlines()[11:]}
    assert "A 0.545 [0.5175, 0.5725]" in lines[0.1]["wall_ref_s"]
    # req's line reads its ref_seconds, here the whole wall_ref_s; the
    # request that ran first in every pair gets no numbers
    assert lines[0.1]["first"] == "first          ran first in every pair"
    assert lines[0.1]["req"].split(" A ", 1)[1] == lines[0.1]["wall_ref_s"].split(" A ", 1)[1]
    assert lines[0.02]["req"].split(" A ", 1)[1] == lines[0.02]["wall_ref_s"].split(" A ", 1)[1]
    for name in ("wall_ref_s", "cochains_per_s"):
        assert lines[0.1][name].endswith("B better in 10 of 10 pairs, median %s, gain claimable"
                                         % ("-18.3%" if name == "wall_ref_s" else "+22.5%"))
        assert "10 of 10 pairs" in lines[0.02][name]
        assert lines[0.02][name].endswith("gain not claimable")
    for name in ("setup_s", "peak_rss_mb"):
        assert lines[0.1][name].endswith("B better in 0 of 10 pairs, median +0.0%, "
                                         "gain not claimable")


def _alternating_worker(first_s, later_s):
    """A stand-in worker with requests "a" and "b", in that order at an even
    seed and the other way at an odd one: the one that runs first takes
    first_s and the other later_s."""
    return ("import json, sys\nseed = int(sys.argv[sys.argv.index('--seed') + 1])\n"
            "order = ['a', 'b'] if seed %% 2 == 0 else ['b', 'a']\n"
            "seconds = {order[0]: %r, order[1]: %r}\n"
            "print(json.dumps({'wall_ref_s': %r, 'cochains': 100, 'setup_ref_s': 0.1,\n"
            "    'peak_rss_mb': 20.0, 'order': order, 'requests': [\n"
            "    {'name': name, 'problems': [], 'ref_seconds': seconds[name]}\n"
            "    for name in order]}))\n" % (first_s, later_s, first_s + later_s))


def test_a_request_line_counts_only_the_pairs_in_which_it_did_not_run_first(tmp_path):
    # each request runs first in every other pair, where it takes 1 s, and
    # 0.1 s (A) or 0.09 s (B) elsewhere: its line reads the two pairs of
    # four in which it ran second, and B's gain there; the end-to-end lines
    # still read every pair
    a = _stand_in(tmp_path / "a", _alternating_worker(1.0, 0.1))
    b = _stand_in(tmp_path / "b", _alternating_worker(1.0, 0.09))
    res = _run(a, b, "--workload", "invariant", "--pairs", "4")
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert lines[4] == "invariant, 4 pairs"
    assert "B better in 4 of 4 pairs" in lines[5]  # wall_ref_s
    assert lines[9] == "per request, ref_seconds over the pairs in which it did not run first:"
    for line, name in zip(lines[10:], "ab"):
        assert line == ("%-14s A 0.1 [0.1, 0.1]  B 0.09 [0.09, 0.09]  B better in 2 of 2 "
                        "pairs, median -10.0%%, gain claimable" % (name,))
    assert lines[12:] == ["src/ lines A 0 B 0"]


def test_a_reported_problem_exits_1(tmp_path):
    # a stand-in worker whose one request reports a problem
    result = {"wall_ref_s": 0.5, "cochains": 1, "setup_ref_s": 0.1, "peak_rss_mb": 20.0,
              "order": ["req"],
              "requests": [{"name": "req", "problems": ["digest differs"], "ref_seconds": 0.5}]}
    checkout = _stand_in(tmp_path, "print(%r)\n" % (json.dumps(result),))
    res = _run(ROOT, checkout, "--workload", "invariant", "--pairs", "1")
    assert res.returncode == 1
    assert res.stderr == "B seed 0: req: digest differs\n"
    assert "B better in 0 of 1 pairs" in res.stdout


def test_a_worker_past_the_time_limit_exits_1(tmp_path):
    checkout = _stand_in(tmp_path, "import time\ntime.sleep(30)\n", run_limit_s=1.0)
    res = _run(checkout, checkout, "--workload", "invariant", "--pairs", "1")
    assert res.returncode == 1
    assert res.stderr.count("worker timed out") == 2
    assert res.stderr.endswith("A seed 0: the worker failed or timed out\n"
                               "B seed 0: the worker failed or timed out\n")
    assert res.stdout == ""


def test_a_checkout_without_a_runner_is_a_usage_error(tmp_path):
    res = _run(ROOT, tmp_path, "--workload", "invariant", "--pairs", "1")
    assert res.returncode == 2 and "has no perfbench/run.py" in res.stderr
