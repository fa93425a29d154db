"""Self-test of the benchmark at tiny scale (2 items, 500 requests).

    PYTHONPATH=src python -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import pipelines  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

TINY = ["--items", "2", "--table2-requests", "500", "--spec-requests", "500"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def tiny():
    """One untraced and one traced tiny child result per workload."""
    results = {}
    for workload in run.WORKLOADS:
        results[workload] = {
            traced: run.spawn(workload, 0, traced=traced, scale_args=TINY) for traced in (False, True)
        }
        for result in results[workload].values():
            assert "crash" not in result, result
    return results


def test_metric_names_match_benchmark_json(tiny):
    benchmark = run.load_benchmark()
    assert [w["name"] for w in benchmark["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(pipelines.WORKLOADS)
    for group in ("end_to_end", "per_layer"):
        for metric in benchmark[group]:
            assert NAME.match(metric["name"]), metric
            assert metric["unit"] == run.unit_of(metric["name"]), metric
    for workload, by_kind in tiny.items():
        runs = {"probes": [], "untraced": [by_kind[False]], "traced": [by_kind[True]]}
        result = run.workload_result(runs, None)
        for metric in benchmark["end_to_end"]:
            assert metric["name"] in result["metrics"], (workload, metric)
        for metric in benchmark["per_layer"]:
            assert metric["name"] in result["layers"], (workload, metric)
        line = run.summary_line({workload: result}, True, benchmark)
        assert line["correct"] and line["failed"] == 0
        assert line["attempted"] == 2 * len(by_kind[False]["items"])


def test_spans_nest_and_self_times_sum_to_wall(tiny):
    for workload, by_kind in tiny.items():
        traced = by_kind[True]
        recorded = traced["spans"]
        assert recorded, workload
        for span in recorded:
            assert span["start"] <= span["end"]
            assert span["name"] in spans.LAYERS
            if span["parent"] >= 0:
                parent = recorded[span["parent"]]
                assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
        layers = traced["layers"]
        attributed = sum(layers[f"{layer}.self_s"] for layer in spans.LAYERS)
        assert attributed + layers["eval.self_s"] == pytest.approx(traced["wall_s"], abs=1e-9)
        assert layers["eval.self_s"] >= 0


def test_each_workload_takes_the_paths_it_was_chosen_for(tiny):
    layers = {workload: by_kind[True]["layers"] for workload, by_kind in tiny.items()}
    dram = layers["dram_validation"]
    assert (dram["profile.build.mcc.calls"], dram["profile.build.stm.calls"]) == (2, 2)
    assert dram["replay.batched.calls"] == 6 and dram["replay.distinct_input_ratio"] == 1.0
    sweep = layers["interval_sweep"]
    assert sweep["profile.build.stm.calls"] == 0
    assert sweep["replay.distinct_input_ratio"] == pytest.approx(2 / 3)
    cache = layers["cache_validation"]
    assert cache["replay.calls"] == 0 and cache["cache.sim.calls"] == 16
    assert cache["baselines.hrd.fit.calls"] == cache["baselines.hrd.synthesize.calls"] == 2
    scalar = layers["scalar_replay"]
    assert (scalar["replay.scalar.calls"], scalar["replay.feedback.calls"]) == (2, 2)
    assert scalar["replay.batched.calls"] == 0
    for workload in ("dram_validation", "interval_sweep", "cache_validation"):
        assert layers[workload]["replay.scalar.calls"] == 0, workload


def test_tracer_nests_spans_and_subtracts_children():
    tracer = spans.Tracer()
    inner = tracer._wrap(lambda: sum(range(1000)), "synthesize")
    outer = tracer._wrap(lambda: inner() + inner(), "replay.feedback")
    outer()
    assert [span.parent for span in tracer.spans] == [-1, 0, 0]
    own = tracer.self_times()
    assert own[0] == pytest.approx(
        (tracer.spans[0].end - tracer.spans[0].start) - sum(own[1:]), abs=1e-12
    )


def test_traced_outputs_equal_untraced(tiny):
    for workload, by_kind in tiny.items():
        plain, traced = by_kind[False], by_kind[True]
        assert plain["items"] == traced["items"], workload
        assert plain["sums"] == traced["sums"], workload
        assert plain["model_error_pct"] == traced["model_error_pct"], workload
        assert all(plain["items"].values()) and not plain["errors"], workload


def test_tampered_golden_counts_as_failed_op(tiny):
    result = tiny["dram_validation"][False]
    golden = {"items": dict(result["items"]), "figure": None}
    assert run.check([result], golden)["failed"] == 0
    first = next(iter(golden["items"]))
    golden["items"][first] = "0" * 64
    verdict = run.check([result], golden)
    assert (verdict["attempted"], verdict["failed"]) == (2, 1)
    assert "misses the golden" in verdict["failures"][0]


def test_compare_flags_digest_mismatch_and_regression(tiny, capsys):
    benchmark = run.load_benchmark()
    runs = {"probes": [], "untraced": [tiny["cache_validation"][False]], "traced": []}
    workload = run.workload_result(runs, None)
    report = {"host": {"seed": 0, "scale": {}}, "workloads": {"cache_validation": workload}}
    assert compare.compare(report, report, benchmark) == 0

    tampered = json.loads(json.dumps(report))
    item = next(iter(tampered["workloads"]["cache_validation"]["items"]))
    tampered["workloads"]["cache_validation"]["items"][item] = "0" * 64
    assert compare.compare(report, tampered, benchmark) == 1
    assert "DIGEST MISMATCH" in capsys.readouterr().out

    slower = json.loads(json.dumps(report))
    slower["workloads"]["cache_validation"]["samples"]["wall_s"] = [
        value * 2 for value in workload["samples"]["wall_s"]
    ]
    assert compare.compare(report, slower, benchmark) == 1
    assert "REGRESSION" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--workload", "nope"], "invalid choice: 'nope'"),
        (["--repeats", "0"], "--repeats must be at least 1"),
        (["--repeats", "2", "--seconds", "5"], "either --repeats or --seconds"),
        (["--write-goldens", "--seed", "3"], "seed 0 only"),
    ],
)
def test_bad_arguments_name_the_problem(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        run.parse_args(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dram_validation", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no repro package" in proc.stderr
