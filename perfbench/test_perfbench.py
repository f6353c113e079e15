"""Tests of the benchmark itself, on a smoke dataset of 5 frames x 5 instances.

Run from the repository root:  python3 -m pytest -q perfbench
"""
import json
import shutil
import subprocess
import sys
import time

import pytest

import run

sys.path.insert(0, str(run.ROOT / "src"))

import tracing  # noqa: E402
import vehicle3d.cli  # noqa: E402
import workloads  # noqa: E402

SMOKE = {"frames": 5, "instances": 5}  # shape-learn needs 20 usable instances
SEED = 3


def smoke_run(name, trace=False):
    return run.run_benchmark(name, SEED, 0.0, trace, 0.0, **SMOKE)


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        (name, unit, better) for name, unit, better, _ in run.END_TO_END
    ]
    assert [m["bound"] for m in spec["end_to_end"]] == [b for *_, b in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in tracing.LAYER_METRICS
    ]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_is_emitted_and_output_matches_a_direct_cli_run(name, tmp_path):
    result = smoke_run(name, trace=True)
    assert result["correct"], result["problems"]
    assert result["failed"] == 0
    assert set(result["end_to_end"]) == {m[0] for m in run.END_TO_END}
    assert set(result["per_layer"]) == {m[0] for m in tracing.LAYER_METRICS}
    assert all(v > 0 for v in result["end_to_end"].values())

    data, out = tmp_path / "data", tmp_path / "out"
    env = {"PYTHONPATH": str(run.ROOT / "src")}
    argv = [sys.executable, "-m", "vehicle3d", "synth", "--seed", str(SEED),
            "--frames", SMOKE["frames"], "--instances", SMOKE["instances"], "--out", data]
    subprocess.run([str(a) for a in argv], check=True, env=env, capture_output=True)
    workload = workloads.WORKLOADS[name]
    subprocess.run([sys.executable, "-m", "vehicle3d", *workload.command(data, out)],
                   env=env, capture_output=True)
    assert workloads.tree_digest(out, workload.tree) == result["digest"]


def test_main_prints_the_result_line_last(capsys):
    assert run.main(["--workload", "fit", "--seed", "7", "--seconds", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 250
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        name: unit for name, unit, _, _ in run.END_TO_END
    }
    # seed 7: three v4 boxes print a width of 0.000000
    assert any("degenerate_share" in line and "(3/250)" in line for line in lines)


def test_a_corrupted_pass_counts_as_failed(monkeypatch):
    emit = vehicle3d.cli.emit_labels
    prediction_files = []

    def corrupting_emit(records):
        text = emit(records)
        if any(r.score is not None for r in records):  # predictions, not synth's labels
            prediction_files.append(text)
            if len(prediction_files) > SMOKE["frames"]:
                text += " "
        return text

    monkeypatch.setattr(vehicle3d.cli, "emit_labels", corrupting_emit)
    result = smoke_run("fit", trace=True)  # one untraced pass, then a traced one
    ops = SMOKE["frames"] * SMOKE["instances"]
    assert (result["attempted"], result["failed"]) == (2 * ops, ops)
    assert result["quality"]["failed_share"] == 0.5
    assert result["end_to_end"]["ok_share"] == 0.5
    assert not result["correct"]


def test_traced_counts_repeat_exactly():
    def counts(result):
        return {k: v for k, v in result["per_layer"].items()
                if k.endswith((".calls", "iterations_p50", "iterations_p95", ".iterations",
                               "accept_ratio", "converged_share"))}

    first, second = counts(smoke_run("ablate", True)), counts(smoke_run("ablate", True))
    assert first == second
    assert first["refine.refine.calls"] == 2 * 3 * SMOKE["frames"] * SMOKE["instances"]
    assert first["metrics.pr_curve.calls"] == 36


def test_fails_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_speed_sampler_subtracts_its_own_time():
    from speed import SpeedSampler

    deadline = time.perf_counter() + 0.3
    with SpeedSampler(0.02) as sampler:
        while time.perf_counter() < deadline:
            pass
    assert len(sampler.samples) >= 5
    assert 0 < sampler.spent_s < sampler.wall_s
    assert sampler.busy_s == pytest.approx(sampler.wall_s - sampler.spent_s)
    assert sampler.reference_s() == pytest.approx(sampler.busy_s * sampler.speed())
