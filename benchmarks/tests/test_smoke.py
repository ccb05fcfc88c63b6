"""Smoke tests of the benchmark harness at n=21; they take seconds.

    python3 -m pytest -q benchmarks/tests

They stay out of the tier-1 suite, which collects only ``tests/``.  At n=21
the verifier's tolerances (set for n >= 81) fail some jobs, so these tests
check the harness -- result format, metric names, failure accounting -- and
not ``failed == 0``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
SCRIPT = BENCH_DIR / "bench.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import bench  # noqa: E402
import jobs  # noqa: E402
import minksurf.meshout as meshout  # noqa: E402
import minksurf.surfaces as surfaces  # noqa: E402
from tracer import Tracer  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(SCRIPT), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    assert result["correct"] == (result["failed"] == 0)
    return result


def _units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_reports_end_to_end_metrics(workload):
    result = _result(_bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                            "--trace", "0", "--smoke"))
    assert _units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    result = _result(_bench("--workload", "export", "--seed", "3", "--seconds", "0.2",
                            "--trace", "1", "--smoke"))
    assert _units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    shares = [m["value"] for k, m in result["metrics"].items() if k.startswith("share.")]
    assert 0.5 < sum(shares) <= 1.0 + 1e-9
    assert result["metrics"]["meshout.obj_s"]["value"] > 0
    spans = json.loads((ROOT / ".bench_out" / "spans-export-seed3-trace1.json").read_text())
    assert spans["missing_points"] == []
    assert {s[0] for s in spans["sweep"]["spans"]} >= {"surfaces.quadric", "surfaces.uy_perturb",
                                                       "surfaces.lw", "meshout.export",
                                                       "meshout.csv"}


def test_spec_matches_harness():
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == bench.per_layer_names()
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(bench.END_TO_END)
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


def test_same_seed_same_inputs():
    assert jobs.Inputs.draw(7) == jobs.Inputs.draw(7)
    draws = [jobs.Inputs.draw(s) for s in range(50)]
    assert all(0 <= d.c <= 0.25 and d.a in (-0.5, 0.5) and 0.2 <= d.eta <= 0.3 for d in draws)


def test_changed_bytes_fail_the_job(tmp_path, monkeypatch):
    runner, digests = bench.Runner(), {}
    job = jobs.export_job("quadric-h3-obj-csv", jobs.Inputs.draw(0), 21, str(tmp_path),
                          digests, gate_verification=False)
    runner.execute(job, "warmup")
    runner.execute(job, "warmup")
    assert [r["errors"] for r in runner.records] == [[], []]
    write_obj = meshout._write_obj
    monkeypatch.setattr(meshout, "_write_obj",
                        lambda path, verts, tris: write_obj(path, verts[:, ::-1], tris))
    runner.execute(job, "warmup")
    assert any("bytes differ" in e for e in runner.records[-1]["errors"])


def test_pinned_counts_and_exceptions_fail_the_job(monkeypatch):
    runner, inputs = bench.Runner(), jobs.Inputs.draw(0)
    monkeypatch.setitem(jobs.PINS, ("quadric-h3", 21), {"unmasked": 1})
    runner.execute(jobs.transport_job("quadric-h3", inputs, 21, gate_verification=False), "t")
    assert runner.records[-1]["errors"] == ["unmasked = 441, pinned 1"]

    def broken(*args, **kwargs):
        raise FloatingPointError("injected")

    monkeypatch.setattr(surfaces, "make_quadric_surface", broken)
    runner.execute(jobs.transport_job("quadric-h3", inputs, 21), "t")
    assert "injected" in runner.records[-1]["errors"][0]


def test_self_time_subtracts_children():
    ticks = iter([0.0, 2.0, 5.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("job", job="j"):
        with tracer.span("verify.verify_surface"):
            pass
    assert tracer.self_s == {"job": 7.0, "verify.verify_surface": 3.0}
    assert [s[3] for s in tracer.spans] == [None, 0]
    assert tracer.durations("job", job="j") == [10.0]


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "benchmarks/bench.py", "--workload", "export",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
