"""Short runs of every workload: each metric in BENCHMARK.json is emitted
with its unit, the per-layer counts behave as the workloads predict, and the
benchmark refuses to run without the library or with a changed fixture.

    python3 -m pytest benchmarks/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
SPEC = os.path.join(ROOT, "BENCHMARK.json")


def _run(cwd, workload, trace, seed=5, seconds=1):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def _result(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def spec():
    with open(SPEC, encoding="utf-8") as f:
        return json.load(f)


@pytest.fixture(scope="module")
def results(spec):
    return {(w["name"], trace): _result(w["name"], trace)
            for w in spec["workloads"] for trace in (0, 1)}


def test_every_metric_is_emitted_with_its_unit(spec, results):
    for (workload, trace), res in results.items():
        assert sorted(res) == ["attempted", "correct", "failed", "metrics"]
        assert res["correct"] is True and res["failed"] == 0
        assert res["attempted"] >= 1
        declared = spec["per_layer" if trace else "end_to_end"]
        assert {k: v["unit"] for k, v in res["metrics"].items()} == {
            m["name"]: m["unit"] for m in declared}, (workload, trace)
        if not trace:
            assert all(v["value"] > 0 for v in res["metrics"].values())


def test_per_layer_counts_follow_the_workloads(results):
    beam, long = ({k: v["value"] for k, v in results[(w, 1)]["metrics"].items()}
                  for w in ("short-beam", "long-greedy"))
    assert long["decode.decoding.expand_per_step"] == 1.0
    assert beam["decode.decoding.expand_per_step"] > 1.0
    positions = "decode.models.attend.positions"
    assert long[positions] > beam[positions]
    for m in (beam, long):
        assert m["trace.absent"] == 0
        # only shallow fusion renormalizes the LM; one of three modes is shallow
        assert m["decode.decoding.lm_renormalize.calls"] > 0
        assert m["decode.decoding.BeamScorer.expand.calls"] > 0
        for phase in ("nmt", "lm", "finetune"):
            assert m[f"{phase}.tensor.tape_nodes"] > 0
            assert 0.0 <= m[f"{phase}.training.clip_rate"] <= 1.0
            assert m[f"{phase}.training.Optimizer.step.self_ms"] > 0
        assert m["finetune.models.fused_step.self_ms"] > 0
        assert m["nmt.models.attend.calls"] > 0
        assert m["lm.layers.lstm_step.calls"] > 0
        assert m["setup.checkpoint.load_checkpoint.self_ms"] > 0
        assert m["setup.checkpoint.build_fused.self_ms"] > 0


def _copy_benchmark(dest, with_src):
    shutil.copy(SPEC, dest)
    shutil.copytree(BENCH, os.path.join(dest, "benchmarks"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_src:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dest, "src"),
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))


def test_refuses_without_the_library(tmp_path):
    _copy_benchmark(tmp_path, with_src=False)
    proc = _run(tmp_path, "short-beam", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
    assert "fusionmt sources not found" in proc.stderr


def test_refuses_a_changed_fixture(tmp_path):
    _copy_benchmark(tmp_path, with_src=True)
    path = tmp_path / "benchmarks" / "fixtures" / "pool_short.src"
    path.write_text(path.read_text() + "3\n")
    proc = _run(tmp_path, "short-beam", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
    assert "pool_short.src does not match its digest" in proc.stderr


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
