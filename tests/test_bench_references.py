"""The benchmark's reference decodes: every pool sentence, decoded in each
fusion mode with the committed fixture checkpoints and the benchmark's beam
settings, gives the tokens recorded in ``ref_<band>.json``.  The benchmark
run makes the same check; this one needs no timed run."""

import importlib.util
import sys
from pathlib import Path

import pytest

from fusionmt import checkpoint, decoding

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  BENCH / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # its dataclasses look themselves up
    return module


W = _workloads()


@pytest.fixture(scope="module")
def models():
    return {kind: checkpoint.build(checkpoint.load_checkpoint(
        W.fixture_path(f"{kind}.ckpt")), kind)
        for kind in ("nmt", "lm", "fused")}


@pytest.mark.parametrize("mode", W.MODES)
@pytest.mark.parametrize("band", sorted(W.BANDS))
def test_pool_decodes_equal_references(models, band, mode):
    b = W.BANDS[band]
    pool = W.read_id_lines(W.fixture_path(f"pool_{band}.src"))
    ref = W.read_json(W.fixture_path(f"ref_{band}.json"))[mode]
    cfg = W.beam_config(b, mode)
    assert (cfg.beam_width, cfg.shallow.beta) == (
        {"short": 10, "long": 1}[band], 0.05)
    kwargs = {role: models[role] for role in decoding.MODELS[mode]}
    got = [decoding.translate(src, cfg, **kwargs).tokens for src in pool]
    assert len(pool) == len(ref)
    assert got == ref
