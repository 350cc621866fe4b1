"""The outside-in tracer: absent names, restoration, and an untraced run
that installs nothing.

    python3 -m pytest benchmarks/tests
"""

import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
for _path in (BENCH, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import numpy as np  # noqa: E402

import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from fusionmt import checkpoint, decoding, layers, models, training  # noqa: E402
from fusionmt.models import NmtConfig, NmtModel  # noqa: E402


def _snapshot():
    """Every attribute of every fusionmt module and class, by identity."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith("fusionmt"):
            continue
        for attr, value in vars(mod).items():
            snap[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    snap[(name, attr, cattr)] = cvalue
    return snap


def _tiny_translate():
    nmt = NmtModel(NmtConfig(src_vocab=7, tgt_vocab=8, embed_dim=4, hidden=5),
                   np.random.default_rng(0))
    return decoding.translate([3, 4, 5], decoding.BeamConfig(beam_width=2),
                              nmt=nmt)


def test_missing_name_is_reported_absent_and_does_not_fail():
    targets = tracer_mod.TARGETS + ("decoding.BeamScorer.no_such_method",
                                    "models.no_such_function",
                                    "no_such_module.f")
    tr = tracer_mod.Tracer(targets)
    with tr:
        tr.phase = "decode"
        _tiny_translate()
    assert tr.absent == ["decoding.BeamScorer.no_such_method",
                         "models.no_such_function", "no_such_module.f"]
    assert tr.stat("decode", "models.attend").calls > 0
    assert tr.tensors["decode"] > 0


def test_wrappers_cover_every_binding_and_are_all_restored():
    before = _snapshot()
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        # imported names are patched too, not only the definitions
        for fn in (decoding.decode_step, models.decode_step, models.gru_step,
                   layers.gru_step, training.nmt_batch_loss,
                   training.snapshot_params, checkpoint.snapshot_params):
            assert getattr(fn, "_bench_traced", False), fn
        assert decoding.decode_step is models.decode_step
        assert tr.absent == []
        tr.phase = "decode"
        _tiny_translate()
        assert tr.stat("decode", "decoding.BeamScorer.expand").calls > 0
        assert tr.stat("decode", "layers.gru_step").calls > 0
    finally:
        tr.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_self_time_excludes_child_spans():
    tr = tracer_mod.Tracer()
    with tr:
        tr.phase = "decode"
        _tiny_translate()
    translate = tr.stat("decode", "decoding.translate")
    assert 0.0 <= translate.self_s < translate.total_s
    by_id = {s[0]: s for s in tr.spans}
    for sid, parent, name, start, end, _, _ in tr.spans:
        assert end >= start
        if parent:
            assert by_id[parent][3] <= start and end <= by_id[parent][4]


def test_untraced_run_installs_no_wrapper(monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("the untraced run installed the tracer")

    monkeypatch.setattr(tracer_mod.Tracer, "install", refuse)
    before = _snapshot()
    assert run.main(["--workload", "short-beam", "--seed", "3",
                     "--seconds", "0.5", "--trace", "0"]) == 0
    assert [k for k, v in _snapshot().items() if before.get(k) is not v] == []
    out = capsys.readouterr().out.strip().splitlines()
    assert '"correct": true' in out[-1]


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
