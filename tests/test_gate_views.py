"""Joined gate weights: each per-gate parameter of a GRU or LSTM cell is a
column block of its cell's joined W, U or b, and stays one through
checkpoint loading, weight noise, early-stop restores and optimizer steps,
so the cell ops, which read the joined arrays, see every write."""

import numpy as np

from fusionmt import tensor as T
from fusionmt.checkpoint import (
    build_fused,
    build_lm,
    build_nmt,
    to_checkpoint,
)
from fusionmt.data import SentencePair
from fusionmt.layers import GruCell, LstmCell, gru_step
from fusionmt.models import FusedModel, LmConfig, NmtConfig, NmtModel, RnnLm
from fusionmt.tensor import ParameterSet
from fusionmt.training import (
    FinetuneConfig,
    TrainConfig,
    finetune_deep_fusion,
    train_lm,
    train_nmt,
)

NMT_CFG = NmtConfig(src_vocab=6, tgt_vocab=6, embed_dim=4, hidden=6)
LM_CFG = LmConfig(vocab=6, embed_dim=4, hidden=5)
BITEXT = [SentencePair([3, 4], [3, 4]), SentencePair([5], [5]),
          SentencePair([4, 4, 3], [4, 4, 3]), SentencePair([5, 3], [5, 3])]


def cells(model):
    if isinstance(model, FusedModel):
        return cells(model.nmt) + cells(model.lm)
    if isinstance(model, RnnLm):
        return [model.lstm]
    return [model.enc_fwd, model.enc_bwd, model.decoder]


def assert_gate_views(model):
    """Every gate's (W, U, b) is a parameter of the model that shares memory
    with the matching joined array of its cell, in the cell's block order."""
    values = {id(p.value): p for p in model.params}
    for cell in cells(model):
        d = cell.joined[2].shape[0] // (len(cell.weights) // 3)
        for k, t in enumerate(cell.weights):
            joined = cell.joined[k % 3]
            assert id(t) in values
            assert np.shares_memory(t.data, joined), values[id(t)].id
            np.testing.assert_array_equal(
                t.data, joined[..., (k // 3) * d:(k // 3 + 1) * d])


def fresh_nmt():
    return NmtModel(NMT_CFG, np.random.default_rng(1))


def fresh_lm():
    return RnnLm(LM_CFG, np.random.default_rng(2))


def models():
    """An NMT, an LM, and a fused model over (and freezing) two more."""
    return fresh_nmt(), fresh_lm(), FusedModel(fresh_nmt(), fresh_lm(),
                                               np.random.default_rng(3))


class TestBuilt:
    def test_cells(self):
        params = ParameterSet()
        gru = GruCell("g", 2, 3, params, np.random.default_rng(0))
        lstm = LstmCell("l", 2, 3, params, np.random.default_rng(0))
        for cell, prefix, order in ((gru, "g", "zrh"), (lstm, "l", "oifg")):
            width = 3 * len(order)
            assert [a.shape for a in cell.joined] == [(2, width), (3, width),
                                                       (width,)]
            for k, gate in enumerate(order):
                for j, (kind, joined) in enumerate(zip("WUb", cell.joined)):
                    p = params.get(f"{prefix}.{kind}_{gate}")
                    assert p.value is cell.weights[3 * k + j]
                    assert np.shares_memory(p.value.data, joined)

    def test_models(self):
        for model in models():
            assert_gate_views(model)

    def test_built_from_checkpoints(self):
        nmt, lm, fm = models()
        for build, ckpt in ((build_nmt, to_checkpoint(nmt)),
                            (build_lm, to_checkpoint(lm)),
                            (build_fused, to_checkpoint(fm))):
            built = build(ckpt)
            # the views hold the loaded values, so the joined arrays do
            assert_gate_views(built)
            for p in built.params:
                np.testing.assert_array_equal(p.value.data, ckpt.params[p.id])

    def test_in_place_write_reaches_the_step(self):
        nmt = fresh_nmt()
        rng = np.random.default_rng(4)
        s, x = (T.constant(rng.standard_normal(shape))
                for shape in ((2, 6), (2, 4)))
        before = gru_step(nmt.enc_fwd, s, x).data
        nmt.params.get("nmt.enc_fwd.W_z").value.data[...] += 0.5
        after = gru_step(nmt.enc_fwd, s, x).data
        assert not np.array_equal(before, after)
        nmt.params.get("nmt.enc_fwd.W_z").value.data[...] -= 0.5
        np.testing.assert_allclose(gru_step(nmt.enc_fwd, s, x).data, before,
                                   rtol=0, atol=1e-15)


class TestTrained:
    """Weight noise and its restore, optimizer steps and the final
    early-stop restore all write in place."""

    def config(self, cls=TrainConfig, **kw):
        return cls(batch_size=2, optimizer="adam", learning_rate=1e-2,
                   max_updates=6, eval_interval=2, patience=5, seed=3,
                   weight_noise_std=0.01, **kw)

    def test_train_nmt(self):
        nmt = fresh_nmt()
        train_nmt(nmt, BITEXT, BITEXT[:2], self.config())
        assert_gate_views(nmt)

    def test_train_lm(self):
        lm = fresh_lm()
        corpus = [pair.tgt for pair in BITEXT]
        train_lm(lm, corpus, corpus[:2], self.config())
        assert_gate_views(lm)

    def test_finetune(self):
        fm = models()[2]
        finetune_deep_fusion(fm, BITEXT, BITEXT[:2],
                             self.config(FinetuneConfig, dropout_p=0.3))
        assert_gate_views(fm)
