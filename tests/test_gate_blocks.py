"""Recurrent cell parameters: a GRU or LSTM cell owns three parameters, its
joined W, U and b, each one column block per gate (GRU z|r|h, LSTM
o|i|f|g), and a checkpoint stores each gate's column block as its own block
``f"{id}_{gate}"``, the per-gate layout of checkpoint format v1."""

from pathlib import Path

import numpy as np
import pytest

from fusionmt.checkpoint import build, load_checkpoint
from fusionmt.layers import GruCell, LstmCell, gaussian, orthonormal
from fusionmt.models import FusedModel, LmConfig, NmtConfig, NmtModel, RnnLm
from fusionmt.tensor import ParameterSet

FIXTURES = Path(__file__).resolve().parents[1] / "benchmarks" / "fixtures"
# each cell's gate order, written out here rather than read from the model,
# so that two swapped gates in the checkpoint mapping fail the fixture test
CELLS = {"nmt.enc_fwd": "zrh", "nmt.enc_bwd": "zrh", "nmt.dec": "zrh",
         "lm.lstm": "oifg"}


def columns(a, k, d):
    return a[..., k * d:(k + 1) * d]


class TestCells:
    def test_cells(self):
        params = ParameterSet()
        gru = GruCell("g", 2, 3, params, np.random.default_rng(0))
        lstm = LstmCell("l", 2, 3, params, np.random.default_rng(0))
        assert [p.id for p in params] == ["g.U", "g.W", "g.b",
                                          "l.U", "l.W", "l.b"]
        for cell, prefix, order in ((gru, "g", "zrh"), (lstm, "l", "oifg")):
            width = 3 * len(order)
            assert [a.shape for a in cell.weights] == [(2, width), (3, width),
                                                       (width,)]
            for kind, value in zip("WUb", cell.weights):
                p = params.get(f"{prefix}.{kind}")
                assert p.value is value
                assert (p.gates, p.noisy) == (order, kind != "U")

    @pytest.mark.parametrize("cls, drawn, order", [(GruCell, "zrh", "zrh"),
                                                   (LstmCell, "ifog", "oifg")])
    def test_draws_gate_by_gate(self, cls, drawn, order):
        # W, U and b of each gate in turn, in the order the gates are drawn,
        # placed in the cell's column order
        cell = cls("c", 2, 3, ParameterSet(), np.random.default_rng(5))
        rng = np.random.default_rng(5)
        for gate in drawn:
            k = order.index(gate)
            w, u, b = (columns(t.data, k, 3) for t in cell.weights)
            np.testing.assert_array_equal(w, gaussian(rng, (2, 3)))
            np.testing.assert_array_equal(u, orthonormal(rng, 3))
            np.testing.assert_array_equal(b, float(gate == "f"))

    def test_models(self):
        nmt = NmtModel(NmtConfig(src_vocab=6, tgt_vocab=6, embed_dim=4,
                                 hidden=6), np.random.default_rng(1))
        lm = RnnLm(LmConfig(vocab=6, embed_dim=4, hidden=5),
                   np.random.default_rng(2))
        fm = FusedModel(nmt, lm, np.random.default_rng(3))
        assert (len(nmt.params), len(lm.params), len(fm.params)) == (22, 6, 34)
        assert sorted(p.id for p in fm.params if p.gates) == sorted(
            f"{cell}.{kind}" for cell in CELLS for kind in "WUb")


def test_built_from_checkpoints():
    # every block of each committed fixture is one parameter of the built
    # model, or one gate's column block of a cell's joined parameter
    for kind in ("nmt", "lm", "fused"):
        ckpt = load_checkpoint(FIXTURES / f"{kind}.ckpt")
        model, seen = build(ckpt, kind), []
        for p in model.params:
            order = CELLS.get(p.id.rpartition(".")[0], "")
            if not order:
                np.testing.assert_array_equal(ckpt.params[p.id], p.value.data)
                seen.append(p.id)
            d = p.value.shape[-1] // max(len(order), 1)
            for k, gate in enumerate(order):
                np.testing.assert_array_equal(ckpt.params[f"{p.id}_{gate}"],
                                              columns(p.value.data, k, d))
                seen.append(f"{p.id}_{gate}")
        assert sorted(seen) == sorted(ckpt.params), kind
