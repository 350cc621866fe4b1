"""Pinned parameter names of public functions and constructors whose
settings the method fixes, and the constants that replaced those settings.
A setting that comes back as a keyword argument or a config field fails
here until this table is edited too."""

import importlib
import inspect

import numpy as np
import pytest

from fusionmt.data import EOS_ID, UNK_ID
from fusionmt.decoding import BETA_GRID, MODELS, SHALLOW_EXCLUSION

# "<module>.<name>" under fusionmt -> its parameter names, in order; a class
# stands for its constructor
PINNED = {
    "layers.gaussian": ["rng", "shape"],
    "layers.GruCell": ["prefix", "input_size", "hidden_size", "params", "rng"],
    "layers.LstmCell": ["prefix", "input_size", "hidden_size", "params", "rng"],
    "models.NmtModel": ["cfg", "rng"],
    "models.RnnLm": ["cfg", "rng"],
    "models.Controller": ["lm_hidden", "params"],
    "models.encode": ["model", "source", "src_mask"],
    "models.decode_step": ["model", "s_prev", "y_prev", "ann"],
    "models.lm_step": ["lm", "state", "y_prev"],
    "models.fused_step": ["fm", "s_tm_prev", "lm_state_prev", "y_prev", "ann"],
    "models.nmt_batch_loss": ["model", "batch", "dropout_p", "rng"],
    "models.lm_batch_loss": ["lm", "batch"],
    "models.fused_batch_loss": ["fm", "batch", "dropout_p", "rng"],
    "decoding.ShallowConfig": ["beta"],
    "decoding.lm_renormalize": ["lm_logp", "exclusion"],
    "decoding.shallow_score": ["tm_logp", "lm_logp_renorm", "beta",
                               "exclusion"],
    "decoding.replace_unk": ["target_tokens", "attention", "source_tokens"],
    "evaluation.bleu": ["candidates", "references"],
    "training.oov_filter": ["sentences"],
    "checkpoint.restore_params": ["params", "ckpt"],
    "checkpoint.to_checkpoint": ["model", "meta"],
    "checkpoint.build": ["ckpt", "kind"],
    "evaluation.decode_bleu": ["pairs", "beam_cfg", "models"],
    "tensor.nll": ["logits", "targets", "weights", "c"],
    # an affine map is one node: its bias rides in the matmul
    "tensor.matmul": ["a", "b", "bias"],
    # a dropout mask is a plain array, not a tape input
    "tensor.mul": ["a", "b"],
    # a parameter starts trainable; freezing is value.requires_grad = False
    "tensor.Parameter": ["pid", "value", "noisy", "gates"],
    # a recurrent op takes its cell's joined (W, U, b) once, as ``cell``
    "tensor.gru": ["s_prev", "x", "cell", "keep", "reverse"],
    "tensor.lstm": ["h_prev", "c_prev", "x", "cell"],
    "tensor.attention_gru": ["s_prev", "y", "proj", "h", "mask", "attn",
                             "cell"],
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_signature_pinned(name):
    module, attr = name.split(".")
    obj = getattr(importlib.import_module(f"fusionmt.{module}"), attr)
    assert list(inspect.signature(obj).parameters) == PINNED[name]


def test_fixed_values():
    assert SHALLOW_EXCLUSION == {EOS_ID, UNK_ID}
    assert BETA_GRID == tuple(np.geomspace(0.001, 0.1, 7).tolist())
    assert all(type(b) is float for b in BETA_GRID)
    assert MODELS == {"none": ("nmt",), "shallow": ("nmt", "lm"),
                      "deep": ("fused",)}
