"""Workload definitions shared by the fixture generator and the runner.

Every workload is a single closed-loop client that alternates between two
kinds of request against fusionmt's public API:

* decoding one source sentence with ``decoding.translate`` in the modes
  ``none``, ``shallow`` and ``deep``, in that order;
* one block of ``UPDATES_PER_BLOCK`` updates of each training loop
  (``train_nmt``, ``train_lm``, ``finetune_deep_fusion``), each block a
  whole public call that starts from the same seeded state.

The two workloads differ in the input property the decoder and the training
loops depend on: source length and beam width.  ``short-beam`` keeps sources
short and the beam wide, so the per-hypothesis beam machinery dominates;
``long-greedy`` uses long sources and K=1, so the encoder and attention over
many source positions dominate and the beam does almost nothing.

The inputs of a run come only from ``--seed``: it orders the committed
source pool and picks one of ``TRAIN_VARIANTS`` training variants (the
initialisation of the NMT and LM blocks), every one of which has a committed
reference log.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")

MODES = ("none", "shallow", "deep")
LOOPS = ("nmt", "lm", "finetune")
BETA = 0.05  # shallow-fusion LM weight
BATCH_SIZE = 32
UPDATES_PER_BLOCK = 4
TRAIN_VARIANTS = 16
NEVER = 10**9  # eval_interval / patience beyond any block length


@dataclass(frozen=True)
class Band:
    name: str
    lengths: tuple  # source lengths, one pool stratum each
    beam_width: int
    per_length: int  # pool sentences per source length (small enough that
                     # a run decodes the whole pool at least once)
    train_pairs: int  # training pairs (and LM sentences) for the blocks


BANDS = {
    "short": Band("short", tuple(range(1, 9)), beam_width=10, per_length=12,
                  train_pairs=256),
    "long": Band("long", tuple(range(16, 25)), beam_width=1, per_length=8,
                 train_pairs=256),
}

WORKLOADS = {
    "short-beam": "short",
    "long-greedy": "long",
}


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)


def read_id_lines(path) -> list[list[int]]:
    with open(path, encoding="utf-8") as f:
        return [[int(t) for t in ln.split()] for ln in f]


def write_id_lines(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for row in rows:
            f.write(" ".join(str(int(t)) for t in row) + "\n")


def read_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, sort_keys=True, indent=1)
        f.write("\n")


# ---------------------------------------------------------------------------
# inputs made from the seed
# ---------------------------------------------------------------------------

def decode_schedule(band: Band, seed: int):
    """Endless stream of pool indices.

    Each pass decodes the whole pool in a seeded order, in rounds that take
    one sentence of every source length, so even a partial pass has the
    pool's length mix and per-sentence medians do not drift with the seed."""
    rng = np.random.default_rng([seed % 2**32, 1])  # any int, even negative
    n_len, per = len(band.lengths), band.per_length
    while True:
        order = [rng.permutation(per) for _ in range(n_len)]
        for r in range(per):
            for li in rng.permutation(n_len):
                yield int(li) * per + int(order[li][r])


def train_variant(seed: int) -> int:
    return seed % TRAIN_VARIANTS


@dataclass
class TrainData:
    pairs: list  # SentencePair
    dev: list  # one SentencePair
    mono: list  # LM sentences (id lists)
    mono_dev: list  # one LM sentence


def load_train_data(band: Band) -> TrainData:
    from fusionmt.data import SentencePair

    src = read_id_lines(fixture_path(f"train_{band.name}.src"))
    tgt = read_id_lines(fixture_path(f"train_{band.name}.tgt"))
    mono = read_id_lines(fixture_path(f"mono_{band.name}.txt"))
    pairs = [SentencePair(s, t) for s, t in zip(src, tgt)]
    return TrainData(pairs=pairs[1:], dev=pairs[:1], mono=mono[1:],
                     mono_dev=mono[:1])


def prepare_block(loop: str, data: TrainData, variant: int, nmt_ckpt, lm_ckpt):
    """Build the models for one training block (untimed) and return the
    public call to time.  Each block starts from the same state, so its log
    must equal the reference log of its variant.

    The variant seeds only the NMT and LM initialisation.  Batch order,
    dropout and weight noise use the fixed training seed 0, so every variant
    pads the same batches and costs the same; finetuning starts from the
    committed checkpoints and is the same in every variant."""
    from fusionmt import checkpoint, training
    from fusionmt.models import FusedModel, LmConfig, NmtConfig, NmtModel, RnnLm

    if loop == "nmt":
        a = nmt_ckpt.arch
        model = NmtModel(NmtConfig(src_vocab=a["src_vocab"],
                                   tgt_vocab=a["tgt_vocab"],
                                   embed_dim=a["embed_dim"], hidden=a["hidden"]),
                         np.random.default_rng([variant, 2]))
        cfg = training.TrainConfig(
            batch_size=BATCH_SIZE, optimizer="adam", learning_rate=2e-3,
            max_updates=UPDATES_PER_BLOCK, eval_interval=NEVER, patience=1,
            seed=0)
        return lambda: training.train_nmt(model, data.pairs, data.dev, cfg)
    if loop == "lm":
        a = lm_ckpt.arch
        lm = RnnLm(LmConfig(vocab=a["vocab"], embed_dim=a["embed_dim"],
                            hidden=a["hidden"]),
                   np.random.default_rng([variant, 3]))
        cfg = training.TrainConfig(
            batch_size=BATCH_SIZE, optimizer="adam", learning_rate=2e-3,
            max_updates=UPDATES_PER_BLOCK, eval_interval=NEVER, patience=1,
            seed=0)
        return lambda: training.train_lm(lm, data.mono, data.mono_dev, cfg)
    if loop == "finetune":
        fm = FusedModel(checkpoint.build_nmt(nmt_ckpt),
                        checkpoint.build_lm(lm_ckpt),
                        np.random.default_rng([variant, 4]))
        cfg = training.FinetuneConfig(
            batch_size=BATCH_SIZE, optimizer="adam", learning_rate=1e-3,
            max_updates=UPDATES_PER_BLOCK, eval_interval=NEVER, patience=1,
            seed=0)
        return lambda: training.finetune_deep_fusion(fm, data.pairs, data.dev,
                                                     cfg)
    raise ValueError(f"unknown training loop {loop!r}")


def log_columns(history) -> list[list[float]]:
    """(loss, grad norm) of every line of a training log."""
    out = []
    for line in history.lines:
        fields = line.split("\t")
        out.append([float(fields[1]), float(fields[2])])
    return out


def beam_config(band: Band, mode: str):
    from fusionmt import decoding

    return decoding.BeamConfig(beam_width=band.beam_width, fusion=mode,
                               shallow=decoding.ShallowConfig(beta=BETA))
