"""Train the benchmark's models once and write every fixture it checks against.

Run from the repository root with the code whose behaviour is the reference:

    python3 benchmarks/gen_fixtures.py

It writes into ``benchmarks/fixtures/``: the vocabularies; the LM, NMT and
deep-fusion checkpoints (embed 24, hidden 48, trained on 1-24-token
constrained-target data); a source pool per length band; the reference
translation of every pool sentence in every decoding mode; the training
pairs and LM sentences of each band; the reference (loss, grad norm) log of
every training variant; and ``MANIFEST.json`` with the sha256 of each file.
Everything is seeded, so a rerun on the same code reproduces the files.
"""

from __future__ import annotations

import functools
import hashlib
import os
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import workloads as W  # noqa: E402
from fusionmt import checkpoint, decoding, training  # noqa: E402
from fusionmt.data import (  # noqa: E402
    build_vocab,
    encode_pairs,
    make_toy_corpus,
)
from fusionmt.evaluation import bleu  # noqa: E402
from fusionmt.models import (  # noqa: E402
    FusedModel,
    LmConfig,
    NmtConfig,
    NmtModel,
    RnnLm,
)

SEED = 1503
EMBED, HIDDEN = 24, 48


def sha256_file(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def gold_translation(src_tokens) -> list[str]:
    """Clean constrained-target translation (article before every noun)."""
    out = []
    for tok in src_tokens:
        i = int(tok[1:])
        out.extend([f"p{i}"] if i <= 6 else ["da", f"n{i - 6}"])
    return out


def train_models(log):
    corpus = make_toy_corpus("constrained-target", 3000, 40, 1, seed=SEED,
                             n_mono=6000, min_len=1, max_len=24)
    tgt_vocab = build_vocab([t for _, t in corpus.train] + corpus.mono, cap=16)
    src_vocab = build_vocab([s for s, _ in corpus.train], cap=15)
    tgt_vocab.save(W.fixture_path("tgt.vocab"))
    src_vocab.save(W.fixture_path("src.vocab"))
    train = encode_pairs(corpus.train, src_vocab, tgt_vocab)
    dev = encode_pairs(corpus.dev, src_vocab, tgt_vocab)
    mono = [tgt_vocab.encode(s) for s in corpus.mono]

    t0 = time.perf_counter()
    lm = RnnLm(LmConfig(vocab=len(tgt_vocab), embed_dim=EMBED, hidden=HIDDEN),
               np.random.default_rng(SEED + 1))
    lm_ckpt, _ = training.train_lm(lm, mono[50:], mono[:50], training.TrainConfig(
        batch_size=64, optimizer="adam", learning_rate=2e-3, max_updates=300,
        eval_interval=100, patience=3, seed=SEED + 1))
    checkpoint.save_checkpoint(W.fixture_path("lm.ckpt"), lm_ckpt)
    log(f"lm: dev perplexity {lm_ckpt.meta['best_dev_perplexity']:.3f} "
        f"({time.perf_counter() - t0:.0f} s)")

    t0 = time.perf_counter()
    nmt = NmtModel(NmtConfig(src_vocab=len(src_vocab), tgt_vocab=len(tgt_vocab),
                             embed_dim=EMBED, hidden=HIDDEN),
                   np.random.default_rng(SEED + 2))
    nmt_ckpt, _ = training.train_nmt(nmt, train, dev, training.TrainConfig(
        batch_size=32, optimizer="adam", learning_rate=2e-3, max_updates=2000,
        eval_interval=250, patience=8, seed=SEED + 2))
    checkpoint.save_checkpoint(W.fixture_path("nmt.ckpt"), nmt_ckpt)
    log(f"nmt: dev BLEU {nmt_ckpt.meta['best_dev_bleu']:.2f} "
        f"({time.perf_counter() - t0:.0f} s)")

    t0 = time.perf_counter()
    fm = FusedModel(checkpoint.build_nmt(nmt_ckpt), checkpoint.build_lm(lm_ckpt),
                    np.random.default_rng(SEED + 3))
    fused_ckpt, _ = training.finetune_deep_fusion(
        fm, train, dev, training.FinetuneConfig(
            batch_size=32, optimizer="adam", learning_rate=1e-3,
            max_updates=200, eval_interval=50, patience=8, seed=SEED + 3))
    checkpoint.save_checkpoint(W.fixture_path("fused.ckpt"), fused_ckpt)
    log(f"fused: dev BLEU {fused_ckpt.meta['best_dev_bleu']:.2f} "
        f"({time.perf_counter() - t0:.0f} s)")
    return src_vocab, tgt_vocab


def write_band(band: W.Band, src_vocab, tgt_vocab, models, log):
    rng = np.random.default_rng([SEED, len(band.lengths), band.lengths[0]])
    source_ids = list(range(3, len(src_vocab)))
    pool = [[int(t) for t in rng.choice(source_ids, size=n)]
            for n in band.lengths for _ in range(band.per_length)]
    W.write_id_lines(W.fixture_path(f"pool_{band.name}.src"), pool)

    nmt, lm, fused = models
    refs = {}
    gold = [gold_translation(src_vocab.decode(s)) for s in pool]
    for mode in W.MODES:
        cfg = W.beam_config(band, mode)
        t0 = time.perf_counter()
        out = []
        for src in pool:
            res = decoding.translate(src, cfg, nmt=nmt, lm=lm, fused=fused)
            if not np.isfinite(res.score):
                raise SystemExit(f"non-finite score decoding {src} in {mode}")
            out.append(res.tokens)
        refs[mode] = out
        ms = 1000 * (time.perf_counter() - t0) / len(pool)
        hyp_len = np.mean([len(o) for o in out])
        score = bleu([tgt_vocab.decode(o) for o in out], gold).score
        log(f"{band.name} {mode}: {ms:.1f} ms/sentence, mean output "
            f"{hyp_len:.1f} tokens (gold {np.mean([len(g) for g in gold]):.1f}),"
            f" BLEU {score:.1f}")
    W.write_json(W.fixture_path(f"ref_{band.name}.json"), refs)

    lo, hi = band.lengths[0], band.lengths[-1]
    corpus = make_toy_corpus("constrained-target", band.train_pairs + 1, 1, 1,
                             seed=SEED + hi, n_mono=band.train_pairs + 1,
                             min_len=lo, max_len=hi)
    pairs = encode_pairs(corpus.train, src_vocab, tgt_vocab)
    W.write_id_lines(W.fixture_path(f"train_{band.name}.src"),
                     [p.src for p in pairs])
    W.write_id_lines(W.fixture_path(f"train_{band.name}.tgt"),
                     [p.tgt for p in pairs])
    W.write_id_lines(W.fixture_path(f"mono_{band.name}.txt"),
                     [tgt_vocab.encode(s) for s in corpus.mono])

    data = W.load_train_data(band)
    nmt_ckpt = checkpoint.load_checkpoint(W.fixture_path("nmt.ckpt"))
    lm_ckpt = checkpoint.load_checkpoint(W.fixture_path("lm.ckpt"))
    train_ref = {}
    t0 = time.perf_counter()
    for variant in range(W.TRAIN_VARIANTS):
        train_ref[str(variant)] = {
            loop: W.log_columns(
                W.prepare_block(loop, data, variant, nmt_ckpt, lm_ckpt)()[1])
            for loop in W.LOOPS}
    W.write_json(W.fixture_path(f"train_ref_{band.name}.json"), train_ref)
    log(f"{band.name}: {W.TRAIN_VARIANTS} training variants "
        f"({time.perf_counter() - t0:.0f} s)")


def main() -> int:
    os.makedirs(W.FIXTURES, exist_ok=True)
    log = functools.partial(print, flush=True)
    src_vocab, tgt_vocab = train_models(log)
    models = (
        checkpoint.build_nmt(checkpoint.load_checkpoint(W.fixture_path("nmt.ckpt"))),
        checkpoint.build_lm(checkpoint.load_checkpoint(W.fixture_path("lm.ckpt"))),
        checkpoint.build_fused(
            checkpoint.load_checkpoint(W.fixture_path("fused.ckpt"))),
    )
    for band in W.BANDS.values():
        write_band(band, src_vocab, tgt_vocab, models, log)
    names = sorted(n for n in os.listdir(W.FIXTURES) if n != "MANIFEST.json")
    W.write_json(W.fixture_path("MANIFEST.json"),
                 {n: sha256_file(W.fixture_path(n)) for n in names})
    log(f"wrote {len(names)} fixtures and MANIFEST.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
