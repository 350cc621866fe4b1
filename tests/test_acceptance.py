"""End-to-end acceptance checks.

Each test covers one release criterion and prints a single PASS/FAIL line
through the ``criterion`` fixture so the run log doubles as a checklist.
The heavier tests train real (desk-scale) models; the whole module is
designed to finish on a single CPU core.
"""

import contextlib
import io
import math
import time

import numpy as np
import pytest

from fusionmt import cli, training
from fusionmt.checkpoint import param_digests
from fusionmt.data import (
    BOS_ID,
    EOS_ID,
    UNK_ID,
    SentencePair,
    article_rule_violations,
    build_vocab,
    encode_pairs,
    make_toy_corpus,
    pad_batch,
    pad_mono_batch,
)
from fusionmt.decoding import (
    BeamConfig,
    ShallowConfig,
    gate_stats,
    lm_renormalize,
    replace_unk,
    shallow_score,
    translate,
)
from fusionmt.evaluation import analysis_report, bleu, perplexity
from fusionmt.models import (
    FusedModel,
    LmConfig,
    NmtConfig,
    NmtModel,
    RnnLm,
    attend,
    decode_step,
    encode,
    fused_batch_loss,
    fused_step,
    initial_state,
    lm_batch_loss,
    lm_step,
    nmt_batch_loss,
)
from fusionmt import tensor as T
from fusionmt.training import (
    FinetuneConfig,
    TrainConfig,
    finetune_deep_fusion,
    train_lm,
    train_nmt,
)

from gradcheck import finite_difference_check

GATE_AT_INIT = 1.0 / (1.0 + math.e)  # sigmoid(-1), the fresh controller gate


def jitter_params(params, std=0.1, seed=42):
    """Move parameters off exact-tie points (zero-initialized biases can sit
    within one finite-difference step of a maxout kink)."""
    rng = np.random.default_rng(seed)
    for p in params:
        p.value.data += rng.normal(0.0, std, size=p.value.data.shape)


# ---------------------------------------------------------------------------
# 1. gradient fidelity
# ---------------------------------------------------------------------------

def test_gradient_fidelity(criterion):
    with criterion("gradient fidelity (finite differences, all models)"):
        t0 = time.monotonic()
        rng = np.random.default_rng(0)
        nmt = NmtModel(NmtConfig(src_vocab=7, tgt_vocab=8, embed_dim=4,
                                 hidden=5, deep_output_width=6), rng)
        jitter_params(nmt.params, seed=11)
        batch = pad_batch([SentencePair([3, 4, 5], [3, 4, 5, 6])])
        errs = finite_difference_check(
            lambda: nmt_batch_loss(nmt, batch), nmt.params, step=1e-5)
        assert errs
        assert max(errs.values()) < 1e-4, errs

        lm = RnnLm(LmConfig(vocab=8, embed_dim=4, hidden=5), rng)
        jitter_params(lm.params, seed=12)
        mono = pad_mono_batch([[3, 4, 5], [6, 7]])
        errs = finite_difference_check(
            lambda: lm_batch_loss(lm, mono), lm.params, step=1e-5)
        assert max(errs.values()) < 1e-4, errs

        fm = FusedModel(nmt, lm, rng)
        jitter_params(fm.params, seed=13)
        errs = finite_difference_check(
            lambda: fused_batch_loss(fm, batch), fm.params, step=1e-5)
        assert sorted(errs) == ["fuse.ctrl.b_g", "fuse.ctrl.v_g",
                                "fuse.out.W_h", "fuse.out.W_o",
                                "fuse.out.b_h", "fuse.out.b_o"]
        assert max(errs.values()) < 1e-4, errs
        assert time.monotonic() - t0 < 120.0


# ---------------------------------------------------------------------------
# 2. attention normalization and convexity
# ---------------------------------------------------------------------------

def test_attention_normalization(criterion):
    with criterion("attention normalization (1000 random decode steps)"):
        model = NmtModel(NmtConfig(src_vocab=9, tgt_vocab=9, embed_dim=4,
                                   hidden=5), np.random.default_rng(3))
        jitter_params(model.params, seed=3)
        rng = np.random.default_rng(17)
        steps = 0
        for _ in range(125):
            src = rng.integers(3, 9, size=int(rng.integers(1, 8)))
            ann = encode(model, src)
            rows = ann.h.data[0]
            lo = rows.min(axis=0) - 1e-12
            hi = rows.max(axis=0) + 1e-12
            for _ in range(8):
                s = T.constant(rng.normal(size=(1, 5)))
                y_prev = int(rng.integers(0, 9))
                # one step of one row: a T = 1, B = 1 sequence
                scores, ctx, _ = attend(model, s,
                                        model.tgt_emb.lookup([[y_prev]]), ann)
                alpha = scores.alpha.data[0]
                assert abs(alpha.sum() - 1.0) <= 1e-10
                assert np.all(alpha >= 0.0)
                c = ctx.data[0]
                assert np.all(c >= lo) and np.all(c <= hi)
                steps += 1
        assert steps == 1000


# ---------------------------------------------------------------------------
# 3. shallow fusion identity at beta = 0
# ---------------------------------------------------------------------------

def test_shallow_fusion_identity_at_beta_zero(criterion):
    with criterion("shallow fusion with beta=0 is bit-identical to baseline"):
        corpus = make_toy_corpus("copy", 4, 4, 100, seed=9, max_len=6)
        vocab = build_vocab([s for s, _ in corpus.test], cap=12)
        test = encode_pairs(corpus.test, vocab, vocab)
        rng = np.random.default_rng(21)
        nmt = NmtModel(NmtConfig(src_vocab=12, tgt_vocab=12, embed_dim=6,
                                 hidden=8), rng)
        lm = RnnLm(LmConfig(vocab=12, embed_dim=6, hidden=8), rng)
        base_cfg = BeamConfig(beam_width=4)
        sh_cfg = BeamConfig(beam_width=4, fusion="shallow",
                            shallow=ShallowConfig(beta=0.0))
        assert len(test) == 100
        for pair in test:
            base = translate(pair.src, base_cfg, nmt=nmt)
            shallow = translate(pair.src, sh_cfg, nmt=nmt, lm=lm)
            assert shallow.tokens == base.tokens
            assert shallow.score == base.score  # bit-identical


# ---------------------------------------------------------------------------
# 4. beam search matches exhaustive search
# ---------------------------------------------------------------------------

def _exhaustive_best(mode, nmt, lm, fm, src, beta, max_len):
    """Brute-force search over every output sequence up to ``max_len``:
    EOS may only appear as the final token; sequences of exactly ``max_len``
    tokens may remain unfinished.  Returns (tokens, score, finished) of the
    best candidate under the same preference order the beam uses."""
    vocab = nmt.cfg.tgt_vocab
    ann = encode(nmt, src)
    results = []

    def expand(state, lm_state, y_prev):
        if mode == "deep":
            s_new, lm_new, logp, _, _ = fused_step(fm, state, lm_state,
                                                   [y_prev], ann)
            return s_new, lm_new, logp.data[0]
        s_new, logp, _ = decode_step(nmt, state, [y_prev], ann)
        tm = logp.data[0]
        if mode == "shallow":
            lm_new, lm_logp = lm_step(lm, lm_state, [y_prev])
            renorm = lm_renormalize(lm_logp.data[0],
                                    frozenset({EOS_ID, UNK_ID}))
            return s_new, lm_new, shallow_score(tm, renorm, beta)
        return s_new, None, tm

    def rec(state, lm_state, y_prev, prefix, score):
        s_new, lm_new, fin = expand(state, lm_state, y_prev)
        for k in range(vocab):
            sc = score + fin[k]
            seq = prefix + [k]
            if k == EOS_ID:
                results.append((sc, tuple(seq), True))
            elif len(seq) == max_len:
                results.append((sc, tuple(seq), False))
            else:
                rec(s_new, lm_new, k, seq, sc)

    lm0 = lm.initial_state(1) if mode in ("shallow", "deep") else None
    rec(initial_state(nmt, ann), lm0, BOS_ID, [], 0.0)
    finished = [r for r in results if r[2]]
    pool = finished or results
    score, seq, done = min(pool, key=lambda r: (-r[0], r[1]))
    tokens = list(seq[:-1]) if done else list(seq)
    return tokens, score, done


def test_beam_matches_exhaustive_search(criterion):
    with criterion("wide beam equals exhaustive search (all fusion modes)"):
        t0 = time.monotonic()
        rng = np.random.default_rng(33)
        nmt = NmtModel(NmtConfig(src_vocab=4, tgt_vocab=4, embed_dim=3,
                                 hidden=4), rng)
        lm = RnnLm(LmConfig(vocab=4, embed_dim=3, hidden=4), rng)
        fm = FusedModel(nmt, lm, rng)
        jitter_params(fm.params, seed=34)
        beta = 0.05
        src = [3]
        for mode in ("none", "shallow", "deep"):
            cfg = BeamConfig(beam_width=256, fusion=mode,
                             shallow=ShallowConfig(beta=beta),
                             max_len_factor=0, max_len_offset=4)
            res = translate(src, cfg, nmt=nmt, lm=lm,
                            fused=fm if mode == "deep" else None)
            tokens, score, done = _exhaustive_best(mode, nmt, lm, fm, src,
                                                   beta, max_len=4)
            assert res.tokens == tokens, mode
            assert res.finished == done
            assert abs(res.score - score) <= 1e-10, mode
        assert time.monotonic() - t0 < 60.0


# ---------------------------------------------------------------------------
# 5. toy copy task
# ---------------------------------------------------------------------------

def test_toy_copy_task(criterion):
    with criterion("copy task reaches test BLEU >= 95"):
        t0 = time.monotonic()
        corpus = make_toy_corpus("copy", 2000, 100, 100, seed=0)
        vocab = build_vocab([s for s, _ in corpus.train], cap=12)
        train = encode_pairs(corpus.train, vocab, vocab)
        dev = encode_pairs(corpus.dev, vocab, vocab)
        test = encode_pairs(corpus.test, vocab, vocab)
        model = NmtModel(NmtConfig(src_vocab=12, tgt_vocab=12, embed_dim=32,
                                   hidden=64), np.random.default_rng(0))
        cfg = TrainConfig(batch_size=80, optimizer="adam", learning_rate=2e-3,
                          max_updates=2000, eval_interval=100, patience=10,
                          seed=0, stop_metric=100.0)
        train_nmt(model, train, dev, cfg)
        bc = BeamConfig(beam_width=2)
        hyps = [translate(p.src, bc, nmt=model).tokens for p in test]
        score = bleu(hyps, [p.tgt for p in test]).score
        assert score >= 95.0, score
        assert time.monotonic() - t0 < 600.0


# ---------------------------------------------------------------------------
# 6-8. deep fusion on the constrained-target task (shared experiment)
# ---------------------------------------------------------------------------

def _in_domain_pairs(seed, exclude):
    """Clean constrained-target pairs for deep-fusion finetuning: the dev
    split of a second seeded corpus (dev and test references keep every
    article), minus any pair whose source is in ``exclude``."""
    extra = make_toy_corpus("constrained-target", 1, 500, 1, seed=seed + 1000,
                            min_len=2, max_len=6)
    return [(s, t) for s, t in extra.dev if tuple(s) not in exclude]


def _run_fusion_seed(seed, diagnostics=False):
    """Train LM + NMT on one seed of the constrained-target task, then
    finetune deep fusion; returns test scores for baseline and fused.

    The NMT bitext drops each article with probability 0.5, so under
    maximum likelihood the article before a noun is a tie that the NMT
    breaks by SGD noise.  Shallow fusion's additive LM term breaks that tie
    toward the rule.  Deep fusion cannot learn the rule from the same noisy
    bitext (its optimum is still 0.5 whatever the LM state holds), so it is
    finetuned on clean in-domain pairs, the paper's focused-domain setting."""
    corpus = make_toy_corpus("constrained-target", 500, 100, 200, seed=seed,
                             n_mono=20000, min_len=2, max_len=6)
    tgt_vocab = build_vocab([t for _, t in corpus.train] + corpus.mono, cap=16)
    src_vocab = build_vocab([s for s, _ in corpus.train], cap=15)
    train = encode_pairs(corpus.train, src_vocab, tgt_vocab)
    dev = encode_pairs(corpus.dev, src_vocab, tgt_vocab)
    test = encode_pairs(corpus.test, src_vocab, tgt_vocab)
    held_out = {tuple(s) for s, _ in corpus.dev + corpus.test}
    in_domain = encode_pairs(_in_domain_pairs(seed, held_out),
                             src_vocab, tgt_vocab)
    mono = [tgt_vocab.encode(s) for s in corpus.mono]

    lm = RnnLm(LmConfig(vocab=16, embed_dim=24, hidden=48),
               np.random.default_rng(seed + 70))
    train_lm(lm, mono[500:], mono[:500],
             TrainConfig(batch_size=64, optimizer="adam", learning_rate=2e-3,
                         max_updates=900, eval_interval=150, patience=3,
                         seed=seed + 70))
    nmt = NmtModel(NmtConfig(src_vocab=15, tgt_vocab=16, embed_dim=24,
                             hidden=48), np.random.default_rng(seed + 1))
    train_nmt(nmt, train, dev,
              TrainConfig(batch_size=32, optimizer="adam", learning_rate=2e-3,
                          max_updates=2400, eval_interval=150, patience=6,
                          seed=seed + 1))

    def decode_corpus(cfg, model_kwargs, pairs):
        hyps, traces, violations = [], [], 0
        for pair in pairs:
            res = translate(pair.src, cfg, **model_kwargs)
            hyps.append(res.tokens)
            traces.append(res.gates)
            violations += article_rule_violations(tgt_vocab.decode(res.tokens))
        score = bleu(hyps, [p.tgt for p in pairs]).score
        return score, violations, traces

    base_cfg = BeamConfig(beam_width=3)
    deep_cfg = BeamConfig(beam_width=3, fusion="deep")
    base_bleu, base_viol, _ = decode_corpus(base_cfg, {"nmt": nmt}, test)

    fm = FusedModel(nmt, lm, np.random.default_rng(seed + 2))
    run = {"base_bleu": base_bleu, "base_violations": base_viol}
    if diagnostics:
        _, _, traces = decode_corpus(deep_cfg, {"fused": fm}, test[:25])
        run["fresh_gates"] = gate_stats(traces)
        run["lm_perplexity"] = perplexity(lm, [p.tgt for p in test])

    frozen_before = param_digests(fm.params, lambda p: not p.trainable)
    ckpt, _ = finetune_deep_fusion(
        fm, in_domain, dev,
        FinetuneConfig(batch_size=32, optimizer="adam", learning_rate=1e-3,
                       max_updates=600, eval_interval=100, patience=6,
                       seed=seed + 2))
    run["seed"] = seed
    run["in_domain_pairs"] = len(in_domain)
    run["best_update"] = ckpt.meta["updates"]
    run["frozen_unchanged"] = (
        param_digests(fm.params, lambda p: not p.trainable) == frozen_before)
    fused_bleu, fused_viol, traces = decode_corpus(deep_cfg, {"fused": fm},
                                                   test)
    run["fused_bleu"] = fused_bleu
    run["fused_violations"] = fused_viol
    run["gates"] = gate_stats(traces)
    return run


@pytest.fixture(scope="module")
def fusion_runs():
    return [_run_fusion_seed(seed, diagnostics=(seed == 0))
            for seed in (0, 1, 2)]


def _fusion_summary(runs):
    """One line per seed; a best update of 0 means finetuning returned its
    initial snapshot, which decodes exactly like the baseline."""
    return "; ".join(
        f"seed {r['seed']}: bleu {r['base_bleu']:.2f}->{r['fused_bleu']:.2f}"
        f" violations {r['base_violations']}->{r['fused_violations']}"
        f" best_update {r['best_update']} pairs {r['in_domain_pairs']}"
        for r in runs)


def test_deep_fusion_benefit(criterion, fusion_runs):
    with criterion("deep fusion improves BLEU and reduces rule violations"):
        summary = _fusion_summary(fusion_runs)
        base_bleu = sum(r["base_bleu"] for r in fusion_runs)
        fused_bleu = sum(r["fused_bleu"] for r in fusion_runs)
        base_viol = sum(r["base_violations"] for r in fusion_runs)
        fused_viol = sum(r["fused_violations"] for r in fusion_runs)
        assert fused_bleu > base_bleu, (base_bleu, fused_bleu, summary)
        assert fused_viol < base_viol, (base_viol, fused_viol, summary)
        for r in fusion_runs:
            assert r["fused_bleu"] > r["base_bleu"], summary
            assert r["fused_violations"] < r["base_violations"], summary


def test_gate_behaviour(criterion, fusion_runs):
    with criterion("controller gate: fresh value, movement, and report"):
        run = fusion_runs[0]
        fresh = run["fresh_gates"]
        assert fresh.mean == pytest.approx(GATE_AT_INIT, abs=1e-3)
        # the update-0 snapshot keeps the gate at exactly GATE_AT_INIT
        assert run["best_update"] > 0, _fusion_summary([run])
        tuned = run["gates"]
        assert abs(tuned.mean - GATE_AT_INIT) >= 0.01
        for trace in tuned.traces:
            for g in trace:
                assert 0.0 < g < 1.0
        report = analysis_report(run["lm_perplexity"], tuned)
        lines = report.splitlines()
        assert lines[0].startswith("perplexity")
        assert lines[1].startswith("avg_gate")
        assert lines[2].startswith("std_gate")
        assert f"avg_gate={tuned.mean:.4f}" in report
        assert f"std_gate={tuned.std:.4f}" in report


def test_finetuning_freezes_base_models(criterion, fusion_runs):
    with criterion("finetuning leaves NMT and LM parameters byte-identical"):
        assert all(r["frozen_unchanged"] for r in fusion_runs)


# ---------------------------------------------------------------------------
# 9. gradient clipping holds for an entire run
# ---------------------------------------------------------------------------

def test_gradient_clipping_entire_run(criterion, monkeypatch):
    with criterion("post-clip gradient norm <= threshold for a whole run"):
        records = []
        real_clip = training.clip_gradients

        def spying_clip(params, threshold):
            pre = real_clip(params, threshold)
            post = math.sqrt(sum(float((p.grad.data ** 2).sum())
                                 for p in params.trainable()))
            records.append((pre, post))
            return pre

        monkeypatch.setattr(training, "clip_gradients", spying_clip)
        corpus = make_toy_corpus("copy", 64, 8, 8, seed=2)
        vocab = build_vocab([s for s, _ in corpus.train], cap=12)
        train = encode_pairs(corpus.train, vocab, vocab)
        dev = encode_pairs(corpus.dev, vocab, vocab)
        model = NmtModel(NmtConfig(src_vocab=12, tgt_vocab=12, embed_dim=8,
                                   hidden=12), np.random.default_rng(7))
        jitter_params(model.params, std=1.0, seed=7)  # force large gradients
        cfg = TrainConfig(batch_size=8, optimizer="adadelta", max_updates=30,
                          eval_interval=15, patience=99, seed=7)
        train_nmt(model, train, dev, cfg)
        assert len(records) == 30
        assert any(pre > 5.0 for pre, _ in records)  # clipping was exercised
        assert all(post <= 5.0 + 1e-10 for _, post in records)


# ---------------------------------------------------------------------------
# 10. metric correctness
# ---------------------------------------------------------------------------

def test_metric_correctness(criterion):
    with criterion("BLEU and perplexity reference values"):
        cands = [["a", "b", "c", "d"], ["x", "y"]]
        assert bleu(cands, [list(c) for c in cands]).score == \
            pytest.approx(100.0, abs=1e-9)

        report = bleu([["the", "cat", "sat"]],
                      [["the", "cat", "sat", "down"]])
        assert report.score == pytest.approx(math.exp(1.0 - 4.0 / 3.0) * 100.0,
                                             abs=1e-6)

        lm = RnnLm(LmConfig(vocab=6, embed_dim=3, hidden=4),
                   np.random.default_rng(0))
        for p in lm.params:
            p.value.data[...] = 0.0  # uniform output distribution
        perp = perplexity(lm, [[3, 4, 5], [3]])
        assert perp.perplexity == pytest.approx(6.0, abs=1e-10)
        assert perp.token_count == 6


# ---------------------------------------------------------------------------
# 11. LM renormalization
# ---------------------------------------------------------------------------

def test_lm_renormalization_mass(criterion):
    with criterion("renormalized LM mass sums to one (1000 random dists)"):
        rng = np.random.default_rng(55)
        exclusion = frozenset({EOS_ID, UNK_ID})
        for _ in range(1000):
            vocab = int(rng.integers(4, 30))
            logits = rng.normal(scale=3.0, size=vocab)
            logp = logits - (np.log(np.sum(np.exp(logits - logits.max())))
                             + logits.max())
            renorm = lm_renormalize(logp, exclusion)
            mask = np.ones(vocab, dtype=bool)
            mask[sorted(exclusion)] = False
            assert np.all(np.isneginf(renorm[~mask]))
            assert abs(np.exp(renorm[mask]).sum() - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# 12. unknown-word replacement
# ---------------------------------------------------------------------------

def test_unk_replacement(criterion):
    with criterion("unknown outputs replaced by the attended source token"):
        source = ["s0", "s1", "s2"]
        target = ["aa", "<unk>", "bb", "<unk>"]
        # columns: three source positions plus the appended source EOS
        attention = np.array([
            [0.7, 0.1, 0.1, 0.1],
            [0.1, 0.7, 0.1, 0.1],   # <unk> -> s1
            [0.1, 0.1, 0.7, 0.1],
            [0.2, 0.1, 0.1, 0.6],   # EOS column ignored -> s0
        ])
        out = replace_unk(target, attention, source)
        assert out == ["aa", "s1", "bb", "s0"]


# ---------------------------------------------------------------------------
# 13. pipeline determinism
# ---------------------------------------------------------------------------

def _run_pipeline(root):
    """Full command-line pipeline: corpus, vocab, LM, NMT, finetune, and two
    decodes.  Returns every artifact as bytes/strings for comparison."""
    root.mkdir()
    toy = root / "toy"
    assert cli.main(["make-toy", "--kind", "copy", "--train", "60",
                     "--dev", "8", "--test", "8", "--seed", "0",
                     "--output", str(toy)]) == 0
    vocab = root / "vocab.txt"
    assert cli.main(["build-vocab", "--input", str(toy / "train.src"),
                     "--cap", "12", "--output", str(vocab)]) == 0
    cfg = root / "exp.cfg"
    cfg.write_text(f"""
[data]
src_train = {toy}/train.src
tgt_train = {toy}/train.tgt
src_dev = {toy}/dev.src
tgt_dev = {toy}/dev.tgt
mono_train = {toy}/train.tgt
mono_dev = {toy}/dev.tgt
src_vocab = {vocab}
tgt_vocab = {vocab}

[model]
embed_dim = 8
hidden = 12

[lm]
embed_dim = 6
hidden = 8

[train]
batch_size = 16
optimizer = adam
learning_rate = 0.002
max_updates = 10
eval_interval = 5
patience = 5
seed = 0

[finetune]
batch_size = 16
max_updates = 4
eval_interval = 2
patience = 5
dropout_p = 0.2
""")
    lm_ckpt = root / "lm.ckpt"
    nmt_ckpt = root / "nmt.ckpt"
    fused_ckpt = root / "fused.ckpt"
    assert cli.main(["train-lm", "--config", str(cfg),
                     "--output", str(lm_ckpt)]) == 0
    assert cli.main(["train-nmt", "--config", str(cfg),
                     "--output", str(nmt_ckpt)]) == 0
    assert cli.main(["finetune", "--config", str(cfg), "--nmt", str(nmt_ckpt),
                     "--lm", str(lm_ckpt), "--output", str(fused_ckpt)]) == 0

    def decode(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(argv) == 0
        return buf.getvalue()

    base_out = decode(["translate", "--config", str(cfg),
                       "--nmt", str(nmt_ckpt), "--mode", "none", "--beam", "2",
                       "--input", str(toy / "test.src")])
    deep_out = decode(["translate", "--config", str(cfg),
                       "--fused", str(fused_ckpt), "--mode", "deep",
                       "--beam", "2", "--input", str(toy / "test.src")])
    return {
        "lm": lm_ckpt.read_bytes(),
        "nmt": nmt_ckpt.read_bytes(),
        "fused": fused_ckpt.read_bytes(),
        "base_out": base_out,
        "deep_out": deep_out,
    }


def test_pipeline_determinism(criterion, tmp_path):
    with criterion("repeated pipeline runs are byte-identical"):
        first = _run_pipeline(tmp_path / "run1")
        second = _run_pipeline(tmp_path / "run2")
        assert first["lm"] == second["lm"]
        assert first["nmt"] == second["nmt"]
        assert first["fused"] == second["fused"]
        assert first["base_out"] == second["base_out"]
        assert first["deep_out"] == second["deep_out"]
        assert first["base_out"].strip()
