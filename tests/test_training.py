"""Optimizers, clipping, early stopping, and the three training loops."""

import dataclasses

import numpy as np
import pytest

from fusionmt.checkpoint import param_digests
from fusionmt.data import SentencePair, pad_batch, pad_mono_batch
from fusionmt.models import (
    FusedModel,
    LmConfig,
    NmtConfig,
    NmtModel,
    RnnLm,
    lm_batch_loss,
    nmt_batch_loss,
)
from fusionmt.tensor import Parameter, ParameterSet, Tape
from fusionmt.training import (
    EarlyStopState,
    FinetuneConfig,
    NumericError,
    Optimizer,
    StateError,
    TrainConfig,
    clip_gradients,
    finetune_deep_fusion,
    oov_filter,
    train_lm,
    train_nmt,
)

from gradcheck import weighted_sum


def cyclic_corpus(n=200, period=("a", "b", "c"), length=9):
    """Deterministic zero-entropy language over ids 3, 4, 5."""
    ids = {sym: 3 + i for i, sym in enumerate(period)}
    sent = [ids[period[i % len(period)]] for i in range(length)]
    return [list(sent) for _ in range(n)]


def tiny_fused():
    nmt = NmtModel(NmtConfig(src_vocab=6, tgt_vocab=6, embed_dim=4,
                             hidden=6), np.random.default_rng(5))
    lm = RnnLm(LmConfig(vocab=6, embed_dim=4, hidden=6),
               np.random.default_rng(6))
    return FusedModel(nmt, lm, np.random.default_rng(7))


# ---------------------------------------------------------------------------
# clipping
# ---------------------------------------------------------------------------

class TestClipGradients:
    def params_with_grad_norm(self, norm):
        params = ParameterSet([Parameter("a", np.zeros(4)),
                               Parameter("b", np.zeros(3))])
        vec = np.random.default_rng(0).standard_normal(7)
        vec *= norm / np.linalg.norm(vec)
        params.get("a").grad.data[...] = vec[:4]
        params.get("b").grad.data[...] = vec[4:]
        return params

    def test_above_threshold_scaled(self):
        params = self.params_with_grad_norm(10.0)
        before = {p.id: p.grad.data.copy() for p in params}
        pre = clip_gradients(params, 5.0)
        assert pre == pytest.approx(10.0, abs=1e-12)
        for p in params:
            np.testing.assert_allclose(p.grad.data, before[p.id] / 2.0,
                                       atol=1e-12)
        post = np.sqrt(sum((p.grad.data ** 2).sum() for p in params))
        assert post == pytest.approx(5.0, abs=1e-12)

    def test_below_threshold_untouched(self):
        params = self.params_with_grad_norm(3.0)
        before = {p.id: p.grad.data.copy() for p in params}
        clip_gradients(params, 5.0)
        for p in params:
            np.testing.assert_array_equal(p.grad.data, before[p.id])

    def test_random_norm_invariant(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            norm = float(rng.random() * 12)
            params = self.params_with_grad_norm(max(norm, 1e-6))
            clip_gradients(params, 5.0)
            post = np.sqrt(sum((p.grad.data ** 2).sum() for p in params))
            assert post <= min(max(norm, 1e-6), 5.0) + 1e-10

    def test_nonfinite_rejected(self):
        params = ParameterSet([Parameter("a", np.zeros(2))])
        params.get("a").grad.data[0] = np.nan
        with pytest.raises(NumericError):
            clip_gradients(params, 5.0)


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

REFERENCE_SLOTS = {"adadelta": ("eg2", "edx2"), "rmsprop": ("eg2",),
                   "adam": ("m", "v")}


def reference_step(name, state, params, lr, scale):
    """The three update rules in plain NumPy, one parameter at a time: each
    slot starts as a zero array and each parameter keeps its own Adam step
    count."""
    for p in params.trainable():
        g = p.grad.data
        st = state.setdefault(p.id, {
            "slots": {k: np.zeros_like(g) for k in REFERENCE_SLOTS[name]},
            "t": 0})
        sl = st["slots"]
        if name == "adadelta":
            sl["eg2"] = 0.95 * sl["eg2"] + (1 - 0.95) * g * g
            delta = (-np.sqrt(sl["edx2"] + 1e-6) / np.sqrt(sl["eg2"] + 1e-6)
                     * g)
            sl["edx2"] = 0.95 * sl["edx2"] + (1 - 0.95) * delta * delta
        elif name == "rmsprop":
            sl["eg2"] = 0.9 * sl["eg2"] + (1 - 0.9) * g * g
            delta = -lr * g / np.sqrt(sl["eg2"] + 1e-6)
        else:
            st["t"] += 1
            sl["m"] = 0.9 * sl["m"] + (1 - 0.9) * g
            sl["v"] = 0.999 * sl["v"] + (1 - 0.999) * g * g
            m_hat = sl["m"] / (1 - 0.9 ** st["t"])
            v_hat = sl["v"] / (1 - 0.999 ** st["t"])
            delta = -lr * m_hat / (np.sqrt(v_hat) + 1e-8)
        p.value.data += scale * delta


class TestOptimizers:
    def one_param(self, value=1.0):
        params = ParameterSet([Parameter("w", np.array([value]))])
        return params, params.get("w")

    @pytest.mark.parametrize("opt", [Optimizer("adadelta"),
                                     Optimizer("rmsprop"), Optimizer("adam")])
    def test_zero_gradient_no_move(self, opt):
        params, w = self.one_param()
        opt.step(params)
        assert w.value.data[0] == 1.0

    def test_adadelta_minimizes_quadratic(self):
        params, w = self.one_param(1.0)
        opt = Optimizer("adadelta")
        for _ in range(200):
            w.zero_grad()
            w.grad.data[0] = 2.0 * w.value.data[0]  # d/dw of w^2
            opt.step(params)
        assert w.value.data[0] ** 2 < 0.1  # >= 10x reduction from 1.0

    @pytest.mark.parametrize("name", ["adadelta", "rmsprop", "adam"])
    def test_update_scale_linearity(self, name):
        results = {}
        for scale in (1.0, 0.01):
            params, w = self.one_param(1.0)
            opt = Optimizer(name)
            w.grad.data[0] = 0.7
            opt.step(params, scale=scale)
            results[scale] = w.value.data[0] - 1.0
        assert results[0.01] == pytest.approx(0.01 * results[1.0], abs=1e-15)

    @pytest.mark.parametrize("name", ["adadelta", "rmsprop", "adam"])
    def test_matches_reference_rules(self, name):
        rng = np.random.default_rng(13)
        shapes = {"a": (3, 2), "b": (4,), "frozen": (2,)}
        values = {k: rng.standard_normal(s) for k, s in shapes.items()}

        def make():
            return ParameterSet([Parameter(k, v.copy(), trainable=k != "frozen")
                                 for k, v in values.items()])

        params, ref_params, ref_state = make(), make(), {}
        opt = Optimizer(name, learning_rate=3e-3)
        for _ in range(20):
            for k, shape in shapes.items():
                g = rng.standard_normal(shape)
                params.get(k).grad.data[...] = g
                ref_params.get(k).grad.data[...] = g
            opt.step(params, scale=0.7)
            reference_step(name, ref_state, ref_params, 3e-3, 0.7)
        assert opt.t == 20
        assert opt.state.keys() == ref_state.keys() == {"a", "b"}
        for k in shapes:
            np.testing.assert_array_equal(params.get(k).value.data,
                                          ref_params.get(k).value.data)
        np.testing.assert_array_equal(params.get("frozen").value.data,
                                      values["frozen"])
        for k, st in opt.state.items():
            assert st.keys() == ref_state[k]["slots"].keys()
            for slot, want in ref_state[k]["slots"].items():
                np.testing.assert_array_equal(st[slot], want)

    def test_adam_slots_are_updated_in_place_with_the_same_bits(self):
        # every rule, not only Adam, allocates its slots on the first step;
        # gradients over ten decades; the reference rebinds new slot arrays
        for name in REFERENCE_SLOTS:
            rng = np.random.default_rng(14)
            value = rng.standard_normal((5, 3))
            params, ref_params = (ParameterSet([Parameter("w", value.copy())])
                                  for _ in range(2))
            opt, ref_state = Optimizer(name, learning_rate=3e-3), {}
            for step in range(29):
                g = rng.standard_normal((5, 3)) * 10.0 ** rng.integers(-8, 3)
                for ps in (params, ref_params):
                    ps.get("w").grad.data[...] = g
                opt.step(params)
                reference_step(name, ref_state, ref_params, 3e-3, 1.0)
                if step == 0:
                    slots = dict(opt.state["w"])
                assert opt.state["w"].keys() == ref_state["w"]["slots"].keys()
                for k, want in ref_state["w"]["slots"].items():
                    assert opt.state["w"][k] is slots[k], (name, k)
                    assert opt.state["w"][k].tobytes() == want.tobytes()
                assert (params.get("w").value.data.tobytes()
                        == ref_params.get("w").value.data.tobytes()), name

    def test_frozen_params_not_stepped(self):
        params = ParameterSet([Parameter("f", np.array([1.0]),
                                         trainable=False)])
        params.get("f").grad.data[0] = 5.0
        Optimizer("adam").step(params)
        assert params.get("f").value.data[0] == 1.0

    def test_unknown_optimizer(self):
        with pytest.raises(ValueError):
            Optimizer("sgd-with-extras")

    def test_state_shape_guard(self):
        params, w = self.one_param()
        opt = Optimizer("adam")
        w.grad.data[0] = 1.0
        opt.step(params)
        bad = ParameterSet([Parameter("w", np.zeros(3))])
        bad.get("w").grad.data[...] = 1.0
        with pytest.raises(StateError):
            opt.step(bad)


# ---------------------------------------------------------------------------
# early stopping
# ---------------------------------------------------------------------------

class TestEarlyStop:
    def run(self, metrics, mode="max", patience=3):
        params = ParameterSet([Parameter("w", np.zeros(1))])
        stop = EarlyStopState(mode=mode)
        halted_at = None
        for i, m in enumerate(metrics):
            params.get("w").value.data[0] = i  # distinguish snapshots
            stop.update(m, params, i)
            if stop.exhausted(patience):
                halted_at = i
                break
        return stop, halted_at

    def test_halts_exactly_patience_evals_after_best(self):
        stop, halted = self.run([1.0, 5.0, 4.0, 3.0, 2.0, 6.0], patience=3)
        assert halted == 4  # best at index 1, three failures after
        assert stop.best_metric == 5.0
        assert stop.best_update == 1

    def test_best_snapshot_restorable(self):
        stop, _ = self.run([1.0, 3.0, 2.0])
        assert stop.best_params["w"][0] == 1.0

    def test_snapshot_holds_only_trainable(self):
        fm = tiny_fused()
        stop = EarlyStopState(mode="max")
        stop.update(1.0, fm.params, 0)
        trainable = {p.id for p in fm.params.trainable()}
        assert trainable and trainable != {p.id for p in fm.params}
        assert stop.best_params.keys() == trainable

    def test_min_mode(self):
        stop, halted = self.run([10.0, 8.0, 9.0, 9.5, 9.9], mode="min",
                                patience=3)
        assert stop.best_metric == 8.0
        assert halted == 4

    def test_metric_monotone_at_best(self):
        stop, _ = self.run([1.0, 2.0, 3.0, 2.5])
        assert stop.best_metric == 3.0


# ---------------------------------------------------------------------------
# corpus filtering and schedules
# ---------------------------------------------------------------------------

class TestOovFilter:
    def test_strictly_more_than_ten_percent(self):
        two_oov = [0, 0] + [3] * 8   # 20% -> dropped
        one_oov = [0] + [3] * 9      # 10% -> kept
        kept = oov_filter([two_oov, one_oov])
        assert kept == [one_oov]

    def test_all_dropped_raises(self):
        from fusionmt.data import DataError
        with pytest.raises(DataError):
            oov_filter([[0, 0, 3]])


@pytest.mark.parametrize("config_cls", [TrainConfig, FinetuneConfig])
@pytest.mark.parametrize("bad", [
    {"batch_size": 0}, {"clip_threshold": 0.0}, {"patience": 0},
    {"dropout_p": 1.0}, {"dropout_p": -0.1}, {"weight_noise_std": -0.1},
    {"reg_reduce_factor": 2.0, "reg_reduce_after": 3},
    {"reg_reduce_factor": -0.5}, {"eval_interval": 0}, {"eval_interval": -2},
    {"clip_threshold": float("nan")}, {"weight_noise_std": float("nan")},
    {"optimizer": "sgd"}, {"dev_beam_width": 0}, {"seed": -1},
    {"learning_rate": -0.01}, {"learning_rate": float("nan")},
    {"update_scale": -1.0}, {"update_scale": float("nan")},
])
def test_config_rejects_bad_values(config_cls, bad):
    # TrainConfig has no reg_reduce_* fields, so it rejects them as keywords
    known = {f.name for f in dataclasses.fields(config_cls)}
    with pytest.raises(ValueError if bad.keys() <= known else TypeError):
        config_cls(**bad)


class TestFinetuneSchedule:
    def test_reduction_after_threshold(self):
        cfg = FinetuneConfig(dropout_p=0.56, weight_noise_std=0.005,
                             reg_reduce_after=10_000)
        assert cfg.regularization_at(10_000) == (0.56, 0.005)
        assert cfg.regularization_at(10_001) == (0.28, 0.0025)


# ---------------------------------------------------------------------------
# the training loops (micro scale)
# ---------------------------------------------------------------------------

def micro_lm(seed=0):
    return RnnLm(LmConfig(vocab=6, embed_dim=8, hidden=16),
                 np.random.default_rng(seed))


class TestTrainLm:
    def test_cyclic_language_near_zero_entropy(self):
        corpus = cyclic_corpus()
        lm = micro_lm()
        cfg = TrainConfig(batch_size=32, optimizer="adam", learning_rate=5e-3,
                          max_updates=250, eval_interval=50, patience=5,
                          seed=0, stop_metric=1.04)
        ckpt, history = train_lm(lm, corpus, corpus[:20], cfg)
        assert ckpt.meta["best_dev_perplexity"] < 1.05
        assert len(history.lines) >= 1

    def test_checkpoint_matches_best_metric(self):
        corpus = cyclic_corpus(n=60)
        lm = micro_lm(seed=1)
        cfg = TrainConfig(batch_size=20, optimizer="adam", learning_rate=5e-3,
                          max_updates=30, eval_interval=10, patience=10,
                          seed=1)
        ckpt, _ = train_lm(lm, corpus, corpus[:10], cfg)
        from fusionmt.evaluation import perplexity
        re_eval = perplexity(lm, corpus[:10]).perplexity
        assert re_eval == pytest.approx(ckpt.meta["best_dev_perplexity"],
                                        abs=1e-9)

    def test_first_batch_loss_matches_recomputation(self):
        corpus = cyclic_corpus(n=8, length=5)
        lm = micro_lm(seed=2)
        from fusionmt.data import BatchIterator
        it = BatchIterator(corpus, 4, seed=7)
        batch_sents = next(iter(it.epoch_batches()))
        batched = lm_batch_loss(lm, pad_mono_batch(batch_sents)).item()
        singles = [lm_batch_loss(lm, pad_mono_batch([s])).item()
                   for s in batch_sents]
        assert batched == pytest.approx(np.mean(singles), abs=1e-10)


class TestTrainNmt:
    def bitext(self, n=40):
        rng = np.random.default_rng(0)
        pairs = []
        for _ in range(n):
            src = [int(x) for x in rng.integers(3, 6, rng.integers(1, 4))]
            pairs.append(SentencePair(src, list(src)))
        return pairs

    def test_loss_decreases_overfitting_one_pair(self):
        model = NmtModel(NmtConfig(src_vocab=6, tgt_vocab=6, embed_dim=4,
                                   hidden=6), np.random.default_rng(3))
        pair = SentencePair([3, 4, 5], [3, 4, 5])
        opt = Optimizer("adadelta")
        losses = []
        for _ in range(50):
            model.params.zero_grads()
            with Tape() as tape:
                loss = nmt_batch_loss(model, pad_batch([pair]))
            losses.append(loss.item())
            tape.backward(loss, model.params)
            opt.step(model.params)
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))
        assert losses[-1] < losses[0]

    def test_training_loop_runs_and_clips(self):
        model = NmtModel(NmtConfig(src_vocab=6, tgt_vocab=6, embed_dim=4,
                                   hidden=6), np.random.default_rng(4))
        bitext = self.bitext()
        cfg = TrainConfig(batch_size=8, optimizer="adam", learning_rate=2e-3,
                          max_updates=12, eval_interval=6, patience=5, seed=4,
                          clip_threshold=5.0)
        ckpt, history = train_nmt(model, bitext, bitext[:5], cfg)
        assert ckpt.kind == "nmt"
        # history records the pre-clip norm; the clipped norm never exceeds
        # the threshold
        for line in history.lines:
            fields = line.split("\t")
            pre_norm = float(fields[2])
            assert min(pre_norm, cfg.clip_threshold) <= 5.0 + 1e-10

    def test_empty_dev_rejected(self):
        from fusionmt.data import DataError
        model = NmtModel(NmtConfig(src_vocab=6, tgt_vocab=6, embed_dim=4,
                                   hidden=6), np.random.default_rng(0))
        with pytest.raises(DataError):
            train_nmt(model, self.bitext(4), [], TrainConfig())


class TestFinetune:
    def test_freezing_contract_and_snapshot(self):
        fm = tiny_fused()
        before = param_digests(fm.params, lambda p: not p.trainable)
        bitext = [SentencePair([3, 4], [3, 4]), SentencePair([5], [5]),
                  SentencePair([4, 4, 3], [4, 4, 3])]
        cfg = FinetuneConfig(batch_size=2, optimizer="adam",
                             learning_rate=1e-3, max_updates=8,
                             eval_interval=4, patience=5, seed=5,
                             dropout_p=0.3, weight_noise_std=0.005)
        ckpt, _ = finetune_deep_fusion(fm, bitext, bitext[:2], cfg)
        after = param_digests(fm.params, lambda p: not p.trainable)
        assert after == before
        assert ckpt.kind == "fused"
        # weight noise must not leak into stored values
        assert param_digests(fm.params, lambda p: not p.trainable) == before


class TestNumericGuards:
    def test_divergence_detected(self):
        corpus = cyclic_corpus(n=8, length=4)
        lm = micro_lm(seed=8)
        lm.params.get("lm.W_out").value.data[0, 0] = np.nan
        cfg = TrainConfig(batch_size=4, optimizer="adam", max_updates=2,
                          eval_interval=1, patience=2, seed=0)
        with pytest.raises((NumericError, OverflowError, FloatingPointError)):
            train_lm(lm, corpus, corpus[:2], cfg)

    def test_failed_update_leaves_no_weight_noise(self, monkeypatch):
        # the loss of the first update is NaN after the noise went in
        import fusionmt.training as training
        real_loss = training.nmt_batch_loss
        monkeypatch.setattr(training, "nmt_batch_loss",
                            lambda *args: weighted_sum(real_loss(*args), np.nan))
        model = NmtModel(NmtConfig(src_vocab=6, tgt_vocab=6, embed_dim=4,
                                   hidden=6), np.random.default_rng(3))
        bitext = [SentencePair([3, 4], [4, 5]), SentencePair([5], [3])]
        before = param_digests(model.params)
        cfg = TrainConfig(batch_size=2, max_updates=2, weight_noise_std=0.1)
        with pytest.raises(NumericError):
            train_nmt(model, bitext, bitext[:1], cfg)
        assert param_digests(model.params) == before
