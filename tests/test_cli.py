"""Command-line interface: config validation, subcommands, exit codes, and
a miniature end-to-end pipeline."""

import hashlib
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fusionmt import cli, evaluation
from fusionmt.checkpoint import save_checkpoint, to_checkpoint
from fusionmt.cli import ConfigError, load_config, main
from fusionmt.data import RESERVED, Vocabulary, read_lines, write_lines
from fusionmt.models import FusedModel, LmConfig, NmtConfig, NmtModel, RnnLm


def run(argv, capsys=None):
    code = main(argv)
    if capsys is None:
        return code, None
    return code, capsys.readouterr()


def untrained_checkpoints(toy_dir):
    """NMT, LM and fused checkpoints of untrained models over the toy vocab."""
    vocab = len(Vocabulary.load(toy_dir / "vocab.txt"))
    rng = np.random.default_rng(0)
    nmt = NmtModel(NmtConfig(src_vocab=vocab, tgt_vocab=vocab,
                             embed_dim=8, hidden=12), rng)
    lm = RnnLm(LmConfig(vocab=vocab, embed_dim=6, hidden=8), rng)
    return {"nmt": to_checkpoint(nmt), "lm": to_checkpoint(lm),
            "fused": to_checkpoint(FusedModel(nmt, lm, rng))}


@pytest.fixture()
def toy_dir(tmp_path):
    """A small copy corpus with vocab files and a minimal config."""
    out = tmp_path / "toy"
    assert main(["make-toy", "--kind", "copy", "--train", "60", "--dev", "8",
                 "--test", "8", "--seed", "0",
                 "--output", str(out)]) == 0
    vocab = tmp_path / "vocab.txt"
    assert main(["build-vocab", "--input", str(out / "train.src"),
                 "--cap", "12", "--output", str(vocab)]) == 0
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"""
[data]
src_train = {out}/train.src
tgt_train = {out}/train.tgt
src_dev = {out}/dev.src
tgt_dev = {out}/dev.tgt
src_vocab = {vocab}
tgt_vocab = {vocab}

[model]
embed_dim = 8
hidden = 12

[train]
batch_size = 16
optimizer = adam
learning_rate = 0.002
max_updates = 10
eval_interval = 5
patience = 5
seed = 0
""")
    return tmp_path


class TestConfig:
    def test_defaults_without_file(self):
        cfg = load_config(None)
        assert cfg["train"]["optimizer"] == "adadelta"
        assert cfg["decode"]["beam_width"] == 10

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[train]\nbatch_sise = 3\n")
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert "train.batch_sise" in str(err.value)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[sampler]\nx = 1\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_bad_type_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[train]\nbatch_size = many\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/path.cfg")

    def test_seed_env_override(self, tmp_path, monkeypatch):
        path = tmp_path / "ok.cfg"
        path.write_text("[train]\nseed = 3\n")
        monkeypatch.setenv("FUSION_NMT_SEED", "99")
        cfg = load_config(str(path))
        assert cfg["train"]["seed"] == 99
        assert cfg["finetune"]["seed"] == 99

    def test_bad_seed_env_names_the_variable(self, tmp_path, monkeypatch,
                                             capsys):
        path = tmp_path / "ok.cfg"
        path.write_text("[train]\nseed = 3\n")
        monkeypatch.setenv("FUSION_NMT_SEED", "abc")
        with pytest.raises(ConfigError, match="FUSION_NMT_SEED.*'abc'"):
            load_config(str(path))
        code, out = run(["train-nmt", "--config", str(path),
                         "--output", str(tmp_path / "x.ckpt")], capsys)
        assert code == 2
        assert out.err.startswith("error:") and "FUSION_NMT_SEED" in out.err

    def test_schema_pinned(self):
        # every section, key, default and type a config file can set; a new
        # dataclass field must not become a config key unnoticed
        want = {
            "data": {
                "src_train": "", "tgt_train": "", "src_dev": "", "tgt_dev": "",
                "mono_train": "", "mono_dev": "",
                "src_vocab": "", "tgt_vocab": "",
                "lowercase": True, "char_mode": False,
                "filter": True, "max_len": 80, "ratio_bound": 3.0,
            },
            "model": {"embed_dim": 620, "hidden": 1000, "deep_output_width": 0},
            "lm": {"embed_dim": 620, "hidden": 2400},
            "train": {
                "batch_size": 80, "clip_threshold": 5.0, "optimizer": "adadelta",
                "learning_rate": 1e-3, "dropout_p": 0.0, "weight_noise_std": 0.0,
                "max_updates": 10000, "eval_interval": 100, "patience": 5,
                "seed": 0, "update_scale": 1.0, "dev_beam_width": 2,
            },
            "finetune": {
                "batch_size": 80, "clip_threshold": 5.0, "optimizer": "adam",
                "learning_rate": 1e-3, "dropout_p": 0.56, "weight_noise_std": 0.005,
                "reg_reduce_after": 10000, "reg_reduce_factor": 0.5,
                "max_updates": 10000, "eval_interval": 100, "patience": 5,
                "seed": 0, "update_scale": 1.0, "dev_beam_width": 2,
            },
            "decode": {
                "beam_width": 10, "fusion": "none", "beta": 0.0,
                "replace_unk": False, "length_normalize": False,
            },
        }
        got = load_config(None)
        assert got == want
        assert {(s, k): type(v) for s in got for k, v in got[s].items()} == \
            {(s, k): type(v) for s in want for k, v in want[s].items()}

    @pytest.mark.parametrize("text", [
        "batch_size = 3\n",                       # no section header
        "[train]\nseed = 1\nseed = 2\n",           # duplicate key
        "[train]\noptimizer = 50%\n",             # '%' read as interpolation
    ])
    def test_malformed_file_rejected(self, tmp_path, text):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_bool_parsing(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text("[data]\nlowercase = false\nfilter = 1\n")
        cfg = load_config(str(path))
        assert cfg["data"]["lowercase"] is False
        assert cfg["data"]["filter"] is True


class TestExitCodes:
    def test_config_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[train]\nnope = 1\n")
        code, out = run(["train-nmt", "--config", str(bad),
                         "--output", str(tmp_path / "x.ckpt")], capsys)
        assert code == 2
        assert "error:" in out.err

    def test_missing_checkpoint_exits_2(self, toy_dir, capsys):
        cfg, src = str(toy_dir / "exp.cfg"), str(toy_dir / "toy" / "test.src")
        code, out = run(["translate", "--config", cfg,
                         "--nmt", str(toy_dir / "missing.ckpt"),
                         "--input", src], capsys)
        assert code == 2
        # a flag the mode needs but was not given names that flag
        nmt = toy_dir / "nmt.ckpt"
        save_checkpoint(nmt, untrained_checkpoints(toy_dir)["nmt"])
        translate = ["translate", "--config", cfg, "--input", src]
        for argv, flag in [
            (translate, "--nmt"),
            (translate + ["--mode", "shallow", "--lm", str(nmt)], "--nmt"),
            (translate + ["--mode", "shallow", "--nmt", str(nmt)], "--lm"),
            (translate + ["--mode", "deep", "--nmt", str(nmt)], "--fused"),
            (["evaluate", "--config", cfg, "--perplexity", src], "--lm"),
        ]:
            code, out = run(argv, capsys)
            assert code == 2, argv
            assert out.out == ""
            assert len(out.err.splitlines()) == 1
            assert f"missing {flag} " in out.err

    @pytest.mark.parametrize("argv", [
        ["translate", "--nmt", "{dir}", "--input", "{src}"],
        ["translate", "--nmt", "{nmt}", "--input", "{dir}"],
        ["evaluate", "--bleu", "{dir}", "{dir}"],
    ])
    def test_directory_for_file_exits_2(self, toy_dir, capsys, argv):
        nmt = toy_dir / "nmt.ckpt"
        save_checkpoint(nmt, untrained_checkpoints(toy_dir)["nmt"])
        paths = {"dir": toy_dir, "nmt": nmt, "src": toy_dir / "toy" / "test.src"}
        code, out = run(argv[:1] + ["--config", str(toy_dir / "exp.cfg")]
                        + [a.format(**paths) for a in argv[1:]], capsys)
        assert code == 2
        assert out.out == ""
        assert len(out.err.splitlines()) == 1
        assert "Is a directory" in out.err

    @pytest.mark.parametrize("argv, setting, key", [
        (["finetune", "--nmt", "no.ckpt", "--lm", "no.ckpt"],
         "[finetune]\npatience = 0\n", "patience"),
        (["train-nmt"], "[train]\ndropout_p = 1.0\n", "dropout_p"),
        (["train-lm"], "[train]\ndropout_p = 1.0\n", "dropout_p"),
        (["finetune", "--nmt", "no.ckpt", "--lm", "no.ckpt"],
         "[finetune]\nreg_reduce_factor = 2.0\n", "reg_reduce_factor"),
        (["train-nmt"], "[train]\neval_interval = 0\n", "eval_interval"),
        (["train-lm"], "[train]\neval_interval = 0\n", "eval_interval"),
        (["train-nmt"], "[train]\nclip_threshold = nan\n", "clip_threshold"),
        (["train-lm"], "[train]\nweight_noise_std = nan\n", "weight_noise_std"),
        (["train-nmt"], "[train]\noptimizer = sgd\n", "optimizer"),
        (["train-lm"], "[train]\ndev_beam_width = 0\n", "dev_beam_width"),
        (["finetune", "--nmt", "no.ckpt", "--lm", "no.ckpt"],
         "[finetune]\nseed = -1\n", "seed"),
        (["train-nmt"], "[train]\nlearning_rate = -0.01\n", "learning_rate"),
        (["train-lm"], "[train]\nupdate_scale = -1\n", "update_scale"),
        (["finetune", "--nmt", "no.ckpt", "--lm", "no.ckpt"],
         "[finetune]\nlearning_rate = nan\n", "learning_rate"),
        (["train-nmt"], "[train]\nmax_updates = -3\n", "max_updates"),
    ])
    def test_bad_training_value_exits_2_first(self, tmp_path, capsys, argv,
                                              setting, key):
        # the config has no data paths: naming the bad key shows that the
        # value is rejected before any corpus or checkpoint is read
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(setting)
        out_path = tmp_path / "x.ckpt"
        code, out = run(argv[:1] + ["--config", str(cfg), "--output",
                                    str(out_path)] + argv[1:], capsys)
        assert code == 2
        assert key in out.err
        assert not out_path.exists()

    @pytest.mark.parametrize("command, section, key, value", [
        ("train-nmt", "model", "hidden", "0"),
        ("train-nmt", "model", "embed_dim", "0"),
        ("train-nmt", "model", "embed_dim", "-1"),
        ("train-nmt", "model", "deep_output_width", "-2"),
        ("train-nmt", "data", "ratio_bound", "nan"),
        ("train-lm", "lm", "embed_dim", "0"),
        ("train-lm", "lm", "hidden", "0"),
    ])
    def test_bad_size_or_ratio_bound_exits_2(self, toy_dir, capsys, command,
                                             section, key, value):
        # the value replaces the toy config's line for ``key``
        cfg = toy_dir / "exp.cfg"
        mono = toy_dir / "toy" / "train.tgt"
        text = "\n".join(ln for ln in cfg.read_text().splitlines()
                         if not ln.startswith(key + " = ")) + "\n[lm]\n"
        text = text.replace("[data]\n", f"[data]\nmono_train = {mono}\n"
                            f"mono_dev = {mono}\n")
        cfg.write_text(text.replace(f"[{section}]\n",
                                    f"[{section}]\n{key} = {value}\n", 1))
        out_path, log = toy_dir / "out.ckpt", toy_dir / "log.tsv"
        code, out = run([command, "--config", str(cfg), "--output",
                         str(out_path), "--log", str(log)], capsys)
        assert code == 2
        assert out.out == ""
        assert len(out.err.splitlines()) == 1
        assert key in out.err
        assert not out_path.exists() and not log.exists()

    @pytest.mark.parametrize("command", ["train-nmt", "finetune", "sweep-beta"])
    def test_blank_dev_source_names_file_and_line(self, toy_dir, capsys,
                                                  command):
        src_dev, tgt_dev = toy_dir / "toy" / "dev.src", toy_dir / "toy" / "dev.tgt"
        n = len(read_lines(src_dev))
        write_lines(src_dev, read_lines(src_dev) + [""])
        write_lines(tgt_dev, read_lines(tgt_dev) + ["a"])
        out_path, log = toy_dir / "out.ckpt", toy_dir / "out.log"
        argv = [command, "--config", str(toy_dir / "exp.cfg")]
        if command != "sweep-beta":
            argv += ["--output", str(out_path), "--log", str(log)]
        if command != "train-nmt":
            for kind, ckpt in untrained_checkpoints(toy_dir).items():
                save_checkpoint(toy_dir / f"{kind}.ckpt", ckpt)
                if kind != "fused":
                    argv += [f"--{kind}", str(toy_dir / f"{kind}.ckpt")]
        code, out = run(argv, capsys)
        assert code == 2
        assert out.out == ""
        assert out.err == (f"error: {src_dev}: line {n + 1} is an empty "
                           "source sentence\n")
        assert not out_path.exists() and not log.exists()

    @pytest.mark.parametrize("command", ["translate", "sweep-beta"])
    def test_beam_zero_exits_2(self, toy_dir, capsys, command):
        argv = [command, "--config", str(toy_dir / "exp.cfg"), "--beam", "0"]
        for kind, ckpt in untrained_checkpoints(toy_dir).items():
            save_checkpoint(toy_dir / f"{kind}.ckpt", ckpt)
            if kind != "fused":
                argv += [f"--{kind}", str(toy_dir / f"{kind}.ckpt")]
        if command == "translate":
            argv += ["--input", str(toy_dir / "toy" / "test.src")]
        code, out = run(argv, capsys)
        assert code == 2
        assert out.out == ""
        assert "beam width must be >= 1" in out.err

    @pytest.mark.parametrize("argv", [
        ["translate", "--mode", "shallow", "--beta", "nan"],
        ["translate", "--mode", "shallow", "--beta", "inf"],
        ["sweep-beta", "--betas", "0.01,nan"],
    ])
    def test_non_finite_beta_exits_2(self, toy_dir, capsys, argv):
        argv = argv[:1] + ["--config", str(toy_dir / "exp.cfg")] + argv[1:]
        for kind in ("nmt", "lm"):
            save_checkpoint(toy_dir / f"{kind}.ckpt",
                            untrained_checkpoints(toy_dir)[kind])
            argv += [f"--{kind}", str(toy_dir / f"{kind}.ckpt")]
        dump = toy_dir / "attn.txt"
        if argv[0] == "translate":
            argv += ["--input", str(toy_dir / "toy" / "test.src"),
                     "--dump-attention", str(dump)]
        code, out = run(argv, capsys)
        assert code == 2
        assert out.out == ""
        assert "beta must be finite" in out.err
        assert not dump.exists()

    @pytest.mark.parametrize("betas, entry", [("0.1,abc", "'abc'"),
                                              ("0.1,,0.2", "''")])
    def test_beta_grid_entry_not_a_number_exits_2(self, toy_dir, capsys,
                                                  betas, entry):
        # the grid is read before any model is loaded; the message names
        # the flag and the entry
        argv = ["sweep-beta", "--config", str(toy_dir / "exp.cfg"),
                "--betas", betas]
        for kind in ("nmt", "lm"):
            save_checkpoint(toy_dir / f"{kind}.ckpt",
                            untrained_checkpoints(toy_dir)[kind])
            argv += [f"--{kind}", str(toy_dir / f"{kind}.ckpt")]
        code, out = run(argv, capsys)
        assert (code, out.out) == (2, "")
        assert out.err == f"error: --betas: not a number: {entry}\n"

    @pytest.mark.parametrize("command", ["train-lm", "train-nmt", "finetune"])
    def test_unwritable_log_leaves_no_checkpoint(self, toy_dir, capsys,
                                                 command):
        # training succeeds and the checkpoint is written before the log
        mono = toy_dir / "toy" / "train.tgt"
        cfg = toy_dir / "exp.cfg"
        cfg.write_text(cfg.read_text().replace(
            "[data]\n", f"[data]\nmono_train = {mono}\nmono_dev = {mono}\n")
            + "\n[lm]\nembed_dim = 6\nhidden = 8\n"
            "\n[finetune]\nbatch_size = 16\nmax_updates = 2\n")
        out_path = toy_dir / "out.ckpt"
        argv = [command, "--config", str(cfg), "--output", str(out_path),
                "--log", str(toy_dir / "missing" / "log.tsv")]
        if command == "finetune":
            for kind, ckpt in untrained_checkpoints(toy_dir).items():
                save_checkpoint(toy_dir / f"{kind}.ckpt", ckpt)
            argv += ["--nmt", str(toy_dir / "nmt.ckpt"),
                     "--lm", str(toy_dir / "lm.ckpt")]
        code, out = run(argv, capsys)
        assert code == 2
        assert "No such file or directory" in out.err
        assert not out_path.exists()

    def test_unwritable_gate_dump_leaves_no_attention_dump(self, toy_dir,
                                                           capsys):
        argv = ["translate", "--config", str(toy_dir / "exp.cfg"),
                "--mode", "deep", "--input", str(toy_dir / "toy" / "test.src")]
        for kind, ckpt in untrained_checkpoints(toy_dir).items():
            save_checkpoint(toy_dir / f"{kind}.ckpt", ckpt)
            argv += [f"--{kind}", str(toy_dir / f"{kind}.ckpt")]
        att = toy_dir / "att.tsv"
        code, out = run(argv + ["--dump-attention", str(att), "--dump-gates",
                                str(toy_dir / "missing" / "g.txt")], capsys)
        assert code == 2
        assert out.out == ""
        assert not att.exists()


_TRAIN_DEFAULTS = load_config(None)["train"]


def _train_value(key):
    """Values for one [train] key: its own type at and beyond the valid
    range, non-finite floats, or arbitrary one-line text."""
    default = _TRAIN_DEFAULTS[key]
    if key == "max_updates":
        typed = st.integers(-2, 3)
    elif isinstance(default, int):
        typed = st.integers(-3, 40)
    elif isinstance(default, float):
        typed = st.one_of(st.floats(-10, 10), st.sampled_from(
            [1e300, -1e300, float("nan"), float("inf"), float("-inf")]))
    else:
        typed = st.sampled_from(["adam", "adadelta", "rmsprop", "sgd"])
    text = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")),
                   max_size=6)
    return st.one_of(typed.map(str), text)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_random_training_value_exits_cleanly(toy_dir, capsys, data):
    # the corpus is only read; each example writes its own config and
    # removes the checkpoint of the one before
    key = data.draw(st.sampled_from(sorted(_TRAIN_DEFAULTS)))
    train = {"batch_size": "16", "optimizer": "adam", "max_updates": "3",
             "eval_interval": "2", "seed": "0"}
    train[key] = data.draw(_train_value(key))
    head = (toy_dir / "exp.cfg").read_text().split("[train]")[0]
    cfg = toy_dir / "random.cfg"
    cfg.write_text(head + "[train]\n" + "".join(
        f"{k} = {v}\n" for k, v in train.items()))
    out_path = toy_dir / "random.ckpt"
    out_path.unlink(missing_ok=True)
    code, _ = run(["train-nmt", "--config", str(cfg),
                   "--output", str(out_path)], capsys)
    assert code in (0, 2, 3)
    assert out_path.exists() == (code == 0)


class TestNumericFailure:
    @pytest.mark.parametrize("mode, poisoned", [
        ("none", "nmt.out.b_o"),
        ("shallow", "lm.b_out"),
        ("deep", "fuse.ctrl.b_g"),
    ])
    def test_nan_parameter_exits_3(self, toy_dir, capsys, mode, poisoned):
        ckpts = untrained_checkpoints(toy_dir)
        argv = ["translate", "--config", str(toy_dir / "exp.cfg"),
                "--mode", mode, "--beam", "3",
                "--input", str(toy_dir / "toy" / "test.src")]
        for kind, ckpt in ckpts.items():
            if poisoned in ckpt.params:
                ckpt.params[poisoned].flat[0] = np.nan
            save_checkpoint(toy_dir / f"{kind}.ckpt", ckpt)
            argv += [f"--{kind}", str(toy_dir / f"{kind}.ckpt")]
        code, out = run(argv, capsys)
        assert code == 3
        assert out.out == ""
        assert len(out.err.splitlines()) == 1
        assert out.err.startswith("numeric failure: non-finite")

    def test_failure_on_a_later_line_writes_nothing(self, toy_dir, capsys):
        # "c" occurs only on the second line, so the first decodes cleanly
        ckpt = untrained_checkpoints(toy_dir)["nmt"]
        c_id = Vocabulary.load(toy_dir / "vocab.txt").encode(["c"])[0]
        ckpt.params["nmt.src_emb.table"][c_id] = np.nan
        save_checkpoint(toy_dir / "nmt.ckpt", ckpt)
        src = toy_dir / "two.src"
        write_lines(src, ["a b", "b c a"])
        att, gates = toy_dir / "out.att", toy_dir / "out.gates"
        code, out = run(["translate", "--config", str(toy_dir / "exp.cfg"),
                         "--nmt", str(toy_dir / "nmt.ckpt"), "--beam", "2",
                         "--input", str(src), "--dump-attention", str(att),
                         "--dump-gates", str(gates)], capsys)
        assert code == 3
        assert out.out == ""
        assert not att.exists() and not gates.exists()


class TestDecodeSetup:
    """translate and sweep-beta load models and vocabularies and read
    [decode] the same way."""

    def save(self, toy_dir, ckpts, argv):
        for kind, ckpt in ckpts.items():
            save_checkpoint(toy_dir / f"{kind}.ckpt", ckpt)
            argv += [f"--{kind}", str(toy_dir / f"{kind}.ckpt")]
        return argv

    def test_sweep_beta_reads_decode_section(self, toy_dir, capsys,
                                             monkeypatch):
        cfg = toy_dir / "exp.cfg"
        cfg.write_text(cfg.read_text()
                       + "[decode]\nbeam_width = 3\nlength_normalize = true\n")
        seen = []

        def decode_bleu(pairs, beam_cfg, **models):
            seen.append(beam_cfg)
            return 0.0

        monkeypatch.setattr(evaluation, "decode_bleu", decode_bleu)
        ckpts = untrained_checkpoints(toy_dir)
        del ckpts["fused"]
        argv = self.save(toy_dir, ckpts, ["sweep-beta", "--config", str(cfg),
                                          "--betas", "0,0.5"])
        code, _ = run(argv, capsys)
        assert code == 0
        assert [(c.beam_width, c.fusion, c.length_normalize, c.shallow.beta)
                for c in seen] == [(3, "shallow", True, 0.0),
                                   (3, "shallow", True, 0.5)]

    @pytest.mark.parametrize("command, side", [
        ("sweep-beta", "tgt"), ("sweep-beta", "src"), ("translate", "src"),
    ])
    def test_vocab_mismatch_exits_2(self, toy_dir, capsys, command, side):
        # the vocab files have 12 ids; the models expect 20 on one side
        sizes = {"src": len(Vocabulary.load(toy_dir / "vocab.txt"))}
        sizes["tgt"] = sizes["src"]
        sizes[side] = 20
        rng = np.random.default_rng(0)
        nmt = NmtModel(NmtConfig(src_vocab=sizes["src"], tgt_vocab=sizes["tgt"],
                                 embed_dim=8, hidden=12), rng)
        lm = RnnLm(LmConfig(vocab=sizes["tgt"], embed_dim=6, hidden=8), rng)
        argv = [command, "--config", str(toy_dir / "exp.cfg"), "--beam", "2"]
        if command == "translate":
            argv += ["--mode", "shallow",
                     "--input", str(toy_dir / "toy" / "test.src")]
        else:
            argv += ["--betas", "0"]
        argv = self.save(toy_dir, {"nmt": to_checkpoint(nmt),
                                   "lm": to_checkpoint(lm)}, argv)
        code, out = run(argv, capsys)
        assert code == 2
        assert out.out == ""
        assert len(out.err.splitlines()) == 1
        assert "vocab file has 12 ids, model expects 20" in out.err

    @pytest.mark.parametrize("kind, key", [
        ("nmt", "hidden"), ("lm", "vocab"), ("fused", "lm_hidden"),
    ])
    @pytest.mark.parametrize("value", [None, "ten"])
    def test_corrupt_arch_exits_2(self, toy_dir, capsys, kind, key, value):
        ckpts = untrained_checkpoints(toy_dir)
        if value is None:
            del ckpts[kind].arch[key]
        else:
            ckpts[kind].arch[key] = value
        mode = {"nmt": "none", "lm": "shallow", "fused": "deep"}[kind]
        argv = self.save(toy_dir, ckpts, [
            "translate", "--config", str(toy_dir / "exp.cfg"), "--mode", mode,
            "--input", str(toy_dir / "toy" / "test.src")])
        code, out = run(argv, capsys)
        assert code == 2
        assert out.out == ""
        assert len(out.err.splitlines()) == 1
        assert f"[arch] {key}" in out.err

    @pytest.mark.parametrize("old, new", [
        (b"nmt.W_init 12,12\n", b"nmt.W_init 12,x\n"),
        (b"kind=nmt", b"kind=\xffnmt"),
    ])
    def test_malformed_header_exits_2(self, toy_dir, capsys, old, new):
        ckpts = untrained_checkpoints(toy_dir)
        argv = self.save(toy_dir, {"nmt": ckpts["nmt"]}, [
            "translate", "--config", str(toy_dir / "exp.cfg"),
            "--input", str(toy_dir / "toy" / "test.src")])
        path = toy_dir / "nmt.ckpt"
        body = path.read_bytes()[:-32].replace(old, new, 1)
        path.write_bytes(body + hashlib.sha256(body).digest())  # re-signed
        code, out = run(argv, capsys)
        assert code == 2
        assert out.out == ""
        assert len(out.err.splitlines()) == 1
        assert str(path) in out.err



class TestVocabCheck:
    """Every command that pairs a checkpoint with the vocab files checks
    their sizes before it reads or trains anything."""

    @pytest.mark.parametrize("size", [20, 8])
    @pytest.mark.parametrize("command", [
        "finetune", "train-nmt --resume", "train-lm --resume",
        "evaluate --perplexity"])
    def test_size_mismatch_exits_2(self, toy_dir, capsys, command, size):
        # the vocab files have 12 ids; every checkpoint has ``size``
        cfg = toy_dir / "exp.cfg"
        cfg.write_text(cfg.read_text().replace("[model]", (
            "mono_train = {0}/train.tgt\nmono_dev = {0}/dev.tgt\n\n"
            "[model]").format(toy_dir / "toy")))
        rng = np.random.default_rng(0)
        nmt = NmtModel(NmtConfig(src_vocab=size, tgt_vocab=size, embed_dim=8,
                                 hidden=12), rng)
        lm = RnnLm(LmConfig(vocab=size, embed_dim=6, hidden=8), rng)
        for kind, model in (("nmt", nmt), ("lm", lm)):
            save_checkpoint(toy_dir / f"{kind}.ckpt", to_checkpoint(model))
        nmt_ckpt, lm_ckpt = str(toy_dir / "nmt.ckpt"), str(toy_dir / "lm.ckpt")
        output = toy_dir / "out.ckpt"
        train = ["--config", str(cfg), "--output", str(output), "--log",
                 str(toy_dir / "log.tsv")]
        argv = {
            "finetune": ["finetune", *train, "--nmt", nmt_ckpt, "--lm", lm_ckpt],
            "train-nmt --resume": ["train-nmt", *train, "--resume", nmt_ckpt],
            "train-lm --resume": ["train-lm", *train, "--resume", lm_ckpt],
            "evaluate --perplexity": [
                "evaluate", "--config", str(cfg), "--lm", lm_ckpt,
                "--perplexity", str(toy_dir / "toy" / "test.tgt")],
        }[command]
        code, out = run(argv, capsys)
        assert code == 2
        assert out.out == ""
        assert len(out.err.splitlines()) == 1
        assert f"vocab file has 12 ids, model expects {size}" in out.err
        assert not output.exists() and not (toy_dir / "log.tsv").exists()

class TestBuildVocab:
    def test_header_and_cap(self, tmp_path, capsys):
        src = tmp_path / "c.txt"
        write_lines(src, [" ".join(f"w{i}" for i in range(20))] * 2)
        out = tmp_path / "v.txt"
        code, _ = run(["build-vocab", "--input", str(src), "--cap", "10",
                       "--output", str(out)], capsys)
        assert code == 0
        lines = read_lines(out)
        assert lines[:3] == list(RESERVED)
        assert len(lines) == 10

    def test_rerun_byte_identical(self, tmp_path, capsys):
        src = tmp_path / "c.txt"
        write_lines(src, ["b a b", "c a"])
        out1, out2 = tmp_path / "v1.txt", tmp_path / "v2.txt"
        run(["build-vocab", "--input", str(src), "--cap", "6",
             "--output", str(out1)], capsys)
        run(["build-vocab", "--input", str(src), "--cap", "6",
             "--output", str(out2)], capsys)
        assert out1.read_bytes() == out2.read_bytes()


class TestMakeToy:
    def test_writes_all_splits(self, tmp_path, capsys):
        out = tmp_path / "toy"
        code, _ = run(["make-toy", "--kind", "constrained-target",
                       "--train", "10", "--dev", "4", "--test", "4",
                       "--mono", "20", "--output", str(out)], capsys)
        assert code == 0
        for name in ("train.src", "train.tgt", "dev.src", "dev.tgt",
                     "test.src", "test.tgt", "mono.txt"):
            assert (out / name).exists()
        assert len(read_lines(out / "mono.txt")) == 20

    @pytest.mark.parametrize("kind", ["copy", "reverse", "constrained-target"])
    def test_mono_leaves_splits_unchanged(self, tmp_path, capsys, kind):
        for n_mono in ("0", "20"):
            code, _ = run(["make-toy", "--kind", kind, "--train", "10",
                           "--dev", "4", "--test", "4", "--mono", n_mono,
                           "--output", str(tmp_path / n_mono)], capsys)
            assert code == 0
        assert len(read_lines(tmp_path / "20" / "mono.txt")) == 20
        assert not (tmp_path / "0" / "mono.txt").exists()
        for name in ("train.src", "train.tgt", "dev.src", "dev.tgt",
                     "test.src", "test.tgt"):
            assert ((tmp_path / "0" / name).read_bytes()
                    == (tmp_path / "20" / name).read_bytes())

    @pytest.mark.parametrize("kind", ["copy", "constrained-target"])
    def test_negative_mono_exits_2(self, tmp_path, capsys, kind):
        out = tmp_path / "toy"
        code, msg = run(["make-toy", "--kind", kind, "--train", "10",
                         "--dev", "4", "--test", "4", "--mono", "-3",
                         "--output", str(out)], capsys)
        assert code == 2
        assert "monolingual sentence count" in msg.err
        assert not (out / "mono.txt").exists() and not out.exists()

    def test_copy_kind_sources_equal_targets(self, tmp_path, capsys):
        out = tmp_path / "toy"
        run(["make-toy", "--kind", "copy", "--train", "5", "--dev", "2",
             "--test", "2", "--output", str(out)], capsys)
        assert read_lines(out / "train.src") == read_lines(out / "train.tgt")


class TestEvaluateCommand:
    def test_bleu_identical_files(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        write_lines(a, ["the cat sat", "on the mat"])
        code, out = run(["evaluate", "--bleu", str(a), str(a)], capsys)
        assert code == 0
        assert "BLEU = 100.00" in out.out

    def test_bleu_hand_example(self, tmp_path, capsys):
        cand, ref = tmp_path / "c.txt", tmp_path / "r.txt"
        write_lines(cand, ["the cat sat"])
        write_lines(ref, ["the cat sat down"])
        code, out = run(["evaluate", "--bleu", str(cand), str(ref)], capsys)
        assert code == 0
        assert "BLEU = 71.65" in out.out

    def test_bleu_blank_reference_line(self, tmp_path, capsys):
        # a blank line is one zero-length reference: p1..p3 = 3/6, 2/4, 1/2
        cand, ref = tmp_path / "c.txt", tmp_path / "r.txt"
        write_lines(cand, ["the cat sat", "on the mat"])
        write_lines(ref, ["the cat sat", ""])
        code, out = run(["evaluate", "--bleu", str(cand), str(ref)], capsys)
        assert (code, out.err) == (0, "")
        assert out.out == ("BLEU = 50.00, 50.0/50.0/50.0/0.0 (BP=1.000, "
                           "hyp_len=6, ref_len=3)\n")

    def test_gate_stats(self, tmp_path, capsys):
        gates = tmp_path / "g.txt"
        write_lines(gates, ["0.25 0.25", "0.25"])
        code, out = run(["evaluate", "--gate-stats", str(gates)], capsys)
        assert code == 0
        assert "avg_gate=0.2500" in out.out

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.1", "1.5", "abc"])
    def test_gate_outside_unit_interval_exits_2(self, tmp_path, capsys, value):
        # a gate is a sigmoid: a value no gate can take names its line
        gates = tmp_path / "g.txt"
        write_lines(gates, ["0.25 0.25", "", f"0.5 {value}"])
        code, out = run(["evaluate", "--gate-stats", str(gates)], capsys)
        assert (code, out.out) == (2, "")
        assert f"{gates}: line 3:" in out.err

    def test_perplexity_beyond_the_largest_float_is_inf(self, toy_dir, capsys):
        # every token but id 5 scores about -5000 nats: exp of the mean
        # NLL overflows a float
        ckpt = untrained_checkpoints(toy_dir)["lm"]
        ckpt.params["lm.b_out"][5] = 5000.0
        save_checkpoint(toy_dir / "lm.ckpt", ckpt)
        code, out = run(["evaluate", "--config", str(toy_dir / "exp.cfg"),
                         "--lm", str(toy_dir / "lm.ckpt"), "--perplexity",
                         str(toy_dir / "toy" / "test.tgt")], capsys)
        assert (code, out.err) == (0, "")
        assert out.out.startswith("perplexity = inf (")

    def test_train_lm_from_an_inf_dev_perplexity(self, toy_dir, capsys):
        # the same LM's dev perplexity stays inf over 10 updates: training
        # ends cleanly, and no inf evaluation replaces the first one
        ckpt = untrained_checkpoints(toy_dir)["lm"]
        ckpt.params["lm.b_out"][5] = 5000.0
        ckpt.meta["updates"] = 0
        save_checkpoint(toy_dir / "lm.ckpt", ckpt)
        cfg = toy_dir / "exp.cfg"
        cfg.write_text(cfg.read_text().replace("[model]", (
            "mono_train = {0}/train.tgt\nmono_dev = {0}/dev.tgt\n\n"
            "[model]").format(toy_dir / "toy")))
        code, out = run(["train-lm", "--config", str(cfg), "--resume",
                         str(toy_dir / "lm.ckpt"), "--output",
                         str(toy_dir / "out.ckpt"), "--log",
                         str(toy_dir / "log.tsv")], capsys)
        assert code == 0
        assert "no dev evaluation beat update 0" in out.err
        assert out.out == "best dev perplexity inf at update 0\n"
        assert [ln.split("\t")[3] for ln in read_lines(
            toy_dir / "log.tsv")[1:]] == ["", "", "", "", "inf"] * 2

    def test_no_mode_exits_2(self, capsys):
        code, _ = run(["evaluate"], capsys)
        assert code == 2


class TestPipeline:
    def train(self, toy_dir, capsys, seed_env=None):
        ckpt = toy_dir / "nmt.ckpt"
        log = toy_dir / "train.log"
        argv = ["train-nmt", "--config", str(toy_dir / "exp.cfg"),
                "--output", str(ckpt), "--log", str(log)]
        if seed_env is not None:
            os.environ["FUSION_NMT_SEED"] = seed_env
        try:
            code, _ = run(argv, capsys)
        finally:
            os.environ.pop("FUSION_NMT_SEED", None)
        assert code == 0
        return ckpt, log

    def test_train_translate_evaluate(self, toy_dir, capsys):
        ckpt, log = self.train(toy_dir, capsys)
        assert ckpt.exists()
        header = read_lines(log)[0]
        assert header == "update\tloss\tgrad_norm\tdev_metric"
        out_file = toy_dir / "out.txt"
        code, out = run(["translate", "--config", str(toy_dir / "exp.cfg"),
                         "--nmt", str(ckpt), "--beam", "2",
                         "--input", str(toy_dir / "toy" / "test.src")],
                        capsys)
        assert code == 0
        hyp_lines = out.out.splitlines()
        assert len(hyp_lines) == len(read_lines(toy_dir / "toy" / "test.src"))
        write_lines(out_file, hyp_lines)
        code, out = run(["evaluate", "--bleu", str(out_file),
                         str(toy_dir / "toy" / "test.tgt")], capsys)
        assert code == 0
        assert out.out.startswith("BLEU")

    def test_blank_input_line_keeps_alignment(self, toy_dir, capsys):
        ckpt, _ = self.train(toy_dir, capsys)
        first, second = read_lines(toy_dir / "toy" / "test.src")[:2]

        def translate(name, lines):
            src = toy_dir / f"{name}.src"
            write_lines(src, lines)
            att, gates = toy_dir / f"{name}.att", toy_dir / f"{name}.gates"
            code, out = run(["translate", "--config", str(toy_dir / "exp.cfg"),
                             "--nmt", str(ckpt), "--beam", "2",
                             "--input", str(src), "--dump-attention", str(att),
                             "--dump-gates", str(gates)], capsys)
            assert code == 0
            return out.out, att.read_text(), gates.read_text()

        out, att, gates = translate("blank", [first, "", second])
        out1, att1, gates1 = translate("first", [first])
        out2, att2, gates2 = translate("second", [second])
        assert out.splitlines()[1] == ""
        assert out == out1 + "\n" + out2
        assert att == att1 + "\n" + att2  # an empty attention block
        assert gates == gates1 + "\n" + gates2

    @pytest.mark.parametrize("command", ["train-lm", "train-nmt", "finetune"])
    def test_warns_when_start_snapshot_kept(self, toy_dir, capsys, command):
        ckpt, _ = self.train(toy_dir, capsys)
        mono = toy_dir / "toy" / "train.tgt"
        # a zero learning rate leaves every dev evaluation equal to update 0's
        text = (toy_dir / "exp.cfg").read_text().replace(
            "[data]\n", f"[data]\nmono_train = {mono}\nmono_dev = {mono}\n"
        ).replace("learning_rate = 0.002", "learning_rate = 0.0") + """
[lm]
embed_dim = 6
hidden = 8

[finetune]
batch_size = 16
learning_rate = 0.0
max_updates = 4
eval_interval = 2
"""
        argv = [command, "--config", str(toy_dir / "zero.cfg"),
                "--output", str(toy_dir / "out.ckpt")]
        if command == "finetune":
            lm_ckpt = toy_dir / "lm.ckpt"
            (toy_dir / "zero.cfg").write_text(text)
            assert run(["train-lm", "--config", str(toy_dir / "zero.cfg"),
                        "--output", str(lm_ckpt)], capsys)[0] == 0
            argv += ["--nmt", str(ckpt), "--lm", str(lm_ckpt)]
        for max_updates, warned in (("4", True), ("0", False)):
            (toy_dir / "zero.cfg").write_text(text.replace(
                "max_updates = 4", f"max_updates = {max_updates}").replace(
                "max_updates = 10", f"max_updates = {max_updates}"))
            code, out = run(argv, capsys)
            assert code == 0
            assert out.out.endswith("at update 0\n")
            assert ("warning: no dev evaluation beat update 0" in out.err) == warned

    def test_determinism_across_runs(self, toy_dir, capsys):
        ckpt1, _ = self.train(toy_dir, capsys)
        bytes1 = ckpt1.read_bytes()
        ckpt2, _ = self.train(toy_dir, capsys)
        assert ckpt2.read_bytes() == bytes1

    def test_seed_env_changes_run(self, toy_dir, capsys):
        ckpt1, _ = self.train(toy_dir, capsys)
        bytes1 = ckpt1.read_bytes()
        ckpt2, _ = self.train(toy_dir, capsys, seed_env="5")
        assert ckpt2.read_bytes() != bytes1

    def test_resume_continues(self, toy_dir, capsys):
        ckpt, _ = self.train(toy_dir, capsys)
        code, out = run(["train-nmt", "--config", str(toy_dir / "exp.cfg"),
                         "--output", str(toy_dir / "resumed.ckpt"),
                         "--resume", str(ckpt)], capsys)
        assert code == 0
        assert (toy_dir / "resumed.ckpt").exists()

    @pytest.mark.parametrize("updates", ["1e400", -7, 2.5])
    def test_resume_needs_a_count_of_updates(self, toy_dir, capsys, updates):
        prev, out_path = toy_dir / "prev.ckpt", toy_dir / "out.ckpt"
        ckpt = untrained_checkpoints(toy_dir)["nmt"]
        ckpt.meta["updates"] = updates  # "1e400" is written as is: inf
        save_checkpoint(prev, ckpt)
        code, out = run(["train-nmt", "--config", str(toy_dir / "exp.cfg"),
                         "--output", str(out_path), "--resume", str(prev)],
                        capsys)
        assert code == 2
        assert out.out == ""
        assert f"{prev}: [meta] updates: expected an integer >= 0" in out.err
        assert not out_path.exists()

    def test_shallow_beta_zero_matches_baseline(self, toy_dir, capsys):
        ckpt, _ = self.train(toy_dir, capsys)
        # a tiny LM over the same vocabulary
        mono = toy_dir / "toy" / "train.tgt"
        cfg_lm = toy_dir / "lm.cfg"
        cfg_lm.write_text(f"""
[data]
mono_train = {mono}
mono_dev = {mono}
tgt_vocab = {toy_dir / 'vocab.txt'}

[lm]
embed_dim = 6
hidden = 8

[train]
batch_size = 16
optimizer = adam
max_updates = 4
eval_interval = 2
patience = 5
""")
        lm_ckpt = toy_dir / "lm.ckpt"
        code, _ = run(["train-lm", "--config", str(cfg_lm),
                       "--output", str(lm_ckpt)], capsys)
        assert code == 0
        src = toy_dir / "toy" / "dev.src"
        base = run(["translate", "--config", str(toy_dir / "exp.cfg"),
                    "--nmt", str(ckpt), "--beam", "3", "--mode", "none",
                    "--input", str(src)], capsys)[1].out
        shallow = run(["translate", "--config", str(toy_dir / "exp.cfg"),
                       "--nmt", str(ckpt), "--lm", str(lm_ckpt),
                       "--beam", "3", "--mode", "shallow", "--beta", "0",
                       "--input", str(src)], capsys)[1].out
        assert base == shallow

    def test_finetune_and_deep_translate(self, toy_dir, capsys):
        ckpt, _ = self.train(toy_dir, capsys)
        mono = toy_dir / "toy" / "train.tgt"
        cfg = toy_dir / "full.cfg"
        cfg.write_text(f"""
[data]
src_train = {toy_dir / 'toy' / 'train.src'}
tgt_train = {toy_dir / 'toy' / 'train.tgt'}
src_dev = {toy_dir / 'toy' / 'dev.src'}
tgt_dev = {toy_dir / 'toy' / 'dev.tgt'}
mono_train = {mono}
mono_dev = {mono}
src_vocab = {toy_dir / 'vocab.txt'}
tgt_vocab = {toy_dir / 'vocab.txt'}

[model]
embed_dim = 8
hidden = 12

[lm]
embed_dim = 6
hidden = 8

[train]
batch_size = 16
optimizer = adam
max_updates = 4
eval_interval = 2
patience = 5

[finetune]
batch_size = 16
max_updates = 4
eval_interval = 2
patience = 5
dropout_p = 0.2
""")
        lm_ckpt = toy_dir / "lm.ckpt"
        assert run(["train-lm", "--config", str(cfg),
                    "--output", str(lm_ckpt)], capsys)[0] == 0
        fused_ckpt = toy_dir / "fused.ckpt"
        code, _ = run(["finetune", "--config", str(cfg),
                       "--nmt", str(ckpt), "--lm", str(lm_ckpt),
                       "--output", str(fused_ckpt)], capsys)
        assert code == 0
        gates_file = toy_dir / "gates.txt"
        code, out = run(["translate", "--config", str(cfg),
                         "--fused", str(fused_ckpt), "--mode", "deep",
                         "--beam", "2",
                         "--input", str(toy_dir / "toy" / "dev.src"),
                         "--dump-gates", str(gates_file)], capsys)
        assert code == 0
        traces = [ln for ln in read_lines(gates_file) if ln.strip()]
        assert traces
        code, out = run(["evaluate", "--gate-stats", str(gates_file)], capsys)
        assert code == 0
        assert "avg_gate=" in out.out

    def test_sweep_beta_table(self, toy_dir, capsys):
        ckpt, _ = self.train(toy_dir, capsys)
        mono = toy_dir / "toy" / "train.tgt"
        cfg_lm = toy_dir / "lm.cfg"
        cfg_lm.write_text(f"""
[data]
src_train = {toy_dir / 'toy' / 'train.src'}
tgt_train = {toy_dir / 'toy' / 'train.tgt'}
src_dev = {toy_dir / 'toy' / 'dev.src'}
tgt_dev = {toy_dir / 'toy' / 'dev.tgt'}
mono_train = {mono}
mono_dev = {mono}
tgt_vocab = {toy_dir / 'vocab.txt'}
src_vocab = {toy_dir / 'vocab.txt'}

[lm]
embed_dim = 6
hidden = 8

[train]
batch_size = 16
optimizer = adam
max_updates = 4
eval_interval = 2
patience = 5
""")
        lm_ckpt = toy_dir / "lm.ckpt"
        assert run(["train-lm", "--config", str(cfg_lm),
                    "--output", str(lm_ckpt)], capsys)[0] == 0
        code, out = run(["sweep-beta", "--config", str(cfg_lm),
                         "--nmt", str(ckpt), "--lm", str(lm_ckpt),
                         "--betas", "0,0.01", "--beam", "2"], capsys)
        assert code == 0
        lines = out.out.strip().splitlines()
        assert lines[0].startswith("0.000000\t")
        assert lines[-1].startswith("best\t")
        # the beta = 0 row equals a plain baseline decode's BLEU
        base = run(["translate", "--config", str(cfg_lm),
                    "--nmt", str(ckpt), "--beam", "2", "--mode", "none",
                    "--input", str(toy_dir / "toy" / "dev.src")],
                   capsys)[1].out.splitlines()
        from fusionmt.evaluation import bleu
        refs = [ln.split() for ln in
                read_lines(toy_dir / "toy" / "dev.tgt")]
        want = bleu([h.split() for h in base], refs).score
        assert float(lines[0].split("\t")[1]) == pytest.approx(want, abs=1e-4)
