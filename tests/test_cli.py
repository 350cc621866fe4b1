"""Command-line interface: config validation, subcommands, exit codes, and
a miniature end-to-end pipeline."""

import os

import numpy as np
import pytest

from fusionmt import cli
from fusionmt.cli import ConfigError, load_config, main
from fusionmt.data import RESERVED, read_lines, write_lines


def run(argv, capsys=None):
    code = main(argv)
    if capsys is None:
        return code, None
    return code, capsys.readouterr()


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

    def test_missing_checkpoint_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("")
        code, out = run(["translate", "--config", str(cfg),
                         "--nmt", str(tmp_path / "missing.ckpt"),
                         "--input", str(cfg)], capsys)
        assert code == 2

    @pytest.mark.parametrize("argv, setting, key", [
        (["finetune", "--nmt", "no.ckpt", "--lm", "no.ckpt"],
         "[finetune]\npatience = 0\n", "patience"),
        (["train-nmt"], "[train]\ndropout_p = 1.0\n", "dropout_p"),
        (["train-lm"], "[train]\ndropout_p = 1.0\n", "dropout_p"),
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

    def test_gate_stats(self, tmp_path, capsys):
        gates = tmp_path / "g.txt"
        write_lines(gates, ["0.25 0.25", "0.25"])
        code, out = run(["evaluate", "--gate-stats", str(gates)], capsys)
        assert code == 0
        assert "avg_gate=0.2500" in out.out

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
