"""Checkpoint container: canonical serialization, corruption detection, and
model reconstruction."""

import hashlib
import re
from pathlib import Path

import numpy as np
import pytest

from fusionmt import checkpoint
from fusionmt.checkpoint import (
    MAGIC,
    Checkpoint,
    CheckpointError,
    build_fused,
    build_lm,
    build_nmt,
    load_checkpoint,
    param_digests,
    restore_params,
    save_checkpoint,
    snapshot_params,
    to_checkpoint,
)
from fusionmt.models import FusedModel, LmConfig, NmtConfig, NmtModel, RnnLm


def tiny_nmt(seed=0):
    return NmtModel(NmtConfig(src_vocab=6, tgt_vocab=5, embed_dim=3,
                              hidden=4), np.random.default_rng(seed))


def tiny_lm(seed=0):
    return RnnLm(LmConfig(vocab=5, embed_dim=3, hidden=4),
                 np.random.default_rng(seed))


def tiny_checkpoints():
    fm = FusedModel(tiny_nmt(), tiny_lm(), np.random.default_rng(0))
    return {"nmt": to_checkpoint(fm.nmt), "lm": to_checkpoint(fm.lm),
            "fused": to_checkpoint(fm)}


BUILD = {"nmt": build_nmt, "lm": build_lm, "fused": build_fused}
ARCH_KEYS = [(kind, key) for kind, ckpt in tiny_checkpoints().items()
             for key in sorted(ckpt.arch)]
FIXTURES = Path(__file__).resolve().parents[1] / "benchmarks" / "fixtures"


class TestContainer:
    def test_save_load_save_byte_identical(self, tmp_path):
        ckpt = to_checkpoint(tiny_nmt(), meta={"updates": 7,
                                               "best_dev_bleu": 33.25})
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, ckpt)
        save_checkpoint(p2, load_checkpoint(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_values_roundtrip_exactly(self, tmp_path):
        model = tiny_nmt(seed=3)
        path = tmp_path / "m.ckpt"
        ckpt = to_checkpoint(model)
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        assert sorted(loaded.params) == sorted(ckpt.params)
        for name, value in ckpt.params.items():
            np.testing.assert_array_equal(loaded.params[name], value)

    def test_meta_types_preserved(self, tmp_path):
        ckpt = Checkpoint("lm", {"vocab": 5, "embed_dim": 3, "hidden": 4},
                          snapshot_params(tiny_lm().params),
                          meta={"updates": 3, "best_dev_perplexity": 1.25,
                                "note": "plain"})
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, ckpt)
        meta = load_checkpoint(path).meta
        assert meta == {"updates": 3, "best_dev_perplexity": 1.25,
                        "note": "plain"}

    def test_corruption_detected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, to_checkpoint(tiny_lm()))
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, to_checkpoint(tiny_lm()))
        path.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"something else entirely, long enough to parse ok")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("old, new", [
        (b"nmt.W_init 4,4\n", b"nmt.W_init 4,x\n"),
        (b"kind=nmt", b"kind=\xffnmt"),
    ])
    def test_malformed_header_names_the_file(self, tmp_path, old, new):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, to_checkpoint(tiny_nmt()))
        body = path.read_bytes()[:-32]
        assert old in body
        body = body.replace(old, new, 1)
        path.write_bytes(body + hashlib.sha256(body).digest())  # re-signed
        with pytest.raises(CheckpointError, match=re.escape(str(path))):
            load_checkpoint(path)

    def test_block_listed_twice(self, tmp_path):
        # a re-signed copy of the benchmark fixture whose block table names
        # nmt.W_init twice, with bytes for the second copy appended, so the
        # sizes add up and only the repeated name is wrong
        ckpt = load_checkpoint(FIXTURES / "nmt.ckpt")
        line = b"nmt.W_init 48,48\n"
        body = (FIXTURES / "nmt.ckpt").read_bytes()[:-32]
        assert body.count(line) == 1
        body = body.replace(line, line * 2) + np.full(
            ckpt.params["nmt.W_init"].shape, 7.0).astype("<f8").tobytes()
        path = tmp_path / "m.ckpt"
        path.write_bytes(body + hashlib.sha256(body).digest())
        with pytest.raises(CheckpointError, match=re.escape(
                f"{path}: block 'nmt.W_init' is listed twice")):
            load_checkpoint(path)

    @pytest.mark.parametrize("kind, section, line, again", [
        ("lm", "meta", b"updates=300\n", b"updates=7\n"),
        ("nmt", "arch", b"hidden=48\n", b"hidden=48\n")])
    def test_key_named_twice(self, tmp_path, kind, section, line, again):
        # a re-signed copy of a benchmark fixture that names a key again
        # right after its line: refused, not read as the later value
        body = (FIXTURES / f"{kind}.ckpt").read_bytes()[:-32]
        assert body.count(line) == 1
        body = body.replace(line, line + again)
        path = tmp_path / "m.ckpt"
        path.write_bytes(body + hashlib.sha256(body).digest())
        key = line.decode().partition("=")[0]
        with pytest.raises(CheckpointError, match=re.escape(
                f"{path}: [{section}] {key} is named twice")):
            load_checkpoint(path)


class TestModelReconstruction:
    def test_nmt_roundtrip(self, tmp_path):
        model = tiny_nmt(seed=1)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, to_checkpoint(model))
        rebuilt = build_nmt(load_checkpoint(path))
        assert rebuilt.cfg == model.cfg
        assert param_digests(rebuilt.params) == param_digests(model.params)

    def test_lm_roundtrip(self, tmp_path):
        lm = tiny_lm(seed=2)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, to_checkpoint(lm))
        rebuilt = build_lm(load_checkpoint(path))
        assert param_digests(rebuilt.params) == param_digests(lm.params)

    def test_fused_roundtrip(self, tmp_path):
        fm = FusedModel(tiny_nmt(seed=3), tiny_lm(seed=4),
                        np.random.default_rng(5))
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, to_checkpoint(fm))
        rebuilt = build_fused(load_checkpoint(path))
        assert param_digests(rebuilt.params) == param_digests(fm.params)
        trainable = sorted(p.id for p in rebuilt.params.trainable())
        assert all(t.startswith(("fuse.ctrl", "fuse.out")) for t in trainable)

    def test_kind_mismatch(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, to_checkpoint(tiny_lm()))
        with pytest.raises(CheckpointError):
            build_nmt(load_checkpoint(path))

    @pytest.mark.parametrize("kind, article", [("nmt", "an"), ("lm", "an"),
                                               ("fused", "a")])
    def test_kind_mismatch_names_both_kinds(self, kind, article):
        other = "lm" if kind == "nmt" else "nmt"
        with pytest.raises(CheckpointError, match=re.escape(
                f"expected {article} {kind} checkpoint, got {other!r}")):
            BUILD[kind](tiny_checkpoints()[other])

    def test_restore_shape_guard(self):
        model = tiny_nmt()
        values = to_checkpoint(model).params
        values["nmt.W_init"] = np.zeros((2, 2))
        with pytest.raises(CheckpointError):
            restore_params(model.params, Checkpoint("nmt", {}, values))

    def test_restore_missing_param_guard(self):
        model = tiny_nmt()
        values = to_checkpoint(model).params
        del values["nmt.W_init"]
        with pytest.raises(CheckpointError):
            restore_params(model.params, Checkpoint("nmt", {}, values))

    @pytest.mark.parametrize("kind, block", [
        ("nmt", "nmt.dec.U_z"), ("lm", "lm.lstm.U_f"), ("fused", "nmt.dec.U_z"),
        ("fused", "fuse.ctrl.v_g")])
    @pytest.mark.parametrize("shape", [None, (3, 3)])
    def test_bad_block_names_the_file(self, tmp_path, kind, block, shape):
        # a re-signed copy of the benchmark fixture, the block removed
        # (None) or replaced by one of the wrong shape
        ckpt = load_checkpoint(FIXTURES / f"{kind}.ckpt")
        if shape is None:
            del ckpt.params[block]
        else:
            ckpt.params[block] = np.zeros(shape)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, ckpt)
        want = (f"{path}: missing parameter '{block}'" if shape is None
                else f"{path}: parameter '{block}': shape (3, 3)")
        with pytest.raises(CheckpointError, match=re.escape(want)):
            BUILD[kind](load_checkpoint(path))

    def test_block_no_parameter_reads(self, tmp_path):
        # a re-saved copy of the benchmark fixture with a block under the
        # joined id nmt.dec.W (the file holds it per gate) and a stray one
        ckpt = load_checkpoint(FIXTURES / "nmt.ckpt")
        joined = build_nmt(ckpt).params.get("nmt.dec.W").value.shape
        ckpt.params["nmt.dec.W"] = np.full(joined, 7.0)
        ckpt.params["nmt.stray"] = np.zeros(3)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, ckpt)
        with pytest.raises(CheckpointError, match=re.escape(
                f"{path}: no parameter reads ['nmt.dec.W', 'nmt.stray']")):
            build_nmt(load_checkpoint(path))


class TestArchSection:
    def test_arch_lines_pinned(self, tmp_path):
        # checkpoint format v1: a new config field must not add an [arch] key
        # unnoticed
        want = {
            "nmt": ["deep_output_width=8", "embed_dim=3", "hidden=4",
                    "src_vocab=6", "tgt_vocab=5"],
            "lm": ["embed_dim=3", "hidden=4", "vocab=5"],
            "fused": ["deep_output_width=8", "embed_dim=3", "hidden=4",
                      "lm_embed_dim=3", "lm_hidden=4", "lm_vocab=5",
                      "src_vocab=6", "tgt_vocab=5"],
        }
        for kind, ckpt in tiny_checkpoints().items():
            path = tmp_path / f"{kind}.ckpt"
            save_checkpoint(path, ckpt)
            header = path.read_bytes()[len(MAGIC):].split(b"\nend\n")[0]
            lines = header.decode("utf-8").split("\n")
            assert lines[lines.index("[arch]") + 1:lines.index("[meta]")] \
                == want[kind], kind

    @pytest.mark.parametrize("kind, key", ARCH_KEYS)
    @pytest.mark.parametrize("value", [None, "ten", 2.5, True])
    def test_missing_or_non_integer_key(self, tmp_path, kind, key, value):
        # None removes the key; the others are re-signed in its place
        ckpt = tiny_checkpoints()[kind]
        if value is None:
            del ckpt.arch[key]
        else:
            ckpt.arch[key] = value
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, ckpt)
        with pytest.raises(CheckpointError, match=rf"\[arch\] {key}\b"):
            BUILD[kind](load_checkpoint(path))

    @pytest.mark.parametrize("kind, key", ARCH_KEYS)
    @pytest.mark.parametrize("value", [0, -3])
    def test_size_below_one(self, tmp_path, kind, key, value):
        ckpt = tiny_checkpoints()[kind]
        ckpt.arch[key] = value
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, ckpt)
        with pytest.raises(CheckpointError, match=re.escape(
                f"{path}: [arch] {key}={value}: expected a positive")):
            BUILD[kind](load_checkpoint(path))

    @pytest.mark.parametrize("kind", ["nmt", "fused"])
    def test_odd_deep_output_width(self, tmp_path, kind):
        # the block agrees, so only the parity check can refuse it
        ckpt = tiny_checkpoints()[kind]
        ckpt.arch["deep_output_width"] = 7
        ckpt.params["nmt.out.b_h"] = np.zeros(7)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, ckpt)
        with pytest.raises(CheckpointError, match=re.escape(
                f"{path}: [arch] deep_output_width=7: expected a positive even "
                "integer")):
            BUILD[kind](load_checkpoint(path))

    @pytest.mark.parametrize("kind, key", ARCH_KEYS)
    @pytest.mark.parametrize("delta", [-1, 1])
    def test_size_off_by_one_refused_before_allocation(
            self, tmp_path, monkeypatch, kind, key, delta):
        ckpt = tiny_checkpoints()[kind]
        ckpt.arch[key] += 2 * delta if key == "deep_output_width" else delta
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, ckpt)

        def refuse(*args):
            raise AssertionError("a model was allocated before the check")

        monkeypatch.setattr(checkpoint, "NmtModel", refuse)
        monkeypatch.setattr(checkpoint, "RnnLm", refuse)
        with pytest.raises(CheckpointError, match=re.escape(
                f"{path}: [arch] {key}={ckpt.arch[key]}: expected a positive")
                + r".*integer, the length of axis \d of block"):
            BUILD[kind](load_checkpoint(path))

    @pytest.mark.parametrize("kind, line", [
        ("nmt", b"lm_vocab=16\n"), ("lm", b"src_vocab=15\n"),
        ("fused", b"lm_src_vocab=15\n")])
    def test_key_no_config_field_reads(self, tmp_path, kind, line):
        # a re-signed copy of a benchmark fixture with an [arch] key that
        # sizes nothing in a model of its kind
        body = (FIXTURES / f"{kind}.ckpt").read_bytes()[:-32]
        body = body.replace(b"[arch]\n", b"[arch]\n" + line, 1)
        path = tmp_path / "m.ckpt"
        path.write_bytes(body + hashlib.sha256(body).digest())
        key = line.decode().partition("=")[0]
        with pytest.raises(CheckpointError, match=re.escape(
                f"{path}: [arch] {key}: no config field reads it")):
            BUILD[kind](load_checkpoint(path))

    @pytest.mark.parametrize("kind", sorted(BUILD))
    def test_fixture_roundtrip(self, tmp_path, kind):
        path = FIXTURES / f"{kind}.ckpt"
        ckpt = load_checkpoint(path)
        save_checkpoint(tmp_path / "m.ckpt",
                        to_checkpoint(BUILD[kind](ckpt), meta=ckpt.meta))
        assert (tmp_path / "m.ckpt").read_bytes() == path.read_bytes()


class TestParamDigests:
    def test_detects_single_bit_change(self):
        model = tiny_nmt()
        before = param_digests(model.params)
        model.params.get("nmt.b_init").value.data[0] += 1e-300
        after = param_digests(model.params)
        assert before != after
        changed = [k for k in before if before[k] != after[k]]
        assert changed == ["nmt.b_init"]

    def test_selector(self):
        model = tiny_nmt()
        subset = param_digests(model.params,
                               lambda p: p.id.startswith("nmt.attn"))
        assert sorted(subset) == ["nmt.attn.U_a", "nmt.attn.V_a",
                                  "nmt.attn.W_a", "nmt.attn.b_a",
                                  "nmt.attn.v_a"]
