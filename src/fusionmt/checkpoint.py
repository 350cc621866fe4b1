"""Single-file checkpoint container.

Layout: magic bytes, a structured text header (kind, architecture,
metadata, block table), raw little-endian float64 parameter blocks in
header-declared order, then a sha256 digest of everything before it.
Serialization is canonical (sorted keys), so load -> save reproduces the
input byte-for-byte.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .models import FusedModel, LmConfig, NmtConfig, NmtModel, RnnLm
from .tensor import ParameterSet

MAGIC = b"FUSEMT01"


class CheckpointError(ValueError):
    """Corrupt or incompatible checkpoint file."""


@dataclass
class Checkpoint:
    kind: str  # nmt | lm | fused
    arch: dict
    params: dict[str, np.ndarray]
    meta: dict = field(default_factory=dict)


def _format_value(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _parse_value(s: str):
    if s in ("true", "false"):
        return s == "true"
    for cast in (int, float):
        try:
            return cast(s)
        except ValueError:
            pass
    return s


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    lines = ["version=1", f"kind={ckpt.kind}", "[arch]"]
    for k in sorted(ckpt.arch):
        lines.append(f"{k}={_format_value(ckpt.arch[k])}")
    lines.append("[meta]")
    for k in sorted(ckpt.meta):
        lines.append(f"{k}={_format_value(ckpt.meta[k])}")
    lines.append("[blocks]")
    names = sorted(ckpt.params)
    for name in names:
        shape = ",".join(str(d) for d in ckpt.params[name].shape)
        lines.append(f"{name} {shape}")
    lines.append("end")
    payload = MAGIC + ("\n".join(lines) + "\n").encode("utf-8")
    chunks = [payload]
    for name in names:
        chunks.append(np.ascontiguousarray(
            ckpt.params[name], dtype="<f8").tobytes())
    body = b"".join(chunks)
    with open(path, "wb") as f:
        f.write(body)
        f.write(hashlib.sha256(body).digest())


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < len(MAGIC) + 32 or not raw.startswith(MAGIC):
        raise CheckpointError(f"{path}: not a checkpoint file")
    body, digest = raw[:-32], raw[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise CheckpointError(f"{path}: digest mismatch (corrupt file)")
    # header ends at the "end" line
    text_start = len(MAGIC)
    end_marker = b"\nend\n"
    end = body.find(end_marker, text_start)
    if end < 0:
        raise CheckpointError(f"{path}: missing header terminator")
    header = body[text_start:end].decode("utf-8").split("\n")
    binary = body[end + len(end_marker):]

    kind = ""
    arch: dict = {}
    meta: dict = {}
    blocks: list[tuple[str, tuple]] = []
    section = ""
    for line in header:
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
        elif section == "blocks":
            name, _, shape = line.partition(" ")
            dims = tuple(int(d) for d in shape.split(",")) if shape else ()
            blocks.append((name, dims))
        elif "=" in line:
            k, _, v = line.partition("=")
            if section == "arch":
                arch[k] = _parse_value(v)
            elif section == "meta":
                meta[k] = _parse_value(v)
            elif k == "kind":
                kind = v
            elif k == "version" and v != "1":
                raise CheckpointError(f"{path}: unsupported version {v}")
    params: dict[str, np.ndarray] = {}
    offset = 0
    for name, dims in blocks:
        n = int(np.prod(dims)) if dims else 1
        chunk = binary[offset : offset + 8 * n]
        if len(chunk) != 8 * n:
            raise CheckpointError(f"{path}: truncated block {name!r}")
        params[name] = np.frombuffer(chunk, dtype="<f8").reshape(dims).copy()
        offset += 8 * n
    if offset != len(binary):
        raise CheckpointError(f"{path}: trailing bytes after blocks")
    return Checkpoint(kind=kind, arch=arch, params=params, meta=meta)


# ---------------------------------------------------------------------------
# model <-> checkpoint
# ---------------------------------------------------------------------------

def snapshot_params(params: ParameterSet) -> dict[str, np.ndarray]:
    return {p.id: p.value.data.copy() for p in params}


def restore_params(params: ParameterSet, values: dict[str, np.ndarray]) -> None:
    for p in params:
        if p.id not in values:
            raise CheckpointError(f"checkpoint missing parameter {p.id!r}")
        if values[p.id].shape != p.value.shape:
            raise CheckpointError(
                f"parameter {p.id!r}: shape {values[p.id].shape} "
                f"!= expected {p.value.shape}")
        p.value.data[...] = values[p.id]


def _nmt_arch(cfg: NmtConfig) -> dict:
    return {"src_vocab": cfg.src_vocab, "tgt_vocab": cfg.tgt_vocab,
            "embed_dim": cfg.embed_dim, "hidden": cfg.hidden,
            "deep_output_width": cfg.deep_output_width}


def _nmt_config(arch: dict) -> NmtConfig:
    return NmtConfig(src_vocab=arch["src_vocab"], tgt_vocab=arch["tgt_vocab"],
                     embed_dim=arch["embed_dim"], hidden=arch["hidden"],
                     deep_output_width=arch["deep_output_width"])


def checkpoint_from_nmt(model: NmtModel, meta: Optional[dict] = None) -> Checkpoint:
    return Checkpoint("nmt", _nmt_arch(model.cfg), snapshot_params(model.params),
                      meta or {})


def checkpoint_from_lm(lm: RnnLm, meta: Optional[dict] = None) -> Checkpoint:
    cfg = lm.cfg
    arch = {"vocab": cfg.vocab, "embed_dim": cfg.embed_dim, "hidden": cfg.hidden}
    return Checkpoint("lm", arch, snapshot_params(lm.params), meta or {})


def checkpoint_from_fused(fm: FusedModel, meta: Optional[dict] = None) -> Checkpoint:
    arch = {**_nmt_arch(fm.nmt.cfg),
            "lm_vocab": fm.lm.cfg.vocab,
            "lm_embed_dim": fm.lm.cfg.embed_dim,
            "lm_hidden": fm.lm.cfg.hidden}
    return Checkpoint("fused", arch, snapshot_params(fm.params), meta or {})


def build_nmt(ckpt: Checkpoint) -> NmtModel:
    if ckpt.kind != "nmt":
        raise CheckpointError(f"expected an nmt checkpoint, got {ckpt.kind!r}")
    model = NmtModel(_nmt_config(ckpt.arch), np.random.default_rng(0))
    restore_params(model.params, ckpt.params)
    return model


def build_lm(ckpt: Checkpoint) -> RnnLm:
    if ckpt.kind != "lm":
        raise CheckpointError(f"expected an lm checkpoint, got {ckpt.kind!r}")
    a = ckpt.arch
    cfg = LmConfig(vocab=a["vocab"], embed_dim=a["embed_dim"], hidden=a["hidden"])
    lm = RnnLm(cfg, np.random.default_rng(0))
    restore_params(lm.params, ckpt.params)
    return lm


def build_fused(ckpt: Checkpoint) -> FusedModel:
    if ckpt.kind != "fused":
        raise CheckpointError(f"expected a fused checkpoint, got {ckpt.kind!r}")
    a = ckpt.arch
    nmt = NmtModel(_nmt_config(a), np.random.default_rng(0))
    lm = RnnLm(LmConfig(vocab=a["lm_vocab"], embed_dim=a["lm_embed_dim"],
                        hidden=a["lm_hidden"]), np.random.default_rng(0))
    fm = FusedModel(nmt, lm, np.random.default_rng(0))
    restore_params(fm.params, ckpt.params)
    return fm


def param_digests(params: ParameterSet,
                  select: Optional[Callable] = None) -> dict[str, str]:
    """sha256 hex digest per parameter value; used by the freezing contract."""
    out = {}
    for p in params:
        if select is None or select(p):
            out[p.id] = hashlib.sha256(
                np.ascontiguousarray(p.value.data, dtype="<f8").tobytes()
            ).hexdigest()
    return out
