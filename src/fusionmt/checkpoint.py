"""Single-file checkpoint container.

Layout: magic bytes, a structured text header (kind, architecture,
metadata, block table), raw little-endian float64 blocks in header order,
each named once (a recurrent cell's joined W, U or b as one block per gate),
then a sha256 digest of everything before it.  Serialization is canonical
(sorted keys), so load -> save reproduces the input byte-for-byte.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Iterable, Optional

import numpy as np

from .models import FusedModel, LmConfig, NmtConfig, NmtModel, RnnLm
from .tensor import Parameter, ParameterSet

MAGIC = b"FUSEMT01"


class CheckpointError(ValueError):
    """Corrupt or incompatible checkpoint file."""


@dataclass
class Checkpoint:
    kind: str  # nmt | lm | fused
    arch: dict
    params: dict[str, np.ndarray]
    meta: dict = field(default_factory=dict)
    source: str = "checkpoint"  # the file it was read from, for messages


def _format_value(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _parse_value(s: str):
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
    try:
        header = body[text_start:end].decode("utf-8").split("\n")
    except UnicodeDecodeError:
        raise CheckpointError(f"{path}: header is not UTF-8") from None
    binary = body[end + len(end_marker):]

    kind = ""
    tables: dict[str, dict] = {"arch": {}, "meta": {}}
    blocks: list[tuple[str, tuple]] = []
    section = ""
    for line in header:
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
        elif section == "blocks":
            name, _, shape = line.partition(" ")
            dims = shape.split(",") if shape else []
            if not all(d.isdecimal() for d in dims):
                raise CheckpointError(
                    f"{path}: block {name!r} has shape {shape!r}")
            blocks.append((name, tuple(int(d) for d in dims)))
        elif "=" in line:
            k, _, v = line.partition("=")
            if section in tables:
                if k in tables[section]:
                    raise CheckpointError(
                        f"{path}: [{section}] {k} is named twice")
                tables[section][k] = _parse_value(v)
            elif k == "kind":
                kind = v
            elif k == "version" and v != "1":
                raise CheckpointError(f"{path}: unsupported version {v}")
    params: dict[str, np.ndarray] = {}
    offset = 0
    for name, dims in blocks:
        n = int(np.prod(dims)) if dims else 1
        chunk = binary[offset : offset + 8 * n]
        if name in params:
            raise CheckpointError(f"{path}: block {name!r} is listed twice")
        if len(chunk) != 8 * n:
            raise CheckpointError(f"{path}: truncated block {name!r}")
        params[name] = np.frombuffer(chunk, dtype="<f8").reshape(dims).copy()
        offset += 8 * n
    if offset != len(binary):
        raise CheckpointError(f"{path}: trailing bytes after blocks")
    return Checkpoint(kind, tables["arch"], params, tables["meta"], str(path))


# ---------------------------------------------------------------------------
# model <-> checkpoint
# ---------------------------------------------------------------------------

def snapshot_params(params: Iterable[Parameter]) -> dict[str, np.ndarray]:
    return {p.id: p.value.data.copy() for p in params}


def _blocks(params: Iterable[Parameter]):
    """(name, view of a value) per checkpoint block: a parameter, or a gate's
    column block ``f"{id}_{gate}"`` of a recurrent cell's joined W, U or b."""
    for p in params:
        names = [f"{p.id}_{gate}" for gate in p.gates] or [p.id]
        yield from zip(names, np.split(p.value.data, len(names), axis=-1))


def restore_params(params: ParameterSet, ckpt: Checkpoint) -> None:
    blocks = dict(_blocks(params))
    unread = sorted(ckpt.params.keys() - blocks.keys())
    if unread:
        raise CheckpointError(f"{ckpt.source}: no parameter reads {unread}")
    for name, block in blocks.items():
        value = ckpt.params.get(name)
        if value is None:
            raise CheckpointError(f"{ckpt.source}: missing parameter {name!r}")
        if value.shape != block.shape:
            raise CheckpointError(
                f"{ckpt.source}: parameter {name!r}: shape {value.shape} "
                f"!= expected {block.shape}")
        block[...] = value


# kind -> the (config class, [arch] key prefix) of each model it is built from
_PARTS = {"nmt": ((NmtConfig, ""),), "lm": ((LmConfig, ""),),
          "fused": ((NmtConfig, ""), (LmConfig, "lm_"))}

# the block axis each config size fixes, under the parameter ids the models
# create; checked before a model is allocated
SIZED_BY = {
    NmtConfig: {"src_vocab": ("nmt.src_emb.table", 0),
                "embed_dim": ("nmt.src_emb.table", 1),
                "tgt_vocab": ("nmt.tgt_emb.table", 0), "hidden": ("nmt.W_init", 0),
                "deep_output_width": ("nmt.out.b_h", 0)},
    LmConfig: {"vocab": ("lm.emb.table", 0), "embed_dim": ("lm.emb.table", 1),
               "hidden": ("lm.W_out", 1)},
}


def _config(ckpt: Checkpoint, kind: str) -> list:
    """Each part's config from the [arch] keys of ``ckpt``, a ``kind`` model:
    each field, prefixed, a positive integer sizing its block; no other key."""
    unread = sorted(set(ckpt.arch) - {prefix + f.name for cls, prefix
                                      in _PARTS[kind] for f in fields(cls)})
    if unread:
        raise CheckpointError(f"{ckpt.source}: [arch] {unread[0]}: no config "
                              "field reads it")
    cfgs = []
    for cls, prefix in _PARTS[kind]:
        values = {}
        for f in fields(cls):
            key, even = prefix + f.name, f.name == "deep_output_width"
            value, (block, axis) = ckpt.arch.get(key), SIZED_BY[cls][f.name]
            size = ckpt.params.get(block, np.empty(0)).shape[axis:axis + 1]
            if (type(value) is not int or value < 1 or even and value % 2
                    or size != (value,)):
                raise CheckpointError(
                    f"{ckpt.source}: [arch] {key}={value!r}: expected a "
                    f"positive{' even' * even} integer, the length of axis "
                    f"{axis} of block {block!r}")
            values[f.name] = value
        cfgs.append(cls(**values))
    return cfgs


def to_checkpoint(model, meta: Optional[dict] = None) -> Checkpoint:
    """An ``NmtModel``, ``RnnLm`` or ``FusedModel`` as a checkpoint of its
    kind: each part's config fields under its prefix, and every parameter."""
    kind = {NmtModel: "nmt", RnnLm: "lm", FusedModel: "fused"}[type(model)]
    parts = (model.nmt, model.lm) if kind == "fused" else (model,)
    arch = {prefix + k: v for part, (_, prefix) in zip(parts, _PARTS[kind])
            for k, v in asdict(part.cfg).items()}
    return Checkpoint(kind, arch, {name: block.copy() for name, block
                                   in _blocks(model.params)}, meta or {})


def build(ckpt: Checkpoint, kind: str):
    """The ``kind`` model held in ``ckpt``; every part's [arch] sizes are
    checked before anything is allocated."""
    if ckpt.kind != kind:
        raise CheckpointError(f"expected {'a' if kind == 'fused' else 'an'} "
                              f"{kind} checkpoint, got {ckpt.kind!r}")
    rng = np.random.default_rng
    cfgs = _config(ckpt, kind)
    parts = [(NmtModel if type(cfg) is NmtConfig else RnnLm)(cfg, rng(0))
             for cfg in cfgs]
    model = FusedModel(*parts, rng(0)) if kind == "fused" else parts[0]
    restore_params(model.params, ckpt)
    return model


def build_nmt(ckpt: Checkpoint) -> NmtModel:
    return build(ckpt, "nmt")


def build_lm(ckpt: Checkpoint) -> RnnLm:
    return build(ckpt, "lm")


def build_fused(ckpt: Checkpoint) -> FusedModel:
    return build(ckpt, "fused")


def param_digests(params: ParameterSet,
                  select: Optional[Callable] = None) -> dict[str, str]:
    """sha256 hex digest per parameter value; used by the freezing contract."""
    return {p.id: hashlib.sha256(np.ascontiguousarray(
        p.value.data, dtype="<f8").tobytes()).hexdigest()
        for p in params if select is None or select(p)}
