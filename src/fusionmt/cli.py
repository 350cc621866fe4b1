"""Command-line entry points tying the pipeline together:

    build-vocab -> train-lm -> train-nmt -> finetune -> translate -> evaluate

Experiment settings live in a flat key=value config file with sections;
unknown keys are rejected.  Exit codes: 0 success, 2 input/config error,
3 numeric failure.  The environment variable FUSION_NMT_SEED overrides the
configured seed.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import dataclasses
import logging
import os
import sys
from typing import Optional

import numpy as np

from . import checkpoint as ckpt_io
from . import data as D
from . import decoding, evaluation, training
from .models import ConfigurationError, FusedModel, LmConfig, NmtConfig, NmtModel, RnnLm


class ConfigError(ValueError):
    """Bad experiment configuration (unknown key, wrong type, missing file)."""


def _defaults(config_cls) -> dict:
    """A dataclass's config keys: each field with a bool/int/float/str default."""
    return {f.name: f.default for f in dataclasses.fields(config_cls)
            if isinstance(f.default, (bool, int, float, str))}


# section -> key -> default (the default also fixes the type)
_SCHEMA: dict[str, dict] = {
    "data": {
        "src_train": "", "tgt_train": "", "src_dev": "", "tgt_dev": "",
        "mono_train": "", "mono_dev": "",
        "src_vocab": "", "tgt_vocab": "",
        "lowercase": True, "char_mode": False,
        "filter": True, "max_len": 80, "ratio_bound": 3.0,
    },
    "model": _defaults(NmtConfig),
    "lm": _defaults(LmConfig),
    "train": _defaults(training.TrainConfig),
    "finetune": _defaults(training.FinetuneConfig),
    "decode": {
        "beam_width": 10, "fusion": "none", "beta": 0.0,
        "replace_unk": False, "length_normalize": False,
    },
}


def load_config(path: Optional[str]) -> dict[str, dict]:
    """Parse and validate a config file against the schema; returns a fully
    defaulted {section: {key: value}} mapping."""
    cfg = {s: dict(defaults) for s, defaults in _SCHEMA.items()}
    if path is None:
        return cfg
    parser = configparser.ConfigParser()
    try:  # a malformed file, or a stray '%' read as interpolation
        read = parser.read(path)
        sections = {s: parser.items(s) for s in parser.sections()}
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    for section, items in sections.items():
        if section not in _SCHEMA:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key, raw in items:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{path}: unknown key {section}.{key}")
            default = _SCHEMA[section][key]
            try:
                if isinstance(default, bool):
                    if raw.lower() not in ("true", "false", "0", "1"):
                        raise ValueError(raw)
                    value = raw.lower() in ("true", "1")
                elif isinstance(default, int):
                    value = int(raw)
                elif isinstance(default, float):
                    value = float(raw)
                else:
                    value = raw
            except ValueError:
                raise ConfigError(
                    f"{path}: bad value for {section}.{key}: {raw!r}") from None
            cfg[section][key] = value
    seed_env = os.environ.get("FUSION_NMT_SEED")
    if seed_env is not None:
        try:
            cfg["train"]["seed"] = cfg["finetune"]["seed"] = int(seed_env)
        except ValueError:
            raise ConfigError("environment variable FUSION_NMT_SEED: expected "
                              f"an integer, got {seed_env!r}") from None
    return cfg


def _read_tokens(cfg: dict, path: str) -> list[list[str]]:
    if not path:
        raise ConfigError("missing corpus path in [data]")
    return D.read_tokenized(path, lowercase=cfg["data"]["lowercase"],
                            char_mode=cfg["data"]["char_mode"])


def _load_vocab(cfg: dict, side: str) -> D.Vocabulary:
    """The vocabulary at [data] ``side``_vocab ("src" or "tgt")."""
    path = cfg["data"][f"{side}_vocab"]
    if not path:
        raise ConfigError("missing vocabulary path in [data]")
    return D.Vocabulary.load(path)


def _check_vocabs(vocabs, cfg) -> None:
    """Raise unless ``vocabs`` have the sizes in the model config ``cfg``:
    (source, target) for an ``NmtConfig``, (target,) for an ``LmConfig``."""
    sizes = ((cfg.src_vocab, cfg.tgt_vocab) if isinstance(cfg, NmtConfig)
             else (cfg.vocab,))
    for side, vocab, size in zip(("source", "target")[-len(sizes):], vocabs,
                                 sizes):
        if len(vocab) != size:
            raise ConfigError(f"{side} vocab file has {len(vocab)} ids, "
                              f"model expects {size}")


def _bitext(cfg: dict, split: str, vocabs) -> list[D.SentencePair]:
    """The ``split`` ("train" or "dev") pairs encoded with the (source,
    target) ``vocabs``; training pairs pass the [data] length filter."""
    src, tgt = (_read_tokens(cfg, cfg["data"][f"{side}_{split}"])
                for side in ("src", "tgt"))
    if len(src) != len(tgt):
        raise ConfigError(
            f"src_{split}/tgt_{split}: {len(src)} vs {len(tgt)} lines")
    if split == "dev" and [] in src:  # each dev source is decoded alone
        raise ConfigError(f"{cfg['data']['src_dev']}: line {src.index([]) + 1}"
                          " is an empty source sentence")
    pairs = list(zip(src, tgt))
    if split == "train" and cfg["data"]["filter"]:
        pairs = D.filter_pairs(pairs, max_len=cfg["data"]["max_len"],
                               ratio_bound=cfg["data"]["ratio_bound"])
    return D.encode_pairs(pairs, *vocabs)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_build_vocab(args) -> int:
    tokens = []
    for path in args.input:
        tokens.extend(D.read_tokenized(path, lowercase=not args.no_lowercase,
                                       char_mode=args.char_mode))
    vocab = D.build_vocab(tokens, args.cap)
    vocab.save(args.output)
    print(f"wrote {len(vocab)} ids to {args.output}")
    return 0


def cmd_make_toy(args) -> int:
    corpus = D.make_toy_corpus(args.kind, args.train, args.dev, args.test,
                               seed=args.seed, n_mono=args.mono)
    os.makedirs(args.output, exist_ok=True)
    for split in ("train", "dev", "test"):
        pairs = getattr(corpus, split)
        D.write_lines(os.path.join(args.output, f"{split}.src"),
                      (" ".join(s) for s, _ in pairs))
        D.write_lines(os.path.join(args.output, f"{split}.tgt"),
                      (" ".join(t) for _, t in pairs))
    if corpus.mono:
        D.write_lines(os.path.join(args.output, "mono.txt"),
                      (" ".join(s) for s in corpus.mono))
    print(f"wrote {args.kind} corpus to {args.output}")
    return 0


def _write_outputs(*outputs) -> None:
    """Write each (path, write) output in turn, skipping an unset path; when
    one fails, remove the files already written, so that a command that
    exits non-zero leaves none of its outputs."""
    with contextlib.ExitStack() as undo:
        for path, write in outputs:
            if path:
                write(path)
                undo.callback(os.remove, path)
        undo.pop_all()


def _resume_or(args, kind: str, fresh):
    """The model rebuilt from ``--resume`` and its update count, else fresh."""
    if not args.resume:
        return fresh(), 0
    prev = ckpt_io.load_checkpoint(args.resume)
    updates = prev.meta.get("updates", 0)
    if type(updates) is not int or updates < 0:
        raise ckpt_io.CheckpointError(f"{args.resume}: [meta] updates: expected "
                                      f"an integer >= 0, got {updates!r}")
    return ckpt_io.build(prev, kind), updates


def _train(args, train_fn, model, start: int, data, dev, tcfg,
           report: str) -> int:
    """Train, save, write the ``--log``, warn when the starting parameters
    were kept, and print ``report`` filled from the checkpoint meta."""
    ckpt, history = train_fn(model, data, dev, tcfg, start_update=start)
    _write_outputs((args.output, lambda p: ckpt_io.save_checkpoint(p, ckpt)),
                   (args.log, history.write))
    if history.lines and ckpt.meta["updates"] == start:
        print(f"warning: no dev evaluation beat update {start}; the checkpoint "
              f"keeps its parameters, not those of the {len(history.lines)} "
              "updates run", file=sys.stderr)
    print(report.format(**ckpt.meta))
    return 0


def cmd_train_lm(args) -> int:
    cfg = load_config(args.config)
    tcfg = training.TrainConfig(**cfg["train"])
    vocab = _load_vocab(cfg, "tgt")
    mono = [vocab.encode(s) for s in _read_tokens(cfg, cfg["data"]["mono_train"])]
    dev = [vocab.encode(s) for s in _read_tokens(cfg, cfg["data"]["mono_dev"])]
    lm, start = _resume_or(args, "lm", lambda: RnnLm(
        LmConfig(vocab=len(vocab), **cfg["lm"]),
        np.random.default_rng(tcfg.seed)))
    _check_vocabs((vocab,), lm.cfg)
    return _train(args, training.train_lm, lm, start, mono, dev, tcfg,
                  "best dev perplexity {best_dev_perplexity:.4f} "
                  "at update {updates}")


def cmd_train_nmt(args) -> int:
    cfg = load_config(args.config)
    tcfg = training.TrainConfig(**cfg["train"])
    vocabs = _load_vocab(cfg, "src"), _load_vocab(cfg, "tgt")
    train, dev = _bitext(cfg, "train", vocabs), _bitext(cfg, "dev", vocabs)
    model, start = _resume_or(args, "nmt", lambda: NmtModel(
        NmtConfig(*map(len, vocabs), **cfg["model"]),
        np.random.default_rng(tcfg.seed)))
    _check_vocabs(vocabs, model.cfg)
    return _train(args, training.train_nmt, model, start, train, dev, tcfg,
                  "best dev BLEU {best_dev_bleu:.2f} at update {updates}")


def cmd_finetune(args) -> int:
    cfg = load_config(args.config)
    fcfg = training.FinetuneConfig(**cfg["finetune"])
    vocabs = _load_vocab(cfg, "src"), _load_vocab(cfg, "tgt")
    fm = FusedModel(_model(args, "nmt"), _model(args, "lm"),
                    np.random.default_rng(fcfg.seed))
    _check_vocabs(vocabs, fm.nmt.cfg)
    train, dev = _bitext(cfg, "train", vocabs), _bitext(cfg, "dev", vocabs)
    return _train(args, training.finetune_deep_fusion, fm, 0, train, dev, fcfg,
                  "best dev BLEU {best_dev_bleu:.2f} at update {updates}")


def _beam_config(args, cfg) -> decoding.BeamConfig:
    dec = cfg["decode"]
    beta = dec["beta"] if args.beta is None else args.beta
    return decoding.BeamConfig(
        beam_width=dec["beam_width"] if args.beam is None else args.beam,
        fusion=args.mode or dec["fusion"],
        shallow=decoding.ShallowConfig(beta=beta),
        length_normalize=dec["length_normalize"])


def _model(args, kind: str):
    """The model in the ``--kind`` checkpoint, which this command needs."""
    if getattr(args, kind) is None:
        raise ConfigError(f"missing --{kind} checkpoint")
    return ckpt_io.build(ckpt_io.load_checkpoint(getattr(args, kind)), kind)


def _decode_setup(args, cfg, fusion: str):
    """The models that ``fusion`` decodes with, as ``translate`` keywords,
    and the (source, target) vocabularies, checked against the NMT model."""
    models = {kind: _model(args, kind) for kind in decoding.MODELS[fusion]}
    vocabs = _load_vocab(cfg, "src"), _load_vocab(cfg, "tgt")
    _check_vocabs(vocabs, (models["fused"].nmt if fusion == "deep"
                           else models["nmt"]).cfg)
    return models, vocabs


def cmd_translate(args) -> int:
    cfg = load_config(args.config)
    beam_cfg = _beam_config(args, cfg)
    models, (src_vocab, tgt_vocab) = _decode_setup(args, cfg, beam_cfg.fusion)
    lines = D.read_lines(args.input) if args.input else sys.stdin.read().splitlines()
    replace = args.replace_unk or cfg["decode"]["replace_unk"]
    # decode every line before writing anything, so a failure on a later
    # line leaves no partial stdout or dump file
    outputs, results = [], []
    for line in lines:
        src_tokens = D.tokenize(line, lowercase=cfg["data"]["lowercase"],
                                char_mode=cfg["data"]["char_mode"])
        src_ids = src_vocab.encode(src_tokens)
        if src_ids:
            res = decoding.translate(src_ids, beam_cfg, **models)
        else:  # a blank line gives blank output, keeping line alignment
            res = decoding.TranslationResult([], 0.0, np.zeros((0, 1)), [], True)
        out_tokens = tgt_vocab.decode(res.tokens)
        if replace:
            out_tokens = decoding.replace_unk(out_tokens, res.attention,
                                              src_tokens)
        outputs.append(" ".join(out_tokens))
        results.append(res)
    _write_outputs(
        (args.dump_attention, lambda p: D.write_lines(p, (
            line for res in results for line in [
                "\t".join(f"{v:.6f}" for v in row) for row in res.attention]
            + [""]))),
        (args.dump_gates, lambda p: D.write_lines(p, (
            " ".join(f"{g:.6f}" for g in res.gates) for res in results))))
    for out in outputs:
        print(out)
    return 0


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config)
    if args.bleu:
        cand_path, ref_path = args.bleu
        cands = _read_tokens(cfg, cand_path)
        refs = _read_tokens(cfg, ref_path)
        print(evaluation.bleu(cands, refs))
    elif args.perplexity:
        vocab = _load_vocab(cfg, "tgt")
        lm = _model(args, "lm")
        _check_vocabs((vocab,), lm.cfg)
        corpus = [vocab.encode(s) for s in _read_tokens(cfg, args.perplexity)]
        print(evaluation.perplexity(lm, corpus))
    elif args.gate_stats:
        traces = [[float(x) for x in line.split()] if line.strip() else []
                  for line in D.read_lines(args.gate_stats)]
        for n, trace in enumerate(traces, 1):
            if not all(0.0 <= g <= 1.0 for g in trace):  # NaN fails too
                raise ConfigError(f"{args.gate_stats}: line {n}: a gate is a "
                                  "sigmoid, in [0, 1]")
        stats = decoding.gate_stats([t for t in traces if t])
        print(evaluation.analysis_report(None, stats))
    else:
        raise ConfigError(
            "evaluate needs one of --bleu, --perplexity, --gate-stats")
    return 0


def cmd_sweep_beta(args) -> int:
    cfg = load_config(args.config)
    beam_cfg = _beam_config(args, cfg)  # shallow: the subcommand's mode
    grid = [decoding.ShallowConfig(beta=float(b)) for b in (  # before loading
        args.betas.split(",") if args.betas else decoding.BETA_GRID)]
    models, vocabs = _decode_setup(args, cfg, beam_cfg.fusion)
    dev = _bitext(cfg, "dev", vocabs)
    table = []
    for shallow in grid:
        bc = dataclasses.replace(beam_cfg, shallow=shallow)
        table.append((shallow.beta, evaluation.decode_bleu(dev, bc, **models)))
    for beta, bleu_score in table:
        print(f"{beta:.6f}\t{bleu_score:.4f}")
    best = max(table, key=lambda row: row[1])
    print(f"best\t{best[0]:.6f}\t{best[1]:.4f}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusionmt",
        description="Attention NMT with recurrent-LM shallow/deep fusion")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-vocab", help="build a frequency vocabulary")
    p.add_argument("--input", nargs="+", required=True)
    p.add_argument("--cap", type=int, required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--no-lowercase", action="store_true")
    p.add_argument("--char-mode", action="store_true")
    p.set_defaults(fn=cmd_build_vocab)

    p = sub.add_parser("make-toy", help="generate a synthetic corpus")
    p.add_argument("--kind", required=True,
                   choices=["copy", "reverse", "constrained-target"])
    p.add_argument("--train", type=int, default=2000)
    p.add_argument("--dev", type=int, default=100)
    p.add_argument("--test", type=int, default=100)
    p.add_argument("--mono", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.set_defaults(fn=cmd_make_toy)

    p = sub.add_parser("train-lm", help="pretrain the language model")
    p.add_argument("--config", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--log")
    p.add_argument("--resume")
    p.set_defaults(fn=cmd_train_lm)

    p = sub.add_parser("train-nmt", help="train the translation model")
    p.add_argument("--config", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--log")
    p.add_argument("--resume")
    p.set_defaults(fn=cmd_train_nmt)

    p = sub.add_parser("finetune", help="deep-fusion finetuning")
    p.add_argument("--config", required=True)
    p.add_argument("--nmt", required=True)
    p.add_argument("--lm", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--log")
    p.set_defaults(fn=cmd_finetune)

    p = sub.add_parser("translate", help="beam-decode input sentences")
    p.add_argument("--config", required=True)
    p.add_argument("--mode", choices=["none", "shallow", "deep"])
    p.add_argument("--nmt")
    p.add_argument("--lm")
    p.add_argument("--fused")
    p.add_argument("--beta", type=float)
    p.add_argument("--beam", type=int)
    p.add_argument("--input")
    p.add_argument("--replace-unk", action="store_true")
    p.add_argument("--dump-attention")
    p.add_argument("--dump-gates")
    p.set_defaults(fn=cmd_translate)

    p = sub.add_parser("evaluate", help="BLEU / perplexity / gate statistics")
    p.add_argument("--config")
    p.add_argument("--bleu", nargs=2, metavar=("CAND", "REF"))
    p.add_argument("--perplexity", metavar="CORPUS")
    p.add_argument("--lm")
    p.add_argument("--gate-stats", metavar="GATEFILE")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("sweep-beta", help="grid-search the shallow-fusion weight")
    p.add_argument("--config", required=True)
    p.add_argument("--nmt", required=True)
    p.add_argument("--lm", required=True)
    p.add_argument("--betas", help="comma-separated grid (default log-spaced)")
    p.add_argument("--beam", type=int)
    p.set_defaults(fn=cmd_sweep_beta, mode="shallow", beta=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(message)s")
    try:
        return args.fn(args)
    except (ConfigError, ConfigurationError, D.DataError,
            ckpt_io.CheckpointError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except training.NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
