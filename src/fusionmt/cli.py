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


# section -> key -> default (the default also fixes the type)
_SCHEMA: dict[str, dict] = {
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


def load_config(path: Optional[str]) -> dict[str, dict]:
    """Parse and validate a config file against the schema; returns a fully
    defaulted {section: {key: value}} mapping."""
    cfg = {s: dict(defaults) for s, defaults in _SCHEMA.items()}
    if path is None:
        return cfg
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key, raw in parser.items(section):
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
        cfg["train"]["seed"] = int(seed_env)
        cfg["finetune"]["seed"] = int(seed_env)
    return cfg


def _read_tokens(cfg: dict, path: str) -> list[list[str]]:
    if not path:
        raise ConfigError("missing corpus path in [data]")
    return D.read_tokenized(path, lowercase=cfg["data"]["lowercase"],
                            char_mode=cfg["data"]["char_mode"])


def _load_vocab(path: str) -> D.Vocabulary:
    if not path:
        raise ConfigError("missing vocabulary path in [data]")
    return D.Vocabulary.load(path)


def _load_bitext(cfg: dict, src_key: str, tgt_key: str,
                 src_vocab: D.Vocabulary, tgt_vocab: D.Vocabulary,
                 apply_filter: bool) -> list[D.SentencePair]:
    src = _read_tokens(cfg, cfg["data"][src_key])
    tgt = _read_tokens(cfg, cfg["data"][tgt_key])
    if len(src) != len(tgt):
        raise ConfigError(
            f"{src_key}/{tgt_key}: {len(src)} vs {len(tgt)} lines")
    pairs = list(zip(src, tgt))
    if apply_filter and cfg["data"]["filter"]:
        pairs, _, _ = D.filter_pairs(pairs, max_len=cfg["data"]["max_len"],
                                     ratio_bound=cfg["data"]["ratio_bound"])
    return D.encode_pairs(pairs, src_vocab, tgt_vocab)


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


def cmd_train_lm(args) -> int:
    cfg = load_config(args.config)
    tcfg = training.TrainConfig(**cfg["train"])
    vocab = _load_vocab(cfg["data"]["tgt_vocab"])
    mono = [vocab.encode(s) for s in _read_tokens(cfg, cfg["data"]["mono_train"])]
    dev = [vocab.encode(s) for s in _read_tokens(cfg, cfg["data"]["mono_dev"])]
    start = 0
    if args.resume:
        prev = ckpt_io.load_checkpoint(args.resume)
        lm = ckpt_io.build_lm(prev)
        start = int(prev.meta.get("updates", 0))
    else:
        lm = RnnLm(LmConfig(vocab=len(vocab), embed_dim=cfg["lm"]["embed_dim"],
                            hidden=cfg["lm"]["hidden"]),
                   np.random.default_rng(tcfg.seed))
    ckpt, history = training.train_lm(lm, mono, dev, tcfg, start_update=start)
    ckpt_io.save_checkpoint(args.output, ckpt)
    if args.log:
        history.write(args.log)
    print(f"best dev perplexity {ckpt.meta['best_dev_perplexity']:.4f} "
          f"at update {ckpt.meta['updates']}")
    return 0


def cmd_train_nmt(args) -> int:
    cfg = load_config(args.config)
    tcfg = training.TrainConfig(**cfg["train"])
    src_vocab = _load_vocab(cfg["data"]["src_vocab"])
    tgt_vocab = _load_vocab(cfg["data"]["tgt_vocab"])
    train = _load_bitext(cfg, "src_train", "tgt_train", src_vocab, tgt_vocab, True)
    dev = _load_bitext(cfg, "src_dev", "tgt_dev", src_vocab, tgt_vocab, False)
    start = 0
    if args.resume:
        prev = ckpt_io.load_checkpoint(args.resume)
        model = ckpt_io.build_nmt(prev)
        start = int(prev.meta.get("updates", 0))
    else:
        model = NmtModel(
            NmtConfig(src_vocab=len(src_vocab), tgt_vocab=len(tgt_vocab),
                      embed_dim=cfg["model"]["embed_dim"],
                      hidden=cfg["model"]["hidden"],
                      deep_output_width=cfg["model"]["deep_output_width"]),
            np.random.default_rng(tcfg.seed))
    ckpt, history = training.train_nmt(model, train, dev, tcfg,
                                       start_update=start)
    ckpt_io.save_checkpoint(args.output, ckpt)
    if args.log:
        history.write(args.log)
    print(f"best dev BLEU {ckpt.meta['best_dev_bleu']:.2f} "
          f"at update {ckpt.meta['updates']}")
    return 0


def cmd_finetune(args) -> int:
    cfg = load_config(args.config)
    fcfg = training.FinetuneConfig(**cfg["finetune"])
    src_vocab = _load_vocab(cfg["data"]["src_vocab"])
    tgt_vocab = _load_vocab(cfg["data"]["tgt_vocab"])
    nmt = ckpt_io.build_nmt(ckpt_io.load_checkpoint(args.nmt))
    lm = ckpt_io.build_lm(ckpt_io.load_checkpoint(args.lm))
    fm = FusedModel(nmt, lm, np.random.default_rng(fcfg.seed))
    train = _load_bitext(cfg, "src_train", "tgt_train", src_vocab, tgt_vocab, True)
    dev = _load_bitext(cfg, "src_dev", "tgt_dev", src_vocab, tgt_vocab, False)
    ckpt, history = training.finetune_deep_fusion(fm, train, dev, fcfg)
    ckpt_io.save_checkpoint(args.output, ckpt)
    if args.log:
        history.write(args.log)
    print(f"best dev BLEU {ckpt.meta['best_dev_bleu']:.2f} "
          f"at update {ckpt.meta['updates']}")
    return 0


def _beam_config(args, cfg) -> decoding.BeamConfig:
    dec = cfg["decode"]
    beta = dec["beta"] if args.beta is None else args.beta
    return decoding.BeamConfig(
        beam_width=args.beam or dec["beam_width"],
        fusion=args.mode or dec["fusion"],
        shallow=decoding.ShallowConfig(beta=beta),
        length_normalize=dec["length_normalize"])


def cmd_translate(args) -> int:
    cfg = load_config(args.config)
    beam_cfg = _beam_config(args, cfg)
    nmt = lm = fused = None
    if beam_cfg.fusion == "deep":
        fused = ckpt_io.build_fused(ckpt_io.load_checkpoint(args.fused))
        tgt_vocab_size = fused.nmt.cfg.tgt_vocab
    else:
        nmt = ckpt_io.build_nmt(ckpt_io.load_checkpoint(args.nmt))
        tgt_vocab_size = nmt.cfg.tgt_vocab
        if beam_cfg.fusion == "shallow":
            lm = ckpt_io.build_lm(ckpt_io.load_checkpoint(args.lm))
    src_vocab = _load_vocab(cfg["data"]["src_vocab"])
    tgt_vocab = _load_vocab(cfg["data"]["tgt_vocab"])
    if len(tgt_vocab) != tgt_vocab_size:
        raise ConfigError(
            f"target vocab file has {len(tgt_vocab)} ids, model expects "
            f"{tgt_vocab_size}")
    lines = D.read_lines(args.input) if args.input else sys.stdin.read().splitlines()
    replace = args.replace_unk or cfg["decode"]["replace_unk"]
    att_dump = open(args.dump_attention, "w") if args.dump_attention else None
    gate_dump = open(args.dump_gates, "w") if args.dump_gates else None
    try:
        for line in lines:
            src_tokens = D.tokenize(line, lowercase=cfg["data"]["lowercase"],
                                    char_mode=cfg["data"]["char_mode"])
            src_ids = src_vocab.encode(src_tokens)
            res = decoding.translate(src_ids, beam_cfg, nmt=nmt, lm=lm,
                                     fused=fused)
            out_tokens = tgt_vocab.decode(res.tokens)
            if replace:
                out_tokens = decoding.replace_unk(out_tokens, res.attention,
                                                  src_tokens)
            print(" ".join(out_tokens))
            if att_dump is not None:
                for row in res.attention:
                    att_dump.write("\t".join(f"{v:.6f}" for v in row) + "\n")
                att_dump.write("\n")
            if gate_dump is not None:
                gate_dump.write(" ".join(f"{g:.6f}" for g in res.gates) + "\n")
    finally:
        if att_dump is not None:
            att_dump.close()
        if gate_dump is not None:
            gate_dump.close()
    return 0


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config)
    if args.bleu:
        cand_path, ref_path = args.bleu
        cands = _read_tokens(cfg, cand_path)
        refs = _read_tokens(cfg, ref_path)
        print(evaluation.bleu(cands, refs))
    elif args.perplexity:
        vocab = _load_vocab(cfg["data"]["tgt_vocab"])
        lm = ckpt_io.build_lm(ckpt_io.load_checkpoint(args.lm))
        corpus = [vocab.encode(s) for s in _read_tokens(cfg, args.perplexity)]
        print(evaluation.perplexity(lm, corpus))
    elif args.gate_stats:
        traces = [[float(x) for x in line.split()] if line.strip() else []
                  for line in D.read_lines(args.gate_stats)]
        stats = decoding.gate_stats([t for t in traces if t])
        print(evaluation.analysis_report(None, stats))
    else:
        raise ConfigError(
            "evaluate needs one of --bleu, --perplexity, --gate-stats")
    return 0


def cmd_sweep_beta(args) -> int:
    cfg = load_config(args.config)
    src_vocab = _load_vocab(cfg["data"]["src_vocab"])
    tgt_vocab = _load_vocab(cfg["data"]["tgt_vocab"])
    nmt = ckpt_io.build_nmt(ckpt_io.load_checkpoint(args.nmt))
    lm = ckpt_io.build_lm(ckpt_io.load_checkpoint(args.lm))
    dev = _load_bitext(cfg, "src_dev", "tgt_dev", src_vocab, tgt_vocab, False)
    betas = ([float(b) for b in args.betas.split(",")] if args.betas
             else decoding.default_beta_grid())

    table = []
    for beta in betas:
        bc = decoding.BeamConfig(
            beam_width=args.beam or cfg["decode"]["beam_width"],
            fusion="shallow", shallow=decoding.ShallowConfig(beta=beta))
        table.append((beta, evaluation.decode_bleu(dev, bc, nmt=nmt, lm=lm)))
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
    p.set_defaults(fn=cmd_sweep_beta)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(message)s")
    try:
        return args.fn(args)
    except (ConfigError, ConfigurationError, D.DataError,
            ckpt_io.CheckpointError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except training.NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
