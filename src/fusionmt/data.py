"""Tokenization, vocabularies, corpus filtering, batching, and synthetic
toy corpora for desk-scale experiments."""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

UNK_ID = 0
EOS_ID = 1
BOS_ID = 2
RESERVED = ("<unk>", "</s>", "<s>")

_TOKEN_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)


class DataError(ValueError):
    """Corpus-level problem: empty input, everything filtered, etc."""


def tokenize(line: str, lowercase: bool = True, char_mode: bool = False) -> list[str]:
    """Split a line into tokens: lowercased, whitespace-split, punctuation
    separated.  ``char_mode`` treats every non-space character as a token."""
    if lowercase:
        line = line.lower()
    if char_mode:
        return [ch for ch in line if not ch.isspace()]
    return _TOKEN_RE.findall(line)


class Vocabulary:
    """token <-> id maps with reserved ids 0=UNK, 1=EOS, 2=BOS."""

    def __init__(self, tokens: Sequence[str]):
        self.id_to_token: list[str] = list(RESERVED) + list(tokens)
        self.token_to_id: dict[str, int] = {
            t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise DataError("duplicate tokens in vocabulary")

    def __len__(self) -> int:
        return len(self.id_to_token)

    def encode(self, tokens: Sequence[str]) -> list[int]:
        get = self.token_to_id.get
        return [get(t, UNK_ID) for t in tokens]

    def decode(self, ids: Sequence[int]) -> list[str]:
        return [self.id_to_token[i] for i in ids]

    def save(self, path) -> None:
        write_lines(path, self.id_to_token)

    @classmethod
    def load(cls, path) -> "Vocabulary":
        lines = read_lines(path)
        if tuple(lines[:3]) != RESERVED:
            raise DataError(f"{path}: missing reserved 3-line header")
        return cls(lines[3:])


def build_vocab(corpus: Iterable[Sequence[str]], cap: int) -> Vocabulary:
    """Most frequent (cap - 3) tokens, frequency ties broken lexicographically."""
    if cap <= 3:
        raise DataError(f"vocab cap must exceed the 3 reserved ids, got {cap}")
    corpus = list(corpus)
    if not corpus:
        raise DataError("cannot build a vocabulary from an empty corpus")
    counts = Counter(t for tokens in corpus for t in tokens)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return Vocabulary([t for t, _ in ranked[: cap - 3]])


@dataclass
class SentencePair:
    """A source/target sentence as vocabulary ids (no EOS/BOS markers; the
    models append those)."""
    src: list[int]
    tgt: list[int]


def encode_pairs(pairs: Iterable[tuple[Sequence[str], Sequence[str]]],
                 src_vocab: Vocabulary, tgt_vocab: Vocabulary) -> list[SentencePair]:
    out = [SentencePair(src_vocab.encode(s), tgt_vocab.encode(t))
           for s, t in pairs]
    if not out:
        raise DataError("empty bitext")
    return out


def filter_pairs(pairs: Sequence[tuple[Sequence[str], Sequence[str]]],
                 max_len: int = 80, ratio_bound: float = 3.0) -> list:
    """The pairs whose sides are 1 to ``max_len`` tokens long and whose
    length ratio is at most ``ratio_bound``, in order."""
    if not ratio_bound >= 1:  # NaN fails this too
        raise DataError(f"ratio_bound must be >= 1, got {ratio_bound}")
    kept = [(s, t) for s, t in pairs
            if 0 < len(s) <= max_len and 0 < len(t) <= max_len
            and max(len(s), len(t)) / min(len(s), len(t)) <= ratio_bound]
    if not kept:
        raise DataError("length/ratio filtering removed every pair")
    return kept


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

@dataclass
class PaddedBatch:
    """Lockstep arrays for one minibatch.

    src: (B, Ts) ids with EOS appended, zero-padded; src_mask marks real
    positions (EOS included).  tgt_in is BOS + tokens, tgt_out is
    tokens + EOS; tgt_mask masks the padded loss terms.
    """
    src: np.ndarray
    src_mask: np.ndarray
    tgt_in: np.ndarray
    tgt_out: np.ndarray
    tgt_mask: np.ndarray

    @property
    def size(self) -> int:
        return self.src.shape[0]


def pad_batch(pairs: Sequence[SentencePair]) -> PaddedBatch:
    b = len(pairs)
    ts = max(len(p.src) for p in pairs) + 1  # room for EOS
    tt = max(len(p.tgt) for p in pairs) + 1
    src = np.zeros((b, ts), dtype=np.intp)
    src_mask = np.zeros((b, ts))
    tgt_in = np.zeros((b, tt), dtype=np.intp)
    tgt_out = np.zeros((b, tt), dtype=np.intp)
    tgt_mask = np.zeros((b, tt))
    for i, p in enumerate(pairs):
        ns, nt = len(p.src), len(p.tgt)
        src[i, :ns] = p.src
        src[i, ns] = EOS_ID
        src_mask[i, : ns + 1] = 1.0
        tgt_in[i, 0] = BOS_ID
        tgt_in[i, 1 : nt + 1] = p.tgt
        tgt_out[i, :nt] = p.tgt
        tgt_out[i, nt] = EOS_ID
        tgt_mask[i, : nt + 1] = 1.0
    return PaddedBatch(src, src_mask, tgt_in, tgt_out, tgt_mask)


def pad_mono_batch(sentences: Sequence[Sequence[int]]) -> PaddedBatch:
    """Monolingual batch reusing the target-side fields (src left empty)."""
    return pad_batch([SentencePair([0], list(s)) for s in sentences])


class BatchIterator:
    """Seeded shuffling batch stream; each epoch visits every item once."""

    def __init__(self, items: Sequence, batch_size: int, seed: int = 0):
        if not items:
            raise DataError("cannot batch an empty corpus")
        if batch_size < 1:
            raise ValueError("batch size must be >= 1")
        self.items = list(items)
        self.batch_size = batch_size
        self._rng = np.random.default_rng(seed)

    def epoch_batches(self):
        """Yield the raw item batches of one epoch (caller pads)."""
        order = self._rng.permutation(len(self.items))
        for start in range(0, len(order), self.batch_size):
            yield [self.items[i] for i in order[start : start + self.batch_size]]


# ---------------------------------------------------------------------------
# synthetic toy corpora
# ---------------------------------------------------------------------------

COPY_SYMBOLS = tuple("abcdefghi")  # 9 symbols + 3 reserved = vocab 12

# constrained-target task: each noun must be immediately preceded by the
# article token; the big monolingual corpus teaches the rule, the small
# bitext under-determines it (training targets drop the article with
# probability CT_TRAIN_ARTICLE_DROP, dev/test references are clean).  At a
# drop of 0.5 the article is a tie under maximum likelihood, whatever the
# model conditions on: shallow fusion's additive LM term breaks the tie,
# while deep fusion learns the rule only when finetuned on clean in-domain
# pairs (e.g. another corpus's dev split), not on the noisy train split.
CT_ARTICLE = "da"
CT_TRAIN_ARTICLE_DROP = 0.5
CT_PLAINS = tuple(f"p{i}" for i in range(1, 7))
CT_NOUNS = tuple(f"n{i}" for i in range(1, 7))
CT_SOURCES = tuple(f"s{i}" for i in range(1, 13))
_CT_MAP = {f"s{i}": (f"p{i}",) for i in range(1, 7)}
_CT_MAP.update({f"s{i + 6}": (CT_ARTICLE, f"n{i}") for i in range(1, 7)})


def article_rule_violations(tokens: Sequence[str]) -> int:
    """Count noun tokens not immediately preceded by the article."""
    return sum(t in CT_NOUNS and (i == 0 or tokens[i - 1] != CT_ARTICLE)
               for i, t in enumerate(tokens))


@dataclass
class ToyCorpus:
    train: list = field(default_factory=list)
    dev: list = field(default_factory=list)
    test: list = field(default_factory=list)
    mono: list = field(default_factory=list)


def make_toy_corpus(kind: str, n_train: int, n_dev: int, n_test: int,
                    seed: int = 0, n_mono: int = 0,
                    min_len: int = 1, max_len: int = 8) -> ToyCorpus:
    """Deterministic synthetic bitext plus ``n_mono`` monolingual target
    sentences.  Pairs are (source tokens, target tokens)."""
    if min(n_train, n_dev, n_test) < 1:
        raise ValueError("corpus sizes must be positive")
    if n_mono < 0:
        raise ValueError("the monolingual sentence count must be >= 0")
    rng = np.random.default_rng(seed)
    corpus = ToyCorpus()

    def sample_seq(symbols, lo, hi):
        n = int(rng.integers(lo, hi + 1))
        return [symbols[int(i)] for i in rng.integers(0, len(symbols), size=n)]

    if kind in ("copy", "reverse"):
        for split, n in (("train", n_train), ("dev", n_dev), ("test", n_test)):
            pairs = []
            for _ in range(n):
                src = sample_seq(COPY_SYMBOLS, min_len, max_len)
                tgt = src[::-1] if kind == "reverse" else list(src)
                pairs.append((src, tgt))
            setattr(corpus, split, pairs)
        # drawn after the splits, so they do not depend on n_mono
        corpus.mono = [sample_seq(COPY_SYMBOLS, min_len, max_len)
                       for _ in range(n_mono)]
    elif kind == "constrained-target":
        for split, n in (("train", n_train), ("dev", n_dev), ("test", n_test)):
            pairs = []
            for _ in range(n):
                src = sample_seq(CT_SOURCES, min_len, max_len)
                tgt = [w for s in src for w in _CT_MAP[s]]
                if split == "train":
                    tgt = [t for t in tgt
                           if t != CT_ARTICLE
                           or rng.random() >= CT_TRAIN_ARTICLE_DROP]
                pairs.append((src, tgt))
            setattr(corpus, split, pairs)
        units = [(w,) for w in CT_PLAINS] + [(CT_ARTICLE, n) for n in CT_NOUNS]
        for _ in range(n_mono):
            k = int(rng.integers(min_len, max_len + 1))
            corpus.mono.append([w for u in rng.integers(0, len(units), size=k)
                                for w in units[int(u)]])
    else:
        raise ValueError(f"unknown toy-corpus kind {kind!r}")
    return corpus


# ---------------------------------------------------------------------------
# plain-text corpus files (UTF-8, one sentence per line)
# ---------------------------------------------------------------------------

def read_lines(path) -> list[str]:
    with open(path, encoding="utf-8") as f:
        return [ln.rstrip("\n") for ln in f]


def write_lines(path, lines: Iterable[str]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for ln in lines:
            f.write(ln + "\n")


def read_tokenized(path, lowercase: bool = True,
                   char_mode: bool = False) -> list[list[str]]:
    return [tokenize(ln, lowercase=lowercase, char_mode=char_mode)
            for ln in read_lines(path)]
