"""Word-level vocabulary with reserved markers and fixed-length encoding."""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

PAD, UNK, BOS, EOS = 0, 1, 2, 3
RESERVED = ("<pad>", "<unk>", "<bos>", "<eos>")

_TOKEN_RE = re.compile(r"[a-z0-9']+")


def split_words(text: str) -> list[str]:
    """Lowercase and split on whitespace/punctuation."""
    return _TOKEN_RE.findall(text.lower())


@dataclass
class Vocabulary:
    token_to_id: dict[str, int]
    id_to_token: list[str]
    max_len: int = 76

    def __post_init__(self):
        if self.max_len < 2:
            raise ValueError("max_len must allow BOS and EOS")
        if self.id_to_token[:4] != list(RESERVED):
            raise ValueError("ids 0..3 are reserved for PAD/UNK/BOS/EOS")

    def __len__(self) -> int:
        return len(self.id_to_token)

    def to_list(self) -> list[str]:
        return list(self.id_to_token)

    @staticmethod
    def from_list(tokens: list[str], max_len: int = 76) -> "Vocabulary":
        return Vocabulary({t: i for i, t in enumerate(tokens)}, list(tokens), max_len=max_len)


def build_vocabulary(texts, max_len: int = 76) -> Vocabulary:
    """Corpus vocabulary ordered by (count desc, token asc) after reserved ids."""
    counts: dict[str, int] = {}
    for text in texts:
        for tok in split_words(text):
            counts[tok] = counts.get(tok, 0) + 1
    ordered = sorted(counts, key=lambda t: (-counts[t], t))
    id_to_token = list(RESERVED) + ordered
    return Vocabulary({t: i for i, t in enumerate(id_to_token)}, id_to_token, max_len=max_len)


def tokenize(text: str, vocab: Vocabulary) -> np.ndarray:
    """BOS + word ids + EOS, truncated to max_len (EOS kept last), PAD-filled."""
    ids = [BOS]
    for tok in split_words(text):
        ids.append(vocab.token_to_id.get(tok, UNK))
    ids.append(EOS)
    if len(ids) > vocab.max_len:
        ids = ids[: vocab.max_len - 1] + [EOS]
    ids = ids + [PAD] * (vocab.max_len - len(ids))
    return np.asarray(ids, dtype=np.int64)


def tokenize_batch(texts, vocab: Vocabulary) -> np.ndarray:
    return np.stack([tokenize(t, vocab) for t in texts])
