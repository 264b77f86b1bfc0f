"""Deterministic content and constants shared by the stub endpoint and the benchmark.

A benchmark prompt starts with a header ``[case <seed> k=<k> drift=<d>]``.
From it the stub derives the case's pool of k replies, and the benchmark
derives the same pool to check outputs: each reply is one base text with a
fraction ``drift`` of its token positions replaced by tokens unique to that
reply, so drift 0 means k identical replies.

Embeddings are dense, as a real embedding model's are: each token owns a fixed
pseudo-random Gaussian vector (a row of one seeded table, cyclically shifted),
and a text embeds as the L2-normalized sum of its tokens' vectors. Two texts
that share a fraction q of their tokens have cosine close to q. The stub and
the oracle run this same code, so the vectors agree bit for bit.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np

DIM = 4096  # the dimension of sfr-embedding-mistral, the preset the benchmark names

# The stub's latency model, in ms: the values the benchmark was sized with on
# a prototype, 25 ms per chat request, 4 ms + 0.25 ms per input per embeddings
# request, 10 ms to open a connection. The program sends one chat choice per
# request; the per-choice share (set equal to the per-input embeddings cost)
# is an assumption that only keeps a request with n > 1 from being free.
CHAT_MS, CHAT_PER_CHOICE_MS = 24.75, 0.25
EMBED_MS, EMBED_PER_INPUT_MS = 4.0, 0.25
CONNECT_MS = 10.0

REPLY_TOKENS = 80
_VOCAB = 50_000
_TABLE_ROWS = 256
_HEADER = re.compile(r"^\[case (\d+) k=(\d+) drift=([0-9.]+)\]")


def case_prompt(case_seed: int, k: int, drift: float) -> str:
    return (
        f"[case {case_seed} k={k} drift={drift}]\n"
        f"Write one paragraph on subject {case_seed}.\n"
    )


def _base_tokens(case_seed: int) -> list[str]:
    rng = np.random.default_rng(case_seed)
    return [f"t{i}" for i in rng.integers(0, _VOCAB, REPLY_TOKENS)]


def ground_truth(case_seed: int) -> str:
    return " ".join(_base_tokens(case_seed))


def reply_pool(prompt: str) -> list[str]:
    """The k replies a case prompt draws; any other prompt gets one fixed reply."""
    m = _HEADER.match(prompt)
    if m is None:
        return [f"reply to an unscripted prompt of {len(prompt)} characters"]
    seed, k, drift = int(m[1]), int(m[2]), float(m[3])
    base = _base_tokens(seed)
    rng = np.random.default_rng([seed, 1])
    n_replace = round(drift * REPLY_TOKENS)
    pool = []
    for j in range(k):
        tokens = list(base)
        for pos in rng.choice(REPLY_TOKENS, size=n_replace, replace=False):
            tokens[pos] = f"s{seed}r{j}p{pos}"
        pool.append(" ".join(tokens))
    return pool


class Embedder:
    """Text -> dense unit vector of length dim (see the module docstring)."""

    def __init__(self, dim: int) -> None:
        self.dim = dim
        self._table = np.random.default_rng(0).standard_normal((_TABLE_ROWS, dim))

    def __call__(self, text: str) -> np.ndarray:
        vec = np.zeros(self.dim, dtype=np.float64)
        for token in text.split():
            h = int.from_bytes(hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest(),
                               "little")
            row = self._table[h % _TABLE_ROWS]
            shift = (h // _TABLE_ROWS) % self.dim
            vec[shift:] += row[: self.dim - shift]
            vec[:shift] += row[self.dim - shift:]
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:
            raise ValueError("cannot embed text with no tokens")
        return vec / norm
