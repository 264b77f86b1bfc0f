"""Reference verifiers built on token- and sentence-level comparisons.

These are the classical comparison points for whole-answer verification:
greedy token matching over token embeddings (with optional idf weighting) and
sentence-level self-consistency against sampled documents. Token embeddings
are caller-supplied (or produced by any embedder); no encoder model is
bundled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..errors import SampleCheckError
from ..scorematrix import build_matrix
from ..vectors import Embedding, ZeroVector


class EmptySequence(SampleCheckError):
    """Token sequences must be nonempty."""


class EmptySample(SampleCheckError):
    """Every sampled document must contain at least one sentence."""


@dataclass(frozen=True)
class TokenEmbeddingSeq:
    """A token sequence with one non-zero embedding per token and optional idf weights."""

    tokens: tuple[str, ...]
    vectors: tuple[Embedding, ...]
    idf: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if not self.tokens:
            raise EmptySequence("token sequence must be nonempty")
        if len(self.tokens) != len(self.vectors):
            raise ValueError("tokens and vectors must align one-to-one")
        dims = {v.dim for v in self.vectors}
        if len(dims) != 1:
            raise ValueError(f"token vectors must share one dim, got {sorted(dims)}")
        for i, (token, vector) in enumerate(zip(self.tokens, self.vectors)):
            if not vector.values.any():
                raise ZeroVector(f"token {i} ({token!r}) has a zero vector")
        if self.idf is not None:
            if len(self.idf) != len(self.tokens):
                raise ValueError("idf weights must align with tokens")
            if any(w < 0 for w in self.idf):
                raise ValueError("idf weights must be non-negative")
            if math.fsum(self.idf) == 0.0:
                raise ValueError("idf weights must not all be zero")


def _weighted_mean(values: Sequence[float], weights: Sequence[float] | None) -> float:
    if weights is None:
        return math.fsum(values) / len(values)
    return math.fsum(w * v for w, v in zip(weights, values)) / math.fsum(weights)


def bertscore_greedy(
    candidate: TokenEmbeddingSeq, reference: TokenEmbeddingSeq
) -> tuple[float, float, float]:
    """Greedy-matching precision/recall/F1 over token embedding pairs.

    Each pair is scored once, in the candidate-by-reference block of one
    build_matrix over both sequences, so it equals cosine of the pair bit for
    bit. Precision is the mean of the block's row maxima, the best match of
    each candidate token, and recall of its column maxima (idf-weighted when
    weights are present). F1 is the harmonic mean, defined as 0 when P + R == 0.
    A token vector whose dim or model differs from candidate token 0's raises
    ValueError naming its side and token.
    """
    first = candidate.vectors[0]
    for side, seq in (("candidate", candidate), ("reference", reference)):
        for i, (token, vector) in enumerate(zip(seq.tokens, seq.vectors)):
            if vector.dim != first.dim:
                raise ValueError(f"{side} token {i} ({token!r}) has dim {vector.dim}, "
                                 f"candidate token 0 has {first.dim}")
            if vector.model_id != first.model_id:
                raise ValueError(f"{side} token {i} ({token!r}) is from {vector.model_id!r}, "
                                 f"candidate token 0 from {first.model_id!r}")
    n = len(candidate.vectors)
    block = build_matrix(candidate.vectors + reference.vectors).entries[:n, n:]
    precision = _weighted_mean(block.max(axis=1).tolist(), candidate.idf)
    recall = _weighted_mean(block.max(axis=0).tolist(), reference.idf)
    denom = precision + recall
    f1 = 0.0 if denom == 0.0 else 2.0 * precision * recall / denom
    return precision, recall, f1


def selfcheck_bert(
    reply_sentences: Sequence[TokenEmbeddingSeq],
    sample_docs: Sequence[Sequence[TokenEmbeddingSeq]],
) -> list[float]:
    """Sentence-level consistency against k sampled documents.

    Per reply sentence: for each sample, the maximum greedy-matching F1
    against any sentence of that sample; then the mean over the k samples.
    """
    if not sample_docs:
        raise EmptySample("need at least one sampled document")
    for idx, doc in enumerate(sample_docs):
        if not doc:
            raise EmptySample(f"sample {idx} has no sentences")
    scores: list[float] = []
    for sentence in reply_sentences:
        per_sample = [
            max(bertscore_greedy(sentence, other)[2] for other in doc)
            for doc in sample_docs
        ]
        scores.append(math.fsum(per_sample) / len(per_sample))
    return scores
