"""Dataset evaluation harness: passage scoring, correlation, P/R/F1, sweeps.

Datasets are JSON Lines. A labeled-passage line carries sentence-level labels
("major" / "minor" / "accurate") plus the k sampled replies; a binary line
carries a response labeled "hallucinated" or "faithful" plus its samples.
Converters for the public upstream releases are intentionally out of scope;
this module defines the formats it consumes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Literal, Sequence

import numpy as np

from .errors import SampleCheckError
from .providers import mock_embed
from .scorematrix import build_matrix, summarize
from .vectors import ConstantSequence, Embedding, LengthMismatch, pearson, spearman

PassageLabel = Literal["major", "minor", "accurate"]
BinaryLabel = Literal["hallucinated", "faithful"]
Polarity = Literal["low_score_flags", "high_score_flags"]

PASSAGE_LABEL_VALUES: dict[str, float] = {"major": 0.0, "minor": 0.5, "accurate": 1.0}
POLARITIES = ("low_score_flags", "high_score_flags")
STATISTICS = ("mean_offdiag", "frobenius_normalized")


class EmptyLabels(SampleCheckError):
    """passage_score needs at least one sentence label."""


class InsufficientSamples(SampleCheckError):
    """A record does not carry enough samples for the requested k."""


class DatasetError(SampleCheckError):
    """A dataset line failed validation."""


@dataclass(frozen=True)
class LabeledPassage:
    """One passage with per-sentence accuracy labels and sampled replies."""

    id: str
    sentences: tuple[str, ...]
    labels: tuple[str, ...]
    samples: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.sentences or len(self.sentences) != len(self.labels):
            raise DatasetError(
                f"record {self.id!r}: need equally many sentences and labels (>= 1)"
            )
        for label in self.labels:
            if label not in PASSAGE_LABEL_VALUES:
                raise DatasetError(f"record {self.id!r}: unknown label {label!r}")

    @property
    def text(self) -> str:
        return " ".join(self.sentences)


@dataclass(frozen=True)
class BinaryRecord:
    """One response with a binary hallucination label and sampled replies."""

    id: str
    response: str
    label: str
    samples: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.label not in ("hallucinated", "faithful"):
            raise DatasetError(f"record {self.id!r}: unknown label {self.label!r}")


def passage_score(labels: Sequence[str]) -> float:
    """Mean of label values with major -> 0, minor -> 0.5, accurate -> 1."""
    if not labels:
        raise EmptyLabels("need at least one label")
    values = []
    for label in labels:
        if label not in PASSAGE_LABEL_VALUES:
            raise DatasetError(f"unknown label {label!r}")
        values.append(PASSAGE_LABEL_VALUES[label])
    return math.fsum(values) / len(values)


def correlate(predicted: Sequence[float], gold: Sequence[float]) -> tuple[float, float]:
    """(Pearson, Spearman) as percentages rounded to one decimal place."""
    if len(predicted) != len(gold):
        raise LengthMismatch(f"lengths differ: {len(predicted)} vs {len(gold)}")
    if len(predicted) < 3:
        raise ValueError("correlate needs at least 3 paired values")
    p = np.asarray(predicted, dtype=np.float64)
    g = np.asarray(gold, dtype=np.float64)
    if np.all(p == p[0]) or np.all(g == g[0]):
        raise ConstantSequence("correlation is undefined for a constant sequence")
    pe = pearson(p, g)
    sp = spearman(p, g)
    return round(pe * 100.0, 1), round(sp * 100.0, 1)


def _predict_positive(score: float, threshold: float, polarity: str) -> bool:
    if polarity == "low_score_flags":
        return score <= threshold
    if polarity == "high_score_flags":
        return score >= threshold
    raise ValueError(f"unknown polarity {polarity!r}; choose from {POLARITIES}")


def pr_f1(
    scores: Sequence[float],
    labels: Sequence[str],
    threshold: float,
    polarity: str,
) -> tuple[float, float, float]:
    """Precision/recall/F1 with 'hallucinated' as the positive class.

    Prediction is positive when the score falls on the flagged side of the
    threshold (inclusive): at or below it for low_score_flags (stability- and
    judge-style scores), at or above it for high_score_flags (contradiction-
    style scores). Degenerate denominators yield 0 by convention.
    """
    if len(scores) != len(labels):
        raise ValueError("scores and labels must have equal length")
    if not scores:
        raise ValueError("need at least one record")
    tp = fp = fn = 0
    for score, label in zip(scores, labels):
        if label not in ("hallucinated", "faithful"):
            raise DatasetError(f"unknown label {label!r}")
        positive = _predict_positive(score, threshold, polarity)
        actual = label == "hallucinated"
        if positive and actual:
            tp += 1
        elif positive and not actual:
            fp += 1
        elif not positive and actual:
            fn += 1
    precision = tp / (tp + fp) if (tp + fp) else 0.0
    recall = tp / (tp + fn) if (tp + fn) else 0.0
    f1 = 2 * precision * recall / (precision + recall) if (precision + recall) else 0.0
    return precision, recall, f1


@dataclass(frozen=True)
class SweepPoint:
    threshold: float
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class ThresholdSweep:
    best_threshold: float
    best_f1: float
    curve: tuple[SweepPoint, ...]


def threshold_sweep(
    scores: Sequence[float],
    labels: Sequence[str],
    polarity: str,
    grid: Sequence[float],
) -> ThresholdSweep:
    """Exhaustive threshold search; ties break toward the smaller threshold."""
    if not grid:
        raise ValueError("threshold grid must be nonempty")
    curve = []
    for threshold in grid:
        p, r, f1 = pr_f1(scores, labels, threshold, polarity)
        curve.append(SweepPoint(threshold=float(threshold), precision=p, recall=r, f1=f1))
    best = curve[0]
    for point in curve[1:]:
        if point.f1 > best.f1 or (point.f1 == best.f1 and point.threshold < best.threshold):
            best = point
    return ThresholdSweep(best_threshold=best.threshold, best_f1=best.f1, curve=tuple(curve))


# ---------------------------------------------------------------------------
# Record scoring and the sample-count sweep
# ---------------------------------------------------------------------------

RecordScorer = Callable[[Sequence[str]], float]


def stability_scorer(
    embed: Callable[[Sequence[str]], list[Embedding]],
    measure: str = "cosine",
    statistic: str = "mean_offdiag",
) -> RecordScorer:
    """Per-record confidence: embed the samples, build the matrix, reduce it.

    `embed` is a batch embedder (texts -> embeddings in order), such as the
    cached pipeline.embed_cached the CLI passes; it gets a record's samples at once.

    The statistic is the off-diagonal mean by default; the normalized
    Frobenius norm is exposed as the alternative whole-matrix reduction.
    """
    if statistic not in STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}; choose from {STATISTICS}")

    def score(samples: Sequence[str]) -> float:
        if len(samples) < 2:
            raise InsufficientSamples("stability scoring needs k >= 2 samples")
        embeddings = embed(samples)
        summary = summarize(build_matrix(embeddings, None, measure))
        return getattr(summary, statistic)

    return score


@dataclass(frozen=True)
class SweepRecord:
    """Samples plus the gold quality value they are correlated against."""

    samples: tuple[str, ...]
    gold: float


@dataclass(frozen=True)
class SweepRow:
    k: int
    pearson_pct: float
    spearman_pct: float


def sweep_records_from_passages(passages: Sequence[LabeledPassage]) -> list[SweepRecord]:
    return [
        SweepRecord(samples=p.samples, gold=passage_score(p.labels)) for p in passages
    ]


def sample_sweep(
    records: Sequence[SweepRecord],
    k_values: Sequence[int],
    scorer: RecordScorer,
) -> list[SweepRow]:
    """Correlation against gold as a function of the sample count k.

    For each k, every record is scored from its first k samples only, then
    the scores are correlated against the gold values.
    """
    if not k_values:
        raise ValueError("need at least one k value")
    k_max = max(k_values)
    for idx, record in enumerate(records):
        if len(record.samples) < k_max:
            raise InsufficientSamples(
                f"record {idx} has {len(record.samples)} samples, sweep needs {k_max}"
            )
    gold = [r.gold for r in records]
    rows = []
    for k in k_values:
        scores = [scorer(r.samples[:k]) for r in records]
        pe, sp = correlate(scores, gold)
        rows.append(SweepRow(k=int(k), pearson_pct=pe, spearman_pct=sp))
    return rows


# ---------------------------------------------------------------------------
# Synthetic corruption benchmark (desk-scale stability check)
# ---------------------------------------------------------------------------


def corruption_corpus(
    *,
    n_levels: int = 10,
    records_per_level: int = 10,
    k: int = 10,
    base_tokens: int = 60,
    seed: int = 0,
) -> tuple[list[SweepRecord], list[float]]:
    """Synthetic corpus with a known degradation knob.

    Each record has k replies derived from one base text by replacing a fixed
    fraction p of token positions with fresh unique tokens; p steps through
    {0, 1/n_levels, ..., (n_levels-1)/n_levels}. gold is the retained quality
    1 - p, so a good stability score correlates positively with gold. Returns
    (records, corruption fractions).
    """
    rng = np.random.default_rng(seed)
    vocab = [f"w{i:05d}" for i in range(20000)]
    records: list[SweepRecord] = []
    fractions: list[float] = []
    fresh = 0
    for level in range(n_levels):
        p = level / n_levels
        n_replace = round(p * base_tokens)
        for _ in range(records_per_level):
            base = [vocab[i] for i in rng.integers(0, len(vocab), base_tokens)]
            replies = []
            for _ in range(k):
                tokens = list(base)
                for pos in rng.choice(base_tokens, size=n_replace, replace=False):
                    tokens[pos] = f"nz{fresh:07d}"
                    fresh += 1
                replies.append(" ".join(tokens))
            records.append(SweepRecord(samples=tuple(replies), gold=1.0 - p))
            fractions.append(p)
    return records, fractions


def mock_scorer(dim: int = 4096, seed: int = 0, statistic: str = "mean_offdiag") -> RecordScorer:
    """Stability scorer backed by the deterministic offline embedder."""
    return stability_scorer(
        lambda texts: [mock_embed(t, dim, seed) for t in texts], "cosine", statistic
    )


# ---------------------------------------------------------------------------
# JSON Lines dataset IO
# ---------------------------------------------------------------------------


def _iter_jsonl(path: Path) -> Iterable[tuple[int, dict]]:
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise DatasetError(f"{path}:{lineno}: expected a JSON object")
            yield lineno, obj


def read_passages_jsonl(path: Path | str) -> list[LabeledPassage]:
    records = []
    for lineno, obj in _iter_jsonl(Path(path)):
        try:
            records.append(
                LabeledPassage(
                    id=str(obj["id"]),
                    sentences=tuple(obj["sentences"]),
                    labels=tuple(obj["labels"]),
                    samples=tuple(obj.get("samples", ())),
                )
            )
        except (KeyError, TypeError) as exc:
            raise DatasetError(f"{path}:{lineno}: malformed passage record: {exc}") from exc
    if not records:
        raise DatasetError(f"{path}: no records found")
    return records


def read_binary_jsonl(path: Path | str) -> list[BinaryRecord]:
    records = []
    for lineno, obj in _iter_jsonl(Path(path)):
        try:
            records.append(
                BinaryRecord(
                    id=str(obj["id"]),
                    response=str(obj["response"]),
                    label=str(obj["label"]),
                    samples=tuple(obj["samples"]),
                )
            )
        except (KeyError, TypeError) as exc:
            raise DatasetError(f"{path}:{lineno}: malformed binary record: {exc}") from exc
    if not records:
        raise DatasetError(f"{path}: no records found")
    return records


def write_passages_jsonl(path: Path | str, records: Sequence[LabeledPassage]) -> None:
    lines = [
        json.dumps(
            {
                "id": r.id,
                "sentences": list(r.sentences),
                "labels": list(r.labels),
                "samples": list(r.samples),
            },
            ensure_ascii=False,
        )
        for r in records
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_binary_jsonl(path: Path | str, records: Sequence[BinaryRecord]) -> None:
    lines = [
        json.dumps(
            {
                "id": r.id,
                "response": r.response,
                "label": r.label,
                "samples": list(r.samples),
            },
            ensure_ascii=False,
        )
        for r in records
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
