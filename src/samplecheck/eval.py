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
from bisect import bisect_left, bisect_right
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from typing import Callable, Sequence, TypeVar

import numpy as np

from .errors import SampleCheckError
from .providers import EmbedderConfig
from .scorematrix import build_matrix, summarize
from .vectors import ConstantSequence, Embedding, LengthMismatch, pearson, spearman

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


def check_correlatable(values: Sequence[float]) -> None:
    """What correlate asks of each side: ValueError for fewer than 3 values,
    ConstantSequence if they are all equal."""
    v = np.asarray(values, dtype=np.float64)
    if len(v) < 3:
        raise ValueError("correlate needs at least 3 paired values")
    if np.all(v == v[0]):
        raise ConstantSequence("correlation is undefined for a constant sequence")


def correlate(predicted: Sequence[float], gold: Sequence[float]) -> tuple[float, float]:
    """(Pearson, Spearman) as percentages rounded to one decimal place."""
    if len(predicted) != len(gold):
        raise LengthMismatch(f"lengths differ: {len(predicted)} vs {len(gold)}")
    p = np.asarray(predicted, dtype=np.float64)
    g = np.asarray(gold, dtype=np.float64)
    check_correlatable(p)
    check_correlatable(g)
    pe = pearson(p, g)
    sp = spearman(p, g)
    return round(pe * 100.0, 1), round(sp * 100.0, 1)


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
    """Precision/recall/F1 at every threshold of grid, and the best F1.

    'hallucinated' is the positive class. A record is flagged when its score
    is at or below the threshold for low_score_flags (stability- and judge-
    style scores), at or above it for high_score_flags (contradiction-style
    scores). Degenerate denominators yield 0; F1 ties go to the smaller
    threshold. Each class is sorted once and each threshold's flags counted
    by bisection: O((R + G) log R) for R records and G thresholds.

    ValueError on unequal lengths, no records, an unknown polarity, an empty
    grid or a non-finite score or threshold; DatasetError on an unknown label.
    """
    if not grid:
        raise ValueError("threshold grid must be nonempty")
    if len(scores) != len(labels):
        raise ValueError("scores and labels must have equal length")
    if not scores:
        raise ValueError("need at least one record")
    by_label: dict[str, list[float]] = {"hallucinated": [], "faithful": []}
    for score, label in zip(scores, labels):
        if label not in by_label:
            raise DatasetError(f"unknown label {label!r}")
        by_label[label].append(score)
    if polarity not in POLARITIES:
        raise ValueError(f"unknown polarity {polarity!r}; choose from {POLARITIES}")
    if not all(map(math.isfinite, scores)) or not all(map(math.isfinite, grid)):
        raise ValueError("scores and thresholds must be finite")
    hallucinated, faithful = sorted(by_label["hallucinated"]), sorted(by_label["faithful"])

    if polarity == "low_score_flags":
        flags = [(bisect_right(hallucinated, t), bisect_right(faithful, t)) for t in grid]
    else:
        flags = [(len(hallucinated) - bisect_left(hallucinated, t),
                  len(faithful) - bisect_left(faithful, t)) for t in grid]
    curve = []
    for threshold, (tp, fp) in zip(grid, flags):
        fn = len(hallucinated) - tp
        precision = tp / (tp + fp) if (tp + fp) else 0.0
        recall = tp / (tp + fn) if (tp + fn) else 0.0
        f1 = 2 * precision * recall / (precision + recall) if (precision + recall) else 0.0
        curve.append(SweepPoint(float(threshold), precision, recall, f1))
    best = max(curve, key=lambda point: (point.f1, -point.threshold))
    return ThresholdSweep(best_threshold=best.threshold, best_f1=best.f1, curve=tuple(curve))


def pr_f1(
    scores: Sequence[float],
    labels: Sequence[str],
    threshold: float,
    polarity: str,
) -> tuple[float, float, float]:
    """Precision/recall/F1 at one threshold: the one-point threshold_sweep,
    with its flagging rule, its errors and its O(R log R) cost."""
    point = threshold_sweep(scores, labels, polarity, [threshold]).curve[0]
    return point.precision, point.recall, point.f1


# ---------------------------------------------------------------------------
# Record scoring and the sample-count sweep
# ---------------------------------------------------------------------------

RecordScorer = Callable[[Sequence[str]], float]


def stability_scorer(
    measure: str = "cosine", statistic: str = "mean_offdiag"
) -> Callable[[Sequence[Embedding]], float]:
    """Per-record confidence from the embeddings of a record's samples: build
    their matrix and reduce it.

    The statistic is the off-diagonal mean by default; the normalized
    Frobenius norm is exposed as the alternative whole-matrix reduction.
    """
    if statistic not in STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}; choose from {STATISTICS}")

    def score(embeddings: Sequence[Embedding]) -> float:
        if len(embeddings) < 2:
            raise InsufficientSamples("stability scoring needs k >= 2 samples")
        return getattr(summarize(build_matrix(embeddings, None, measure)), statistic)

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
    """Stability scorer of sample texts, embedded by the deterministic offline embedder."""
    embed = EmbedderConfig(dim=dim, seed=seed).embed
    score = stability_scorer("cosine", statistic)
    return lambda samples: score(embed(samples))


# ---------------------------------------------------------------------------
# JSON Lines dataset IO
# ---------------------------------------------------------------------------


_Record = TypeVar("_Record", LabeledPassage, BinaryRecord)
_TEXT_LISTS = ("sentences", "labels", "samples")


def _read_records(path: Path | str, cls: type[_Record]) -> list[_Record]:
    """One cls per non-blank line; DatasetError names path:lineno of a bad line.

    Each line is UTF-8 text of a JSON object holding every field of cls that
    has no default. sentences, labels and samples must be JSON lists of
    strings; the other fields are converted with str. Lines end as in text
    mode: at "\n", "\r\n" or "\r".
    """
    path = Path(path)
    records = []
    for lineno, raw in enumerate(path.read_bytes().splitlines(), start=1):
        try:
            line = raw.decode("utf-8").strip()
            if not line:
                continue
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise DatasetError("expected a JSON object")
            values: dict[str, object] = {}
            for f in fields(cls):
                if f.name not in obj and f.default is not MISSING:
                    continue
                value = obj[f.name]
                if f.name not in _TEXT_LISTS:
                    value = str(value)
                elif isinstance(value, list) and all(isinstance(t, str) for t in value):
                    value = tuple(value)
                else:
                    raise DatasetError(f"{f.name!r} must be a JSON list of strings")
                values[f.name] = value
            records.append(cls(**values))
        except UnicodeDecodeError as exc:
            raise DatasetError(f"{path}:{lineno}: not UTF-8: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise DatasetError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        except KeyError as exc:
            raise DatasetError(f"{path}:{lineno}: missing field {exc}") from exc
        except DatasetError as exc:
            raise DatasetError(f"{path}:{lineno}: {exc}") from exc
    if not records:
        raise DatasetError(f"{path}: no records found")
    return records


def read_passages_jsonl(path: Path | str) -> list[LabeledPassage]:
    return _read_records(path, LabeledPassage)


def read_binary_jsonl(path: Path | str) -> list[BinaryRecord]:
    return _read_records(path, BinaryRecord)


def write_records_jsonl(
    path: Path | str, records: Sequence[LabeledPassage | BinaryRecord]
) -> None:
    """One JSON object per record, keys in field order: the format read_*_jsonl read."""
    lines = [json.dumps(asdict(r), ensure_ascii=False) for r in records]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
