"""Pairwise similarity matrices over reply embeddings and their summaries.

The matrix is symmetric with a unit diagonal; an optional ground-truth (GT)
embedding occupies the last row/column. Confidence statistics (off-diagonal
mean/std, normalized Frobenius norm) are computed over the reply-only block,
so appending a GT never changes them; GT alignment is reported separately.
The matrix comes out of vectors._similarity, the one function the scalar
kernels also call (as its 2-row case), so every entry equals its scalar kernel
bit for bit by construction, on any numpy and BLAS.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Callable, Literal, Sequence

import numpy as np

from .errors import SampleCheckError
from .vectors import Embedding, _prepared, _real_array, _similarity, cosine, pearson

Verdict = Literal["HighConfidence", "Inspect"]

GT_LABEL = "GT"
# Characters a label cannot hold: each would break a CSV cell or SVG text as written.
_UNSAFE_LABEL = re.compile(r'[,"<>&\x00-\x1f\x7f-\x9f]')
MEASURES: dict[str, Callable[[Embedding, Embedding], float]] = {
    "cosine": cosine,
    "pearson": pearson,
}


class DegenerateMatrix(SampleCheckError):
    """Too few reply rows to compute off-diagonal statistics."""


class PairwiseKernelError(SampleCheckError):
    """A similarity kernel failed for one specific pair of items."""

    def __init__(self, pair: tuple[int, int], cause: Exception) -> None:
        super().__init__(f"similarity kernel failed for pair {pair}: {cause}")
        self.pair = pair


@dataclass(frozen=True)
class ConfidenceThresholds:
    """Verdict cut-offs: HighConfidence iff mean > mean_min and std < std_max.

    The default gate (0.9, 0.05) is deliberately strict: a matrix with a mean
    of 0.95 but an std of 0.06 still lands on Inspect, flagging borderline
    cases for a human look instead of waving them through. Both values are
    overridable per run.
    """

    mean_min: float = 0.9
    std_max: float = 0.05

    def __post_init__(self) -> None:
        if not (-1.0 < self.mean_min <= 1.0):
            raise ValueError("mean_min must lie in (-1, 1]")
        if not 0 <= self.std_max < math.inf:
            raise ValueError("std_max must be finite and >= 0")


DEFAULT_THRESHOLDS = ConfidenceThresholds()


@dataclass(frozen=True, eq=False)
class SimilarityMatrix:
    """Symmetric n-by-n matrix of pairwise similarity scores.

    labels name the rows/columns: reply indices "0".."k-1" and, when a ground
    truth is present, a final "GT" label. A label holding a comma, a double
    quote, <, >, & or a control character raises ValueError, so the CSV and
    SVG writers can write every label as it is. Symmetry is bitwise, sign of
    zero included, so every writer may format a pair once and mirror it.
    """

    entries: np.ndarray
    labels: tuple[str, ...]
    measure: str

    def __post_init__(self) -> None:
        arr = _real_array(self.entries)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("entries must be a square matrix")
        n = arr.shape[0]
        if len(self.labels) != n:
            raise ValueError("labels must match the matrix order")
        if isinstance(self.labels, str) or not all(isinstance(label, str)
                                                   for label in self.labels):
            raise ValueError("labels must be strings")
        for label in self.labels:
            if _UNSAFE_LABEL.search(label):
                raise ValueError(f"label {label!r} holds a comma, double quote, <, >, & or "
                                 "control character, which the CSV or SVG cannot hold")
        if self.measure not in MEASURES:
            raise ValueError(f"unknown measure {self.measure!r}")
        if not np.isfinite(arr).all():
            raise ValueError("matrix entries must be finite")
        if np.abs(arr).max() > 1.0:
            raise ValueError("matrix entries must lie in [-1, 1]")
        bits = arr.view(np.uint64)  # bitwise: -0.0 and 0.0 are not mirror images
        if not np.array_equal(bits, bits.T):
            raise ValueError("matrix must be symmetric")
        if not np.all(np.diag(arr) == 1.0):
            raise ValueError("matrix diagonal must be exactly 1")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def order(self) -> int:
        return int(self.entries.shape[0])

    @property
    def has_gt(self) -> bool:
        return bool(self.labels) and self.labels[-1] == GT_LABEL

    @property
    def reply_count(self) -> int:
        return self.order - 1 if self.has_gt else self.order

    @functools.cached_property
    def entry_reprs(self) -> list[list[str]]:
        """repr of every entry, the shortest text that parses back to it bit for bit.

        Computed once per matrix, one repr per unordered pair, and shared by the
        report and the CSV.
        """
        rows = self.entries.tolist()
        upper = [list(map(float.__repr__, row[i:])) for i, row in enumerate(rows)]
        return [[upper[j][i - j] for j in range(i)] + upper[i] for i in range(len(rows))]


@dataclass(frozen=True)
class MatrixSummary:
    """Scalar reductions of a similarity matrix plus the confidence verdict.

    frobenius_normalized is ||A'||_F / n' over the reply-only block A'; it is
    a meaningful confidence score only when all entries are non-negative
    (negative similarities inflate it like positive ones do).
    """

    frobenius_normalized: float
    mean_offdiag: float
    std_offdiag: float
    gt_alignment: float | None
    verdict: Verdict


def build_matrix(
    embeddings: Sequence[Embedding],
    gt: Embedding | None = None,
    measure: str = "cosine",
) -> SimilarityMatrix:
    """Score every unordered pair once and mirror into a symmetric matrix.

    Each row is prepared once (centred for Pearson, scaled by its largest
    magnitude, squared norm taken), and vectors._similarity scores all of
    them. The pair kernels are _similarity over their two prepared vectors,
    and an entry depends only on its own two rows, so every off-diagonal
    entry equals MEASURES[measure](items[i], items[j]) bit for bit by
    construction, whatever the order and the number of items. The unit
    diagonal is definitional, not computed. A degenerate row raises
    PairwiseKernelError naming the first failing pair in row-major order.
    """
    k = len(embeddings)
    if k < 2:
        raise DegenerateMatrix("need at least 2 embeddings to build a matrix")
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}; choose from {sorted(MEASURES)}")
    dim = embeddings[0].dim
    model = embeddings[0].model_id
    for i, e in enumerate(embeddings):
        if e.dim != dim:
            raise ValueError(f"embedding {i} has dim {e.dim}, expected {dim}")
        if e.model_id != model:
            raise ValueError(f"embedding {i} is from {e.model_id!r}, expected {model!r}")
    if gt is not None and gt.dim != dim:
        raise ValueError(f"GT embedding has dim {gt.dim}, expected {dim}")

    items: list[Embedding] = list(embeddings) + ([gt] if gt is not None else [])
    labels = tuple(str(i) for i in range(k)) + ((GT_LABEL,) if gt is not None else ())
    centred = measure == "pearson"
    rows = []
    for i, item in enumerate(items):
        try:
            rows.append(_prepared(item.values, centred))
        except SampleCheckError as exc:
            # In row-major order the first pair touching row i is (0, i),
            # or (0, 1) when i is 0.
            raise PairwiseKernelError((0, max(i, 1)), exc) from exc
    return SimilarityMatrix(entries=_similarity(rows), labels=labels, measure=measure)


def summarize(
    matrix: SimilarityMatrix, thresholds: ConfidenceThresholds = DEFAULT_THRESHOLDS
) -> MatrixSummary:
    """Reduce a matrix to confidence statistics and a verdict.

    Off-diagonal mean/std (population std) run over the strict upper triangle
    of the reply block only; the GT row/column contributes solely to
    gt_alignment. All reductions use exactly-rounded summation, so the result
    is invariant under reply permutation.
    """
    r = matrix.reply_count
    if r < 2:
        raise DegenerateMatrix("summary needs at least 2 reply rows")
    block = matrix.entries[:r, :r]
    # Python floats throughout: numpy's elementwise ** 2 can round differently.
    offdiag = block[np.triu_indices(r, 1)].tolist()
    mean = math.fsum(offdiag) / len(offdiag)
    std = math.sqrt(math.fsum((v - mean) ** 2 for v in offdiag) / len(offdiag))
    # The block's squares as a multiset (a unit diagonal, each pair twice, as the
    # matrix is bitwise symmetric): fsum rounds exactly, so the sum is the block's.
    squares = [v ** 2 for v in offdiag]
    frob = math.sqrt(math.fsum([1.0] * r + squares + squares)) / r
    gt_alignment: float | None = None
    if matrix.has_gt:
        gt_alignment = math.fsum(matrix.entries[:r, r].tolist()) / r
    verdict: Verdict = (
        "HighConfidence"
        if mean > thresholds.mean_min and std < thresholds.std_max
        else "Inspect"
    )
    return MatrixSummary(
        frobenius_normalized=frob,
        mean_offdiag=mean,
        std_offdiag=std,
        gt_alignment=gt_alignment,
        verdict=verdict,
    )
