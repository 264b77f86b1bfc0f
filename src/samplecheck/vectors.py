"""Similarity and correlation kernels over dense vectors.

All kernels run in double precision, reject non-finite input outright, and
clamp their result to [-1, 1] to absorb floating-point rounding. Degenerate
input (zero vectors, constant sequences) raises a typed error instead of
silently returning 0, because a silent 0 would corrupt downstream matrix
summaries. Every cosine and Pearson score, scalar or matrix entry, comes out
of _similarity: cosine and pearson are its 2-row case, and
scorematrix.build_matrix calls it once over all its rows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import SampleCheckError


class DimensionMismatch(SampleCheckError):
    """The two vectors do not share the same dimensionality."""


class ZeroVector(SampleCheckError):
    """Cosine similarity is undefined for a vector with zero norm."""


class ConstantVector(SampleCheckError):
    """Pearson correlation is undefined when a sequence has zero variance."""


class LengthMismatch(SampleCheckError):
    """The two sequences do not have the same length."""


class ConstantSequence(SampleCheckError):
    """Rank correlation is undefined when all values in a sequence are equal."""


class NonFiniteInput(SampleCheckError):
    """Input contains NaN or infinite values; these are never propagated."""


@dataclass(frozen=True, eq=False)
class Embedding:
    """A dense real vector representing one whole item (answer, image, ...).

    values is stored as a read-only float64 array; dim always equals the
    number of values and every value is finite. Input that is not a
    non-empty 1-D sequence of real numbers (see _real_array) raises
    ValueError, and NaN or infinity raises NonFiniteInput.
    """

    values: np.ndarray
    model_id: str = field(default="unknown")

    def __post_init__(self) -> None:
        arr = _finite_vector(self.values)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def dim(self) -> int:
        return int(self.values.size)

    def tolist(self) -> list[float]:
        return self.values.tolist()


VectorLike = Embedding | Sequence[float] | np.ndarray


def _real_array(values: object) -> np.ndarray:
    """values as a new float64 array, if numpy reads them as real numbers.

    One np.asarray call infers the dtype, and only integer and floating kinds
    pass. So booleans, strings (numeric or not), None, mappings, ragged
    nesting and integers beyond 64 bits raise ValueError. numpy would promote
    a boolean among numbers to 0 or 1, so list and tuple input is also scanned
    for one (an ndarray is not: its dtype already tells). Shape and finiteness
    are the caller's checks.
    """
    arr = np.asarray(values)  # raises ValueError on ragged nesting
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"expected real numbers, got {arr.dtype} data")
    if _holds_bool(values):
        raise ValueError("expected real numbers, got a boolean among them")
    return arr.astype(np.float64)


def _holds_bool(values: object) -> bool:
    """Whether a list or tuple, nested ones included, holds a bool."""
    if not isinstance(values, (list, tuple)):
        return False
    kinds = set(map(type, values))
    return bool in kinds or bool(kinds & {list, tuple}) and any(map(_holds_bool, values))


def _finite_vector(values: object) -> np.ndarray:
    """The rule for every vector: a new non-empty 1-D float64 array of finite reals."""
    arr = _real_array(values)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("expected a non-empty 1-D sequence of real numbers")
    if not np.isfinite(arr).all():
        raise NonFiniteInput("values must be finite (no NaN/Inf)")
    return arr


def _as_array(v: VectorLike) -> np.ndarray:
    return v.values if isinstance(v, Embedding) else _finite_vector(v)


def _prepared(x: np.ndarray, centred: bool) -> tuple[np.ndarray, float]:
    """Per-vector half of cosine/pearson: the (centred) vector scaled by its
    largest magnitude, so its squared norm stays in [1, x.size], and that norm.

    Raises ZeroVector (cosine) or ConstantVector (pearson) when the scaled
    vector would be all zeros.
    """
    if centred:
        if x.size < 2:
            raise DimensionMismatch("pearson needs at least 2 values per sequence")
        x = x - x.mean()
    m = float(np.max(np.abs(x)))
    if m == 0.0:
        if centred:
            raise ConstantVector("pearson correlation is undefined for a constant sequence")
        raise ZeroVector("cosine similarity is undefined for zero-norm vectors")
    x = x / m
    return x, float(np.dot(x, x))


def _similarity(rows: Sequence[tuple[np.ndarray, float]]) -> np.ndarray:
    """The symmetric, unit-diagonal matrix of every pair of _prepared rows.

    Each pair's entry is one ndarray.dot of its two rows, divided by the root
    of their two squared norms and clipped to [-1, 1]; the upper triangle is
    computed and mirrored. The scalar kernels are this function's 2-row case.
    """
    n = len(rows)
    # combinations yields the pairs in row-major order, the order of triu_indices.
    dots = np.fromiter(itertools.starmap(np.ndarray.dot,
                                         itertools.combinations([x for x, _ in rows], 2)),
                       np.float64, n * (n - 1) // 2)
    upper = np.triu_indices(n, 1)
    sq = np.array([norm for _, norm in rows])
    vals = np.clip(dots / np.sqrt(sq[upper[0]] * sq[upper[1]]), -1.0, 1.0)
    out = np.eye(n, dtype=np.float64)
    out[upper] = vals
    out[upper[::-1]] = vals
    return out


def _kernel(a: VectorLike, b: VectorLike, centred: bool) -> float:
    """The off-diagonal entry of _similarity over the two prepared vectors."""
    x = _as_array(a)
    y = _as_array(b)
    if x.size != y.size:
        raise DimensionMismatch(f"dims differ: {x.size} vs {y.size}")
    return float(_similarity([_prepared(x, centred), _prepared(y, centred)])[0, 1])


def cosine(a: VectorLike, b: VectorLike) -> float:
    """Cosine similarity of two equal-dimension vectors, clamped to [-1, 1].

    Each vector is pre-scaled by its largest magnitude so the squared norms
    stay in [1, dim] regardless of input scale (no under- or overflow).
    Raises DimensionMismatch on unequal dims and ZeroVector when either
    argument has zero norm.
    """
    return _kernel(a, b, False)


def pearson(a: VectorLike, b: VectorLike) -> float:
    """Sample Pearson correlation of two index-aligned sequences.

    Requires dim >= 2; raises ConstantVector when either sequence has zero
    variance (correlation undefined).
    """
    return _kernel(a, b, True)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the average rank of their run."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def spearman(xs: Sequence[float] | np.ndarray, ys: Sequence[float] | np.ndarray) -> float:
    """Spearman rank correlation: Pearson correlation of average-tie ranks.

    Raises LengthMismatch on unequal lengths and ConstantSequence when either
    sequence has all-equal values.
    """
    x = _as_array(xs)
    y = _as_array(ys)
    if x.size != y.size:
        raise LengthMismatch(f"lengths differ: {x.size} vs {y.size}")
    if x.size < 2:
        raise LengthMismatch("spearman needs at least 2 values per sequence")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise ConstantSequence("rank correlation is undefined for an all-equal sequence")
    return pearson(_average_ranks(x), _average_ranks(y))
