"""Analytical depth/work calculator for verification schemes.

Depth is latency under unlimited parallel resources; work is the total
operation count. Each scheme's asymptotic depth/work complexity is evaluated
with all big-O constants fixed to 1 and logarithms taken base 2 - an explicit
convention of this calculator, stated in every report it renders. The model
is purely analytical: it contextualizes measured speedup claims but performs
no wall-clock measurement itself.

Quantities: number of sampled answers, embedding dimensionality, sentences
per passage, tokens per sentence, and the work/depth of a single inference or
embedding run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import SampleCheckError

TASK_SIMILARITY = "pairwise_similarity"
TASK_VERIFICATION = "open_ended_verification"
TASKS = (TASK_SIMILARITY, TASK_VERIFICATION)

SCHEME_CHECKEMBED = "checkembed"

CONVENTION_NOTE = (
    "analytical model: big-O constants fixed to 1, log taken base 2; "
    "ratios are model predictions, not measurements"
)


class NotApplicable(SampleCheckError):
    """The scheme does not define this task (an n/a cell)."""


class UnknownCost(NotApplicable):
    """The operation count of this scheme could not be determined."""


class InvalidParams(SampleCheckError):
    """Cost-model quantities failed validation."""


@dataclass(frozen=True)
class CostModelParams:
    """Positive quantities feeding the cost formulas.

    Every quantity must be finite. Counts (samples, embed_dim, sentences,
    tokens) must be >= 1, the other quantities positive; a run's
    depth can never exceed its own work, so inference_depth <= inference_work
    and embed_depth <= embed_work are required as well. Together these
    guarantee depth <= work for every estimate this model produces. Each
    field is also an option of the cost command (embed_dim as --embed-dim),
    whose default is the field's default.
    """

    samples: float = 10  # answers requested from the generator (k)
    embed_dim: float = 3072  # embedding dimensionality
    sentences: float = 10  # average sentences per passage
    tokens: float = 25  # average tokens per sentence
    inference_work: float = 1e6  # work of one generator inference run
    inference_depth: float = 1e3  # depth of one generator inference run
    embed_work: float = 1e6  # work of one embedding run
    embed_depth: float = 1e3  # depth of one embedding run

    def __post_init__(self) -> None:
        for name in ("samples", "embed_dim", "sentences", "tokens"):
            if not 1 <= getattr(self, name) < math.inf:
                raise InvalidParams(f"{name} must be finite and >= 1")
        for name in ("inference_work", "inference_depth", "embed_work", "embed_depth"):
            if not 0 < getattr(self, name) < math.inf:
                raise InvalidParams(f"{name} must be finite and positive")
        if self.inference_depth > self.inference_work:
            raise InvalidParams("inference_depth cannot exceed inference_work")
        if self.embed_depth > self.embed_work:
            raise InvalidParams("embed_depth cannot exceed embed_work")


@dataclass(frozen=True)
class CostEstimate:
    scheme: str
    task: str
    depth: float
    work: float


def _lg(x: float) -> float:
    return math.log2(x)


def _formulas(p: CostModelParams) -> dict[tuple[str, str], tuple[float, float]]:
    k, d, s, t = p.samples, p.embed_dim, p.sentences, p.tokens
    wi, di = p.inference_work, p.inference_depth
    wm, dm = p.embed_work, p.embed_depth
    return {
        # (scheme, task) -> (depth, work)
        ("bartscore", TASK_SIMILARITY): (_lg(s * t), s * t),
        ("bartscore", TASK_VERIFICATION): (di + _lg(s * t), wi + s * t),
        ("unieval", TASK_VERIFICATION): (di, wi),
        ("selfcheckgpt_bert", TASK_SIMILARITY): (
            dm + _lg(d * t * s),
            s * (2 * wm + t * t * _lg(d) + t * t),
        ),
        ("selfcheckgpt_bert", TASK_VERIFICATION): (
            dm + _lg(d * t * k * s),
            2 * k * s * (wm + t * t * _lg(d) + t * t),
        ),
        ("selfcheckgpt_nli", TASK_SIMILARITY): (di + _lg(s), s * wi + s),
        ("selfcheckgpt_nli", TASK_VERIFICATION): (di + _lg(k * s), k * s * wi + k * s),
        ("halocheck", TASK_SIMILARITY): (di + _lg(s), s * s * wi + s * s),
        ("halocheck", TASK_VERIFICATION): (
            di + _lg(k * s),
            k * k * (s * s * wi + s * s + 1),
        ),
        ("bertscore", TASK_SIMILARITY): (
            dm + _lg(d * t),
            2 * wm + t * t * _lg(d) + t * t,
        ),
        ("sentencebert", TASK_SIMILARITY): (di + _lg(d * t), 2 * wi + t + d),
        ("geval", TASK_VERIFICATION): (di + _lg(k), k * wi + k),
        ("gptscore", TASK_VERIFICATION): (di, wi),
        (SCHEME_CHECKEMBED, TASK_SIMILARITY): (dm + _lg(d), k * wm + d),
        (SCHEME_CHECKEMBED, TASK_VERIFICATION): (
            di + dm + _lg(d),
            k * (wm + wi) + k * k * d,
        ),
    }


# The cells that have a formula, in table order; SCHEMES lists their schemes by
# first appearance. A cell absent from the table is a method undefined for the
# task (n/a) or one whose operation count cannot be determined (unknown).
_DEFINED_CELLS = _formulas(CostModelParams()).keys()
SCHEMES = tuple(dict.fromkeys(scheme for scheme, _ in _DEFINED_CELLS))
_UNKNOWN_CELLS = {("gptscore", TASK_SIMILARITY)}


def is_applicable(scheme: str, task: str) -> bool:
    _validate_cell(scheme, task)
    return (scheme, task) in _DEFINED_CELLS


def _validate_cell(scheme: str, task: str) -> None:
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {list(SCHEMES)}")
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}; choose from {list(TASKS)}")


def estimate(scheme: str, task: str, params: CostModelParams) -> CostEstimate:
    """Evaluate the depth/work formulas for one (scheme, task) cell."""
    _validate_cell(scheme, task)
    if (scheme, task) in _UNKNOWN_CELLS:
        raise UnknownCost(f"operation count of {scheme!r} for {task!r} is unknown")
    if (scheme, task) not in _DEFINED_CELLS:
        raise NotApplicable(f"scheme {scheme!r} does not define task {task!r}")
    depth, work = _formulas(params)[(scheme, task)]
    return CostEstimate(scheme=scheme, task=task, depth=depth, work=work)


def applicable_schemes(task: str) -> list[str]:
    return [s for s in SCHEMES if is_applicable(s, task)]


@dataclass(frozen=True)
class CompareRow:
    scheme: str
    work: float
    depth: float
    ratio_vs_checkembed: float


@dataclass(frozen=True)
class CompareReport:
    task: str
    note: str
    rows: tuple[CompareRow, ...]


def compare(
    schemes: set[str] | list[str] | tuple[str, ...],
    task: str,
    params: CostModelParams,
) -> CompareReport:
    """Rank schemes by modeled work, with ratios relative to this pipeline.

    The baseline of the ratio column is always the stability-pipeline row
    (checkembed) evaluated on the same params, whether or not it is part of
    the requested set. Raises NotApplicable if any requested cell is n/a.
    """
    if not schemes:
        raise ValueError("need at least one scheme to compare")
    estimates = [estimate(s, task, params) for s in sorted(set(schemes))]
    base = estimate(SCHEME_CHECKEMBED, task, params).work
    rows = [
        CompareRow(
            scheme=e.scheme,
            work=e.work,
            depth=e.depth,
            ratio_vs_checkembed=e.work / base,
        )
        for e in estimates
    ]
    rows.sort(key=lambda r: (r.work, r.scheme))
    return CompareReport(task=task, note=CONVENTION_NOTE, rows=tuple(rows))


def render_table(report: CompareReport) -> str:
    """Plain-text table for terminals; one row per scheme, work-ascending."""
    header = f"{'scheme':<20} {'work':>16} {'depth':>16} {'vs checkembed':>14}"
    lines = [f"# {report.note}", f"task: {report.task}", header, "-" * len(header)]
    for row in report.rows:
        lines.append(
            f"{row.scheme:<20} {row.work:>16.6g} {row.depth:>16.6g} "
            f"{row.ratio_vs_checkembed:>13.4g}x"
        )
    return "\n".join(lines)

