"""Verification by prompting a generative model for an integer quality score.

The prompt templates are shipped verbatim as text assets, one per supported
task; the model must reply with a bare integer in [0, 100]. Anything else
(decimals, prose, out-of-range values) is rejected as unparsable rather than
clamped, with the raw reply retained for inspection. Nothing here sends a
request: `eval --scheme judge` asks through pipeline.replies_cached.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from importlib import resources
from typing import Mapping

from ..errors import SampleCheckError

JUDGE_TASKS = (
    "similar_descriptions",
    "legal_summary",
    "scientific_passage",
    "wikibio",
    "wikibio_with_reference",
    "ragtruth",
)

# The reply is a bare integer in [0, 100], so a few tokens suffice.
JUDGE_MAX_TOKENS = 16

_INT_REPLY = re.compile(r"^[+-]?[0-9]+$")


class UnparsableVerdict(SampleCheckError):
    """The judge reply was not a bare integer in [0, 100]."""

    def __init__(self, message: str, raw_reply: str) -> None:
        super().__init__(message)
        self.raw_reply = raw_reply


@dataclass(frozen=True)
class JudgeVerdict:
    score: int
    raw_reply: str

    def __post_init__(self) -> None:
        if not 0 <= self.score <= 100:
            raise ValueError("judge score must lie in [0, 100]")


def template_text(task: str) -> str:
    if task not in JUDGE_TASKS:
        raise ValueError(f"unknown judge task {task!r}; choose from {list(JUDGE_TASKS)}")
    return (
        resources.files("samplecheck.baselines")
        .joinpath(f"templates/{task}.txt")
        .read_text(encoding="utf-8")
    )


def template_slots(task: str) -> tuple[str, ...]:
    """The substitution slots the template requires, in order of appearance."""
    fields = []
    for _, field, _, _ in string.Formatter().parse(template_text(task)):
        if field is not None and field not in fields:
            fields.append(field)
    return tuple(fields)


def assemble_prompt(task: str, inputs: Mapping[str, str]) -> str:
    """Fill the task template; every slot must be supplied."""
    slots = template_slots(task)
    missing = [s for s in slots if s not in inputs]
    if missing:
        raise ValueError(f"missing template slots for {task!r}: {missing}")
    return template_text(task).format(**{s: inputs[s] for s in slots})


def parse_verdict(reply: str) -> JudgeVerdict:
    """Parse a judge reply: a bare integer, surrounding whitespace tolerated."""
    stripped = reply.strip()
    if not _INT_REPLY.match(stripped):
        raise UnparsableVerdict(f"reply is not a bare integer: {stripped!r}", reply)
    score = int(stripped)
    if not 0 <= score <= 100:
        raise UnparsableVerdict(f"score {score} outside [0, 100]", reply)
    return JudgeVerdict(score=score, raw_reply=reply)
