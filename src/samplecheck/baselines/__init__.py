"""Comparison verifiers: greedy token matching, sentence self-consistency,
and judge prompts and reply parsing."""

from .judge import (
    JUDGE_TASKS,
    JudgeVerdict,
    UnparsableVerdict,
    assemble_prompt,
    parse_verdict,
    template_slots,
    template_text,
)
from .scoring import (
    EmptySample,
    EmptySequence,
    TokenEmbeddingSeq,
    bertscore_greedy,
    selfcheck_bert,
)

__all__ = [
    "JUDGE_TASKS",
    "EmptySample",
    "EmptySequence",
    "JudgeVerdict",
    "TokenEmbeddingSeq",
    "UnparsableVerdict",
    "assemble_prompt",
    "bertscore_greedy",
    "parse_verdict",
    "selfcheck_bert",
    "template_slots",
    "template_text",
]
