"""Comparison verifiers: greedy token matching, sentence self-consistency,
NLI contradiction averaging, and judge prompts and reply parsing."""

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
    OutOfRangeScore,
    TokenEmbeddingSeq,
    bertscore_greedy,
    selfcheck_bert,
    selfcheck_nli,
    split_sentences,
)

__all__ = [
    "JUDGE_TASKS",
    "EmptySample",
    "EmptySequence",
    "JudgeVerdict",
    "OutOfRangeScore",
    "TokenEmbeddingSeq",
    "UnparsableVerdict",
    "assemble_prompt",
    "bertscore_greedy",
    "parse_verdict",
    "selfcheck_bert",
    "selfcheck_nli",
    "split_sentences",
    "template_slots",
    "template_text",
]
