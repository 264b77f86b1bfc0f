"""Comparison verifiers: greedy token matching, sentence self-consistency,
NLI contradiction averaging, and integer-score judging."""

from .judge import (
    JUDGE_TASKS,
    JudgeVerdict,
    UnparsableVerdict,
    assemble_prompt,
    llm_judge,
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
    http_nli_provider,
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
    "http_nli_provider",
    "llm_judge",
    "parse_verdict",
    "selfcheck_bert",
    "selfcheck_nli",
    "split_sentences",
    "template_slots",
    "template_text",
]
