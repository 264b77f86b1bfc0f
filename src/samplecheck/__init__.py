"""samplecheck: stability-based verification of generative-model outputs.

Sample a prompt k times, embed each whole reply, score all embedding pairs,
and reduce the similarity matrix to a confidence verdict. Ships the
comparison baselines (greedy token matching, sentence-level self-consistency,
judge prompting), dataset evaluation protocols, and an analytical depth/work
cost model for comparing verification schemes.
"""

from .errors import SampleCheckError
from .pipeline import VerificationReport, verify
from .providers import EmbedderConfig, GeneratorConfig, ProviderConfig
from .scorematrix import (
    ConfidenceThresholds,
    MatrixSummary,
    SimilarityMatrix,
    build_matrix,
    summarize,
)
from .vectors import Embedding, cosine, pearson, spearman

__all__ = [
    "ConfidenceThresholds",
    "EmbedderConfig",
    "Embedding",
    "GeneratorConfig",
    "MatrixSummary",
    "ProviderConfig",
    "SampleCheckError",
    "SimilarityMatrix",
    "VerificationReport",
    "build_matrix",
    "cosine",
    "pearson",
    "spearman",
    "summarize",
    "verify",
]

__version__ = "0.1.0"
