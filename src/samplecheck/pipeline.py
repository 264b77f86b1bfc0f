"""End-to-end verification: sample, embed, score, summarize, persist.

Every run is backed by a disk cache so that re-runs skip completed provider
calls. Replies are cached per prompt key, which hashes the prompt, the
generation model and every sampling setting (temperature, max_tokens, top_p,
top_k); the sample index is the file name. Embeddings live in one store at the
cache root, shared by every prompt and by the eval harness and keyed by the
SHA-256 of the text, so each distinct text is embedded once per model and a new
ground truth is simply a new key. Each reply and each embedding is written as
soon as its provider call returns, so a failed run keeps the work it paid for.

Cache layout:
    <prompt key>/samples/<i>.txt          reply text, one file per index
    <prompt key>/meta.json                stage timestamps (stable on re-run)
    embeddings/<model dir>/<sha256>.npy   1-D little-endian float64 .npy

float64 .npy round-trips every vector bit for bit, so a warm run reproduces
the cold run's report exactly. Vectors of older layouts (per prompt and index,
<prompt key>/embeddings/...) are never opened: they miss, are embedded again
once, and are left on disk. A store file that does not load as a 1-D float64
array raises CorruptCacheEntry naming it. Nothing is ever evicted.

A model id that is not a plain file name ([0-9A-Za-z._-]+, not "." or "..")
gets an escaped directory name plus "~" and a hash of the id, so distinct ids
never share vectors.
"""

from __future__ import annotations

import hashlib
import io
import json
import logging
import math
import os
import re
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Hashable, Sequence

import numpy as np

from . import providers
from .errors import SampleCheckError
from .providers import ProviderConfig
from .scorematrix import (
    DEFAULT_THRESHOLDS,
    ConfidenceThresholds,
    MatrixSummary,
    SimilarityMatrix,
    build_matrix,
    summarize,
)
from .vectors import Embedding, NonFiniteInput

log = logging.getLogger(__name__)

STAGE_GENERATE = "generate"
STAGE_EMBED = "embed"

# Texts per embeddings request. Parsing one 4096-value item of a response
# holds about 290 KB of transient Python objects, so peak memory grows with
# this value times the requests in flight: with 2 requests in flight, a cold
# verify peaked about 3% above one text per request at 4, and 8% above at 8
# (2-vCPU Xeon, d=4096).
EMBED_BATCH = 4


class PartialFailure(SampleCheckError):
    """One or more provider calls failed after retries.

    failures maps every sample index ("gt" for the ground truth) the failed
    calls covered to the error; an embeddings request covers every index whose
    text was in its batch. The run aborts rather
    than shrinking k: a silently smaller sample count would change the meaning
    of the confidence statistics.
    """

    def __init__(self, stage: str, failures: dict[int | str, Exception]) -> None:
        keys = ", ".join(str(k) for k in sorted(failures, key=str))
        by_error: dict[int, tuple[Exception, list[str]]] = {}
        for key, exc in failures.items():
            by_error.setdefault(id(exc), (exc, []))[1].append(str(key))
        super().__init__(f"stage {stage!r} failed for indices [{keys}]: "
                         + "; ".join(f"{', '.join(ks)}: {exc}" for exc, ks in by_error.values()))
        self.stage = stage
        self.failures = failures


class CorruptCacheEntry(SampleCheckError):
    """A cached embedding file is not a loadable 1-D float64 .npy array."""

    def __init__(self, path: Path, reason: str) -> None:
        super().__init__(f"corrupt cache entry {path}: {reason}")
        self.path = path


class EmptyDocument(SampleCheckError):
    """chunk_document needs at least one token."""


class ParseError(SampleCheckError):
    """A vector file line is not a JSON array of finite numbers."""


class RaggedDims(SampleCheckError):
    """Vectors in one file must all share the same dimensionality."""


@dataclass(frozen=True)
class GeneratorConfig:
    """Which model generates replies, and how to reach it."""

    model_id: str
    provider: ProviderConfig
    temperature: float = providers.DEFAULT_TEMPERATURE
    max_tokens: int = 1024
    top_p: float | None = None
    top_k: int | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.temperature < math.inf:
            raise ValueError("temperature must be finite and >= 0")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        if self.top_p is not None and not 0 < self.top_p <= 1:
            raise ValueError("top_p must be in (0, 1]")
        if self.top_k is not None and self.top_k < 1:
            raise ValueError("top_k must be >= 1")


@dataclass(frozen=True)
class EmbedderConfig:
    """Which embedder to use: an HTTP endpoint or the offline mock.

    kind "http" requires provider and model_id; kind "mock" is fully
    deterministic and needs only (dim, seed).
    """

    kind: str = "mock"
    model_id: str = ""
    provider: ProviderConfig | None = None
    dim: int = 4096
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("http", "mock"):
            raise ValueError("embedder kind must be 'http' or 'mock'")
        if self.kind == "http" and (self.provider is None or not self.model_id):
            raise ValueError("http embedder needs provider and model_id")

    @property
    def effective_model_id(self) -> str:
        if self.kind == "mock":
            return f"mock-d{self.dim}-s{self.seed}"
        return self.model_id

    def embedder(self) -> Callable[[Sequence[str]], list[Embedding]]:
        """A batch embedder: texts in, embeddings in the same order, in one request."""
        if self.kind == "mock":
            return lambda texts: [providers.mock_embed(t, self.dim, self.seed) for t in texts]
        provider, model_id = self.provider, self.model_id
        assert provider is not None
        return lambda texts: providers.embed_many(texts, provider, model_id)


@dataclass(frozen=True)
class VerificationReport:
    prompt_id: str
    k: int
    measure: str
    summary: MatrixSummary
    matrix: SimilarityMatrix
    thresholds: ConfidenceThresholds
    provenance: dict[str, object]


def _sampling(gen_cfg: GeneratorConfig) -> dict[str, object]:
    """Every generation setting that changes what a reply can be."""
    return {
        "temperature": gen_cfg.temperature,
        "max_tokens": gen_cfg.max_tokens,
        "top_p": gen_cfg.top_p,
        "top_k": gen_cfg.top_k,
    }


def prompt_hash(prompt: str, gen_cfg: GeneratorConfig) -> str:
    payload = json.dumps(
        {"prompt": prompt, "model_id": gen_cfg.model_id, **_sampling(gen_cfg)},
        sort_keys=True,
        ensure_ascii=False,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]


def _atomic_write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _now_iso() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _cached_batches(
    stage: str,
    keys: Sequence[Hashable],
    load: Callable[[Hashable], object | None],
    size: int,
    call: Callable[[tuple], list],
    store: Callable[[Hashable, object], None],
    workers: int,
) -> dict:
    """Every key's value: from `load` if cached, else from `call`, then `store`d.

    The keys `load` returns None for go to `call` in consecutive batches of at
    most `size` keys, `workers` batches at a time; `call` returns one result
    per key of its batch. Each result goes to `store` as soon as its batch
    returns, so a later failure cannot discard it. If any batch fails, the run
    aborts with PartialFailure naming every key of every failed batch.
    """
    results: dict = {}
    for key in keys:
        value = load(key)
        if value is not None:
            results[key] = value
    missing = [key for key in keys if key not in results]
    batches = [tuple(missing[i:i + size]) for i in range(0, len(missing), size)]
    failures: dict[int | str, Exception] = {}

    def run(batch: tuple) -> None:
        try:
            values = call(batch)
        except Exception as exc:  # collected, re-raised as PartialFailure
            failures.update(dict.fromkeys(batch, exc))
            return
        for key, value in zip(batch, values):
            store(key, value)
            results[key] = value

    if len(batches) <= 1 or workers <= 1:
        for batch in batches:
            run(batch)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, batches))
    if failures:
        raise PartialFailure(stage, failures)
    return results


# Cached embeddings are stored in this dtype whatever the host's byte order.
_VECTOR_DTYPE = np.dtype("<f8")


class _Cache:
    """Disk cache: the shared vector store, and one prompt's replies and timestamps."""

    def __init__(self, root: Path, prompt_key: str = "") -> None:
        self.root = root
        self.dir = root / prompt_key

    def sample_path(self, index: int) -> Path:
        return self.dir / "samples" / f"{index}.txt"

    def embedding_path(self, model_id: str, text: str) -> Path:
        name = re.sub(r"[^0-9A-Za-z._-]+", "_", model_id)
        if name != model_id or name in (".", ".."):
            # The escaped name never holds "~", so the suffix keeps ids apart.
            name += "~" + hashlib.sha256(model_id.encode("utf-8")).hexdigest()[:16]
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        return self.root / "embeddings" / name / f"{digest}.npy"

    def load_text(self, index: int) -> str | None:
        p = self.sample_path(index)
        return p.read_text(encoding="utf-8") if p.exists() else None

    def store_text(self, index: int, text: str) -> None:
        _atomic_write(self.sample_path(index), text.encode("utf-8"))

    def load_embedding(self, model_id: str, text: str) -> Embedding | None:
        p = self.embedding_path(model_id, text)
        if not p.exists():
            return None
        try:
            with p.open("rb") as fh:
                values = np.load(fh, allow_pickle=False)
            if not isinstance(values, np.ndarray):  # np.load also opens .npz archives
                raise ValueError(f"holds a {type(values).__name__}, not an array")
            if values.ndim != 1 or values.dtype != _VECTOR_DTYPE:
                raise ValueError(f"holds a {values.dtype} array of shape {values.shape}, "
                                 f"not a 1-D {_VECTOR_DTYPE} one")
            return Embedding(values, model_id=model_id)
        except (EOFError, ValueError, NonFiniteInput) as exc:
            raise CorruptCacheEntry(p, str(exc)) from exc

    def store_embedding(self, model_id: str, text: str, emb: Embedding) -> None:
        buf = io.BytesIO()
        np.save(buf, emb.values.astype(_VECTOR_DTYPE, copy=False), allow_pickle=False)
        _atomic_write(self.embedding_path(model_id, text), buf.getvalue())

    def update_meta(self, updates: dict) -> dict:
        """meta.json with the keys it lacks added; a key once set never changes."""
        p = self.dir / "meta.json"
        meta = json.loads(p.read_text(encoding="utf-8")) if p.exists() else {}
        if not updates.keys() <= meta.keys():
            meta = {**updates, **meta}
            _atomic_write(p, json.dumps(meta, sort_keys=True, indent=2).encode("utf-8"))
        return meta


def embed_cached(
    texts: Sequence[str], embed_cfg: EmbedderConfig, cache_dir: Path | str
) -> list[Embedding]:
    """Each text's embedding, in order, through the vector store under cache_dir.

    Each distinct text is looked up once; misses go out EMBED_BATCH per request,
    up to the endpoint's max_concurrency requests at a time (the mock embedder
    runs serially). PartialFailure names the positions of a failed batch's texts.
    """
    cache = _Cache(Path(cache_dir))
    model_id = embed_cfg.effective_model_id
    try:
        vectors = _cached_batches(
            STAGE_EMBED, list(dict.fromkeys(texts)),
            lambda text: cache.load_embedding(model_id, text), EMBED_BATCH,
            embed_cfg.embedder(), lambda text, emb: cache.store_embedding(model_id, text, emb),
            embed_cfg.provider.max_concurrency if embed_cfg.provider else 1,
        )
    except PartialFailure as err:
        raise PartialFailure(STAGE_EMBED, {
            i: err.failures[text] for i, text in enumerate(texts) if text in err.failures
        }) from None
    return [vectors[text] for text in texts]


def verify(
    prompt: str,
    gt: str | None,
    k: int,
    gen_cfg: GeneratorConfig,
    embed_cfg: EmbedderConfig,
    thresholds: ConfidenceThresholds = DEFAULT_THRESHOLDS,
    *,
    measure: str = "cosine",
    cache_dir: Path | str,
) -> VerificationReport:
    """Run the full verification pipeline for one prompt.

    Stages: generate k replies, embed them and the optional ground truth
    (embed_cached), build the pairwise similarity matrix, summarize. Every
    provider call already cached under cache_dir is skipped, so a warm run
    makes zero network calls and returns a byte-identical report. Each stage
    runs up to its endpoint's max_concurrency requests at a time.
    """
    if k < 2:
        raise ValueError("k must be >= 2 for verification")
    key = prompt_hash(prompt, gen_cfg)
    cache = _Cache(Path(cache_dir), key)

    # Stage 1: generate (or load) the k replies, one request per reply.
    def generate(batch: tuple) -> list[str]:
        return [
            providers.complete_once(
                prompt,
                gen_cfg.provider,
                model_id=gen_cfg.model_id,
                temperature=gen_cfg.temperature,
                max_tokens=gen_cfg.max_tokens,
                top_p=gen_cfg.top_p,
                top_k=gen_cfg.top_k,
            )
            for _ in batch
        ]

    replies = _cached_batches(
        STAGE_GENERATE, range(k), cache.load_text, 1, generate, cache.store_text,
        gen_cfg.provider.max_concurrency,
    )
    cache.update_meta({"generated_at": _now_iso()})

    # Stage 2: embed the replies and, at position k, the ground truth.
    texts = [replies[i] for i in range(k)] + ([] if gt is None else [gt])
    try:
        vectors = embed_cached(texts, embed_cfg, cache_dir)
    except PartialFailure as err:
        raise PartialFailure(STAGE_EMBED, {"gt" if i == k else i: exc
                                           for i, exc in err.failures.items()}) from None
    model_id = embed_cfg.effective_model_id
    embed_meta_key = f"embedded_at:{model_id}"
    meta = cache.update_meta({embed_meta_key: _now_iso()})

    # Stage 3: score and summarize.
    matrix = build_matrix(vectors[:k], vectors[k] if gt is not None else None, measure)
    summary = summarize(matrix, thresholds)
    return VerificationReport(
        prompt_id=key,
        k=k,
        measure=measure,
        summary=summary,
        matrix=matrix,
        thresholds=thresholds,
        provenance={
            "generation_model_id": gen_cfg.model_id,
            "embedding_model_id": model_id,
            **_sampling(gen_cfg),
            "generated_at": meta["generated_at"],
            "embedded_at": meta[embed_meta_key],
        },
    )


def report_json_bytes(report: VerificationReport) -> bytes:
    """Canonical JSON serialization: stable key order, full float precision."""
    obj = {
        "prompt_id": report.prompt_id,
        "k": report.k,
        "measure": report.measure,
        "thresholds": {
            "mean_min": report.thresholds.mean_min,
            "std_max": report.thresholds.std_max,
        },
        "summary": {
            "frobenius_normalized": report.summary.frobenius_normalized,
            "mean_offdiag": report.summary.mean_offdiag,
            "std_offdiag": report.summary.std_offdiag,
            "gt_alignment": report.summary.gt_alignment,
            "verdict": report.summary.verdict,
        },
        "matrix": {
            "labels": list(report.matrix.labels),
            "measure": report.matrix.measure,
            "entries": [[float(v) for v in row] for row in report.matrix.entries],
        },
        "provenance": report.provenance,
    }
    return (json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def report_from_json(data: bytes | str) -> VerificationReport:
    obj = json.loads(data)
    matrix = SimilarityMatrix(
        entries=np.asarray(obj["matrix"]["entries"], dtype=np.float64),
        labels=tuple(obj["matrix"]["labels"]),
        measure=obj["matrix"]["measure"],
    )
    s = obj["summary"]
    summary = MatrixSummary(
        frobenius_normalized=s["frobenius_normalized"],
        mean_offdiag=s["mean_offdiag"],
        std_offdiag=s["std_offdiag"],
        gt_alignment=s["gt_alignment"],
        verdict=s["verdict"],
    )
    thresholds = ConfidenceThresholds(**obj["thresholds"])
    return VerificationReport(
        prompt_id=obj["prompt_id"],
        k=obj["k"],
        measure=obj["measure"],
        summary=summary,
        matrix=matrix,
        thresholds=thresholds,
        provenance=obj["provenance"],
    )


_SENTENCE_END = ".!?"
_CLOSERS = "\"')]}"


def _ends_sentence(token: str) -> bool:
    stripped = token.rstrip(_CLOSERS)
    return bool(stripped) and stripped[-1] in _SENTENCE_END


def chunk_document(document: str, max_tokens: int, overlap_tokens: int = 0) -> list[str]:
    """Split a document into whitespace-token chunks of at most max_tokens.

    Greedy packing that prefers to cut at a sentence boundary whenever one
    exists inside the window; consecutive chunks share overlap_tokens tokens,
    and stripping the overlaps reproduces the original token sequence.
    """
    if max_tokens < 25:
        raise ValueError("max_tokens must be >= 25")
    if not 0 <= overlap_tokens < max_tokens:
        raise ValueError("overlap_tokens must satisfy 0 <= overlap < max_tokens")
    tokens = document.split()
    if not tokens:
        raise EmptyDocument("document contains no tokens")

    chunks: list[str] = []
    start = 0
    while start < len(tokens):
        window_end = min(start + max_tokens, len(tokens))
        end = window_end
        if window_end < len(tokens):
            # Cut at the last sentence end in the window, provided the chunk
            # stays long enough to make progress past the overlap.
            for pos in range(window_end, start + overlap_tokens, -1):
                if _ends_sentence(tokens[pos - 1]):
                    end = pos
                    break
        chunks.append(" ".join(tokens[start:end]))
        if end == len(tokens):
            break
        start = end - overlap_tokens
    return chunks


def ingest_vectors(path: Path | str, model_id: str = "ingested") -> list[Embedding]:
    """Load precomputed vectors from a JSON Lines file (one array per line).

    This is the entry point for any modality whose embeddings are produced
    elsewhere (e.g. image embeddings); the result feeds straight into
    build_matrix / the eval harness.
    """
    path = Path(path)
    embeddings: list[Embedding] = []
    dim: int | None = None
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                values = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            if not isinstance(values, list) or not values or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
            ):
                raise ParseError(f"{path}:{lineno}: expected a non-empty JSON array of numbers")
            if dim is None:
                dim = len(values)
            elif len(values) != dim:
                raise RaggedDims(
                    f"{path}:{lineno}: vector has dim {len(values)}, expected {dim}"
                )
            try:
                values = np.asarray(values, dtype=np.float64)
                embeddings.append(Embedding(values, model_id=model_id))
            except (OverflowError, NonFiniteInput) as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
    if not embeddings:
        raise ParseError(f"{path}: no vectors found")
    return embeddings
