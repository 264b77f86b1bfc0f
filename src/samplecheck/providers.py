"""Clients for generation and embedding endpoints, plus an offline mock embedder.

All model access in the repo flows through this module. The wire protocol is
JSON-over-HTTP with chat-completions-shaped generation requests and
embeddings-shaped embedding requests (list input, one item per text); API keys
are read from environment variables only and never appear in config files or
logs. Every request to one endpoint goes through that endpoint's keep-alive
session, whose connection pool holds max_concurrency connections.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import random
import re
import threading
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import requests

from .errors import SampleCheckError
from .vectors import Embedding, NonFiniteInput

log = logging.getLogger(__name__)

# Default embedding dimensionality per known model preset. Endpoints returning
# a different length for these models are treated as misbehaving.
PRESET_DIMS: dict[str, int] = {
    "gpt-text-embedding-large": 3072,
    "sfr-embedding-mistral": 4096,
    "e5-mistral-7b-instruct": 4096,
    "gte-qwen1.5-7b-instruct": 4096,
    "stella-en-1.5b-v5": 4096,
    "stella-en-400m-v5": 4096,
    "deberta-xlarge-mnli": 1024,
    "roberta-large": 1024,
    "clip-vit-large": 768,
}

DEFAULT_TEMPERATURE = 1.0


class AuthError(SampleCheckError):
    """Missing or rejected credentials."""


class TransportError(SampleCheckError):
    """Network-level failure that persisted through all retries."""


class MalformedResponse(SampleCheckError):
    """The endpoint answered, but not in the expected shape."""


class DimMismatch(SampleCheckError):
    """Endpoint returned an embedding whose length contradicts the model preset."""


class EmptyText(SampleCheckError):
    """Cannot embed empty text (or text with no tokens)."""


@dataclass(frozen=True)
class ProviderConfig:
    """Connection settings for one HTTP endpoint."""

    base_url: str
    api_key_env: str | None = None
    timeout: float = 30.0
    max_retries: int = 3
    max_concurrency: int = 4
    backoff_base: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.timeout < math.inf:
            raise ValueError("timeout must be finite and positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        if not 0 <= self.backoff_base < math.inf:
            raise ValueError("backoff_base must be finite and >= 0")


def _auth_headers(cfg: ProviderConfig) -> dict[str, str]:
    if not cfg.api_key_env:
        return {}
    key = os.environ.get(cfg.api_key_env)
    if key is None:
        raise AuthError(f"environment variable {cfg.api_key_env!r} is not set")
    return {"Authorization": f"Bearer {key}"}


_sessions: dict[ProviderConfig, requests.Session] = {}
_sessions_lock = threading.Lock()


def _session(cfg: ProviderConfig) -> requests.Session:
    """The keep-alive session of one endpoint, created on first use.

    Its pool keeps up to max_concurrency connections open, so a fan-out of that
    width reuses them instead of opening one connection per request.
    """
    with _sessions_lock:
        session = _sessions.get(cfg)
        if session is None:
            session = requests.Session()
            adapter = requests.adapters.HTTPAdapter(
                pool_connections=1, pool_maxsize=cfg.max_concurrency
            )
            session.mount("http://", adapter)
            session.mount("https://", adapter)
            _sessions[cfg] = session
        return session


def _post_json(cfg: ProviderConfig, path: str, payload: dict) -> dict:
    """POST with retries (exponential backoff + jitter) on transient failures.

    Each attempt logs one debug event with sizes and latency only: request
    and response bodies hold prompts and vectors, and the key is redacted.
    """
    url = cfg.base_url.rstrip("/") + path
    headers = {"Content-Type": "application/json", **_auth_headers(cfg)}
    auth = "<redacted>" if "Authorization" in headers else "none"
    data = json.dumps(payload, allow_nan=False).encode("utf-8")
    session = _session(cfg)
    last_exc: Exception | None = None
    for attempt in range(1, cfg.max_retries + 2):
        if attempt > 1:
            delay = cfg.backoff_base * (2 ** (attempt - 2)) * (1.0 + random.random())
            time.sleep(delay)
        start = time.perf_counter()
        try:
            resp = session.post(url, data=data, headers=headers, timeout=cfg.timeout)
        except requests.RequestException as exc:
            _log_attempt(path, attempt, type(exc).__name__, auth, len(data), 0, start)
            last_exc = exc
            continue
        _log_attempt(path, attempt, resp.status_code, auth, len(data), len(resp.content), start)
        if resp.status_code in (401, 403):
            raise AuthError(f"endpoint rejected credentials (HTTP {resp.status_code})")
        if resp.status_code == 429 or resp.status_code >= 500:
            last_exc = TransportError(f"HTTP {resp.status_code} from {url}")
            continue
        if resp.status_code != 200:
            raise MalformedResponse(f"unexpected HTTP {resp.status_code} from {url}")
        try:
            body = resp.json()
        except ValueError as exc:
            raise MalformedResponse(f"non-JSON response from {url}") from exc
        if not isinstance(body, dict):
            raise MalformedResponse(f"expected a JSON object from {url}")
        return body
    raise TransportError(
        f"request to {url} failed after {cfg.max_retries + 1} attempts: {last_exc}"
    ) from last_exc


def _log_attempt(path: str, attempt: int, status: int | str, auth: str,
                 sent: int, received: int, start: float) -> None:
    log.debug("POST %s attempt=%d status=%s auth=%s sent=%dB received=%dB %.1fms",
              path or "/", attempt, status, auth, sent, received,
              (time.perf_counter() - start) * 1000.0)


def complete_once(
    prompt: str,
    cfg: ProviderConfig,
    *,
    model_id: str,
    temperature: float = DEFAULT_TEMPERATURE,
    max_tokens: int = 1024,
    top_p: float | None = None,
    top_k: int | None = None,
) -> str:
    """Request a single completion (no shared conversation state)."""
    payload: dict = {
        "model": model_id,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": temperature,
        "max_tokens": max_tokens,
        "n": 1,
    }
    if top_p is not None:
        payload["top_p"] = top_p
    if top_k is not None:
        payload["top_k"] = top_k
    body = _post_json(cfg, "/chat/completions", payload)
    try:
        text = body["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError) as exc:
        raise MalformedResponse("completion response missing choices[0].message.content") from exc
    if not isinstance(text, str):
        raise MalformedResponse("completion content is not a string")
    return text


def embed_many(texts: Sequence[str], cfg: ProviderConfig, model_id: str) -> list[Embedding]:
    """Embed texts in one request (list input); results follow the input order.

    The response must carry exactly one item per text, indexed 0..n-1 in any
    order, and every item must be a finite list of numbers with the preset
    length of the model.
    """
    if not texts:
        return []
    for i, text in enumerate(texts):
        if not text.strip():
            raise EmptyText(f"cannot embed empty text (input {i})")
    body = _post_json(cfg, "/embeddings", {"model": model_id, "input": list(texts)})
    data = body.get("data")
    if not isinstance(data, list) or len(data) != len(texts):
        raise MalformedResponse(
            f"embedding response must hold {len(texts)} items in 'data'"
        )
    by_index: dict[int, object] = {}
    for item in data:
        index = item.get("index") if isinstance(item, dict) else None
        if type(index) is not int or not 0 <= index < len(texts) or index in by_index:
            raise MalformedResponse(
                f"embedding items must carry each index 0..{len(texts) - 1} once"
            )
        by_index[index] = item.get("embedding")
    return [_embedding(by_index[i], i, model_id) for i in range(len(texts))]


def _embedding(values: object, index: int, model_id: str) -> Embedding:
    if not isinstance(values, list) or not all(isinstance(v, (int, float)) for v in values):
        raise MalformedResponse(f"embedding {index} is not a list of numbers")
    preset = PRESET_DIMS.get(model_id)
    if preset is not None and len(values) != preset:
        raise DimMismatch(
            f"model {model_id!r} returned {len(values)} values for input {index}, "
            f"preset expects {preset}"
        )
    try:
        return Embedding(np.asarray(values, dtype=np.float64), model_id=model_id)
    except (NonFiniteInput, ValueError) as exc:
        raise MalformedResponse(f"endpoint returned an invalid embedding {index}: {exc}") from exc


def embed_text(text: str, cfg: ProviderConfig, model_id: str) -> Embedding:
    """Embed one text: the one-element case of embed_many."""
    return embed_many([text], cfg, model_id)[0]


_TOKEN_SPLIT = re.compile(r"[^0-9a-z]+")


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric runs; drops empty tokens."""
    return [t for t in _TOKEN_SPLIT.split(text.lower()) if t]


def mock_embed(text: str, dim: int, seed: int = 0) -> Embedding:
    """Deterministic offline bag-of-tokens embedding.

    Each token is hashed (keyed by the seed) into one of dim buckets with a
    +/-1 sign; token counts accumulate and the result is L2-normalized.
    Identical text always yields the identical vector, and the embedding is
    invariant under token permutation but sensitive to token counts.
    """
    if dim < 8:
        raise ValueError("mock embedding dim must be >= 8")
    tokens = tokenize(text)
    if not tokens:
        raise EmptyText("cannot embed text with no tokens")
    key = seed.to_bytes(16, "little", signed=True)
    vec = np.zeros(dim, dtype=np.float64)
    for token in tokens:
        h = int.from_bytes(
            hashlib.blake2b(token.encode("utf-8"), digest_size=8, key=key).digest(), "little"
        )
        sign = 1.0 if (h >> 63) & 1 == 0 else -1.0
        vec[h % dim] += sign
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        # Hash collisions cancelled every count; fall back to a single bucket
        # derived from the sorted token multiset (keeps permutation invariance).
        h = int.from_bytes(
            hashlib.blake2b(b"\x00".join(t.encode("utf-8") for t in sorted(tokens)),
                            digest_size=8, key=key).digest(), "little"
        )
        vec[h % dim] = 1.0
        norm = 1.0
    return Embedding(vec / norm, model_id=f"mock-d{dim}-s{seed}")
