"""Clients for generation and embedding endpoints, plus an offline mock embedder.

All model access in the repo flows through this module. One record describes
each kind of request: a GeneratorConfig is a chat request, and an
EmbedderConfig names an embedder (an HTTP endpoint or the mock) that
pipeline.embed_cached runs. The wire protocol is JSON-over-HTTP with
chat-completions-shaped generation requests and embeddings-shaped embedding
requests (list input, one item per text); API keys are read from environment
variables only and never appear in config files or logs. Every request to one
endpoint goes through that endpoint's keep-alive session, whose connection
pool holds max_concurrency connections. Embeddings responses are parsed in
forked decoder processes (see parse_embeddings), chat responses in the thread
that read them.
"""

from __future__ import annotations

import atexit
import gc
import hashlib
import json
import logging
import math
import os
import pickle
import queue
import random
import re
import signal
import socket
import threading
import time
from dataclasses import dataclass, field, fields
from typing import NoReturn, Sequence
from urllib.parse import urlsplit

import numpy as np
import requests

from .document import INLINE
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


class AuthError(SampleCheckError):
    """Missing or rejected credentials."""


class TransportError(SampleCheckError):
    """Network-level failure that persisted through all retries."""


class MalformedResponse(SampleCheckError):
    """The endpoint answered, but not in the expected shape."""


class RejectedRequest(MalformedResponse):
    """The endpoint answered a request with a client error status (4xx other than 401/403/429)."""

    def __init__(self, status: int, url: str) -> None:
        super().__init__(f"unexpected HTTP {status} from {url}")
        self.status = status


class DimMismatch(SampleCheckError):
    """Endpoint returned an embedding whose length contradicts the model preset."""


class EmptyText(SampleCheckError):
    """Cannot embed empty or whitespace-only text."""


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
        url = urlsplit(self.base_url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"base_url must be an absolute http(s) URL, got {self.base_url!r}")
        try:
            port = url.port  # urlsplit parses the port only when it is read
        except ValueError as exc:
            raise ValueError(f"base_url {self.base_url!r}: {exc}") from None
        if port == 0:  # requests would send to the scheme's default port
            raise ValueError(f"base_url {self.base_url!r}: port must be in 1-65535")
        if not 0 < self.timeout < math.inf:
            raise ValueError("timeout must be finite and positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        if not 0 <= self.backoff_base < math.inf:
            raise ValueError("backoff_base must be finite and >= 0")


@dataclass(frozen=True)
class GeneratorConfig:
    """One chat request: which model, how to reach it, and how to sample.

    Every field after provider is a sampling setting (see sampling).
    """

    model_id: str
    provider: ProviderConfig = field(metadata=INLINE)  # its keys are the section's own
    temperature: float = 1.0
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

    @property
    def sampling(self) -> dict[str, object]:
        """Every setting that changes what a reply can be, None included, by field name.

        complete_once sends those that are not None; the cache key and a
        report's provenance hold all of them.
        """
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in ("model_id", "provider")}


@dataclass(frozen=True)
class EmbedderConfig:
    """Which embedder to use: an HTTP endpoint or the offline mock.

    kind "http" requires provider and model_id; kind "mock" is fully
    deterministic, takes no provider and needs only (dim, seed).
    """

    kind: str = "mock"
    model_id: str = ""
    provider: ProviderConfig | None = field(default=None, metadata=INLINE)
    dim: int = 4096
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("http", "mock"):
            raise ValueError("embedder kind must be 'http' or 'mock'")
        if self.kind == "http" and (self.provider is None or not self.model_id):
            missing = [key for key, value in (("base_url", self.provider),
                                              ("model_id", self.model_id)) if not value]
            raise ValueError(f"http embedder needs {' and '.join(missing)}")
        if self.kind == "mock" and self.provider is not None:
            raise ValueError("mock embedder takes no provider settings")
        if self.kind == "mock" and self.dim < 8:
            raise ValueError("mock embedding dim must be >= 8")

    @property
    def effective_model_id(self) -> str:
        if self.kind == "mock":
            return mock_model_id(self.dim, self.seed)
        return self.model_id


def _auth_headers(cfg: ProviderConfig) -> dict[str, str]:
    if not cfg.api_key_env:
        return {}
    key = os.environ.get(cfg.api_key_env)
    if key is None:
        raise AuthError(f"environment variable {cfg.api_key_env!r} is not set")
    return {"Authorization": f"Bearer {key}"}


_sessions: dict[ProviderConfig, requests.Session] = {}
# Chat endpoints that answered HTTP 400 to n > 1; every later request to them asks for one choice.
_single_choice: set[ProviderConfig] = set()
_sessions_lock = threading.Lock()


def _session(cfg: ProviderConfig) -> requests.Session:
    """The keep-alive session of one endpoint, created on first use.

    Its pool keeps up to max_concurrency connections open, so a fan-out of that
    width reuses them instead of opening one connection per request. The proxy
    and CA-bundle variables are read here, once; the session reads nothing else
    from the environment, so a netrc entry cannot replace the API key.
    """
    with _sessions_lock:
        session = _sessions.get(cfg)
        if session is None:
            session = requests.Session()
            session.trust_env = False
            session.proxies = requests.utils.get_environ_proxies(cfg.base_url)
            session.verify = (os.environ.get("REQUESTS_CA_BUNDLE")
                              or os.environ.get("CURL_CA_BUNDLE") or True)
            adapter = requests.adapters.HTTPAdapter(
                pool_connections=1, pool_maxsize=cfg.max_concurrency
            )
            session.mount("http://", adapter)
            session.mount("https://", adapter)
            _sessions[cfg] = session
        return session


def _url(cfg: ProviderConfig, path: str) -> str:
    return cfg.base_url.rstrip("/") + path


def _post(cfg: ProviderConfig, path: str, payload: dict) -> bytes:
    """POST with retries on transient failures; the body of the HTTP 200 answer.

    The wait before a retry is the delta-seconds of a 429 or 503 response's
    Retry-After header, capped at cfg.timeout; otherwise (no header, an
    HTTP-date, anything unparsable, or a network error) it is exponential
    backoff with jitter. Each attempt logs one debug event with sizes, latency
    and that wait only: request and response bodies hold prompts and vectors,
    and the key is redacted. A client error status raises RejectedRequest,
    which carries it. The body is read in one piece; a body cut short is a
    network error like a failed post.
    """
    url = _url(cfg, path)
    headers = {"Content-Type": "application/json", **_auth_headers(cfg)}
    auth = "<redacted>" if "Authorization" in headers else "none"
    data = json.dumps(payload, allow_nan=False).encode("utf-8")
    session = _session(cfg)
    last_exc: Exception | None = None
    wait: float | None = None
    for attempt in range(1, cfg.max_retries + 2):
        if wait is not None:
            time.sleep(wait)
        retry = attempt <= cfg.max_retries
        start = time.perf_counter()
        try:
            resp = session.post(url, data=data, headers=headers, timeout=cfg.timeout,
                                stream=True)
            with resp:
                content = b"".join(resp.iter_content(None))
        except requests.RequestException as exc:
            wait = _retry_wait(cfg, attempt, None) if retry else None
            _log_attempt(path, attempt, type(exc).__name__, auth, len(data), 0, start, wait)
            last_exc = exc
            continue
        transient = resp.status_code == 429 or resp.status_code >= 500
        wait = _retry_wait(cfg, attempt, resp) if transient and retry else None
        _log_attempt(path, attempt, resp.status_code, auth, len(data), len(content), start, wait)
        if resp.status_code in (401, 403):
            raise AuthError(f"endpoint rejected credentials (HTTP {resp.status_code})")
        if transient:
            last_exc = TransportError(f"HTTP {resp.status_code} from {url}")
            continue
        if resp.status_code != 200:
            raise RejectedRequest(resp.status_code, url)
        return content
    raise TransportError(
        f"request to {url} failed after {cfg.max_retries + 1} attempts: {last_exc}"
    ) from last_exc


def _json_object(content: bytes, url: str) -> dict:
    """A response body from url as the JSON object it must be."""
    try:
        body = json.loads(content)
    except ValueError as exc:
        raise MalformedResponse(f"non-JSON response from {url}") from exc
    if not isinstance(body, dict):
        raise MalformedResponse(f"expected a JSON object from {url}")
    return body


_DELTA_SECONDS = re.compile(r"[0-9]+")


def _retry_wait(cfg: ProviderConfig, attempt: int, resp: requests.Response | None) -> float:
    """Seconds to wait after a failed attempt (see _post)."""
    if resp is not None and resp.status_code in (429, 503):
        hint = resp.headers.get("Retry-After", "").strip()
        if _DELTA_SECONDS.fullmatch(hint):  # RFC 9110 10.2.3: delay-seconds
            return min(float(hint), cfg.timeout)
    return cfg.backoff_base * (2 ** (attempt - 1)) * (1.0 + random.random())


def _log_attempt(path: str, attempt: int, status: int | str, auth: str,
                 sent: int, received: int, start: float, wait: float | None) -> None:
    log.debug("POST %s attempt=%d status=%s auth=%s sent=%dB received=%dB%s %.1fms",
              path, attempt, status, auth, sent, received,
              "" if wait is None else f" wait={wait:.3f}s",
              (time.perf_counter() - start) * 1000.0)


def complete_once(prompt: str, gen: GeneratorConfig, n: int = 1) -> list[str]:
    """Request n independent completions of prompt in one request; their texts in choice order.

    The body holds gen's model, the prompt as one user message, n, and every
    sampling setting of gen that is not None. An endpoint may return fewer
    choices than n (one that ignores n returns one), never none or more. An
    endpoint that answers HTTP 400 to n > 1 is asked again with n = 1, and so is
    every later request to it in this process.

    Only the choices before the first empty (or all-whitespace) one are
    returned, since an empty reply cannot be embedded; MalformedResponse if
    choice 0 is empty.
    """
    with _sessions_lock:
        if gen.provider in _single_choice:
            n = 1
    payload = {
        "model": gen.model_id,
        "messages": [{"role": "user", "content": prompt}],
        "n": n,
        **{name: value for name, value in gen.sampling.items() if value is not None},
    }
    path = "/chat/completions"
    try:
        content = _post(gen.provider, path, payload)
    except RejectedRequest as exc:
        if exc.status != 400 or n == 1:
            raise
        with _sessions_lock:
            _single_choice.add(gen.provider)
        n = payload["n"] = 1
        content = _post(gen.provider, path, payload)
    body = _json_object(content, _url(gen.provider, path))
    choices = body.get("choices")
    if not isinstance(choices, list) or not 1 <= len(choices) <= n:
        raise MalformedResponse(f"completion response must hold 1 to {n} choices")
    texts = []
    for j, choice in enumerate(choices):
        try:
            text = choice["message"]["content"]
        except (KeyError, TypeError) as exc:
            raise MalformedResponse(f"completion choice {j} has no message.content") from exc
        if not isinstance(text, str):
            raise MalformedResponse(f"completion content of choice {j} is not a string")
        texts.append(text)
    leading = next((j for j, text in enumerate(texts) if not text.strip()), len(texts))
    if leading == 0:
        raise MalformedResponse("completion choice 0 is empty")
    return texts[:leading]


def post_embeddings(texts: Sequence[str], cfg: ProviderConfig, model_id: str) -> bytes:
    """The body of the answer to one embeddings request for texts, in list input
    form (see _post). pipeline.embed_cached refuses blank texts before it sends."""
    return _post(cfg, "/embeddings", {"model": model_id, "input": list(texts)})


def parse_embeddings(content: bytes, count: int, cfg: ProviderConfig,
                     model_id: str) -> list[Embedding]:
    """The count embeddings of a body post_embeddings returned, in input order.

    The body must carry exactly one item per text, indexed 0..count-1 in any
    order. Every item must pass the Embedding rule (a non-empty list of finite
    numbers; booleans and numeric strings are not numbers) and have the preset
    length of the model; else MalformedResponse or DimMismatch.

    An idle decoder process parses and checks the body (see _Decoder) while
    this thread waits without the GIL, so the bodies of concurrent requests are
    parsed on as many cores. If none is idle, as after a decoder died, this
    thread forks one: the one fork that may happen while other threads run.
    """
    url = _url(cfg, "/embeddings")
    try:
        decoder = _decoders.get_nowait()
    except queue.Empty:
        decoder = _Decoder()
    try:
        reply = decoder.ask(content, url, count, model_id)
    except (OSError, EOFError, pickle.UnpicklingError) as exc:
        raise DecoderExited(f"the decoder of a response from {url} ended before it "
                            f"answered (exit code {decoder.close()})") from exc
    except BaseException:  # an interrupt between request and reply: the decoder is out of step
        decoder.close()
        raise
    _decoders.put(decoder)
    if isinstance(reply, Exception):
        raise reply
    return [Embedding(row, model_id=model_id) for row in reply]


def _embedding_rows(content: bytes, url: str, count: int, model_id: str) -> list[np.ndarray]:
    """The values of each embedding of an embeddings response body, in input
    order; MalformedResponse or DimMismatch if the body breaks a rule of
    parse_embeddings."""
    data = _json_object(content, url).get("data")
    if not isinstance(data, list) or len(data) != count:
        raise MalformedResponse(f"embedding response must hold {count} items in 'data'")
    by_index: dict[int, object] = {}
    for item in data:
        index = item.get("index") if isinstance(item, dict) else None
        if type(index) is not int or not 0 <= index < count or index in by_index:
            raise MalformedResponse(
                f"embedding items must carry each index 0..{count - 1} once"
            )
        by_index[index] = item.get("embedding")
    return [_embedding(by_index[i], i, model_id).values for i in range(count)]


def _embedding(values: object, index: int, model_id: str) -> Embedding:
    try:
        emb = Embedding(values, model_id=model_id)
    except (NonFiniteInput, ValueError) as exc:
        raise MalformedResponse(f"endpoint returned an invalid embedding {index}: {exc}") from exc
    preset = PRESET_DIMS.get(model_id)
    if preset is not None and emb.dim != preset:
        raise DimMismatch(
            f"model {model_id!r} returned {emb.dim} values for input {index}, "
            f"preset expects {preset}"
        )
    return emb


class DecoderExited(SampleCheckError):
    """The process decoding a response ended before it answered."""


class _Decoder:
    """A forked process that answers each request (_embedding_rows' arguments)
    sent to it with _embedding_rows' result or the Exception it raised.

    Parsing a 4 x 4096 embeddings body takes about 11 ms (2-vCPU Xeon) that
    holds the GIL, so threads cannot share it. The decoder keeps no descriptor
    but its end of a socket pair, ignores SIGINT, so that an interrupted run
    still gets the answers it paid for, and exits when the socket closes. This
    process closes the socket of each idle decoder and reaps it at exit.
    """

    def __init__(self) -> None:
        self.sock, theirs = socket.socketpair()
        try:
            self.pid = os.fork()
        except OSError:
            self.sock.close()
            theirs.close()
            raise
        if self.pid == 0:
            _serve(theirs)
        theirs.close()
        self.reader = self.sock.makefile("rb")

    def ask(self, *request: object) -> object:
        self.sock.sendall(pickle.dumps(request, pickle.HIGHEST_PROTOCOL))
        return pickle.load(self.reader)

    def close(self) -> int:
        """Close the socket and reap the decoder; its exit code."""
        self.reader.close()
        self.sock.close()
        return os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])


def _serve(sock: socket.socket) -> NoReturn:
    """A decoder's life, in the child of the fork; it never returns to the caller."""
    try:
        gc.freeze()  # no collection here walks, or copies, the parent's objects
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        fd = sock.fileno()
        os.closerange(0, fd)
        os.closerange(fd + 1, os.sysconf("SC_OPEN_MAX"))
        reader = sock.makefile("rb")
        while True:
            try:
                request = pickle.load(reader)
            except EOFError:
                break
            try:
                reply = _embedding_rows(*request)
            except Exception as exc:  # raised again by the caller
                reply = exc
            sock.sendall(pickle.dumps(reply, pickle.HIGHEST_PROTOCOL))
    finally:
        os._exit(0)


# Idle decoders. One parse holds one at a time, so there are no more than
# parses ever ran at once: at most the threads of one embed stage's pool (see
# pipeline._cached_batches), two per request slot.
_decoders: queue.SimpleQueue[_Decoder] = queue.SimpleQueue()


def fork_decoders(count: int) -> None:
    """Fork decoders until count are idle.

    A fork copies only the thread that calls it, and a lock another thread
    holds stays held in the child. So call this while the calling thread is the
    process's only one, before the threads that send embeddings requests and
    parse their bodies start, with count the most parses that can run at once
    (up to 2 x max_concurrency in an embed stage); parse_embeddings forks one
    itself only when none is idle.
    """
    for _ in range(count - _decoders.qsize()):
        _decoders.put(_Decoder())


@atexit.register
def _close_decoders() -> None:
    """End and reap every idle decoder, so that none outlives this process as a zombie."""
    while True:
        try:
            decoder = _decoders.get_nowait()
        except queue.Empty:
            return
        decoder.close()


_TOKEN_SPLIT = re.compile(r"[^0-9a-z]+")


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric runs; drops empty tokens."""
    return [t for t in _TOKEN_SPLIT.split(text.lower()) if t]


def mock_model_id(dim: int, seed: int) -> str:
    """The model id of mock_embed's vectors for (dim, seed)."""
    return f"mock-d{dim}-s{seed}"


def mock_embed(text: str, dim: int, seed: int = 0) -> Embedding:
    """Deterministic offline bag-of-tokens embedding.

    Each token is hashed (keyed by the seed) into one of dim buckets with a
    +/-1 sign; token counts accumulate and the result is L2-normalized.
    Identical text always yields the identical vector, and the embedding is
    invariant under token permutation but sensitive to token counts. Like
    pipeline.embed_cached, it refuses only empty or whitespace-only text: a
    text with no token (punctuation or non-Latin script alone) gets one bucket
    derived from its stripped text.
    """
    if dim < 8:
        raise ValueError("mock embedding dim must be >= 8")
    if not text.strip():
        raise EmptyText("cannot embed empty text")
    tokens = tokenize(text)
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
        # No token, or hash collisions cancelled every count; fall back to a
        # single bucket derived from the sorted token multiset (keeps
        # permutation invariance), or from the stripped text if it has none.
        basis = (b"\x00".join(t.encode("utf-8") for t in sorted(tokens)) if tokens
                 else text.strip().encode("utf-8"))
        h = int.from_bytes(
            hashlib.blake2b(basis, digest_size=8, key=key).digest(), "little"
        )
        vec[h % dim] = 1.0
        norm = 1.0
    return Embedding(vec / norm, model_id=mock_model_id(dim, seed))
