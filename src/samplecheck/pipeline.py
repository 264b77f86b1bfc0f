"""End-to-end verification: sample, embed, score, summarize, persist.

Every run is backed by a disk cache so that re-runs skip completed provider
calls. Replies are cached per prompt key, which hashes the prompt, the
generation model and every sampling setting (GeneratorConfig.sampling); the
sample index is the file name. Embeddings live in one store at the
cache root, shared by every prompt and by the eval harness and keyed by the
SHA-256 of the text, so each distinct text is embedded once per model and a new
ground truth is simply a new key. Workers send and read, decoders parse, the
calling thread stores: provider worker threads only send requests and read
responses, each holding one of max_concurrency request slots until its
response body is read; forked decoder processes parse embeddings responses
after the slot is free (see providers.parse_embeddings), so the next request
is in flight meanwhile; and the calling thread writes each reply and each
embedding as soon as its request returns, so a failed or interrupted run
keeps the work it paid for.

Cache layout:
    <prompt key>/samples/<i>.txt          reply text, one file per index
    <prompt key>/meta.json                stage timestamps (stable on re-run)
    embeddings/<model dir>/<sha256>.npy   1-D little-endian float64 .npy
    <judge prompt key>/samples/0.txt      a judge reply (replies_cached)

float64 .npy round-trips every vector bit for bit, so a warm run on the same
machine reproduces the cold run's report exactly. Vectors of older layouts
(per prompt and index, <prompt key>/embeddings/...) are never opened: they
miss, are embedded again once, and are left on disk. A store file is valid
only if it is exactly the header np.save writes for a 1-D "<f8" array of
n >= 1 values, then those values, all finite; any other file raises
CorruptCacheEntry naming it, and so do a reply file that is not UTF-8 or
holds only whitespace and a meta.json that is not a JSON object of strings.
Nothing is ever evicted.

A model id that is not a plain file name ([0-9A-Za-z._-]+, not "." or "..")
gets an escaped directory name plus "~" and a hash of the id, so distinct ids
never share vectors. The mock embedder's directory is "~" and its model id, a
name that no http model id maps to.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import math
import os
import queue
import random
import re
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, fields, is_dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Hashable, Sequence

import numpy as np

from . import document, providers
from .errors import SampleCheckError
from .providers import EmbedderConfig, GeneratorConfig
from .scorematrix import (
    DEFAULT_THRESHOLDS,
    ConfidenceThresholds,
    MatrixSummary,
    SimilarityMatrix,
    build_matrix,
    summarize,
)
from .vectors import Embedding, NonFiniteInput

STAGE_GENERATE = "generate"
STAGE_EMBED = "embed"

# Texts per embeddings request. Parsing one 4096-value item of a response
# holds about 290 KB of transient Python objects, in the decoder process that
# parses it (see providers.parse_embeddings), so a decoder's peak memory grows
# with this value.
EMBED_BATCH = 4

# Most samples one chat request asks for (its "n"). verify asks for
# ceil(k / m) per request, where m = w * ceil(k / (GENERATE_BATCH * w)) is the
# fewest batches of at most GENERATE_BATCH that w = max_concurrency workers
# can share equally: no worker carries more samples than another. When an
# endpoint returns fewer choices than asked, the rest of a batch is a request
# of its own, queued behind the batches not yet sent, and the first free
# worker sends it. The cap bounds the size of one response and the samples one
# failed request covers, and stays under the n limits that providers put on
# one request.
GENERATE_BATCH = 16


class PartialFailure(SampleCheckError):
    """One or more provider calls failed after retries.

    failures maps every sample index ("gt" for the ground truth) the failed
    calls covered to the error; a chat request covers every index it asked a
    choice for, an embeddings request covers every index whose text was in its
    batch, and a blank text covers only its own. The run aborts rather
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
    """A cache file is not as the cache writes it: a reply file not UTF-8 or
    blank, a vector file not the .npy file of a 1-D float64 array, or a
    meta.json not a JSON object of strings."""

    def __init__(self, path: Path, reason: str) -> None:
        super().__init__(f"corrupt cache entry {path}: {reason}")
        self.path = path


@dataclass(frozen=True)
class VerificationReport:
    prompt_id: str
    k: int
    measure: str
    summary: MatrixSummary
    matrix: SimilarityMatrix
    thresholds: ConfidenceThresholds
    provenance: dict[str, object]

    def __post_init__(self) -> None:
        if self.k != self.matrix.reply_count:
            raise ValueError(f"k must be the integer {self.matrix.reply_count}, "
                             "the matrix's reply count")
        if self.measure != self.matrix.measure:
            raise ValueError(f"measure must be the matrix's, {self.matrix.measure!r}")


def prompt_hash(prompt: str, gen_cfg: GeneratorConfig) -> str:
    payload = json.dumps(
        {"prompt": prompt, "model_id": gen_cfg.model_id, **gen_cfg.sampling},
        sort_keys=True,
        ensure_ascii=False,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]


# A temporary is a new file, opened for writing, never through a symlink and
# never inherited by a child process.
_TEMP_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_NOFOLLOW | os.O_CLOEXEC


def _create_temporary(path: Path, mode: int) -> tuple[int, str]:
    """A new file path.name + "." + random hex next to path: (descriptor, name)."""
    while True:
        tmp = f"{path}.{random.getrandbits(48):012x}"
        try:
            return os.open(tmp, _TEMP_FLAGS, mode), tmp
        except FileExistsError:
            continue


def _atomic_write(path: Path, data: bytes, mode: int = 0o600) -> None:
    """Write data to path through a temporary file renamed into place.

    The file gets mode less the umask; the default keeps cache files private.
    The directory is made only when it is missing, and the bytes go through an
    unbuffered file: each cache write is few syscalls, and every syscall lets
    another thread take the GIL.
    """
    try:
        fd, tmp = _create_temporary(path, mode)
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = _create_temporary(path, mode)
    try:
        with os.fdopen(fd, "wb", buffering=0) as fh:
            view = memoryview(data)
            while view:
                view = view[fh.write(view):]
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
    call: Callable[[tuple], object],
    store: Callable[[Hashable, object], None],
    workers: int,
    prepare: Callable[[int], None] | None = None,
    finish: Callable[[tuple, object], list] | None = None,
) -> list:
    """Each key's value, in key order: from `load` if cached, else from `call`, then `store`d.

    Each distinct key is loaded once; those `load` returns None go to `call` in
    consecutive batches of at most `size`, all submitted at once to a pool of
    threads. A call holds one of `workers` slots while it runs, so at most
    `workers` calls are in flight, and calls take slots in the order their
    batches were submitted. `call` returns the batch's results, or, if
    `finish` is given, an answer that `finish(batch, answer)` turns into them
    once the slot is free: the pool then has 2 * workers threads, so each slot
    has a spare thread, and a finish never keeps a call waiting. Before the
    pool starts, `prepare`, if given, is called with the most batches the pool
    can hold at once. The results are those of a leading part of the batch, at
    least one; the rest of the batch is then submitted as a call of its own,
    behind those already queued. Workers only call and finish: the calling
    thread takes each batch as it ends and passes its results to `store`, so a
    later failure cannot discard them and no worker waits on a file write
    before its next call. If a call or its finish fails, PartialFailure names
    every position of `keys` holding the keys its batch still lacked. If a
    `store` raises, every other result is still stored, then the first such
    error is raised. A call or finish that raises a BaseException other than an
    Exception, such as SystemExit, has it raised once every other result is
    stored. If anything else leaves the loop, such as a KeyboardInterrupt, no
    call starts after it but those already running (a worker that gets a slot
    afterwards returns without calling), and every result that arrived is
    stored before it is raised again.
    """
    results = {key: load(key) for key in dict.fromkeys(keys)}
    missing = [key for key, value in results.items() if value is None]
    unsent = [tuple(missing[i:i + size]) for i in range(0, len(missing), size)]
    batches: dict[Future, tuple] = {}  # each call whose results are not all stored, and its batch
    ended: queue.SimpleQueue = queue.SimpleQueue()  # each call's future as it ends
    failures: dict[Hashable, BaseException] = {}
    store_error: Exception | None = None

    def keep(batch: tuple, values: list) -> None:
        """Store each value of batch's keys not stored yet."""
        nonlocal store_error
        for key, value in zip(batch, values):
            if results[key] is None:
                results[key] = value
                try:
                    store(key, value)
                except Exception as exc:  # the other results are still stored
                    store_error = store_error or exc

    threads = workers if finish is None else 2 * workers
    slots = threading.BoundedSemaphore(workers)
    stopped = threading.Event()  # set when anything leaves the loop
    turn = threading.Event()  # set once the last batch submitted may take a slot
    turn.set()

    def run(batch: tuple, mine: threading.Event, after: threading.Event) -> list:
        mine.wait()  # batches take slots in the order they were submitted
        with slots:
            after.set()
            if stopped.is_set():  # the loop was left while this waited for its slot
                return []
            answer = call(batch)
        return answer if finish is None else finish(batch, answer)

    if unsent and prepare is not None:
        prepare(min(len(unsent), threads))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        try:
            while unsent or batches:
                for batch in unsent:
                    mine, turn = turn, threading.Event()
                    future = pool.submit(run, batch, mine, turn)
                    batches[future] = batch
                    future.add_done_callback(ended.put)
                unsent = []
                future = ended.get()
                batch = batches[future]
                try:
                    values = future.result()
                    if not values:
                        raise ValueError(f"stage {stage!r} got no result for a batch")
                except BaseException as exc:  # collected, re-raised once the rest is stored
                    failures.update(dict.fromkeys(batch, exc))
                else:
                    keep(batch, values)
                    if len(values) < len(batch):
                        unsent.append(batch[len(values):])
                del batches[future]
        except BaseException:
            stopped.set()
            pool.shutdown(cancel_futures=True)  # waits for the calls and finishes running
            for future, batch in batches.items():
                if not future.cancelled() and future.exception() is None:
                    keep(batch, future.result())
            raise
    for exc in failures.values():
        if not isinstance(exc, Exception):
            raise exc
    if store_error is not None:
        raise store_error
    if failures:
        raise PartialFailure(stage, {i: failures[key] for i, key in enumerate(keys)
                                     if key in failures})
    return [results[key] for key in keys]


# Cached embeddings are stored in this dtype whatever the host's byte order.
_VECTOR_DTYPE = np.dtype("<f8")


@functools.lru_cache(maxsize=16)
def _npy_header(n: int) -> bytes:
    """The .npy v1.0 header np.save writes for a 1-D array of n _VECTOR_DTYPE values."""
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(buf, {
        "descr": _VECTOR_DTYPE.str,
        "fortran_order": False,
        "shape": (n,),
    })
    return buf.getvalue()


@functools.lru_cache(maxsize=16)
def _model_dir(root: Path, model_id: str, mock: bool) -> Path:
    """The vector store directory of one model under a cache root."""
    if mock:  # no name below starts with "~"
        return root / "embeddings" / ("~" + model_id)
    name = re.sub(r"[^0-9A-Za-z._-]+", "_", model_id)
    if name != model_id or name in (".", ".."):
        # The escaped name never holds "~", so the suffix keeps ids apart.
        name += "~" + hashlib.sha256(model_id.encode("utf-8")).hexdigest()[:16]
    return root / "embeddings" / name


class _Cache:
    """Disk cache: a vector store (the mock's if mock), one prompt's replies and timestamps."""

    def __init__(self, root: Path, prompt_key: str = "", mock: bool = False) -> None:
        self.root = root
        self.dir = root / prompt_key
        self.mock = mock

    def sample_path(self, index: int) -> Path:
        return self.dir / "samples" / f"{index}.txt"

    def embedding_path(self, model_id: str, text: str) -> Path:
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        return _model_dir(self.root, model_id, self.mock) / f"{digest}.npy"

    def load_text(self, index: int) -> str | None:
        """The stored reply; None if there is no file, CorruptCacheEntry if the
        file is not UTF-8 or holds only whitespace, which no reply can be."""
        p = self.sample_path(index)
        try:
            text = p.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except UnicodeDecodeError as exc:
            raise CorruptCacheEntry(p, str(exc)) from exc
        if not text.strip():
            raise CorruptCacheEntry(p, "blank reply")
        return text

    def store_text(self, index: int, text: str) -> None:
        _atomic_write(self.sample_path(index), text.encode("utf-8"))

    def load_embedding(self, model_id: str, text: str) -> Embedding | None:
        """The stored vector; None if there is no file, CorruptCacheEntry if the
        file is anything but _npy_header(n) followed by n >= 1 values."""
        p = self.embedding_path(model_id, text)
        try:
            data = p.read_bytes()
        except FileNotFoundError:
            return None
        # Bytes 8-9 of a v1.0 header hold the length of the rest of it.
        start = 10 + int.from_bytes(data[8:10], "little")
        n, odd = divmod(len(data) - start, _VECTOR_DTYPE.itemsize)
        if n < 1 or odd or data[:start] != _npy_header(n):
            raise CorruptCacheEntry(p, f"not a .npy file of a 1-D {_VECTOR_DTYPE} array "
                                       "of at least one value")
        try:
            return Embedding(np.frombuffer(data, _VECTOR_DTYPE, offset=start), model_id=model_id)
        except NonFiniteInput as exc:
            raise CorruptCacheEntry(p, str(exc)) from exc

    def store_embedding(self, model_id: str, text: str, emb: Embedding) -> None:
        values = emb.values.astype(_VECTOR_DTYPE, copy=False)
        _atomic_write(self.embedding_path(model_id, text),
                      _npy_header(values.size) + values.tobytes())

    def update_meta(self, updates: dict) -> dict:
        """meta.json with the keys it lacks added; a key once set never changes.
        CorruptCacheEntry if the file is anything but a JSON object of strings."""
        p = self.dir / "meta.json"
        try:
            meta = json.loads(p.read_text(encoding="utf-8"))
        except FileNotFoundError:
            meta = {}
        except ValueError as exc:  # not UTF-8, or not JSON
            raise CorruptCacheEntry(p, str(exc)) from exc
        if not isinstance(meta, dict) or not all(isinstance(v, str) for v in meta.values()):
            raise CorruptCacheEntry(p, "not a JSON object of strings")
        if not updates.keys() <= meta.keys():
            meta = {**updates, **meta}
            _atomic_write(p, json.dumps(meta, sort_keys=True, indent=2).encode("utf-8"))
        return meta


def embed_cached(
    texts: Sequence[str], embed_cfg: EmbedderConfig, cache_dir: Path | str
) -> list[Embedding]:
    """Each text's embedding, in order, through the vector store under cache_dir.

    Misses go out EMBED_BATCH per request, up to the endpoint's max_concurrency
    requests at a time (the mock embedder runs serially); see _cached_batches.
    An http endpoint's bodies are parsed as its finish, so a request slot is
    free again as soon as its body has been read. Blank (empty or whitespace
    only) texts are refused before anything is loaded or sent: PartialFailure
    names exactly their positions, all with one EmptyText.
    """
    blank = [i for i, text in enumerate(texts) if not text.strip()]
    if blank:
        raise PartialFailure(STAGE_EMBED, dict.fromkeys(
            blank, providers.EmptyText("cannot embed empty text")))
    mock = embed_cfg.kind == "mock"
    cache = _Cache(Path(cache_dir), mock=mock)
    model_id = embed_cfg.effective_model_id
    load = functools.partial(cache.load_embedding, model_id)
    store = functools.partial(cache.store_embedding, model_id)
    if mock:
        return _cached_batches(
            STAGE_EMBED, texts, load, EMBED_BATCH,
            lambda batch: [providers.mock_embed(t, embed_cfg.dim, embed_cfg.seed) for t in batch],
            store, 1)
    provider = embed_cfg.provider
    return _cached_batches(
        STAGE_EMBED, texts, load, EMBED_BATCH,
        lambda batch: providers.post_embeddings(batch, provider, model_id), store,
        provider.max_concurrency, providers.fork_decoders,
        lambda batch, body: providers.parse_embeddings(body, len(batch), provider, model_id),
    )


def replies_cached(prompts: Sequence[str], gen: GeneratorConfig, cache_dir: Path | str,
                   check: Callable[[str], object]) -> list[str]:
    """One reply to each prompt, in order: sample 0 of prompt_hash(prompt, gen) under
    cache_dir, else one chat request for one choice (see _cached_batches). A reply
    that check(reply) raises on fails its prompts and is never stored."""
    root = Path(cache_dir)

    def call(batch: tuple) -> list[str]:
        [reply] = providers.complete_once(batch[0], gen)
        check(reply)
        return [reply]

    return _cached_batches(
        STAGE_GENERATE, prompts, lambda p: _Cache(root, prompt_hash(p, gen)).load_text(0), 1,
        call, lambda p, reply: _Cache(root, prompt_hash(p, gen)).store_text(0, reply),
        gen.provider.max_concurrency)


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

    # Stage 1: generate (or load) the k replies. One chat request asks for a
    # choice per missing index of its batch, and choice j becomes the batch's
    # j-th index. The n choices of one request are independent samples at the
    # same settings, so n is not part of the cache key.
    workers = gen_cfg.provider.max_concurrency
    size = math.ceil(k / (workers * math.ceil(k / (GENERATE_BATCH * workers))))
    replies = _cached_batches(
        STAGE_GENERATE, range(k), cache.load_text, size,
        lambda batch: providers.complete_once(prompt, gen_cfg, len(batch)), cache.store_text,
        workers,
    )
    cache.update_meta({"generated_at": _now_iso()})

    # Stage 2: embed the replies and, at position k, the ground truth.
    try:
        vectors = embed_cached(replies + ([] if gt is None else [gt]), embed_cfg, cache_dir)
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
            **gen_cfg.sampling,
            "generated_at": meta["generated_at"],
            "embedded_at": meta[embed_meta_key],
        },
    )


def _field_map(obj: object) -> dict[str, object]:
    """Each dataclass field of obj by name, values as they are (no deep copy)."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def report_json_bytes(report: VerificationReport) -> bytes:
    """Canonical JSON serialization: stable key order, full float precision.

    The object holds exactly the fields of VerificationReport, each nested
    dataclass as an object of its own fields. The layout is
    json.dumps(..., sort_keys=True, indent=2). The entries block is spliced in
    as that layout writes it, so the pure-Python encoder that indent forces
    never walks the n-by-n matrix.
    """
    obj = {name: _field_map(value) if is_dataclass(value) else value
           for name, value in _field_map(report).items()}
    # Placeholder: only the integer k is dumped before it, so the first "NaN"
    # of the text is this one, whatever the strings after it hold.
    obj["matrix"]["entries"] = math.nan
    text = json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False)
    rows = report.matrix.entry_reprs
    block = ("[\n      [\n        "
             + "\n      ],\n      [\n        ".join(",\n        ".join(row) for row in rows)
             + "\n      ]\n    ]")
    return (text.replace("NaN", block, 1) + "\n").encode("utf-8")


def report_from_json(data: bytes | str) -> VerificationReport:
    """The report that report_json_bytes wrote as data, read exact by
    document.read: DocumentError ("not a samplecheck report: ...") if it is not
    of that shape, ValueError if its fields disagree."""
    try:
        return document.read(VerificationReport, document.loads(data), exact=True)
    except document.DocumentError as exc:
        raise document.DocumentError(f"not a samplecheck report: {exc}") from exc
