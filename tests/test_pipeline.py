"""Pipeline orchestration: staging, caching, chunking, vector ingestion."""

from __future__ import annotations

import hashlib
import io
import json
import math
import pickle
import re
import shutil
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from samplecheck.pipeline import (
    EMBED_BATCH,
    CorruptCacheEntry,
    EmbedderConfig,
    EmptyDocument,
    GeneratorConfig,
    ParseError,
    PartialFailure,
    RaggedDims,
    chunk_document,
    ingest_vectors,
    report_from_json,
    report_json_bytes,
    verify,
    _Cache,
)
from samplecheck.providers import ProviderConfig, mock_embed
from samplecheck.scorematrix import build_matrix, summarize
from samplecheck.vectors import Embedding


def gen_cfg(stub, **kwargs) -> GeneratorConfig:
    provider = ProviderConfig(
        base_url=stub.url, timeout=5.0, max_retries=1, max_concurrency=1, backoff_base=0.001
    )
    return GeneratorConfig(model_id="stub-model", provider=provider, **kwargs)


MOCK = EmbedderConfig(kind="mock", dim=4096, seed=0)


def http_embedder(stub, max_concurrency=1, model_id="stub-embed") -> EmbedderConfig:
    return EmbedderConfig(
        kind="http",
        model_id=model_id,
        provider=ProviderConfig(base_url=stub.url, timeout=5.0, max_retries=0,
                                max_concurrency=max_concurrency, backoff_base=0.001),
    )


def fail_requests(stub, numbers):
    """Make the stub answer HTTP 500 to the given (1-based) requests of any kind."""
    lock = threading.Lock()
    served = {"n": 0}

    def next_failure():
        with lock:
            served["n"] += 1
            return 500 if served["n"] in numbers else None

    stub.state.next_failure = next_failure


def vector_names(texts) -> list[str]:
    """The store's file names for these texts, sorted."""
    return sorted(hashlib.sha256(t.encode("utf-8")).hexdigest() + ".npy" for t in set(texts))


def vector_path(cache: Path, model_id: str, text: str) -> Path:
    return _Cache(cache).embedding_path(model_id, text)


DISJOINT = [
    " ".join(f"alpha{i}" for i in range(40)),
    " ".join(f"beta{i}" for i in range(40)),
    " ".join(f"gamma{i}" for i in range(40)),
]


class TestVerify:
    def test_identical_replies_high_confidence(self, stub, tmp_path):
        stub.state.chat_replies = ["the same answer every time"]
        report = verify("q", None, 3, gen_cfg(stub), MOCK, cache_dir=tmp_path / "cache")
        assert report.summary.mean_offdiag == 1.0
        assert report.summary.verdict == "HighConfidence"
        assert report.k == 3 and report.matrix.order == 3

    def test_disjoint_replies_inspect(self, stub, tmp_path):
        stub.state.chat_replies = DISJOINT
        report = verify("q", None, 3, gen_cfg(stub), MOCK, cache_dir=tmp_path / "cache")
        assert report.summary.mean_offdiag < 0.1
        assert report.summary.verdict == "Inspect"

    def test_gt_included(self, stub, tmp_path):
        stub.state.chat_replies = ["answer text one two three"]
        report = verify(
            "q", "answer text one two three", 2, gen_cfg(stub), MOCK,
            cache_dir=tmp_path / "cache",
        )
        assert report.matrix.labels[-1] == "GT"
        assert report.summary.gt_alignment == pytest.approx(1.0)

    def test_k_below_two_rejected(self, stub, tmp_path):
        with pytest.raises(ValueError):
            verify("q", None, 1, gen_cfg(stub), MOCK, cache_dir=tmp_path)

    def test_cache_replay_zero_network_calls(self, stub, tmp_path):
        stub.state.chat_replies = [f"reply variant {i} with words" for i in range(10)]
        cache = tmp_path / "cache"
        first = verify("extract each defined term", None, 10, gen_cfg(stub), MOCK,
                       cache_dir=cache)
        calls_after_first = len(stub.state.requests)
        assert calls_after_first == 10
        second = verify("extract each defined term", None, 10, gen_cfg(stub), MOCK,
                        cache_dir=cache)
        assert len(stub.state.requests) == calls_after_first
        assert report_json_bytes(first) == report_json_bytes(second)

    def test_cache_replay_with_http_embedder(self, stub, tmp_path):
        stub.state.chat_replies = ["one", "two"]
        stub.state.embed_fn = lambda text, model: [float(len(text)), 1.0, 0.0, 0.5]
        embed = EmbedderConfig(
            kind="http",
            model_id="stub-embed",
            provider=ProviderConfig(base_url=stub.url, timeout=5.0, max_retries=0,
                                    max_concurrency=1, backoff_base=0.001),
        )
        cache = tmp_path / "cache"
        first = verify("q", "gt text", 2, gen_cfg(stub), embed, cache_dir=cache)
        first_bytes = report_json_bytes(first)
        calls = len(stub.state.requests)

        # The cached samples + embeddings must reproduce the identical report
        # with zero provider calls.
        second = verify("q", "gt text", 2, gen_cfg(stub), embed, cache_dir=cache)
        assert len(stub.state.requests) == calls
        assert report_json_bytes(second) == first_bytes

    def test_cache_layout(self, stub, tmp_path):
        stub.state.chat_replies = ["x y z"]
        cache = tmp_path / "cache"
        report = verify("prompt text", "gt", 2, gen_cfg(stub), MOCK, cache_dir=cache)
        model_id = report.provenance["embedding_model_id"]
        files = sorted(p.relative_to(cache).as_posix() for p in cache.rglob("*") if p.is_file())
        # Both replies are "x y z", so the store holds one vector for them.
        assert files == sorted(
            [f"{report.prompt_id}/{name}" for name in ("meta.json", "samples/0.txt",
                                                       "samples/1.txt")]
            + [f"embeddings/{model_id}/{name}" for name in vector_names(["x y z", "gt"])])
        for text in ("x y z", "gt"):
            values = np.load(vector_path(cache, model_id, text), allow_pickle=False)
            assert values.ndim == 1 and values.dtype == np.float64
            assert np.array_equal(values, mock_embed(text, MOCK.dim, MOCK.seed).values)

    def test_model_ids_that_escape_alike_keep_separate_vectors(self, stub, tmp_path):
        stub.state.chat_replies = ["one two", "three four"]
        stub.state.embed_fn = lambda text, model: (
            [1.0, 0.0, 0.0, 0.0] if model == "org/m" else [float(len(text)), 1.0, 0.0, 0.5])
        cache = tmp_path / "cache"
        first = verify("q", None, 2, gen_cfg(stub), http_embedder(stub, model_id="org/m"),
                       cache_dir=cache)
        assert first.summary.mean_offdiag == 1.0
        embed_calls = stub.state.embed_calls
        second = verify("q", None, 2, gen_cfg(stub), http_embedder(stub, model_id="org_m"),
                        cache_dir=cache)
        fresh = verify("q", None, 2, gen_cfg(stub), http_embedder(stub, model_id="org_m"),
                       cache_dir=tmp_path / "fresh")
        assert stub.state.embed_calls == embed_calls + 2
        assert second.summary == fresh.summary
        assert second.summary.mean_offdiag < 1.0
        names = sorted(p.name for p in (cache / "embeddings").iterdir())
        assert names[0] == "org_m"
        assert names[1].startswith("org_m~") and len(names[1]) == len("org_m~") + 16

    @pytest.mark.parametrize("model_id", [".", ".."])
    def test_dot_model_ids_stay_inside_the_embeddings_dir(self, stub, tmp_path, model_id):
        cache = tmp_path / "cache"
        verify("q", None, 2, gen_cfg(stub), http_embedder(stub, model_id=model_id),
               cache_dir=cache)
        vectors = list((cache / "embeddings").glob("*/*.npy"))
        assert len(vectors) == 1  # both replies are the stub's one reply
        assert all(p.parent.name.startswith(model_id + "~") for p in vectors)

    def test_changed_gt_invalidates_gt_embedding(self, stub, tmp_path):
        stub.state.chat_replies = ["x y z"]
        cache = tmp_path / "cache"
        first = verify("p", "x y z", 2, gen_cfg(stub), MOCK, cache_dir=cache)
        assert first.summary.gt_alignment == pytest.approx(1.0)
        # a stale cached GT embedding would keep alignment at 1.0
        second = verify("p", "totally different words", 2, gen_cfg(stub), MOCK, cache_dir=cache)
        assert second.summary.gt_alignment < 0.5

    def test_changed_gt_invalidates_gt_embedding_of_every_embedder(self, stub, tmp_path):
        stub.state.chat_replies = ["x y z"]
        embed_a = MOCK
        embed_b = EmbedderConfig(kind="mock", dim=4096, seed=1)
        cache = tmp_path / "cache"
        verify("p", "x y z", 2, gen_cfg(stub), embed_b, cache_dir=cache)
        verify("p", "totally different words", 2, gen_cfg(stub), embed_a, cache_dir=cache)
        # embedder B's cached GT vector still encodes "x y z"; reusing it
        # would report an alignment of 1.0
        third = verify("p", "totally different words", 2, gen_cfg(stub), embed_b,
                       cache_dir=cache)
        fresh = verify("p", "totally different words", 2, gen_cfg(stub), embed_b,
                       cache_dir=tmp_path / "fresh")
        assert third.summary == fresh.summary
        assert third.summary.gt_alignment < 0.5

    def test_changed_gt_keeps_old_gt_vector_and_serves_the_new_one(self, stub, tmp_path):
        # A new GT text is a new key: the old GT's vector stays in the store of
        # every embedder, and is not what the new GT is scored with.
        stub.state.chat_replies = ["x y z"]
        seed1 = EmbedderConfig(kind="mock", dim=4096, seed=1)
        cache = tmp_path / "cache"
        verify("p", "old words", 2, gen_cfg(stub), seed1, cache_dir=cache)
        verify("p", "old words", 2, gen_cfg(stub), MOCK, cache_dir=cache)
        report = verify("p", "other words", 2, gen_cfg(stub), MOCK, cache_dir=cache)
        fresh = verify("p", "other words", 2, gen_cfg(stub), MOCK, cache_dir=tmp_path / "fresh")
        assert report.summary == fresh.summary

        def stored(embed_cfg):
            return sorted(p.name for p in (cache / "embeddings" / embed_cfg.effective_model_id)
                          .iterdir())

        assert stored(MOCK) == vector_names(["x y z", "old words", "other words"])
        assert stored(seed1) == vector_names(["x y z", "old words"])
        assert sorted(p.name for p in cache.iterdir()) == sorted(
            ["embeddings", report.prompt_id])
        assert not (cache / report.prompt_id / "samples" / "gt.txt").exists()

    @pytest.mark.parametrize("k", [2, 6])
    def test_json_vectors_of_older_caches_are_embedded_again_once(self, stub, tmp_path, k):
        # Older versions kept vectors per prompt and index, as <i>.json and
        # later <i>.npy (and gt.*), with the GT text in samples/gt.txt. Those
        # files are never read, so each vector misses and is embedded once more.
        stub.state.chat_replies = [f"reply {i}" for i in range(k)]
        stub.state.embed_fn = lambda text, model: [float(len(text)), 1.0, 0.0, 0.5]
        cache = tmp_path / "cache"
        first = verify("q", "truth", k, gen_cfg(stub), http_embedder(stub), cache_dir=cache)
        named = {str(i): f"reply {i}" for i in range(k)} | {"gt": "truth"}
        vectors = {name: np.load(vector_path(cache, "stub-embed", text), allow_pickle=False)
                   for name, text in named.items()}
        shutil.rmtree(cache / "embeddings")
        prompt_dir = cache / first.prompt_id
        (prompt_dir / "embeddings" / "stub-embed").mkdir(parents=True)
        for name, values in vectors.items():
            old_file = prompt_dir / "embeddings" / "stub-embed" / name
            old_file.with_suffix(".npy").write_bytes(_npy(values))
            old_file.with_suffix(".json").write_text(json.dumps(values.tolist()))
        (prompt_dir / "samples" / "gt.txt").write_text("truth")
        old = {p: p.read_bytes() for p in sorted(prompt_dir.glob("embeddings/*/*"))}
        old[prompt_dir / "samples" / "gt.txt"] = b"truth"
        assert len(old) == 2 * (k + 1) + 1

        chat, embed = stub.state.chat_calls, stub.state.embed_calls
        requests = len(stub.state.requests)
        report = verify("q", "truth", k, gen_cfg(stub), http_embedder(stub), cache_dir=cache)
        assert stub.state.chat_calls == chat
        assert stub.state.embed_calls - embed == math.ceil((k + 1) / EMBED_BATCH)
        assert len(stub.state.requests) - requests == math.ceil((k + 1) / EMBED_BATCH)
        assert {p: p.read_bytes() for p in old} == old  # ignored, left as they were

        fresh = verify("q", "truth", k, gen_cfg(stub), http_embedder(stub),
                       cache_dir=tmp_path / "fresh")

        def untimed(r):
            obj = json.loads(report_json_bytes(r))
            del obj["provenance"]["generated_at"], obj["provenance"]["embedded_at"]
            return obj

        assert untimed(report) == untimed(fresh)
        requests = len(stub.state.requests)
        again = verify("q", "truth", k, gen_cfg(stub), http_embedder(stub), cache_dir=cache)
        assert len(stub.state.requests) == requests
        assert report_json_bytes(again) == report_json_bytes(report)

    def test_identical_replies_and_gt_send_one_text(self, stub, tmp_path):
        stub.state.chat_replies = ["the same answer"]
        report = verify("q", "the same answer", 5, gen_cfg(stub), http_embedder(stub),
                        cache_dir=tmp_path / "cache")
        assert stub.state.embed_inputs == [["the same answer"]]
        assert report.summary.mean_offdiag == 1.0 and report.summary.gt_alignment == 1.0

    def test_gt_shared_by_two_prompts_is_embedded_once(self, stub, tmp_path):
        stub.state.chat_replies = [f"reply {i}" for i in range(4)]
        cache = tmp_path / "cache"
        first = verify("first prompt", "shared truth", 2, gen_cfg(stub), http_embedder(stub),
                       cache_dir=cache)
        second = verify("second prompt", "shared truth", 2, gen_cfg(stub),
                        http_embedder(stub), cache_dir=cache)
        assert first.prompt_id != second.prompt_id
        assert stub.state.embed_inputs == [["reply 0", "reply 1", "shared truth"],
                                           ["reply 2", "reply 3"]]

    def test_partial_failure_lists_indices(self, stub, tmp_path):
        # First two requests succeed, every later one returns HTTP 500, so
        # with sequential concurrency only sample index 2 fails.
        stub.state.chat_replies = ["ok"]
        fail_requests(stub, range(3, 100))
        with pytest.raises(PartialFailure) as err:
            verify("q", None, 3, gen_cfg(stub), MOCK, cache_dir=tmp_path / "cache")
        assert err.value.stage == "generate"
        assert list(err.value.failures) == [2]

    def test_partial_failure_keeps_generated_replies(self, stub, tmp_path):
        stub.state.chat_replies = ["one", "two", "three", "four"]
        cache = tmp_path / "cache"
        fail_requests(stub, {2, 3})  # max_retries=1: sample 1 fails on both attempts
        with pytest.raises(PartialFailure) as err:
            verify("q", None, 4, gen_cfg(stub), MOCK, cache_dir=cache)
        assert list(err.value.failures) == [1]
        samples = next(cache.glob("*/samples"))
        assert sorted(p.name for p in samples.iterdir()) == ["0.txt", "2.txt", "3.txt"]

        stub.state.next_failure = lambda: None
        chat_before = stub.state.chat_calls
        report = verify("q", None, 4, gen_cfg(stub), MOCK, cache_dir=cache)
        assert stub.state.chat_calls - chat_before == 1
        assert report.k == 4 and (samples / "1.txt").exists()

    def test_partial_failure_in_embed_stage(self, stub, tmp_path):
        # The k distinct texts go out in batches of EMBED_BATCH, one at a time;
        # the second embeddings request fails. It names its texts' indices, and
        # "gt" too, since the GT repeats the last reply and was not sent again.
        k = EMBED_BATCH + 2
        stub.state.chat_replies = [f"reply {i}" for i in range(k)]
        cache = tmp_path / "cache"
        gt = f"reply {k - 1}"
        fail_requests(stub, {k + 2})  # k chat requests, then the embeddings requests
        with pytest.raises(PartialFailure) as err:
            verify("q", gt, k, gen_cfg(stub), http_embedder(stub), cache_dir=cache)
        assert err.value.stage == "embed"
        assert list(err.value.failures) == [*range(EMBED_BATCH, k), "gt"]
        assert str(err.value).count("HTTP 500") == 1  # one failed request, named once
        vectors = cache / "embeddings" / "stub-embed"
        assert sorted(p.name for p in vectors.iterdir()) == vector_names(
            f"reply {i}" for i in range(EMBED_BATCH))

        stub.state.next_failure = lambda: None
        requests_before = len(stub.state.requests)
        verify("q", gt, k, gen_cfg(stub), http_embedder(stub), cache_dir=cache)
        assert len(stub.state.requests) - requests_before == 1
        assert stub.state.embed_inputs[-1] == [f"reply {i}" for i in range(EMBED_BATCH, k)]

    def test_failed_embed_batch_keeps_later_batches(self, stub, tmp_path):
        k = 2 * EMBED_BATCH + 1
        stub.state.chat_replies = [f"reply {i}" for i in range(k)]
        cache = tmp_path / "cache"
        fail_requests(stub, {k + 1})  # the first embeddings request
        with pytest.raises(PartialFailure) as err:
            verify("q", None, k, gen_cfg(stub), http_embedder(stub), cache_dir=cache)
        assert list(err.value.failures) == list(range(EMBED_BATCH))
        vectors = cache / "embeddings" / "stub-embed"
        assert sorted(p.name for p in vectors.iterdir()) == vector_names(
            f"reply {i}" for i in range(EMBED_BATCH, k))

    @pytest.mark.parametrize("k, gt", [(2, None), (EMBED_BATCH, None), (EMBED_BATCH, "truth"),
                                       (10, "truth"), (13, None), (EMBED_BATCH, "reply 0")])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_request_counts_cold_then_warm(self, stub, tmp_path, k, gt, workers):
        # The stub cycles through 7 replies, so k=10 and k=13 repeat some.
        stub.state.chat_replies = [f"reply {i}" for i in range(min(k, 7))]
        embed = http_embedder(stub, max_concurrency=workers)
        gen = GeneratorConfig(model_id="stub-model", provider=embed.provider)  # one endpoint
        cache = tmp_path / "cache"
        first = verify("q", gt, k, gen, embed, cache_dir=cache)
        distinct = set(stub.state.chat_replies) | ({gt} if gt else set())
        requests = k + math.ceil(len(distinct) / EMBED_BATCH)
        assert stub.state.chat_calls == k
        assert stub.state.embed_calls == math.ceil(len(distinct) / EMBED_BATCH)
        assert len(stub.state.requests) == requests
        assert all(len(batch) <= EMBED_BATCH for batch in stub.state.embed_inputs)
        sent = sorted(t for batch in stub.state.embed_inputs for t in batch)
        assert sent == sorted(distinct)
        assert stub.state.connections <= workers

        second = verify("q", gt, k, gen, embed, cache_dir=cache)
        assert len(stub.state.requests) == requests
        assert report_json_bytes(second) == report_json_bytes(first)

    def test_fan_out_stress_keeps_every_result(self, stub, tmp_path):
        # More workers than cores and a short switch interval, so the workers
        # interleave while recording results and sharing the connection pool.
        k = 40
        stub.state.chat_replies = [f"reply {i}" for i in range(k)]
        embed = http_embedder(stub, max_concurrency=8)
        gen = GeneratorConfig(model_id="stub-model", provider=embed.provider)
        cache = tmp_path / "cache"
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            report = verify("q", None, k, gen, embed, cache_dir=cache)
        finally:
            sys.setswitchinterval(interval)
        assert report.k == k
        samples = [p.read_text() for p in cache.glob("*/samples/*.txt")]
        assert sorted(samples) == sorted(stub.state.chat_replies)
        assert len(list((cache / "embeddings" / "stub-embed").glob("*.npy"))) == k
        assert stub.state.embed_calls == math.ceil(k / EMBED_BATCH)
        assert stub.state.connections <= 8

    @pytest.mark.parametrize("setting", [{"max_tokens": 7}, {"top_p": 0.5}, {"top_k": 3}])
    def test_every_sampling_setting_keys_the_cache(self, stub, tmp_path, setting):
        cache = tmp_path / "cache"
        first = verify("q", None, 3, gen_cfg(stub), MOCK, cache_dir=cache)
        assert stub.state.chat_calls == 3
        second = verify("q", None, 3, gen_cfg(stub, **setting), MOCK, cache_dir=cache)
        assert stub.state.chat_calls == 6
        assert second.prompt_id != first.prompt_id
        name, value = next(iter(setting.items()))
        assert all(body.get(name) == value for _, _, body in stub.state.requests[3:])

    def test_report_summary_recomputable_from_matrix(self, stub, tmp_path):
        stub.state.chat_replies = DISJOINT
        report = verify("q", None, 3, gen_cfg(stub), MOCK, cache_dir=tmp_path / "cache")
        recomputed = summarize(report.matrix, report.thresholds)
        assert recomputed == report.summary

    def test_report_json_round_trip(self, stub, tmp_path):
        stub.state.chat_replies = ["a b", "c d"]
        report = verify("q", "e f", 2, gen_cfg(stub), MOCK, cache_dir=tmp_path / "cache")
        loaded = report_from_json(report_json_bytes(report))
        assert loaded.summary == report.summary
        assert np.array_equal(loaded.matrix.entries, report.matrix.entries)
        assert loaded.provenance == report.provenance
        assert report_json_bytes(loaded) == report_json_bytes(report)

    def test_provenance_fields(self, stub, tmp_path):
        stub.state.chat_replies = ["a b"]
        report = verify(
            "q", None, 2, gen_cfg(stub, temperature=0.5), MOCK, cache_dir=tmp_path / "cache"
        )
        p = report.provenance
        assert p["generation_model_id"] == "stub-model"
        assert p["embedding_model_id"] == "mock-d4096-s0"
        assert p["temperature"] == 0.5
        assert p["max_tokens"] == 1024 and p["top_p"] is None and p["top_k"] is None
        assert "generated_at" in p and "embedded_at" in p


def _npy(values: np.ndarray, allow_pickle: bool = False) -> bytes:
    buf = io.BytesIO()
    np.save(buf, values, allow_pickle=allow_pickle)
    return buf.getvalue()


def _npz(values: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, values=values)
    return buf.getvalue()


# Ways a cached vector file can be damaged: good .npy bytes -> bad bytes.
CORRUPTIONS = {
    "truncated_data": lambda good: good[:-8],
    "truncated_header": lambda good: good[:20],
    "empty": lambda good: b"",
    "bad_header": lambda good: good.replace(b"'descr'", b"'descr!"),
    "object_array": lambda good: _npy(np.array([1.0, "x"], dtype=object), allow_pickle=True),
    "pickle": lambda good: pickle.dumps([1.0, 2.0]),
    "json_text": lambda good: b"[1.0, 2.0]",
    "float32": lambda good: _npy(np.ones(4, dtype=np.float32)),
    "big_endian": lambda good: _npy(np.ones(4, dtype=">f8")),
    "two_dim": lambda good: _npy(np.ones((2, 2))),
    "scalar": lambda good: _npy(np.float64(1.0)),
    "no_values": lambda good: _npy(np.zeros(0)),
    "nan": lambda good: _npy(np.array([1.0, np.nan])),
    "npz_archive": lambda good: _npz(np.ones(4)),
}

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


class TestCacheEntries:
    @given(arrays(np.float64, st.integers(1, 64), elements=finite_floats))
    @example(np.array([-0.0]))
    @example(np.array([5e-324, -5e-324, 2.2250738585072014e-308, 1.7e308, -1.7e308, -0.0]))
    @example(np.tile([5e-324, -0.0, 1.7e308, -1.7e308], 1024))
    @example(np.random.default_rng(0).normal(size=4096))
    @settings(max_examples=150, deadline=None)
    def test_round_trip_is_bit_exact(self, values):
        with tempfile.TemporaryDirectory() as tmp:
            cache = _Cache(Path(tmp), "key")
            emb = Embedding(values, model_id="m")
            cache.store_embedding("m", "text", emb)
            path = cache.embedding_path("m", "text")
            stored = path.read_bytes()
            loaded = cache.load_embedding("m", "text")
            assert loaded.values.ndim == 1 and loaded.values.dtype.str == "<f8"
            assert np.array_equal(loaded.values.view(np.uint64), values.view(np.uint64))
            assert loaded.model_id == "m"
            cache.store_embedding("m", "text", emb)
            assert path.read_bytes() == stored

    def test_missing_entry_is_a_miss(self, tmp_path):
        assert _Cache(tmp_path, "key").load_embedding("m", "text") is None

    @pytest.mark.parametrize("damage", list(CORRUPTIONS.values()), ids=list(CORRUPTIONS))
    def test_damaged_entry_raises_naming_the_file(self, stub, tmp_path, damage):
        stub.state.chat_replies = DISJOINT
        cache = tmp_path / "cache"
        verify("q", None, 3, gen_cfg(stub), MOCK, cache_dir=cache)
        path = cache / "embeddings" / MOCK.effective_model_id / vector_names([DISJOINT[1]])[0]
        path.write_bytes(damage(path.read_bytes()))
        requests = len(stub.state.requests)
        with pytest.raises(CorruptCacheEntry) as err:
            verify("q", None, 3, gen_cfg(stub), MOCK, cache_dir=cache)
        assert err.value.path == path
        assert str(path) in str(err.value)
        assert len(stub.state.requests) == requests


class TestChunkDocument:
    def test_short_document_single_chunk(self):
        doc = " ".join(f"t{i}" for i in range(10))
        assert chunk_document(doc, 600) == [doc]

    def test_hundred_tokens_max_fifty(self):
        doc = " ".join(f"t{i}" for i in range(100))
        chunks = chunk_document(doc, 50, 0)
        assert len(chunks) == 2
        assert all(len(c.split()) == 50 for c in chunks)

    def test_prefers_sentence_boundary(self):
        doc = "one two three four five. " + " ".join(f"w{i}" for i in range(30))
        chunks = chunk_document(doc, 25, 0)
        assert chunks[0] == "one two three four five."

    def test_reassembly_oracle(self):
        rng = np.random.default_rng(21)
        words = []
        for s in range(60):
            n = int(rng.integers(3, 12))
            sentence = [f"s{s}w{i}" for i in range(n)]
            sentence[-1] += "."
            words.extend(sentence)
        doc = " ".join(words)
        for max_tokens, overlap in [(25, 0), (30, 5), (40, 10), (600, 0)]:
            chunks = chunk_document(doc, max_tokens, overlap)
            rebuilt = chunks[0].split()
            for chunk in chunks[1:]:
                tokens = chunk.split()
                assert rebuilt[-overlap:] == tokens[:overlap] if overlap else True
                rebuilt.extend(tokens[overlap:] if overlap else tokens)
            assert rebuilt == words
            assert all(len(c.split()) <= max_tokens for c in chunks)

    def test_min_window(self):
        with pytest.raises(ValueError):
            chunk_document("a b c", 10)

    def test_overlap_bounds(self):
        with pytest.raises(ValueError):
            chunk_document("a b c", 25, 25)

    def test_empty_document(self):
        with pytest.raises(EmptyDocument):
            chunk_document("   ", 25)


def write_vectors(path: Path, embeddings: list[Embedding]) -> None:
    """Write embeddings as JSON Lines, the format ingest_vectors reads."""
    path.write_text("".join(json.dumps(e.tolist()) + "\n" for e in embeddings))


class TestIngestVectors:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(22)
        embs = [Embedding(rng.normal(size=768), model_id="ingested") for _ in range(10)]
        path = tmp_path / "vectors.jsonl"
        write_vectors(path, embs)
        loaded = ingest_vectors(path)
        assert len(loaded) == 10
        assert all(e.dim == 768 for e in loaded)
        for a, b in zip(embs, loaded):
            assert np.array_equal(a.values, b.values)

    def test_single_vector_valid_but_unverifiable(self, tmp_path):
        path = tmp_path / "one.jsonl"
        path.write_text("[1.0, 2.0, 3.0]\n")
        loaded = ingest_vectors(path)
        assert len(loaded) == 1
        from samplecheck.scorematrix import DegenerateMatrix

        with pytest.raises(DegenerateMatrix):
            build_matrix(loaded)

    def test_parse_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        for bad in ('{"not": "array"}', "[NaN, 1.0]", "[1.0, Infinity]", "[-Infinity, 1.0]",
                    "[1e400, 1.0]", f"[{10 ** 400}, 1.0]"):
            path.write_text(f"[1.0, 2.0]\n{bad}\n")
            with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:2: "):
                ingest_vectors(path)

    def test_ragged_dims(self, tmp_path):
        path = tmp_path / "ragged.jsonl"
        path.write_text("[1.0, 2.0]\n[1.0, 2.0, 3.0]\n")
        with pytest.raises(RaggedDims):
            ingest_vectors(path)

    def test_feeds_matrix_pipeline(self, tmp_path):
        path = tmp_path / "v.jsonl"
        path.write_text("[1.0, 0.0]\n[0.0, 1.0]\n[1.0, 0.0]\n")
        embs = ingest_vectors(path)
        matrix = build_matrix(embs)
        assert matrix.order == 3
        assert matrix.entries[0, 2] == 1.0
