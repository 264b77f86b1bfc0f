"""Pipeline orchestration: staging, caching, report serialization."""

from __future__ import annotations

import hashlib
import io
import json
import math
import pickle
import shutil
import sys
import tempfile
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from samplecheck import providers
from samplecheck.pipeline import (
    EMBED_BATCH,
    GENERATE_BATCH,
    CorruptCacheEntry,
    EmbedderConfig,
    GeneratorConfig,
    PartialFailure,
    VerificationReport,
    embed_cached,
    prompt_hash,
    replies_cached,
    report_from_json,
    report_json_bytes,
    verify,
    _Cache,
    _atomic_write,
    _cached_batches,
    _npy_header,
)
from samplecheck.providers import ProviderConfig, mock_embed
from samplecheck.scorematrix import MEASURES, ConfidenceThresholds, build_matrix, summarize
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


def vector_path(cache: Path, model_id: str, text: str, mock: bool = False) -> Path:
    return _Cache(cache, mock=mock).embedding_path(model_id, text)


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
            + [f"embeddings/~{model_id}/{name}" for name in vector_names(["x y z", "gt"])])
        for text in ("x y z", "gt"):
            values = np.load(vector_path(cache, model_id, text, mock=True), allow_pickle=False)
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

    def test_http_model_named_like_the_mock_is_not_served_its_vectors(self, stub, tmp_path):
        stub.state.chat_replies = ["one two", "three four"]
        stub.state.embed_fn = lambda text, model: [1.0, 0.0, 0.0, 0.0]
        cache = tmp_path / "cache"
        mock = EmbedderConfig(kind="mock", dim=64, seed=0)
        first = verify("q", None, 2, gen_cfg(stub), mock, cache_dir=cache)
        assert first.summary.mean_offdiag < 1.0 and stub.state.embed_calls == 0
        named = http_embedder(stub, model_id=mock.effective_model_id)
        second = verify("q", None, 2, gen_cfg(stub), named, cache_dir=cache)
        assert stub.state.embed_calls == 1
        assert second.summary.mean_offdiag == 1.0
        assert first.provenance["embedding_model_id"] == "mock-d64-s0"
        assert sorted(p.name for p in (cache / "embeddings").iterdir()) == [
            "mock-d64-s0", "~mock-d64-s0"]

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
            store = cache / "embeddings" / f"~{embed_cfg.effective_model_id}"
            return sorted(p.name for p in store.iterdir())

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
        # One batch of 4 indices; the stub returns one choice per request, so
        # the second request asks for indices 1-3 and fails on both attempts.
        stub.state.chat_replies = ["one", "two", "three", "four"]
        cache = tmp_path / "cache"
        fail_requests(stub, {2, 3})  # max_retries=1
        with pytest.raises(PartialFailure) as err:
            verify("q", None, 4, gen_cfg(stub), MOCK, cache_dir=cache)
        assert list(err.value.failures) == [1, 2, 3]
        samples = next(cache.glob("*/samples"))
        assert sorted(p.name for p in samples.iterdir()) == ["0.txt"]

        stub.state.next_failure = lambda: None
        chat_before = stub.state.chat_calls
        report = verify("q", None, 4, gen_cfg(stub), MOCK, cache_dir=cache)
        assert stub.state.chat_calls - chat_before == 3
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

    @pytest.mark.parametrize("sampling, key", [
        ({}, "3d99d8132565f40a223126c7"),
        ({"top_p": 0.5, "top_k": 3}, "5d963d0bdd4324de400c6160"),
        ({"temperature": 0.0}, "f1615b9a103b063eb392c2f7"),
    ])
    def test_prompt_key_is_pinned(self, sampling, key):
        # A changed key would leave every existing cache cold.
        gen = GeneratorConfig(model_id="stub-model",
                              provider=ProviderConfig(base_url="http://localhost:1"), **sampling)
        assert prompt_hash("Define the term in question.", gen) == key

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


def run_samples(stub, tmp_path, k) -> list[str]:
    """The k samples of a verify at max_concurrency 1, in index order."""
    report = verify("q", None, k, gen_cfg(stub), MOCK, cache_dir=tmp_path / "cache")
    return [_Cache(tmp_path / "cache", report.prompt_id).load_text(i) for i in range(k)]


class TestGenerateBatches:
    """verify's generate stage: one chat request asks for a choice per index of its batch."""

    @pytest.mark.parametrize("k, workers, ns", [
        (10, 2, [5, 5]), (10, 1, [10]), (10, 4, [3, 3, 3, 1]),
        (32, 2, [GENERATE_BATCH] * 2), (40, 2, [10] * 4),
    ])
    def test_request_counts_cold_then_warm(self, stub, tmp_path, k, workers, ns):
        stub.state.choices = "n"
        stub.state.chat_replies = [f"reply {i}" for i in range(k)]
        embed = http_embedder(stub, max_concurrency=workers)
        gen = GeneratorConfig(model_id="stub-model", provider=embed.provider)  # one endpoint
        cache = tmp_path / "cache"
        first = verify("q", None, k, gen, embed, cache_dir=cache)
        chat = [body["n"] for path, _, body in stub.state.requests
                if path.endswith("/chat/completions")]
        assert sorted(chat, reverse=True) == ns
        assert stub.state.embed_calls == math.ceil(k / EMBED_BATCH)
        assert len(stub.state.requests) == len(ns) + math.ceil(k / EMBED_BATCH)
        assert stub.state.connections <= workers

        requests = len(stub.state.requests)
        second = verify("q", None, k, gen, embed, cache_dir=cache)
        assert len(stub.state.requests) == requests
        assert report_json_bytes(second) == report_json_bytes(first)

    def test_batches_balanced_when_endpoint_ignores_n(self, stub, tmp_path):
        # Each request returns one choice and the rest of its batch goes back to
        # the pool as a request of its own, so each batch of 10 is asked for
        # with n = 10, 9, ..., 1, whichever worker sends it.
        stub.state.chat_replies = [f"reply {i}" for i in range(40)]
        provider = http_embedder(stub, max_concurrency=2).provider
        gen = GeneratorConfig(model_id="stub-model", provider=provider)
        verify("q", None, 40, gen, MOCK, cache_dir=tmp_path / "cache")
        assert sorted(body["n"] for _, _, body in stub.state.requests) == sorted(
            list(range(1, 11)) * 4)

    def test_choice_j_becomes_the_batch_index_j(self, stub, tmp_path):
        stub.state.choices = "n"
        stub.state.chat_replies = [f"reply {i}" for i in range(10)]
        assert run_samples(stub, tmp_path, 10) == stub.state.chat_replies
        assert stub.state.chat_calls == 1

    def test_endpoint_rejecting_n_costs_one_request_per_process(self, stub, tmp_path,
                                                                monkeypatch):
        monkeypatch.setattr(providers, "_single_choice", set())
        stub.state.choices = "reject_n"
        stub.state.chat_replies = [f"reply {i}" for i in range(6)]
        assert run_samples(stub, tmp_path, 6) == stub.state.chat_replies
        assert [body["n"] for _, _, body in stub.state.requests] == [6] + [1] * 6
        verify("another prompt", None, 6, gen_cfg(stub), MOCK, cache_dir=tmp_path / "cache")
        assert len(stub.state.requests) == 7 + 6

    def test_short_choice_list_then_failure(self, stub, tmp_path):
        # One batch of 8: the first request returns 3 of its 8 choices, and the
        # request for the other 5 fails on both attempts (max_retries=1).
        stub.state.choices = "n"
        stub.state.choice_caps = [3]
        stub.state.chat_replies = [f"reply {i}" for i in range(8)]
        cache = tmp_path / "cache"
        fail_requests(stub, {2, 3})
        with pytest.raises(PartialFailure) as err:
            verify("q", None, 8, gen_cfg(stub), MOCK, cache_dir=cache)
        assert err.value.stage == "generate"
        assert list(err.value.failures) == [3, 4, 5, 6, 7]
        assert [body["n"] for _, _, body in stub.state.requests] == [8, 5, 5]
        samples = next(cache.glob("*/samples"))
        assert sorted(p.name for p in samples.iterdir()) == ["0.txt", "1.txt", "2.txt"]

        stub.state.next_failure = lambda: None
        report = verify("q", None, 8, gen_cfg(stub), MOCK, cache_dir=cache)
        assert [body["n"] for _, _, body in stub.state.requests[3:]] == [5]
        assert report.k == 8
        assert [(samples / f"{i}.txt").read_text() for i in range(8)] == stub.state.chat_replies


class TestCachedBatches:
    """_cached_batches with a call that may answer only a leading part of its batch,
    on one worker and on three, and against a sequential model of it."""

    WORKERS = (1, 3)

    @staticmethod
    def _run(keys, cached, call, workers, stored, size=4):
        return _cached_batches("generate", keys, cached.get, size, call,
                               stored.__setitem__, workers)

    def test_prefix_results_are_stored_and_the_rest_is_asked_again(self):
        for workers in self.WORKERS:
            calls, stored = [], {}

            def call(batch):
                calls.append(batch)
                return [f"v{key}" for key in batch[:2]]

            values = self._run(range(6), {1: "cached"}, call, workers, stored)
            # One worker calls in submission order: the rest of a batch waits
            # behind the batches already queued. Several workers may call in any order.
            order = [(0, 2, 3, 4), (5,), (3, 4)]
            assert (calls if workers == 1 else sorted(calls, key=order.index)) == order
            assert values == ["v0", "cached", "v2", "v3", "v4", "v5"]
            assert stored == {key: f"v{key}" for key in (0, 2, 3, 4, 5)}

    def test_failure_names_only_the_keys_still_missing(self):
        def call(batch):
            if len(batch) < 4:
                raise RuntimeError("injected")
            return [f"v{key}" for key in batch[:1]]

        for workers in self.WORKERS:
            stored = {}
            with pytest.raises(PartialFailure) as err:
                self._run([0, 1, 2, 3, 1], {}, call, workers, stored)
            assert list(err.value.failures) == [1, 2, 3, 4]
            assert stored == {0: "v0"}

    def test_a_call_with_no_result_fails_its_batch(self):
        for workers in self.WORKERS:
            with pytest.raises(PartialFailure, match="no result") as err:
                self._run(range(3), {}, lambda batch: [], workers, {})
            assert list(err.value.failures) == [0, 1, 2]

    def test_every_store_runs_on_the_calling_thread(self):
        for workers in self.WORKERS:
            callers, storers = set(), set()

            def call(batch):
                callers.add(threading.get_ident())
                return [f"v{key}" for key in batch[:2]]

            def store(key, value):
                storers.add(threading.get_ident())
                stored[key] = value

            stored = {}
            values = _cached_batches("generate", range(9), {}.get, 3, call, store, workers)
            assert values == [f"v{key}" for key in range(9)] and len(stored) == 9
            assert storers == {threading.get_ident()}
            assert threading.get_ident() not in callers

    @staticmethod
    def _in_thread(fn):
        """fn() run on a thread of its own; what it returned or raised, within 10 s."""
        outcome = {}

        def target():
            try:
                outcome["value"] = fn()
            except BaseException as exc:  # noqa: BLE001 - handed to the test
                outcome["error"] = exc

        thread = threading.Thread(target=target)
        thread.start()
        thread.join(10)
        assert not thread.is_alive(), "_cached_batches did not return"
        return outcome

    def test_a_failing_store_keeps_every_other_result(self):
        for workers in self.WORKERS:
            stored = {}

            def store(key, value):
                if key == 2:
                    raise OSError(28, "No space left on device")
                stored[key] = value

            outcome = self._in_thread(lambda: _cached_batches(
                "embed", range(6), {}.get, 2, lambda batch: [f"v{k}" for k in batch],
                store, workers))
            assert isinstance(outcome["error"], OSError)
            assert stored == {key: f"v{key}" for key in (0, 1, 3, 4, 5)}

    def test_many_workers_store_every_key_once(self):
        # More workers than cores and a short switch interval; a result lost or
        # stored twice between the workers and the calling thread would show.
        counts, interval = {}, sys.getswitchinterval()

        def store(key, value):
            assert value == f"v{key}"
            counts[key] = counts.get(key, 0) + 1

        sys.setswitchinterval(1e-6)
        try:
            outcome = self._in_thread(lambda: _cached_batches(
                "embed", range(300), {}.get, 3,
                lambda batch: [f"v{key}" for key in batch[:1 + batch[0] % 3]], store, 8))
        finally:
            sys.setswitchinterval(interval)
        assert outcome["value"] == [f"v{key}" for key in range(300)]
        assert counts == dict.fromkeys(range(300), 1)

    def test_a_worker_that_dies_does_not_hang_the_caller(self):
        def call(batch):
            if batch[0] == 0:
                raise SystemExit("worker ended")
            return list(batch)

        for workers in self.WORKERS:
            stored = {}
            outcome = self._in_thread(lambda: self._run(range(6), {}, call, workers, stored, 2))
            assert isinstance(outcome["error"], SystemExit)
            assert stored == {key: key for key in range(2, 6)}

    def test_an_interrupt_starts_no_queued_call_and_keeps_every_answer(self):
        for workers in self.WORKERS:
            calls, stored = [], {}

            def call(batch):
                calls.append(batch)
                time.sleep(0.01)
                return [f"v{key}" for key in batch]

            def store(key, value):
                if key == 0:
                    raise self.Interrupt
                stored[key] = value

            outcome = self._in_thread(lambda: _cached_batches(
                "embed", range(24), {}.get, 2, call, store, workers))
            assert isinstance(outcome["error"], self.Interrupt)
            # The first call ended; at most one more per worker was running.
            assert len(calls) <= 2 * workers
            assert stored == {key: f"v{key}" for batch in calls for key in batch if key != 0}

    def test_a_worker_waiting_for_a_slot_at_an_interrupt_never_calls(self, monkeypatch):
        # One slot and two threads: when the first store raises Interrupt, one
        # call holds the slot and another batch's worker waits for it.
        calls, stored, started = [], {}, []
        release = threading.Event()

        class Pool(ThreadPoolExecutor):
            """The pool of _cached_batches, noting each batch a worker starts on."""

            def submit(self, fn, batch, *args):
                def noted():
                    started.append(batch)
                    return fn(batch, *args)
                return super().submit(noted)

            def shutdown(self, *args, **kwargs):
                release.set()  # the calling thread has left its loop
                super().shutdown(*args, **kwargs)

        def call(batch):
            calls.append(batch)
            if batch != (0,):
                release.wait(10)
            return list(batch)

        def store(key, value):
            if key == 0:
                deadline = time.monotonic() + 10
                while (len(calls), len(started)) != (2, 3) and time.monotonic() < deadline:
                    time.sleep(0.001)
                raise self.Interrupt
            stored[key] = value

        monkeypatch.setattr("samplecheck.pipeline.ThreadPoolExecutor", Pool)
        outcome = self._in_thread(lambda: _cached_batches(
            "embed", range(4), {}.get, 1, call, store, 1,
            finish=lambda batch, keys: [f"v{key}" for key in keys]))
        assert isinstance(outcome["error"], self.Interrupt)
        assert len(started) == 3  # the fourth batch never left the queue
        [first, (key,)] = calls  # the third started batch never called
        assert first == (0,)
        assert stored == {key: f"v{key}"}  # the call that was running finished and is stored

    class Interrupt(BaseException):
        """A KeyboardInterrupt of the calling thread, raised by a store."""

    class Fatal(BaseException):
        """A call's BaseException that is not an Exception."""

    # How a call answers, chosen by the first key of its batch: "part" answers a
    # leading part of at most m keys, "none" answers nothing, "error" raises an
    # Exception and, rarely, "fatal" raises a Fatal.
    ANSWERS = st.tuples(
        st.sampled_from(["part"] * 34 + ["none"] * 2 + ["error"] * 3 + ["fatal"]),
        st.integers(1, 5))

    @staticmethod
    def _model(keys, cached, size, answer, unfinished):
        """A sequential _cached_batches: every call in order, the values stored,
        and each key whose batch failed with the kind of its failure. A batch
        whose first key is in unfinished fails in its finish, once called."""
        missing = [key for key in dict.fromkeys(keys) if key not in cached]
        calls, stored, failed = [], {}, {}
        for i in range(0, len(missing), size):
            batch = tuple(missing[i:i + size])
            while batch:
                calls.append(batch)
                kind, m = answer[batch[0]]
                if kind == "part" and batch[0] in unfinished:
                    kind = "error"
                if kind != "part":
                    failed.update(dict.fromkeys(batch, kind))
                    break
                stored.update((key, f"v{key}") for key in batch[:m])
                batch = batch[m:]
        return calls, stored, failed

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_matches_a_sequential_model(self, data):
        keys = data.draw(st.lists(st.integers(0, 9), max_size=14), label="keys")
        distinct = sorted(set(keys))
        cached = {key: f"c{key}" for key in data.draw(
            st.sets(st.sampled_from(distinct)) if distinct else st.just(set()), label="cached")}
        size = data.draw(st.integers(1, 5), label="size")
        workers = data.draw(st.integers(1, 4), label="workers")
        answer = {key: data.draw(self.ANSWERS, label=f"answer {key}") for key in distinct}
        # With a finish, a call answers the keys of its values, and the finish
        # turns them into values, or raises for a batch whose first key is unfinished.
        finishing = data.draw(st.booleans(), label="finish")
        unfinished = data.draw(st.sets(st.sampled_from(distinct)) if finishing and distinct
                               else st.just(set()), label="unfinished")
        # The store that raises Interrupt instead of storing, if there are that many.
        interrupt = data.draw(st.none() | st.integers(0, 4), label="interrupt")
        lock, calls, stores = threading.Lock(), [], []
        in_flight = {"call": 0, "finish": 0}  # now, for each step
        most = {"call": 0, "both": 0}  # at most: calls, and calls and finishes together
        answered, interrupted = [], []  # keys of every answer; (calls started, key) at the interrupt

        def running(step, change):
            with lock:
                in_flight[step] += change
                most["call"] = max(most["call"], in_flight["call"])
                most["both"] = max(most["both"], in_flight["call"] + in_flight["finish"])

        def call(batch):
            with lock:
                calls.append(batch)
            running("call", 1)
            try:
                time.sleep(0.001)  # lets the other workers' calls overlap this one
                kind, m = answer[batch[0]]
                if kind == "error":
                    raise RuntimeError("injected")
                if kind == "fatal":
                    raise self.Fatal("injected")
                keys = list(batch[:m]) if kind == "part" else []
                if finishing:
                    return keys
                with lock:
                    answered.extend(keys)
                return [f"v{key}" for key in keys]
            finally:
                running("call", -1)

        def finish(batch, keys):
            running("finish", 1)
            try:
                time.sleep(0.001)  # lets calls overlap this finish
                if batch[0] in unfinished:
                    raise RuntimeError("injected in finish")
                with lock:
                    answered.extend(keys)
                return [f"v{key}" for key in keys]
            finally:
                running("finish", -1)

        def store(key, value):
            if len(stores) == interrupt and not interrupted:
                with lock:
                    interrupted.append((len(calls), key))
                raise self.Interrupt
            stores.append((threading.get_ident(), key, value))

        callers = []

        def run():
            callers.append(threading.get_ident())
            return _cached_batches("generate", keys, cached.get, size, call, store, workers,
                                   finish=finish if finishing else None)

        outcome = self._in_thread(run)
        model_calls, model_stored, failed = self._model(keys, cached, size, answer, unfinished)
        # At most workers calls in flight; finishes run beside them on the spare threads.
        assert most["call"] <= workers
        assert most["both"] <= (2 * workers if finishing else workers)
        # Each answered key is stored once, on the thread that called _cached_batches.
        assert {thread for thread, _, _ in stores} <= set(callers)
        stored = sorted((key, value) for _, key, value in stores)
        if interrupted:
            # No call starts after the interrupt but one per worker, every answer
            # that arrived is stored, and the interrupt comes out.
            [(started, key)] = interrupted
            assert not Counter(calls) - Counter(model_calls)
            assert len(calls) - started <= workers
            assert stored == sorted((k, f"v{k}") for k in answered if k != key)
            assert isinstance(outcome["error"], self.Interrupt)
            return
        assert sorted(calls) == sorted(model_calls)  # no key sent again once answered
        # When a Fatal is raised every other answer has been stored before it.
        assert stored == sorted(model_stored.items())
        if "fatal" in failed.values():
            assert isinstance(outcome["error"], self.Fatal)
        elif failed:
            assert isinstance(outcome["error"], PartialFailure)
            assert list(outcome["error"].failures) == [
                i for i, key in enumerate(keys) if key in failed]
        else:
            assert outcome["value"] == [cached.get(key, f"v{key}") for key in keys]


class TestAtomicWrite:
    def test_missing_nested_directory_is_created(self, tmp_path):
        path = tmp_path / "a" / "b" / "c.bin"
        _atomic_write(path, b"data")
        assert path.read_bytes() == b"data"
        assert [p.name for p in path.parent.iterdir()] == ["c.bin"]

    def test_short_writes_are_continued(self, tmp_path, monkeypatch):
        real_open = io.open

        class Trickle:
            """A file that writes at most 3 bytes per call."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                return self.fh.write(data[:3])

        monkeypatch.setattr(io, "open", lambda *args, **kwargs: Trickle(real_open(*args, **kwargs)))
        path = tmp_path / "f.bin"
        _atomic_write(path, bytes(range(256)) * 3)
        monkeypatch.undo()
        assert path.read_bytes() == bytes(range(256)) * 3

    def test_failed_write_leaves_the_target_and_no_temporary_file(self, tmp_path, monkeypatch):
        path = tmp_path / "f.bin"
        path.write_bytes(b"previous")
        real_open = io.open

        class FullDisk:
            """A file whose first write stores half the data, then fails."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(io, "open", lambda *args, **kwargs: FullDisk(real_open(*args, **kwargs)))
        with pytest.raises(OSError, match="No space"):
            _atomic_write(path, b"new data")
        monkeypatch.undo()
        assert path.read_bytes() == b"previous"
        assert [p.name for p in tmp_path.iterdir()] == ["f.bin"]

    def test_temporary_name_taken_is_drawn_again(self, tmp_path, monkeypatch):
        path = tmp_path / "f.bin"
        taken = tmp_path / "f.bin.000000000001"
        taken.write_bytes(b"someone else's")
        draws = iter([1, 2])
        monkeypatch.setattr("samplecheck.pipeline.random.getrandbits", lambda bits: next(draws))
        _atomic_write(path, b"data")
        assert path.read_bytes() == b"data"
        assert taken.read_bytes() == b"someone else's"
        assert next(draws, None) is None


# Distinct texts that fill one EMBED_BATCH batch and half of a second, in the
# order REPEATED first holds them; REPEATED repeats texts of both batches.
DISTINCT = [f"text {i}" for i in range(EMBED_BATCH + 2)]
REPEATED = [*DISTINCT[:EMBED_BATCH + 1], DISTINCT[0], DISTINCT[-1], DISTINCT[EMBED_BATCH],
            DISTINCT[1]]


@pytest.fixture(params=["mock", "stub"])
def recorded(request, monkeypatch):
    """An embedder, with the texts of each call it makes (one mock_embed call per
    text for the mock, one request half's call per batch for the stub), the
    texts per call, and the texts the store is asked for; fail_second() makes
    the call for the first text of the second batch fail."""
    rec = SimpleNamespace(batches=[], loads=[], failing=False)
    if request.param == "mock":
        rec.cfg = EmbedderConfig(kind="mock", dim=64, seed=0)
        rec.vector = lambda text: mock_embed(text, 64, 0).tolist()
        rec.fail_second = lambda: setattr(rec, "failing", True)
        rec.sent = rec.batches  # the mock's requests are its mock_embed calls
        rec.per_call = 1
        embed = providers.mock_embed

        def recording_embed(text, dim, seed):
            rec.batches.append([text])
            if rec.failing and len(rec.batches) == EMBED_BATCH + 1:
                raise RuntimeError("injected failure")
            return embed(text, dim, seed)

        monkeypatch.setattr(providers, "mock_embed", recording_embed)
    else:
        stub = request.getfixturevalue("stub")
        rec.vector = lambda text: [1.0, float(DISTINCT.index(text)), 0.0, 0.0]
        stub.state.embed_fn = lambda text, model: rec.vector(text)
        rec.cfg = http_embedder(stub)
        rec.fail_second = lambda: fail_requests(stub, {2})
        rec.sent = stub.state.embed_inputs
        rec.per_call = EMBED_BATCH
        post = providers.post_embeddings

        def recording_post(texts, cfg, model_id):
            rec.batches.append(list(texts))
            return post(texts, cfg, model_id)

        monkeypatch.setattr(providers, "post_embeddings", recording_post)
    load = _Cache.load_embedding

    def recording_load(self, model_id, text):
        rec.loads.append(text)
        return load(self, model_id, text)

    monkeypatch.setattr(_Cache, "load_embedding", recording_load)
    return rec


class TestEmbedCached:
    def test_each_distinct_text_loaded_and_sent_once(self, recorded, tmp_path):
        vectors = embed_cached(REPEATED, recorded.cfg, tmp_path)
        assert recorded.loads == DISTINCT
        size = recorded.per_call
        calls = [DISTINCT[i:i + size] for i in range(0, len(DISTINCT), size)]
        assert recorded.batches == calls
        assert recorded.sent == recorded.batches
        assert [v.tolist() for v in vectors] == [recorded.vector(t) for t in REPEATED]

        again = embed_cached(REPEATED, recorded.cfg, tmp_path)
        assert recorded.loads == DISTINCT * 2 and recorded.batches == calls
        assert [v.tolist() for v in again] == [v.tolist() for v in vectors]

    def test_blank_texts_fail_only_their_positions_before_any_load(self, recorded, tmp_path):
        texts = [DISTINCT[0], "", DISTINCT[1], " \t\n", DISTINCT[0]]
        with pytest.raises(PartialFailure) as err:
            embed_cached(texts, recorded.cfg, tmp_path)
        assert list(err.value.failures) == [1, 3]
        assert str(err.value) == "stage 'embed' failed for indices [1, 3]: 1, 3: " \
                                 "cannot embed empty text"
        assert recorded.loads == [] and recorded.batches == [] and recorded.sent == []
        assert list(tmp_path.iterdir()) == []

    def test_blank_gt_fails_only_gt_before_any_embeddings_request(self, stub, tmp_path):
        stub.state.chat_replies = ["alpha", "beta", "gamma"]
        with pytest.raises(PartialFailure) as err:
            verify("p", " \n", 3, gen_cfg(stub), http_embedder(stub), cache_dir=tmp_path)
        assert [(key, type(exc)) for key, exc in err.value.failures.items()] \
            == [("gt", providers.EmptyText)]
        assert stub.state.embed_calls == 0

    def test_failed_batch_names_every_position_of_its_texts(self, recorded, tmp_path):
        recorded.fail_second()
        with pytest.raises(PartialFailure) as err:
            embed_cached(REPEATED, recorded.cfg, tmp_path)
        assert err.value.stage == "embed"
        failed = [i for i, text in enumerate(REPEATED) if text in DISTINCT[EMBED_BATCH:]]
        assert failed == [EMBED_BATCH, EMBED_BATCH + 2, EMBED_BATCH + 3]
        assert list(err.value.failures) == failed
        assert len({id(exc) for exc in err.value.failures.values()}) == 1
        model_dir = _Cache(tmp_path, mock=recorded.cfg.kind == "mock").embedding_path(
            recorded.cfg.effective_model_id, "").parent
        assert sorted(p.name for p in model_dir.iterdir()) == vector_names(DISTINCT[:EMBED_BATCH])


JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.text() | st.floats(
    allow_nan=False, allow_infinity=False)


class TestRepliesCached:
    def test_one_request_per_distinct_prompt_stored_as_its_sample_zero(self, stub, tmp_path):
        stub.state.chat_replies = ["1", "2"]
        gen = gen_cfg(stub, max_tokens=16)
        assert replies_cached(["p", "q", "p"], gen, tmp_path, int) == ["1", "2", "1"]
        assert [(body["messages"][0]["content"], body["n"], body["max_tokens"])
                for _, _, body in stub.state.requests] == [("p", 1, 16), ("q", 1, 16)]
        for prompt, reply in (("p", "1"), ("q", "2")):
            assert (tmp_path / prompt_hash(prompt, gen) / "samples" / "0.txt").read_text() == reply
        assert replies_cached(["q", "p"], gen, tmp_path, int) == ["2", "1"]
        assert stub.state.chat_calls == 2

    def test_refused_reply_fails_its_prompts_and_is_not_stored(self, stub, tmp_path):
        stub.state.chat_replies = ["x", "2"]
        gen = gen_cfg(stub)
        with pytest.raises(PartialFailure) as err:
            replies_cached(["p", "q", "p"], gen, tmp_path, int)  # int("x") raises ValueError
        assert err.value.stage == "generate" and list(err.value.failures) == [0, 2]
        assert "'x'" in str(err.value)
        assert not (tmp_path / prompt_hash("p", gen)).exists()
        assert (tmp_path / prompt_hash("q", gen) / "samples" / "0.txt").read_text() == "2"
        stub.state.chat_replies = ["3"]
        assert replies_cached(["p", "q", "p"], gen, tmp_path, int) == ["3", "2", "3"]
        assert stub.state.chat_calls == 3


class TestReportJson:
    @given(st.integers(2, 6), st.booleans(), st.sampled_from(sorted(MEASURES)),
           st.integers(0, 2**32 - 1), st.text(), st.dictionaries(st.text(), JSON_SCALARS))
    @example(2, False, "cosine", 0, "NaN", {})
    @example(3, True, "pearson", 1, "α", {"NaN": "NaN"})
    @settings(max_examples=60, deadline=None)
    def test_written_report_reads_back_to_the_same_bytes(self, k, with_gt, measure, seed,
                                                          prompt_id, extra):
        rng = np.random.default_rng(seed)
        vectors = [Embedding(rng.normal(size=8), model_id="m") for _ in range(k + with_gt)]
        matrix = build_matrix(vectors[:k], vectors[k] if with_gt else None, measure)
        thresholds = ConfidenceThresholds(rng.uniform(-0.99, 1.0), rng.uniform(0.0, 1.0))
        report = VerificationReport(
            prompt_id=prompt_id, k=k, measure=measure, summary=summarize(matrix, thresholds),
            matrix=matrix, thresholds=thresholds,
            provenance={**extra, "top_p": None, "note": "NaN", "model": "naïve-α"},
        )
        data = report_json_bytes(report)
        assert report_json_bytes(report_from_json(data)) == data


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

    @pytest.mark.parametrize("n", [1, 7, 4096, 100000])
    def test_files_are_np_save_bytes(self, tmp_path, n):
        values = np.random.default_rng(n).normal(size=n)
        saved = _npy(values)
        assert saved == _npy_header(n) + values.tobytes()
        cache = _Cache(tmp_path, "key")
        cache.store_embedding("m", "text", Embedding(values, model_id="m"))
        path = cache.embedding_path("m", "text")
        assert path.read_bytes() == saved
        assert np.array_equal(np.load(path), values)
        loaded = cache.load_embedding("m", "text")
        assert np.array_equal(loaded.values.view(np.uint64), values.view(np.uint64))

    def test_missing_entry_is_a_miss(self, tmp_path):
        assert _Cache(tmp_path, "key").load_embedding("m", "text") is None

    @pytest.mark.parametrize("damage", list(CORRUPTIONS.values()), ids=list(CORRUPTIONS))
    def test_damaged_entry_raises_naming_the_file(self, stub, tmp_path, damage):
        stub.state.chat_replies = DISJOINT
        cache = tmp_path / "cache"
        verify("q", None, 3, gen_cfg(stub), MOCK, cache_dir=cache)
        store = cache / "embeddings" / f"~{MOCK.effective_model_id}"
        path = store / vector_names([DISJOINT[1]])[0]
        path.write_bytes(damage(path.read_bytes()))
        requests = len(stub.state.requests)
        with pytest.raises(CorruptCacheEntry) as err:
            verify("q", None, 3, gen_cfg(stub), MOCK, cache_dir=cache)
        assert err.value.path == path
        assert str(path) in str(err.value)
        assert len(stub.state.requests) == requests

    @pytest.mark.parametrize("damage", [b"[]", b'"x"', b"{", b'{"generated_at": 1}',
                                        b"\xff{}"],
                             ids=["list", "string", "truncated", "number-value", "not-utf8"])
    def test_damaged_meta_raises_naming_the_file(self, stub, tmp_path, damage):
        stub.state.chat_replies = DISJOINT
        cache = tmp_path / "cache"
        report = verify("q", None, 3, gen_cfg(stub), MOCK, cache_dir=cache)
        path = cache / report.prompt_id / "meta.json"
        path.write_bytes(damage)
        requests = len(stub.state.requests)
        with pytest.raises(CorruptCacheEntry) as err:
            verify("q", None, 3, gen_cfg(stub), MOCK, cache_dir=cache)
        assert err.value.path == path
        assert str(path) in str(err.value)
        assert len(stub.state.requests) == requests
        assert path.read_bytes() == damage

    @pytest.mark.parametrize("damage", [b"\xff\xfe", b"", b" \n\t"],
                             ids=["not-utf8", "empty", "whitespace"])
    def test_damaged_reply_raises_naming_the_file(self, stub, tmp_path, damage):
        stub.state.chat_replies = DISJOINT
        cache = tmp_path / "cache"
        report = verify("q", None, 3, gen_cfg(stub), MOCK, cache_dir=cache)
        path = cache / report.prompt_id / "samples" / "1.txt"
        path.write_bytes(damage)
        requests = len(stub.state.requests)
        with pytest.raises(CorruptCacheEntry) as err:
            verify("q", None, 3, gen_cfg(stub), MOCK, cache_dir=cache)
        assert err.value.path == path
        assert str(path) in str(err.value)
        assert len(stub.state.requests) == requests
        assert path.read_bytes() == damage
