"""Provider client tests against an in-process stub endpoint, plus the
deterministic mock embedder."""

from __future__ import annotations

import json
import logging
import os
import signal
import socket
import time

import numpy as np
import pytest
from conftest import embed_fresh

from samplecheck import providers
from samplecheck.pipeline import (
    EmbedderConfig,
    GeneratorConfig,
    PartialFailure,
    embed_cached,
    verify,
)
from samplecheck.providers import (
    AuthError,
    DecoderExited,
    DimMismatch,
    EmptyText,
    MalformedResponse,
    PRESET_DIMS,
    ProviderConfig,
    RejectedRequest,
    TransportError,
    _embedding_rows,
    complete_once,
    mock_embed,
)
from samplecheck.vectors import cosine


def cfg_for(stub, **kwargs) -> ProviderConfig:
    defaults = dict(base_url=stub.url, timeout=5.0, max_retries=2,
                    max_concurrency=1, backoff_base=0.001)
    defaults.update(kwargs)
    return ProviderConfig(**defaults)


def run_verify(stub, k, tmp_path, max_concurrency=1):
    gen = GeneratorConfig(model_id="m", provider=cfg_for(stub, max_concurrency=max_concurrency))
    mock = EmbedderConfig(kind="mock", dim=64, seed=0)
    cache = tmp_path / "cache"
    report = verify("hi", None, k, gen, mock, cache_dir=cache)
    samples = cache / report.prompt_id / "samples"
    return [(samples / f"{i}.txt").read_text(encoding="utf-8") for i in range(k)]


class TestGenerateSamples:
    """Sampling over the chat endpoint: complete_once on the wire, and the
    per-index fan-out of verify that calls it once per sample."""

    def test_single_sample(self, stub):
        stub.state.chat_replies = ["A"]
        assert complete_once("hi", GeneratorConfig(model_id="m", provider=cfg_for(stub))) == ["A"]

    def test_three_samples_in_index_order(self, stub, tmp_path):
        stub.state.chat_replies = ["A", "B", "C"]
        assert run_verify(stub, 3, tmp_path) == ["A", "B", "C"]

    def test_ten_samples(self, stub, tmp_path):
        stub.state.chat_replies = [f"reply {i}" for i in range(10)]
        out = run_verify(stub, 10, tmp_path, max_concurrency=4)
        assert sorted(out) == sorted(f"reply {i}" for i in range(10))

    def test_one_call_per_sample(self, stub, tmp_path):
        run_verify(stub, 5, tmp_path)
        assert stub.state.chat_calls == 5

    def test_request_shape(self, stub):
        complete_once("hi", GeneratorConfig(model_id="m", provider=cfg_for(stub),
                                            temperature=0.7, max_tokens=9, top_p=0.5, top_k=40))
        path, _, body = stub.state.requests[0]
        assert path.endswith("/chat/completions")
        assert body == {
            "model": "m",
            "messages": [{"role": "user", "content": "hi"}],
            "temperature": 0.7,
            "max_tokens": 9,
            "n": 1,
            "top_p": 0.5,
            "top_k": 40,
        }

    @pytest.mark.parametrize("sampling, expected", [
        ({}, {"temperature": 1.0, "max_tokens": 1024}),
        ({"temperature": 0.0}, {"temperature": 0.0, "max_tokens": 1024}),
    ])
    def test_request_shape_leaves_unset_settings_out(self, stub, sampling, expected):
        complete_once("hi", GeneratorConfig(model_id="m", provider=cfg_for(stub), **sampling))
        assert stub.state.requests[0][2] == {
            "model": "m", "messages": [{"role": "user", "content": "hi"}], "n": 1, **expected}

    def test_default_temperature_is_one(self, stub):
        assert GeneratorConfig(model_id="m", provider=cfg_for(stub)).temperature == 1.0
        complete_once("hi", GeneratorConfig(model_id="m", provider=cfg_for(stub)))
        assert stub.state.requests[0][2]["temperature"] == 1.0

    def test_retries_then_succeeds(self, stub):
        stub.state.fail_statuses = [500, 500]
        assert complete_once("hi", GeneratorConfig(model_id="m", provider=cfg_for(stub))) == ["A"]
        assert len(stub.state.requests) == 3

    def test_transport_error_after_retries(self, stub):
        stub.state.fail_statuses = [500] * 10
        with pytest.raises(TransportError):
            complete_once("hi", GeneratorConfig(model_id="m", provider=cfg_for(stub)))
        assert len(stub.state.requests) == 3  # initial + 2 retries

    def test_auth_error_not_retried(self, stub):
        stub.state.fail_statuses = [401]
        with pytest.raises(AuthError):
            complete_once("hi", GeneratorConfig(model_id="m", provider=cfg_for(stub)))
        assert len(stub.state.requests) == 1

    def test_connection_error_retried_then_transport_error(self, caplog):
        with socket.socket() as sock:  # a local port that nothing listens on
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        provider = ProviderConfig(base_url=f"http://127.0.0.1:{port}", timeout=5.0,
                                  max_retries=1, backoff_base=0)
        with caplog.at_level(logging.DEBUG, logger="samplecheck.providers"):
            with pytest.raises(TransportError, match="failed after 2 attempts"):
                complete_once("hi", GeneratorConfig(model_id="m", provider=provider))
        attempts = [r.getMessage() for r in caplog.records if "attempt=" in r.getMessage()]
        assert len(attempts) == 2
        assert all("status=ConnectionError" in message for message in attempts)

    def test_truncated_body_retried(self, stub, caplog):
        stub.state.truncate = 1
        with caplog.at_level(logging.DEBUG, logger="samplecheck.providers"):
            assert complete_once("hi", GeneratorConfig(model_id="m",
                                                       provider=cfg_for(stub))) == ["A"]
        assert len(stub.state.requests) == 2
        assert "attempt=1 status=ChunkedEncodingError" in caplog.records[0].getMessage()

    def test_client_error_not_retried(self, stub):
        stub.state.fail_statuses = [404]
        with pytest.raises(MalformedResponse, match="unexpected HTTP 404"):
            complete_once("hi", GeneratorConfig(model_id="m", provider=cfg_for(stub)))
        assert len(stub.state.requests) == 1

    def test_json_body_not_an_object(self, stub):
        stub.state.raw_body = b'[{"choices": []}]'
        with pytest.raises(MalformedResponse, match="expected a JSON object"):
            complete_once("hi", GeneratorConfig(model_id="m", provider=cfg_for(stub)))
        assert len(stub.state.requests) == 1

    def test_content_not_a_string(self, stub):
        stub.state.raw_body = b'{"choices": [{"message": {"content": 5}}]}'
        with pytest.raises(MalformedResponse, match="not a string"):
            complete_once("hi", GeneratorConfig(model_id="m", provider=cfg_for(stub)))

    def test_malformed_json(self, stub):
        stub.state.raw_body = b"not json"
        with pytest.raises(MalformedResponse):
            complete_once("hi", GeneratorConfig(model_id="m", provider=cfg_for(stub)))

    def test_missing_choices(self, stub):
        stub.state.raw_body = b'{"unexpected": true}'
        with pytest.raises(MalformedResponse):
            complete_once("hi", GeneratorConfig(model_id="m", provider=cfg_for(stub)))

    def test_api_key_header_sent(self, stub, monkeypatch):
        monkeypatch.setenv("TEST_STUB_KEY", "sekrit")
        complete_once("hi", GeneratorConfig(
            model_id="m", provider=cfg_for(stub, api_key_env="TEST_STUB_KEY")))
        _, headers, _ = stub.state.requests[0]
        assert headers.get("Authorization") == "Bearer sekrit"

    def test_netrc_entry_does_not_replace_the_api_key(self, stub, monkeypatch, tmp_path):
        netrc = tmp_path / "netrc"
        netrc.write_text("machine 127.0.0.1 login alice password secret\n")
        netrc.chmod(0o600)
        monkeypatch.setenv("NETRC", str(netrc))
        monkeypatch.setenv("TEST_STUB_KEY", "sekrit")
        complete_once("hi", GeneratorConfig(
            model_id="m", provider=cfg_for(stub, api_key_env="TEST_STUB_KEY")))
        embed_fresh(["a"], cfg_for(stub), "custom-model")
        assert [headers.get("Authorization") for _, headers, _ in stub.state.requests] \
            == ["Bearer sekrit", None]

    def test_missing_api_key_env(self, stub, monkeypatch):
        monkeypatch.delenv("TEST_MISSING_KEY", raising=False)
        with pytest.raises(AuthError):
            complete_once("hi", GeneratorConfig(
            model_id="m", provider=cfg_for(stub, api_key_env="TEST_MISSING_KEY")))

    def test_debug_logs_redact_api_key(self, stub, monkeypatch, caplog):
        monkeypatch.setenv("TEST_STUB_KEY", "sekrit")
        stub.state.chat_replies = ["the-secret-reply-text"]
        stub.state.embed_fn = lambda text, model: [0.123456789, 0.987654321]
        stub.state.fail_statuses = [500]
        cfg = cfg_for(stub, api_key_env="TEST_STUB_KEY")
        with caplog.at_level("DEBUG", logger="samplecheck.providers"):
            complete_once("the-private-prompt-text", GeneratorConfig(model_id="m", provider=cfg))
            embed_fresh(["the-private-embed-input"], cfg, "custom-model")
        messages = [r.getMessage() for r in caplog.records]
        logged = " ".join(messages)
        assert "<redacted>" in logged
        assert "sekrit" not in logged
        for secret in ("the-private-prompt-text", "the-secret-reply-text",
                       "the-private-embed-input", "0.123456789", "0.987654321"):
            assert secret not in logged
        # One event per attempt: the 500, its retry, then the embeddings call.
        assert len(messages) == 3
        assert messages[0].startswith("POST /chat/completions attempt=1 status=500 ")
        assert messages[1].startswith("POST /chat/completions attempt=2 status=200 ")
        assert messages[2].startswith("POST /embeddings attempt=1 status=200 ")
        # Byte counts are those of the bodies on the wire.
        sent = len(json.dumps(stub.state.requests[-1][2]))
        received = len(json.dumps({"data": [{"index": 0, "embedding": [0.123456789, 0.987654321]}]}))
        assert f" sent={sent}B received={received}B " in messages[2]
        assert all(m.endswith("ms") for m in messages)

    def test_k_validation(self, stub, tmp_path):
        for k in (0, 1):
            with pytest.raises(ValueError):
                run_verify(stub, k, tmp_path)
        assert stub.state.requests == []

    def test_sampling_settings_validation(self, stub):
        with pytest.raises(ValueError):
            GeneratorConfig(model_id="m", provider=cfg_for(stub), temperature=-0.1)
        with pytest.raises(ValueError):
            GeneratorConfig(model_id="m", provider=cfg_for(stub), max_tokens=0)
        GeneratorConfig(model_id="m", provider=cfg_for(stub), temperature=0.0, max_tokens=1)


class TestChoices:
    """complete_once with n > 1: one request, up to n choices in list order."""

    def test_n_choices_in_one_request(self, stub):
        stub.state.choices = "n"
        stub.state.chat_replies = ["A", "B", "C"]
        assert complete_once("hi", GeneratorConfig(model_id="m", provider=cfg_for(stub)),
                             3) == ["A", "B", "C"]
        assert [body["n"] for _, _, body in stub.state.requests] == [3]

    def test_endpoint_that_ignores_n_gives_one_choice(self, stub):
        stub.state.chat_replies = ["A", "B"]
        assert complete_once("hi", GeneratorConfig(model_id="m", provider=cfg_for(stub)),
                             4) == ["A"]

    @pytest.mark.parametrize("choices", [[], [{"message": {"content": c}} for c in "ABC"]])
    def test_no_choice_or_more_than_n_rejected(self, stub, choices):
        stub.state.raw_body = json.dumps({"choices": choices}).encode()
        with pytest.raises(MalformedResponse, match="1 to 2 choices"):
            complete_once("hi", GeneratorConfig(model_id="m", provider=cfg_for(stub)), 2)

    def test_one_bad_choice_rejected(self, stub):
        stub.state.raw_body = b'{"choices": [{"message": {"content": "A"}}, {"message": {}}]}'
        with pytest.raises(MalformedResponse, match="choice 1"):
            complete_once("hi", GeneratorConfig(model_id="m", provider=cfg_for(stub)), 2)

    def test_choices_from_the_first_empty_one_are_dropped(self, stub):
        stub.state.choices = "n"
        stub.state.chat_replies = ["A", "B", " \n", "D"]
        assert complete_once("hi", GeneratorConfig(model_id="m", provider=cfg_for(stub)),
                             4) == ["A", "B"]

    @pytest.mark.parametrize("reply", ["", "  "])
    def test_empty_first_choice_rejected(self, stub, reply):
        stub.state.chat_replies = [reply]
        with pytest.raises(MalformedResponse, match="choice 0 is empty"):
            complete_once("hi", GeneratorConfig(model_id="m", provider=cfg_for(stub)))
        assert len(stub.state.requests) == 1

    def test_empty_reply_is_not_cached(self, stub, tmp_path):
        stub.state.chat_replies = ["alpha one", "", "gamma three"]
        gen = GeneratorConfig(model_id="m", provider=cfg_for(stub, max_retries=0))
        mock = EmbedderConfig(kind="mock", dim=64, seed=0)
        cache = tmp_path / "cache"
        with pytest.raises(PartialFailure, match="choice 0 is empty") as err:
            verify("hi", None, 3, gen, mock, cache_dir=cache)
        assert sorted(err.value.failures) == [1, 2]
        [samples] = cache.glob("*/samples")
        assert [p.name for p in samples.iterdir()] == ["0.txt"]
        # The next run's endpoint answers; only the two missing samples are asked for.
        stub.state.chat_replies = ["beta two", "delta four"]
        stub.state.chat_served = 0
        verify("hi", None, 3, gen, mock, cache_dir=cache)
        assert stub.state.chat_calls == 2 + 2  # "alpha one", ""; then one per missing sample
        assert sorted(p.read_text() for p in samples.iterdir()) \
            == ["alpha one", "beta two", "delta four"]

    def test_http_400_to_n_falls_back_to_one_choice_for_the_process(self, stub):
        stub.state.choices = "reject_n"
        stub.state.chat_replies = ["A", "B"]
        gen = GeneratorConfig(model_id="m", provider=cfg_for(stub))
        assert complete_once("hi", gen, 3) == ["A"]
        assert complete_once("hi", gen, 3) == ["B"]
        assert [body["n"] for _, _, body in stub.state.requests] == [3, 1, 1]

    def test_http_400_to_one_choice_raises(self, stub):
        stub.state.fail_statuses = [400]
        with pytest.raises(RejectedRequest, match="unexpected HTTP 400") as err:
            complete_once("hi", GeneratorConfig(model_id="m", provider=cfg_for(stub)))
        assert err.value.status == 400
        assert len(stub.state.requests) == 1

    def test_other_client_error_to_n_is_not_retried(self, stub):
        stub.state.fail_statuses = [422]
        with pytest.raises(RejectedRequest):
            complete_once("hi", GeneratorConfig(model_id="m", provider=cfg_for(stub)), 3)
        assert len(stub.state.requests) == 1


class TestRetryAfter:
    """A 429 or 503 response's Retry-After delta-seconds replaces the backoff."""

    @staticmethod
    def _waits(caplog) -> list[str]:
        return [m.split(" wait=")[1].split()[0] for m in
                (r.getMessage() for r in caplog.records) if " wait=" in m]

    def test_zero_overrides_a_long_backoff(self, stub, caplog):
        stub.state.fail_statuses = [429]
        stub.state.fail_headers = {"Retry-After": "0"}
        start = time.perf_counter()
        with caplog.at_level(logging.DEBUG, logger="samplecheck.providers"):
            assert complete_once("hi", GeneratorConfig(
                model_id="m", provider=cfg_for(stub, backoff_base=30.0))) == ["A"]
        assert time.perf_counter() - start < 1.0
        assert self._waits(caplog) == ["0.000s"]

    def test_capped_at_the_timeout(self, stub, caplog):
        stub.state.fail_statuses = [503]
        stub.state.fail_headers = {"Retry-After": "3600"}
        start = time.perf_counter()
        with caplog.at_level(logging.DEBUG, logger="samplecheck.providers"):
            assert complete_once("hi", GeneratorConfig(
                model_id="m", provider=cfg_for(stub, timeout=0.2))) == ["A"]
        assert time.perf_counter() - start < 1.0
        assert self._waits(caplog) == ["0.200s"]

    @pytest.mark.parametrize("hint", ["Wed, 21 Oct 2015 07:28:00 GMT", "1.5", "-1", "\u00b2"])
    def test_http_date_or_unparsable_keeps_the_backoff(self, stub, caplog, hint):
        stub.state.fail_statuses = [429]
        stub.state.fail_headers = {"Retry-After": hint}
        with caplog.at_level(logging.DEBUG, logger="samplecheck.providers"):
            complete_once("hi", GeneratorConfig(
                model_id="m", provider=cfg_for(stub, backoff_base=0.01, timeout=3.0)))
        [wait] = self._waits(caplog)
        assert 0.01 <= float(wait[:-1]) <= 0.02  # backoff_base * (1 + jitter)

    def test_ignored_on_other_statuses(self, stub, caplog):
        stub.state.fail_statuses = [500]
        stub.state.fail_headers = {"Retry-After": "0"}
        with caplog.at_level(logging.DEBUG, logger="samplecheck.providers"):
            complete_once("hi", GeneratorConfig(
                model_id="m", provider=cfg_for(stub, backoff_base=0.01)))
        [wait] = self._waits(caplog)
        assert float(wait[:-1]) >= 0.01

    def test_no_wait_after_the_last_attempt(self, stub, caplog):
        stub.state.fail_statuses = [429] * 3
        stub.state.fail_headers = {"Retry-After": "0"}
        with caplog.at_level(logging.DEBUG, logger="samplecheck.providers"):
            with pytest.raises(TransportError):
                complete_once("hi", GeneratorConfig(model_id="m", provider=cfg_for(stub)))
        assert self._waits(caplog) == ["0.000s", "0.000s"]


class TestEmbedText:
    def test_fixed_vector(self, stub):
        stub.state.embed_fn = lambda text, model: [0.5, 0.5, 0.0, 0.0]
        e = embed_fresh(["hello"], cfg_for(stub), "custom-model")[0]
        assert e.dim == 4
        assert e.model_id == "custom-model"

    def test_request_shape(self, stub):
        embed_fresh(["hello"], cfg_for(stub), "custom-model")[0]
        path, _, body = stub.state.requests[0]
        assert path.endswith("/embeddings")
        assert body == {"model": "custom-model", "input": ["hello"]}

    def test_preset_dim_enforced_gpt(self, stub):
        stub.state.embed_fn = lambda text, model: [0.0] * 3071 + [1.0]
        e = embed_fresh(["hello"], cfg_for(stub), "gpt-text-embedding-large")[0]
        assert e.dim == 3072

    def test_preset_dim_enforced_sfr(self, stub):
        stub.state.embed_fn = lambda text, model: [0.0] * 4095 + [1.0]
        e = embed_fresh(["hello"], cfg_for(stub), "sfr-embedding-mistral")[0]
        assert e.dim == 4096

    def test_preset_mismatch_raises(self, stub):
        stub.state.embed_fn = lambda text, model: [1.0, 2.0, 3.0]
        with pytest.raises(DimMismatch):
            embed_fresh(["hello"], cfg_for(stub), "gpt-text-embedding-large")[0]

    def test_presets_cover_known_models(self):
        assert PRESET_DIMS["gpt-text-embedding-large"] == 3072
        assert PRESET_DIMS["sfr-embedding-mistral"] == 4096
        assert PRESET_DIMS["e5-mistral-7b-instruct"] == 4096
        assert PRESET_DIMS["gte-qwen1.5-7b-instruct"] == 4096
        assert PRESET_DIMS["stella-en-1.5b-v5"] == 4096
        assert PRESET_DIMS["stella-en-400m-v5"] == 4096
        assert PRESET_DIMS["clip-vit-large"] == 768

    def test_empty_text(self, stub):
        with pytest.raises(EmptyText):
            embed_fresh(["   "], cfg_for(stub), "custom-model")[0]


def embeddings_body(*items) -> bytes:
    return json.dumps({"data": [{"index": i, "embedding": v} for i, v in items]}).encode()


class TestEmbedMany:
    """Several texts through embed_cached's http path: one request, items in input order."""

    def test_one_request_in_input_order(self, stub):
        stub.state.embed_fn = lambda text, model: [float(len(text)), 1.0]
        out = embed_fresh(["a", "bbb", "cc"], cfg_for(stub), "custom-model")
        assert [e.values.tolist() for e in out] == [[1.0, 1.0], [3.0, 1.0], [2.0, 1.0]]
        assert all(e.model_id == "custom-model" for e in out)
        assert len(stub.state.requests) == 1
        assert stub.state.requests[0][2] == {"model": "custom-model", "input": ["a", "bbb", "cc"]}

    def test_no_texts_no_request(self, stub):
        assert embed_fresh([], cfg_for(stub), "custom-model") == []
        assert stub.state.requests == []

    def test_shuffled_index_order_restored(self, stub):
        stub.state.raw_body = embeddings_body((2, [2.0, 0.0]), (0, [0.0, 1.0]), (1, [1.0, 0.0]))
        out = embed_fresh(["x", "y", "z"], cfg_for(stub), "custom-model")
        assert [e.values.tolist() for e in out] == [[0.0, 1.0], [1.0, 0.0], [2.0, 0.0]]

    def test_one_wrong_length_item(self, stub):
        good = [0.0] * 3072
        stub.state.raw_body = embeddings_body((0, good), (1, good[:-1]), (2, good))
        with pytest.raises(DimMismatch, match="input 1"):
            embed_fresh(["x", "y", "z"], cfg_for(stub), "gpt-text-embedding-large")

    def test_empty_text_rejected_before_any_request(self, stub, tmp_path):
        embedder = EmbedderConfig(kind="http", model_id="custom-model", provider=cfg_for(stub))
        with pytest.raises(PartialFailure) as err:
            embed_cached(["fine", "  ", "also fine"], embedder, tmp_path)
        assert str(err.value) == "stage 'embed' failed for indices [1]: 1: cannot embed empty text"
        assert [(i, type(exc)) for i, exc in err.value.failures.items()] == [(1, EmptyText)]
        assert stub.state.requests == []


MALFORMED_BODIES = [
    b"not json", b"[1, 2]", b'{"object": "list"}', b'{"data": {"0": [1.0]}}',
    embeddings_body((0, [1.0]), (1, [1.0])),
    embeddings_body((0, [1.0]), (1, [1.0]), (1, [1.0])),
    b'{"data": [{"index": 0, "embedding": [1.0]}, {"index": 1, "embedding": [1.0]},'
    b' {"index": true, "embedding": [1.0]}]}',
    embeddings_body((0, [1.0]), (1, [1.0, "x"]), (2, [1.0])),
    embeddings_body((0, [1.0]), (1, [1.0]), (2, [True])),
    b'{"data": [{"index": 0, "embedding": [1.0]}, {"index": 1, "embedding": [NaN]},'
    b' {"index": 2, "embedding": [1.0]}]}',
    embeddings_body((0, [1.0]), (1, "1.0"), (2, [])),
    embeddings_body((0, [1.0]), (1, [1.0]), (2, [1.0]), (3, [1.0])),
    embeddings_body((0, [1.0]), (1, [1.0]), (3, [1.0])),
    b'{"data": [{"index": 0, "embedding": [1.0]}, {"index": 1, "embedding": [1.0]},'
    b' {"embedding": [1.0]}]}',
]


class TestDecoders:
    """parse_embeddings parses each body in a forked decoder process."""

    def test_vectors_are_json_loads_bit_for_bit(self, stub):
        rng = np.random.default_rng(5)
        rows = [rng.standard_normal(4096) * 10.0 ** rng.integers(-300, 300, 4096)
                for _ in range(3)]
        stub.state.raw_body = embeddings_body(*((i, row.tolist()) for i, row in
                                                [(2, rows[2]), (0, rows[0]), (1, rows[1])]))
        out = embed_fresh(["x", "y", "z"], cfg_for(stub), "sfr-embedding-mistral")
        parsed = {item["index"]: item["embedding"]
                  for item in json.loads(stub.state.raw_body)["data"]}
        assert [e.values.tobytes() for e in out] == [
            np.asarray(parsed[i], dtype=np.float64).tobytes() for i in range(3)]

    @pytest.mark.parametrize("body", MALFORMED_BODIES)
    def test_malformed_body_raises_what_the_parse_raises(self, stub, body):
        with pytest.raises(MalformedResponse) as expected:
            _embedding_rows(body, stub.url + "/embeddings", 3, "custom-model")
        stub.state.raw_body = body
        with pytest.raises(MalformedResponse) as raised:
            embed_fresh(["x", "y", "z"], cfg_for(stub), "custom-model")
        assert (type(raised.value), str(raised.value)) == (type(expected.value),
                                                           str(expected.value))

    def test_a_killed_decoder_fails_only_its_batch(self, stub, tmp_path):
        providers._close_decoders()
        stub.state.embed_fn = lambda text, model: [float(len(text)), 1.0]
        embed = EmbedderConfig(kind="http", model_id="e", provider=cfg_for(stub))
        cache = tmp_path / "cache"
        assert [e.tolist() for e in embed_cached(["a", "bb"], embed, cache)] == [
            [1.0, 1.0], [2.0, 1.0]]
        [decoder] = drain_decoders()
        providers._decoders.put(decoder)
        os.kill(decoder.pid, signal.SIGKILL)
        texts = ["ccc", "a", "dddd"]
        with pytest.raises(PartialFailure) as err:
            embed_cached(texts, embed, cache)
        assert sorted(err.value.failures) == [0, 2]
        assert all(type(exc) is DecoderExited for exc in err.value.failures.values())
        assert "ended before it answered (exit code -9)" in str(err.value)
        assert drain_decoders() == []  # the dead decoder is reaped, not kept
        assert [e.tolist() for e in embed_cached(texts, embed, cache)] == [
            [3.0, 1.0], [1.0, 1.0], [4.0, 1.0]]
        [fresh] = drain_decoders()
        assert fresh.pid != decoder.pid
        fresh.close()


def drain_decoders() -> list:
    """Take every idle decoder out of the pool."""
    taken = []
    while not providers._decoders.empty():
        taken.append(providers._decoders.get_nowait())
    return taken


class TestEnvironment:
    """Proxy variables are read once per endpoint session and still honoured."""

    @pytest.fixture
    def closed_proxy(self, monkeypatch):
        with socket.socket() as sock:  # a local port that nothing listens on
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        for name in ("http_proxy", "HTTP_PROXY", "no_proxy", "NO_PROXY", "all_proxy",
                     "ALL_PROXY"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("HTTP_PROXY", f"http://127.0.0.1:{port}")

    def test_proxy_is_used(self, stub, closed_proxy):
        with pytest.raises(TransportError, match="ProxyError"):
            complete_once("hi", GeneratorConfig(model_id="m",
                                                provider=cfg_for(stub, max_retries=0)))
        assert stub.state.requests == []

    def test_no_proxy_goes_direct(self, stub, closed_proxy, monkeypatch):
        monkeypatch.setenv("NO_PROXY", "127.0.0.1")
        assert complete_once("hi", GeneratorConfig(model_id="m",
                                                   provider=cfg_for(stub))) == ["A"]


class TestConnections:
    def test_sequential_calls_share_one_connection(self, stub):
        cfg = cfg_for(stub, max_concurrency=1)
        for _ in range(3):
            complete_once("hi", GeneratorConfig(model_id="m", provider=cfg))
            embed_fresh(["a", "b"], cfg, "custom-model")
        assert len(stub.state.requests) == 6
        assert stub.state.connections == 1

    def test_retries_reuse_the_connection(self, stub):
        stub.state.fail_statuses = [500, 503]
        assert complete_once("hi", GeneratorConfig(model_id="m", provider=cfg_for(stub))) == ["A"]
        assert len(stub.state.requests) == 3
        assert stub.state.connections == 1

    def test_fan_out_opens_at_most_max_concurrency(self, stub, tmp_path):
        stub.state.chat_replies = [f"reply {i}" for i in range(12)]
        gen = GeneratorConfig(model_id="m", provider=cfg_for(stub, max_concurrency=3))
        embed = EmbedderConfig(kind="http", model_id="e", provider=cfg_for(stub, max_concurrency=3))
        verify("hi", "truth", 12, gen, embed, cache_dir=tmp_path / "cache")
        assert len(stub.state.requests) > 3
        assert 1 <= stub.state.connections <= 3


class TestMockEmbed:
    def test_deterministic(self):
        a = mock_embed("The quick brown fox", 64, seed=3)
        b = mock_embed("The quick brown fox", 64, seed=3)
        assert np.array_equal(a.values, b.values)

    def test_self_cosine_is_one(self):
        e = mock_embed("some tokens here", 64, seed=1)
        assert cosine(e, e) == 1.0

    def test_bag_of_words_symmetry(self):
        assert np.array_equal(
            mock_embed("a b c", 32, 0).values, mock_embed("c b a", 32, 0).values
        )

    def test_case_and_punctuation_normalized(self):
        assert np.array_equal(
            mock_embed("Hello, World!", 32, 0).values, mock_embed("hello world", 32, 0).values
        )

    def test_duplicate_token_changes_vector(self):
        a = mock_embed("x y z", 32, 0)
        b = mock_embed("x x y z", 32, 0)
        assert not np.array_equal(a.values, b.values)

    def test_seed_changes_vector(self):
        a = mock_embed("x y z", 32, 0)
        b = mock_embed("x y z", 32, 1)
        assert not np.array_equal(a.values, b.values)

    def test_unit_norm(self):
        e = mock_embed("alpha beta gamma delta", 128, 5)
        assert np.linalg.norm(e.values) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_tokens_near_orthogonal(self):
        t1 = " ".join(f"alpha{i}" for i in range(40))
        t2 = " ".join(f"beta{i}" for i in range(40))
        assert abs(cosine(mock_embed(t1, 4096, 0), mock_embed(t2, 4096, 0))) < 0.1

    def test_disjoint_tokens_bound_over_seeds(self):
        # Monte-Carlo estimate fixed before the build: for 40-token disjoint
        # texts at dim 4096 the bound held for 1000/1000 seeds.
        t1 = " ".join(f"alpha{i}" for i in range(40))
        t2 = " ".join(f"beta{i}" for i in range(40))
        hits = sum(
            abs(cosine(mock_embed(t1, 4096, s), mock_embed(t2, 4096, s))) < 0.1
            for s in range(1000)
        )
        assert hits / 1000 >= 0.99

    def test_cancelled_counts_fall_back_to_one_bucket(self):
        # At dim 8 and seed 0, w1 and w2 hash to one bucket with opposite signs.
        e = mock_embed("w1 w2", 8, 0)
        assert np.count_nonzero(e.values) == 1
        assert np.linalg.norm(e.values) == 1.0
        assert np.array_equal(e.values, mock_embed("w2 w1", 8, 0).values)

    def test_min_dim(self):
        with pytest.raises(ValueError):
            mock_embed("abc", 4)

    def test_empty_text(self):
        for text in ("", " \n\t "):
            with pytest.raises(EmptyText, match="cannot embed empty text"):
                mock_embed(text, 32)

    @pytest.mark.parametrize("text", ["!!! ...", "...", "привет"])
    def test_text_with_no_token_is_one_bucket_of_its_stripped_text(self, text):
        e = mock_embed(text, 32)
        assert np.count_nonzero(e.values) == 1
        assert np.linalg.norm(e.values) == 1.0
        assert np.array_equal(e.values, mock_embed(f"  {text}\n", 32).values)
        assert np.array_equal(e.values, mock_embed(text, 32).values)

    def test_model_id_records_dim_and_seed(self):
        assert mock_embed("abc", 32, 7).model_id == "mock-d32-s7"


class TestProviderConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProviderConfig(base_url="http://x", timeout=0)
        with pytest.raises(ValueError):
            ProviderConfig(base_url="http://x", max_retries=-1)
        with pytest.raises(ValueError):
            ProviderConfig(base_url="http://x", max_concurrency=0)

    @pytest.mark.parametrize("url", ["api.example.com/v1", "/v1", "http:///v1", "ftp://x/v1",
                                     "localhost:8000", "", "http://127.0.0.1:99999/v1",
                                     "http://h:abc/v1", "http://127.0.0.1:0/v1"])
    def test_base_url_must_be_absolute_http(self, url):
        with pytest.raises(ValueError, match="base_url"):
            ProviderConfig(base_url=url)

    def test_mock_embedder_takes_no_provider(self):
        with pytest.raises(ValueError, match="no provider"):
            EmbedderConfig(kind="mock", provider=ProviderConfig(base_url="https://x/v1"))
