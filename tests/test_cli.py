"""CLI surface: exit codes, outputs, determinism, dataset evaluation."""

from __future__ import annotations

import dataclasses
import importlib.util
import io
import json
import math
import os
import stat
import subprocess
import sys
import threading
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from test_eval import passages_from_sweep_records
from test_pipeline import CORRUPTIONS, vector_path
from test_render import csv_to_matrix, svg_cell_texts

from samplecheck import cli, costmodel, document
from samplecheck.cli import (
    ConfigError,
    EvalSettings,
    RunConfig,
    _write_outputs,
    build_parser,
    load_config,
    main,
)
from samplecheck.eval import (
    BinaryRecord,
    LabeledPassage,
    corruption_corpus,
    mock_scorer,
    threshold_sweep,
    write_records_jsonl,
)
from samplecheck.pipeline import EMBED_BATCH, EmbedderConfig, GeneratorConfig, report_from_json
from samplecheck.providers import ProviderConfig, mock_embed
from samplecheck.scorematrix import ConfidenceThresholds

ROOT = Path(__file__).resolve().parents[1]

DISJOINT = [
    " ".join(f"alpha{i}" for i in range(40)),
    " ".join(f"beta{i}" for i in range(40)),
    " ".join(f"gamma{i}" for i in range(40)),
]


def write_config(tmp_path, stub, k=3, **extra):
    cfg = {
        "k": k,
        "measure": "cosine",
        "thresholds": {"mean_min": 0.9, "std_max": 0.05},
        "cache_dir": str(tmp_path / "cache"),
        "output_dir": str(tmp_path / "out"),
        "max_concurrency": 1,
        "generation": {
            "base_url": stub.url,
            "model_id": "stub-model",
            "temperature": 1.0,
            "max_tokens": 256,
            "timeout": 5,
            "max_retries": 1,
            "backoff_base": 0.001,
        },
        "embedding": {"kind": "mock", "dim": 4096, "seed": 0},
    }
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg, indent=2))
    return path


@pytest.fixture
def prompt_file(tmp_path):
    path = tmp_path / "prompt.txt"
    path.write_text("Define the term in question.")
    return path


class TestVerifyCommand:
    def test_identical_replies_exit_zero(self, stub, tmp_path, prompt_file, capsys):
        stub.state.chat_replies = ["the one stable answer"]
        config = write_config(tmp_path, stub)
        code = main(["verify", "--config", str(config), "--prompt", str(prompt_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict=HighConfidence" in out
        for name in ("report.json", "heatmap.csv", "heatmap.svg"):
            assert (tmp_path / "out" / name).exists()

    def test_disjoint_replies_exit_two(self, stub, tmp_path, prompt_file):
        stub.state.chat_replies = DISJOINT
        config = write_config(tmp_path, stub)
        code = main(["verify", "--config", str(config), "--prompt", str(prompt_file)])
        assert code == 2

    def test_missing_config_exit_one_no_outputs(self, stub, tmp_path, prompt_file, capsys):
        code = main(
            ["verify", "--config", str(tmp_path / "absent.json"), "--prompt", str(prompt_file)]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_second_run_byte_identical(self, stub, tmp_path, prompt_file):
        stub.state.chat_replies = DISJOINT
        config = write_config(tmp_path, stub)
        assert main(["verify", "--config", str(config), "--prompt", str(prompt_file)]) == 2
        first = {
            name: (tmp_path / "out" / name).read_bytes()
            for name in ("report.json", "heatmap.csv", "heatmap.svg")
        }
        calls = len(stub.state.requests)
        assert main(["verify", "--config", str(config), "--prompt", str(prompt_file)]) == 2
        assert len(stub.state.requests) == calls  # warm cache: no provider calls
        for name, data in first.items():
            assert (tmp_path / "out" / name).read_bytes() == data

    @pytest.mark.parametrize("cold_choices", ["n", "one"])
    def test_n_choices_per_request_then_warm_byte_identical(self, stub, tmp_path, prompt_file,
                                                            cold_choices):
        # k=10 at max_concurrency 2 asks for 5 choices per chat request. A cache
        # filled one choice per request is just as warm for an endpoint honouring n.
        stub.state.choices = cold_choices
        stub.state.chat_replies = [f"reply {i} " + DISJOINT[i % 3] for i in range(10)]
        stub.state.embed_fn = lambda text, model: mock_embed(text, 64, 0).tolist()
        embedding = {"kind": "http", "base_url": stub.url, "model_id": "stub-embed"}
        config = write_config(tmp_path, stub, k=10, max_concurrency=2, embedding=embedding)
        args = ["verify", "--config", str(config), "--prompt", str(prompt_file)]
        assert main(args) == 2
        chat = [body["n"] for path, _, body in stub.state.requests
                if path.endswith("/chat/completions")]
        # An endpoint that ignores n answers each of 5, 4, ..., 1 choices with one.
        assert sorted(chat) == ([5, 5] if cold_choices == "n" else sorted([1, 2, 3, 4, 5] * 2))
        assert stub.state.embed_calls == math.ceil(10 / EMBED_BATCH)
        first = {name: (tmp_path / "out" / name).read_bytes()
                 for name in ("report.json", "heatmap.csv", "heatmap.svg")}

        stub.state.choices = "n"
        requests = len(stub.state.requests)
        assert main(args) == 2
        assert len(stub.state.requests) == requests
        for name, data in first.items():
            assert (tmp_path / "out" / name).read_bytes() == data

    def test_requests_in_flight_stay_within_max_concurrency(self, stub, tmp_path, prompt_file):
        # One endpoint serves both stages, so they share one session and its
        # connections. Each body parse frees its request slot, and still no
        # more than max_concurrency requests are ever in flight.
        stub.state.choices = "n"
        stub.state.chat_replies = [f"reply {i}" for i in range(40)]

        def embed_fn(text, model):
            time.sleep(0.005)  # 20 ms per request of 4 texts, so requests overlap
            return mock_embed(text, 64, 0).tolist()

        stub.state.embed_fn = embed_fn
        endpoint = {"base_url": stub.url, "timeout": 5, "max_retries": 1, "backoff_base": 0.001}
        config = write_config(tmp_path, stub, k=40, max_concurrency=2, embedding={
            "kind": "http", "model_id": "stub-embed", **endpoint})
        cfg = load_config(config)
        assert cfg.generation.provider == cfg.embedding.provider
        assert main(["verify", "--config", str(config), "--prompt", str(prompt_file)]) == 2
        assert stub.state.embed_calls == 40 // EMBED_BATCH
        in_flight = stub.state.in_flight_max
        assert in_flight["/embeddings"] == 2
        assert in_flight["/chat/completions"] <= 2
        assert stub.state.connections <= 2

    def test_reply_with_no_token_is_embedded_and_cached(self, stub, tmp_path, prompt_file):
        # The mock embedder refuses only what complete_once never stores.
        stub.state.chat_replies = ["a b", "...", "c d"]
        config = write_config(tmp_path, stub)
        args = ["verify", "--config", str(config), "--prompt", str(prompt_file)]
        assert main(args) in (0, 2)
        first = (tmp_path / "out" / "report.json").read_bytes()
        chat = stub.state.chat_calls
        assert main(args) in (0, 2)
        assert stub.state.chat_calls == chat
        assert (tmp_path / "out" / "report.json").read_bytes() == first

    def test_failed_write_keeps_previous_outputs(self, stub, tmp_path, prompt_file,
                                                 monkeypatch):
        stub.state.chat_replies = DISJOINT
        config = write_config(tmp_path, stub, k=3)
        args = ["verify", "--config", str(config), "--prompt", str(prompt_file)]
        assert main(args) == 2
        assert main(args + ["--k", "2", "--out", str(tmp_path / "k2")]) == 2
        other = tmp_path / "k2" / "report.json"
        out = tmp_path / "out"
        before = {p.name: p.read_bytes() for p in out.iterdir()}

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
                self.fh.flush()
                raise OSError(28, "No space left on device")

        def failing_open(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            return FullDisk(fh) if "w" in mode else fh

        monkeypatch.setattr(io, "open", failing_open)
        with pytest.raises(OSError):
            _write_outputs(report_from_json(other.read_bytes()), out)
        assert main(["heatmap", "--report", str(other), "--out", str(out / "heatmap.svg")]) == 1
        monkeypatch.undo()
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_gt_flag(self, stub, tmp_path, prompt_file):
        stub.state.chat_replies = ["alpha beta gamma"]
        gt = tmp_path / "gt.txt"
        gt.write_text("alpha beta gamma")
        config = write_config(tmp_path, stub, k=2)
        code = main(
            ["verify", "--config", str(config), "--prompt", str(prompt_file),
             "--gt", str(gt)]
        )
        assert code == 0
        report = report_from_json((tmp_path / "out" / "report.json").read_bytes())
        assert report.summary.gt_alignment == pytest.approx(1.0)
        assert report.matrix.labels[-1] == "GT"

    def test_gt_vector_of_another_dim_exit_one_no_output(self, stub, tmp_path, prompt_file,
                                                         capsys):
        # The model has no preset dimension, so only the matrix finds the GT's vector short.
        stub.state.chat_replies = DISJOINT
        gt = tmp_path / "gt.txt"
        gt.write_text("the ground truth")
        stub.state.embed_fn = lambda text, model: [1.0, 0.5, 0.25] + [0.0] * (text in DISJOINT)
        embedding = {"kind": "http", "base_url": stub.url, "model_id": "stub-embed"}
        config = write_config(tmp_path, stub, k=2, embedding=embedding)
        assert main(["verify", "--config", str(config), "--prompt", str(prompt_file),
                     "--gt", str(gt)]) == 1
        assert capsys.readouterr().err == "error: GT embedding has dim 3, expected 4\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("which", ["config", "prompt", "gt"])
    def test_non_utf8_input_exit_one_names_file(self, stub, tmp_path, prompt_file, capsys,
                                                which):
        config = write_config(tmp_path, stub)
        gt = tmp_path / "gt.txt"
        gt.write_text("alpha beta gamma")
        bad = {"config": config, "prompt": prompt_file, "gt": gt}[which]
        bad.write_bytes(b"\xff\xfe" + bad.read_bytes())
        args = ["verify", "--config", str(config), "--prompt", str(prompt_file), "--gt", str(gt)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{bad} is not UTF-8: " in err
        assert stub.state.requests == []
        assert not (tmp_path / "out").exists()

    def test_config_not_json_exit_one_names_file(self, stub, tmp_path, prompt_file, capsys):
        config = tmp_path / "bad.json"
        config.write_text("{")
        assert main(["verify", "--config", str(config), "--prompt", str(prompt_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {config} is not valid JSON: ")
        assert stub.state.requests == []

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="json reads integers of any length")
    def test_config_with_too_long_an_integer_exit_one_names_file(self, tmp_path, prompt_file,
                                                                 capsys):
        config = tmp_path / "long.json"
        config.write_text('{"k": ' + "1" * (sys.get_int_max_str_digits() + 1) + "}")
        with pytest.raises(ConfigError, match="is not valid JSON: Exceeds the limit"):
            load_config(config)
        assert main(["verify", "--config", str(config), "--prompt", str(prompt_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {config} is not valid JSON: ")

    def test_parser_built_once_and_options_not_inherited(self, stub, tmp_path, prompt_file):
        assert build_parser() is build_parser()
        stub.state.chat_replies = DISJOINT
        gt = tmp_path / "gt.txt"
        gt.write_text(DISJOINT[0])
        config = write_config(tmp_path, stub)
        verify = ["verify", "--config", str(config), "--prompt", str(prompt_file)]
        report_path = tmp_path / "out" / "report.json"
        assert main([*verify, "--gt", str(gt), "--measure", "pearson"]) == 2
        first = report_from_json(report_path.read_bytes())
        assert (first.matrix.has_gt, first.measure) == (True, "pearson")
        assert main(verify) == 2
        second = report_from_json(report_path.read_bytes())
        assert (second.matrix.has_gt, second.measure) == (False, "cosine")

    def test_k_flag_overrides_config(self, stub, tmp_path, prompt_file):
        stub.state.chat_replies = ["stable answer"]
        config = write_config(tmp_path, stub, k=3)
        main(["verify", "--config", str(config), "--prompt", str(prompt_file), "--k", "5"])
        report = report_from_json((tmp_path / "out" / "report.json").read_bytes())
        assert report.k == 5 and report.matrix.order == 5

    @pytest.mark.parametrize("k", ["0", "1"])
    @pytest.mark.parametrize("command", ["verify", "eval"])
    def test_bad_k_flag_exit_one_before_any_request(self, stub, tmp_path, prompt_file, capsys,
                                                    command, k):
        records = [BinaryRecord(id=f"r{i}", response="a", label="faithful",
                                samples=(f"x{i}", f"y{i}", f"z{i}")) for i in range(3)]
        dataset = tmp_path / "rag.jsonl"
        write_records_jsonl(dataset, records)
        embedding = {"kind": "http", "base_url": stub.url, "model_id": "stub-embed"}
        config = write_config(tmp_path, stub, k=3, embedding=embedding)
        inputs = {"verify": ["--prompt", str(prompt_file)],
                  "eval": ["--dataset", str(dataset), "--scheme", "checkembed",
                           "--task", "ragtruth"]}[command]
        assert main([command, "--config", str(config), *inputs, "--k", k]) == 1
        assert capsys.readouterr().err == "error: k must be >= 2\n"
        assert stub.state.requests == []

    @pytest.mark.parametrize("damage", ["truncated_data", "bad_header", "object_array",
                                        "two_dim"])
    def test_corrupt_cache_entry_exit_one_names_file(self, stub, tmp_path, prompt_file,
                                                     capsys, damage):
        stub.state.chat_replies = DISJOINT
        config = write_config(tmp_path, stub)
        args = ["verify", "--config", str(config), "--prompt", str(prompt_file)]
        assert main(args) == 2
        path = vector_path(tmp_path / "cache", "mock-d4096-s0", DISJOINT[0], mock=True)
        path.write_bytes(CORRUPTIONS[damage](path.read_bytes()))
        capsys.readouterr()
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: corrupt cache entry") and str(path) in err


class TestLoadConfig:
    @staticmethod
    def _load(tmp_path, stub, **generation):
        config = write_config(tmp_path, stub)
        obj = json.loads(config.read_text())
        obj["generation"].update(generation)
        config.write_text(json.dumps(obj))
        return load_config(config)

    @pytest.mark.parametrize("given, top_p, top_k", [
        ({}, None, None),
        ({"top_p": None, "top_k": None}, None, None),
        ({"top_p": "0.5", "top_k": "3"}, 0.5, 3),
        ({"top_p": 1, "top_k": 40}, 1.0, 40),
        ({"top_p": "1", "top_k": 40.0}, 1.0, 40),
        ({"top_k": "4e1"}, None, 40),
    ])
    def test_sampling_settings_converted(self, stub, tmp_path, given, top_p, top_k):
        gen = self._load(tmp_path, stub, **given).generation
        assert (gen.top_p, gen.top_k) == (top_p, top_k)
        assert type(gen.top_p) is type(top_p) and type(gen.top_k) is type(top_k)

    @pytest.mark.parametrize("given", [
        {"top_p": 7.0}, {"top_p": 0}, {"top_p": -0.1}, {"top_p": "nan"}, {"top_p": [0.5]},
        {"top_p": "x"}, {"top_k": -2}, {"top_k": 0}, {"top_k": [3]}, {"top_k": "three"},
        {"temperature": "nan"}, {"temperature": "inf"}, {"timeout": "nan"},
        {"backoff_base": -1}, {"backoff_base": "nan"},
        {"max_tokens": 100.7}, {"max_tokens": "100.7"}, {"top_k": 3.9}, {"top_k": True},
        {"temperature": True}, {"top_p": True}, {"timeout": False}, {"max_retries": 1.5},
        {"max_concurrency": 1.5}, {"max_concurrency": True}, {"max_tokens": 1e400},
        {"timeout": 10 ** 400}, {"base_url": 5}, {"api_key_env": ["KEY"]}, {"model_id": 7},
        {"base_url": "api.example.com/v1"}, {"base_url": "http://127.0.0.1:99999/v1"},
        {"base_url": "http://h:abc/v1"}, {"base_url": "http://127.0.0.1:0/v1"},
    ])
    def test_bad_sampling_settings_rejected(self, stub, tmp_path, prompt_file, capsys, given):
        with pytest.raises(ConfigError):
            self._load(tmp_path, stub, **given)
        config = tmp_path / "config.json"
        args = ["verify", "--config", str(config), "--prompt", str(prompt_file)]
        assert main(args) == 1
        assert capsys.readouterr().err.startswith(f"error: invalid config {config}: ")
        assert stub.state.requests == []

    @pytest.mark.parametrize("given", [
        {"k": 2.9}, {"k": "2.9"}, {"k": True}, {"max_concurrency": 1.5},
        {"thresholds": {"mean_min": True}}, {"eval": {"grid_points": 10.5}},
        {"embedding": {"kind": "mock", "dim": 4096.5}},
        {"embedding": {"kind": "mock", "dim": 4}}, {"measure": 3}, {"cache_dir": 5},
        {"eval": {"polarity": ["low_score_flags"]}}, {"generation": "gpt"},
        {"embedding": {"kind": "mock", "base_url": "http://localhost:1"}},
        {"embedding": {"kind": "foo"}}, {"embedding": {"kind": "http"}},
        {"embedding": {"kind": "http", "base_url": "http://127.0.0.1:9"}}, {"k": 1},
    ])
    def test_bad_run_settings_rejected_before_any_request(self, stub, tmp_path, prompt_file,
                                                          capsys, given):
        config = write_config(tmp_path, stub, k=3)
        obj = {**json.loads(config.read_text()), **given}
        config.write_text(json.dumps(obj))
        with pytest.raises(ConfigError):
            load_config(config)
        assert main(["verify", "--config", str(config), "--prompt", str(prompt_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid config {config}: ")
        if given.get("embedding", {}).get("kind") == "http":
            missing = [key for key in ("base_url", "model_id") if key not in given["embedding"]]
            assert err == (f"error: invalid config {config}: http embedder needs "
                           f"{' and '.join(missing)}\n")
        assert stub.state.requests == []

    @pytest.mark.parametrize("section, given, key", [
        ("generation", {"temprature": 0.0}, "generation.temprature"),
        ("thresholds", {"mean_minimum": 0.5}, "thresholds.mean_minimum"),
        ("generation", {"provider": {"timeout": 5}}, "generation.provider"),
        (None, {"colour": "blue"}, "colour"),
        ("eval", {"grid": 11}, "eval.grid"),
        ("embedding", {"dims": 64}, "embedding.dims"),
    ])
    def test_unknown_key_exit_one_names_it(self, stub, tmp_path, prompt_file, capsys,
                                           section, given, key):
        config = write_config(tmp_path, stub)
        obj = json.loads(config.read_text())
        (obj.setdefault(section, {}) if section else obj).update(given)
        config.write_text(json.dumps(obj))
        assert main(["verify", "--config", str(config), "--prompt", str(prompt_file)]) == 1
        assert capsys.readouterr().err == f"error: invalid config {config}: unknown key {key}\n"
        assert stub.state.requests == []

    @pytest.mark.parametrize("given, repeat, key", [
        ('"k": 3,', '"k": 5,', "k"),
        ('"model_id": "stub-model",', '"model_id": "other-model",', "generation.model_id"),
        ('"mean_min": 0.9,', '"mean_min": 0.9,', "thresholds.mean_min"),
        ('"kind": "mock",', '"kind": "mock",', "embedding.kind"),
        ('"max_concurrency": 1,', '"max_concurrency": 4,', "max_concurrency"),
    ])
    def test_duplicate_key_exit_one_names_it(self, stub, tmp_path, prompt_file, capsys,
                                             given, repeat, key):
        config = write_config(tmp_path, stub)
        text = config.read_text()
        assert text.count(given) == 1
        config.write_text(text.replace(given, f"{given} {repeat}"))
        with pytest.raises(ConfigError, match=f"duplicate key {key}$"):
            load_config(config)
        assert main(["verify", "--config", str(config), "--prompt", str(prompt_file)]) == 1
        assert capsys.readouterr().err == (
            f"error: invalid config {config}: duplicate key {key}\n")
        assert stub.state.requests == []

    @pytest.mark.parametrize("obj, key", [
        ({}, "generation"),
        ({"generation": None}, "generation"),
        ({"generation": {"model_id": "m"}}, "generation.base_url"),
        ({"generation": {"base_url": "http://127.0.0.1:9", "model_id": None}},
         "generation.model_id"),
        ({"generation": {"base_url": "http://127.0.0.1:9", "model_id": "m"},
          "embedding": {"kind": "http", "model_id": "e", "timeout": 5}}, "embedding.base_url"),
    ])
    def test_missing_key_exit_one_names_it(self, stub, tmp_path, prompt_file, capsys, obj, key):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(obj))
        with pytest.raises(ConfigError, match=f"missing key {key}$"):
            load_config(config)
        assert main(["verify", "--config", str(config), "--prompt", str(prompt_file)]) == 1
        assert capsys.readouterr().err == f"error: invalid config {config}: missing key {key}\n"
        assert stub.state.requests == []

    def test_equal_keys_of_two_sections_load(self, stub, tmp_path):
        embedding = {"kind": "http", "base_url": stub.url, "model_id": "stub-embed"}
        cfg = load_config(write_config(tmp_path, stub, embedding=embedding))
        assert (cfg.generation.model_id, cfg.embedding.model_id) == ("stub-model", "stub-embed")

    def test_every_config_field_type_is_converted(self):
        for cls in (RunConfig, GeneratorConfig, ProviderConfig, EmbedderConfig,
                    ConfidenceThresholds, EvalSettings):
            document._spec(cls)  # a TypeError names a type the reader cannot convert
        with pytest.raises(TypeError):
            document._converter(bool)

    def test_readme_example_loads(self, tmp_path):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        example = readme.split("### Configuration", 1)[1].split("```json\n", 1)[1]
        path = tmp_path / "config.json"
        path.write_text(example.split("```", 1)[0])
        endpoint = dict(base_url="https://api.example.com/v1", max_concurrency=4)
        assert load_config(path) == RunConfig(
            generation=GeneratorConfig(
                model_id="gpt-4o", max_tokens=1024, temperature=1.0, provider=ProviderConfig(
                    api_key_env="GENERATION_API_KEY", timeout=30.0, max_retries=3, **endpoint)),
            embedding=EmbedderConfig(kind="http", model_id="sfr-embedding-mistral",
                                     provider=ProviderConfig(api_key_env="EMBEDDING_API_KEY",
                                                             **endpoint)),
            thresholds=ConfidenceThresholds(0.9, 0.05), cache_dir=tmp_path / "cache",
            output_dir=tmp_path / "out", k=10, measure="cosine", eval=EvalSettings())

    def test_benchmark_config_loads(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sys, "path", list(sys.path))  # run.py puts perfbench/ on it
        spec = importlib.util.spec_from_file_location("perfbench_run",
                                                      ROOT / "perfbench" / "run.py")
        run = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, run)
        spec.loader.exec_module(run)
        path = run._config(tmp_path / "config.json", "http://127.0.0.1:9", tmp_path / "c",
                           tmp_path / "o", 16)
        provider = ProviderConfig(base_url="http://127.0.0.1:9", timeout=30.0, max_retries=3,
                                  max_concurrency=run.CONCURRENCY, backoff_base=0.05)
        assert load_config(path) == RunConfig(
            generation=GeneratorConfig(model_id=run.CHAT_MODEL, max_tokens=512,
                                       provider=provider),
            embedding=EmbedderConfig(kind="http", model_id=run.EMBED_MODEL, provider=provider),
            thresholds=ConfidenceThresholds(*run.THRESHOLDS), cache_dir=tmp_path / "c",
            output_dir=tmp_path / "o", k=16, measure="cosine")

    def test_integral_numbers_load_as_integers(self, stub, tmp_path):
        config = write_config(tmp_path, stub, k=3.0, max_concurrency="2",
                              embedding={"kind": "mock", "dim": "16", "seed": 1.0})
        cfg = load_config(config)
        values = (cfg.k, cfg.generation.provider.max_concurrency, cfg.embedding.dim,
                  cfg.embedding.seed)
        assert values == (3, 2, 16, 1)
        assert all(type(v) is int for v in values)

    def test_nan_std_max_rejected(self, stub, tmp_path, prompt_file, capsys):
        config = write_config(tmp_path, stub, thresholds={"mean_min": 0.9, "std_max": "nan"})
        with pytest.raises(ConfigError):
            load_config(config)
        assert main(["verify", "--config", str(config), "--prompt", str(prompt_file)]) == 1
        assert capsys.readouterr().err.startswith(f"error: invalid config {config}: ")
        assert stub.state.requests == []

    @pytest.mark.parametrize("nulls", [False, True], ids=["absent", "null"])
    def test_minimal_config_takes_every_dataclass_default(self, stub, tmp_path, nulls):
        generation = {"base_url": stub.url, "model_id": "m"}
        obj = {"generation": generation}
        if nulls:
            generation.update(dict.fromkeys(
                ["api_key_env", "timeout", "max_retries", "max_concurrency", "backoff_base",
                 "temperature", "max_tokens", "top_p", "top_k"]))
            obj.update(dict.fromkeys(["k", "measure", "max_concurrency", "cache_dir",
                                      "output_dir", "thresholds", "eval", "embedding"]))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(obj))
        cfg = load_config(path)
        assert (cfg.cache_dir, cfg.output_dir) == (tmp_path / "cache", tmp_path / "out")
        for section, cls in [(cfg, RunConfig), (cfg.generation, GeneratorConfig),
                             (cfg.generation.provider, ProviderConfig),
                             (cfg.embedding, EmbedderConfig),
                             (cfg.thresholds, ConfidenceThresholds), (cfg.eval, EvalSettings)]:
            for field in dataclasses.fields(cls):
                if field.default is not dataclasses.MISSING:
                    default = field.default
                    if field.type == "Path":  # a relative default resolves like a given path
                        default = tmp_path / default
                    assert getattr(section, field.name) == default, (cls, field.name)

    def test_null_sections_and_embedding_keys_take_defaults(self, stub, tmp_path):
        config = write_config(tmp_path, stub, thresholds={"mean_min": None, "std_max": 0.1},
                              embedding={"kind": "mock", "dim": None, "seed": 3,
                                         "base_url": None})
        cfg = load_config(config)
        assert cfg.thresholds == ConfidenceThresholds(std_max=0.1)
        assert cfg.embedding == EmbedderConfig(kind="mock", seed=3)


class TestEvalCommand:
    @pytest.mark.parametrize("scheme", ["checkembed", "judge"])
    def test_failed_record_is_named(self, stub, tmp_path, capsys, scheme):
        # Without the zero-corruption record, each record has EMBED_BATCH distinct
        # replies, so each is exactly one embeddings request of the window.
        records, _ = corruption_corpus(
            n_levels=4, records_per_level=1, k=EMBED_BATCH, base_tokens=10, seed=2
        )
        records = records[1:]
        passages = passages_from_sweep_records(records)
        dataset = tmp_path / "wikibio.jsonl"
        write_records_jsonl(dataset, passages)
        embedding = {"kind": "http", "base_url": stub.url, "model_id": "stub-embed",
                     "timeout": 5, "max_retries": 0}
        config = write_config(tmp_path, stub, k=EMBED_BATCH, embedding=embedding)
        obj = json.loads(config.read_text())
        obj["generation"]["max_retries"] = 0
        config.write_text(json.dumps(obj))
        if scheme == "checkembed":
            second = set(records[1].samples)

            def embed(text, model):
                if text in second:
                    raise RuntimeError("injected")  # the stub answers HTTP 500
                return mock_embed(text, 64, 0).tolist()

            stub.state.embed_fn = embed
        else:
            stub.state.chat_replies = ["90", "not a score", "10"]
        code = main(["eval", "--config", str(config), "--dataset", str(dataset),
                     "--scheme", scheme, "--task", "wikibio"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: record {passages[1].id!r}: ")
        assert passages[0].id not in err and passages[2].id not in err
        # A failed request fails only its records: the others' requests are still sent.
        assert len(stub.state.requests) == 3

    def test_scoring_value_error_names_the_record(self, stub, tmp_path, capsys):
        # The model has no preset dimension, so one 3-value vector among 4-value
        # ones is found only when its record is scored.
        records, _ = corruption_corpus(n_levels=3, records_per_level=1, k=3, base_tokens=10,
                                       seed=2)
        passages = passages_from_sweep_records(records)
        dataset = tmp_path / "wikibio.jsonl"
        write_records_jsonl(dataset, passages)
        short = records[1].samples[1]
        assert all(short not in r.samples for r in records[:1] + records[2:])
        stub.state.embed_fn = lambda text, model: [1.0, 0.5, 0.25] + [0.0] * (text != short)
        embedding = {"kind": "http", "base_url": stub.url, "model_id": "stub-embed",
                     "timeout": 5, "max_retries": 0}
        config = write_config(tmp_path, stub, k=3, embedding=embedding)
        assert main(["eval", "--config", str(config), "--dataset", str(dataset),
                     "--scheme", "checkembed", "--task", "wikibio"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: record {passages[1].id!r}: ") and "dim 3" in err

    @pytest.mark.parametrize("kind", ["mock", "http"])
    def test_blank_sample_fails_only_it_before_any_request(self, stub, tmp_path, capsys, kind):
        records, _ = corruption_corpus(n_levels=3, records_per_level=1, k=3, base_tokens=10,
                                       seed=2)
        samples = list(records[1].samples)
        samples[1] = " \n"
        records[1] = dataclasses.replace(records[1], samples=tuple(samples))
        passages = passages_from_sweep_records(records)
        dataset = tmp_path / "wikibio.jsonl"
        write_records_jsonl(dataset, passages)
        embedding = ({"kind": "mock", "dim": 64} if kind == "mock" else
                     {"kind": "http", "base_url": stub.url, "model_id": "stub-embed",
                      "timeout": 5, "max_retries": 0})
        config = write_config(tmp_path, stub, k=3, embedding=embedding)
        assert main(["eval", "--config", str(config), "--dataset", str(dataset),
                     "--scheme", "checkembed", "--task", "wikibio"]) == 1
        assert capsys.readouterr().err == (
            f"error: record {passages[1].id!r}: stage 'embed' failed for indices [1]: "
            "1: cannot embed empty text\n")
        assert stub.state.requests == []
        assert not (tmp_path / "cache" / "embeddings").exists()

    @pytest.mark.parametrize("task, line", [
        ("wikibio", '{"id": "x", "sentences": ["A."], "labels": ["accurate"], '
                    '"samples": "hello world"}'),
        ("wikibio", '{"id": "x", "sentences": ["A."], "labels": ["accurate"], "samples": [1, 2]}'),
        ("wikibio", '{"id": "x", "sentences": "One.", "labels": ["accurate"], '
                    '"samples": ["a b", "c d"]}'),
        ("ragtruth", '{"id": "x", "response": "r", "label": "faithful", "samples": "ab cd"}'),
        ("wikibio", '{"id": "x", "sentences": ["A.", "B."], "labels": ["accurate"], '
                    '"samples": ["a b", "c d"]}'),
        ("ragtruth", '{"id": "x", "response": "r", "label": "maybe", "samples": ["a b", "c d"]}'),
    ], ids=["samples-string", "samples-numbers", "sentences-string", "binary-samples-string",
            "labels-short", "label-maybe"])
    def test_malformed_record_exit_one(self, stub, tmp_path, capsys, task, line):
        dataset = tmp_path / "d.jsonl"
        dataset.write_text(line + "\n")
        config = write_config(tmp_path, stub, k=2)
        code = main(["eval", "--config", str(config), "--dataset", str(dataset),
                     "--scheme", "checkembed", "--task", task])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {dataset}:1: ") and "Traceback" not in err
        assert not (tmp_path / "out" / f"eval_{task}_checkembed.json").exists()

    def test_wikibio_checkembed_reports_correlations(self, stub, tmp_path, capsys):
        records, _ = corruption_corpus(
            n_levels=5, records_per_level=4, k=4, base_tokens=30, seed=6
        )
        dataset = tmp_path / "wikibio.jsonl"
        write_records_jsonl(dataset, passages_from_sweep_records(records))
        config = write_config(tmp_path, stub, k=4)
        code = main(
            ["eval", "--config", str(config), "--dataset", str(dataset),
             "--scheme", "checkembed", "--task", "wikibio"]
        )
        assert code == 0
        report = json.loads((tmp_path / "out" / "eval_wikibio_checkembed.json").read_text())
        assert "pearson_pct" in report and "spearman_pct" in report
        assert report["spearman_pct"] > 50.0
        assert report["n_records"] == 20

    def test_http_embedder_batches_each_record(self, stub, tmp_path):
        k = EMBED_BATCH + 2
        records, _ = corruption_corpus(
            n_levels=4, records_per_level=1, k=k, base_tokens=20, seed=3
        )
        dataset = tmp_path / "wikibio.jsonl"
        write_records_jsonl(dataset, passages_from_sweep_records(records))
        stub.state.embed_fn = lambda text, model: mock_embed(text, 64, 0).tolist()
        embedding = {"kind": "http", "base_url": stub.url, "model_id": "stub-embed",
                     "timeout": 5, "max_retries": 0}
        config = write_config(tmp_path, stub, k=k, embedding=embedding)
        code = main(
            ["eval", "--config", str(config), "--dataset", str(dataset),
             "--scheme", "checkembed", "--task", "wikibio"]
        )
        assert code == 0
        # The 4 records fit one window: its distinct texts, in dataset order,
        # EMBED_BATCH per request across record boundaries; the zero-corruption
        # record's k replies are one text.
        distinct = list(dict.fromkeys(t for record in records for t in record.samples))
        expected = [distinct[i:i + EMBED_BATCH] for i in range(0, len(distinct), EMBED_BATCH)]
        assert len(distinct) < len(records) * k
        assert stub.state.embed_inputs == expected
        assert stub.state.connections == 1

    def test_second_run_sends_no_embeddings_request(self, stub, tmp_path):
        records, _ = corruption_corpus(
            n_levels=4, records_per_level=2, k=4, base_tokens=20, seed=5
        )
        dataset = tmp_path / "wikibio.jsonl"
        write_records_jsonl(dataset, passages_from_sweep_records(records))
        stub.state.embed_fn = lambda text, model: mock_embed(text, 64, 0).tolist()
        embedding = {"kind": "http", "base_url": stub.url, "model_id": "stub-embed",
                     "timeout": 5, "max_retries": 0}
        config = write_config(tmp_path, stub, k=4, embedding=embedding)
        args = ["eval", "--config", str(config), "--dataset", str(dataset),
                "--scheme", "checkembed", "--task", "wikibio"]
        assert main(args) == 0
        report = tmp_path / "out" / "eval_wikibio_checkembed.json"
        first = report.read_bytes()
        requests = len(stub.state.requests)
        assert requests == stub.state.embed_calls > 0
        assert main(args) == 0
        assert len(stub.state.requests) == requests
        assert report.read_bytes() == first

    def test_ragtruth_sweep_reports_best_threshold(self, stub, tmp_path):
        rng = np.random.default_rng(7)
        records = []
        for i in range(12):
            hallucinated = i % 2 == 0
            base = " ".join(f"tok{i}w{j}" for j in range(30))
            if hallucinated:
                samples = tuple(
                    " ".join(f"r{i}x{j}{s}" for j in range(30)) for s in range(3)
                )
            else:
                samples = (base,) * 3
            records.append(
                BinaryRecord(
                    id=f"r{i}",
                    response=base,
                    label="hallucinated" if hallucinated else "faithful",
                    samples=samples,
                )
            )
        dataset = tmp_path / "rag.jsonl"
        write_records_jsonl(dataset, records)
        config = write_config(tmp_path, stub, k=3)
        code = main(
            ["eval", "--config", str(config), "--dataset", str(dataset),
             "--scheme", "checkembed", "--task", "ragtruth"]
        )
        assert code == 0
        report = json.loads((tmp_path / "out" / "eval_ragtruth_checkembed.json").read_text())
        assert "best_threshold" in report
        assert report["best_f1"] == 1.0  # perfectly separable fixture
        assert report["polarity"] == "low_score_flags"
        # One point per distinct score: the 12 records have 4, as every faithful one scores 1.0.
        scores = sorted({mock_scorer(4096, 0)(r.samples) for r in records})
        assert [p["threshold"] for p in report["curve"]] == scores
        assert len(scores) == 4

    def _ragtruth_report(self, stub, tmp_path, monkeypatch, scores, labels):
        records = [BinaryRecord(id=rid, response="a", label=label, samples=("s", "t"))
                   for rid, label in zip(scores, labels)]
        dataset = tmp_path / "rag.jsonl"
        write_records_jsonl(dataset, records)
        monkeypatch.setattr(cli, "_scores", lambda cfg, scheme, task, records:
                            ("mean", [scores[r.id] for r in records]))
        config = write_config(tmp_path, stub, k=2)
        assert main(["eval", "--config", str(config), "--dataset", str(dataset),
                     "--scheme", "checkembed", "--task", "ragtruth"]) == 0
        return json.loads((tmp_path / "out" / "eval_ragtruth_checkembed.json").read_text())

    def test_ragtruth_top_threshold_is_the_highest_score(self, stub, tmp_path, monkeypatch):
        # A 101-point grid's lo + 100 * (hi - lo) / 100 rounds to 0.8999999999999999 here.
        report = self._ragtruth_report(stub, tmp_path, monkeypatch,
                                       {"r0": 0.2, "r1": 0.9, "r2": 0.5},
                                       ("hallucinated", "faithful", "hallucinated"))
        assert [p["threshold"] for p in report["curve"]] == [0.2, 0.5, 0.9]
        assert report["curve"][-1]["recall"] == 1.0

    def test_ragtruth_finds_the_optimum_between_grid_points(self, stub, tmp_path, monkeypatch):
        scores = {"r0": 0.0, "r1": 0.001, "r2": 0.002, "r3": 1.0}
        labels = ("hallucinated", "hallucinated", "faithful", "faithful")
        # 101 evenly spaced thresholds step by 0.01, past the gap between 0.001 and 0.002.
        grid = threshold_sweep(list(scores.values()), labels, "low_score_flags",
                               np.linspace(0.0, 1.0, 101).tolist())
        assert (grid.best_f1, grid.best_threshold) == (0.8, 0.01)
        report = self._ragtruth_report(stub, tmp_path, monkeypatch, scores, labels)
        assert (report["best_f1"], report["best_threshold"]) == (1.0, 0.001)
        assert [p["threshold"] for p in report["curve"]] == [0.0, 0.001, 0.002, 1.0]

    def test_ragtruth_equal_scores_sweep_one_threshold(self, stub, tmp_path):
        records = [BinaryRecord(id=f"r{i}", response="a",
                                label="hallucinated" if i % 2 else "faithful",
                                samples=("the same reply",) * 3) for i in range(4)]
        dataset = tmp_path / "rag.jsonl"
        write_records_jsonl(dataset, records)
        config = write_config(tmp_path, stub, k=3)
        assert main(["eval", "--config", str(config), "--dataset", str(dataset),
                     "--scheme", "checkembed", "--task", "ragtruth"]) == 0
        report = json.loads((tmp_path / "out" / "eval_ragtruth_checkembed.json").read_text())
        # Every score is 1.0, so the grid is that one threshold, which flags every record.
        assert report["curve"] == [{"threshold": 1.0, "precision": 0.5, "recall": 1.0,
                                    "f1": 2 / 3}]
        assert (report["best_threshold"], report["best_f1"]) == (1.0, 2 / 3)
        assert stub.state.requests == []

    def test_judge_scheme_wikibio(self, stub, tmp_path):
        stub.state.chat_replies = ["90", "50", "10"]
        records, _ = corruption_corpus(
            n_levels=3, records_per_level=1, k=2, base_tokens=10, seed=8
        )
        dataset = tmp_path / "wikibio.jsonl"
        write_records_jsonl(dataset, passages_from_sweep_records(records))
        config = write_config(tmp_path, stub, k=2)
        code = main(
            ["eval", "--config", str(config), "--dataset", str(dataset),
             "--scheme", "judge", "--task", "wikibio"]
        )
        assert code == 0
        report = json.loads((tmp_path / "out" / "eval_wikibio_judge.json").read_text())
        assert report["scheme"] == "judge"
        assert report["statistic"] == "judge_score"
        assert stub.state.chat_calls == len(records) == 3
        assert stub.state.embed_calls == 0
        assert all(path.endswith("/chat/completions") for path, _, _ in stub.state.requests)

    @staticmethod
    def _judge_dataset(tmp_path, texts) -> tuple[list, Path]:
        """A wikibio dataset of one record per text, with gold scores 1, 0.5, 0, 1, ..."""
        labels = ["accurate", "minor", "major"]
        passages = [LabeledPassage(id=f"r{i}", sentences=(text,), labels=(labels[i % 3],))
                    for i, text in enumerate(texts)]
        dataset = tmp_path / "wikibio.jsonl"
        write_records_jsonl(dataset, passages)
        return passages, dataset

    def test_judge_request_holds_the_biography_and_the_generation_settings(self, stub,
                                                                           tmp_path):
        stub.state.chat_replies = ["70", "40", "10"]
        passages, dataset = self._judge_dataset(
            tmp_path, [f"Person {i} was born in {1900 + i}." for i in range(3)])
        config = write_config(tmp_path, stub)
        obj = json.loads(config.read_text())
        obj["generation"].update(temperature=0.3, max_tokens=512, top_p=0.9, top_k=5)
        config.write_text(json.dumps(obj))
        assert main(["eval", "--config", str(config), "--dataset", str(dataset),
                     "--scheme", "judge", "--task", "wikibio"]) == 0
        # max_concurrency is 1, so the requests go in record order.
        bodies = [body for _, _, body in stub.state.requests]
        assert len(bodies) == len(passages)
        for passage, body in zip(passages, bodies):
            [message] = body["messages"]
            assert message["role"] == "user" and passage.text in message["content"]
            assert {name: body[name] for name in ("model", "n", "max_tokens", "temperature",
                                                  "top_p", "top_k")} == {
                "model": "stub-model", "n": 1, "max_tokens": 16, "temperature": 0.3,
                "top_p": 0.9, "top_k": 5}

    def test_judge_asks_once_per_distinct_text_then_a_warm_rerun_sends_nothing(self, stub,
                                                                                tmp_path):
        stub.state.chat_replies = ["90", "50", "10"]
        texts = ["Ada was a poet.", "Bo was a sailor.", "Cy was a cook."]
        _, dataset = self._judge_dataset(tmp_path, texts + texts[:1])
        config = write_config(tmp_path, stub, max_concurrency=2)
        args = ["eval", "--config", str(config), "--dataset", str(dataset),
                "--scheme", "judge", "--task", "wikibio"]
        assert main(args) == 0
        report = tmp_path / "out" / "eval_wikibio_judge.json"
        first = report.read_bytes()
        assert stub.state.chat_calls == len(stub.state.requests) == len(texts)
        sent = [body["messages"][0]["content"] for _, _, body in stub.state.requests]
        assert [sum(text in prompt for prompt in sent) for text in texts] == [1, 1, 1]
        assert main(args) == 0
        assert len(stub.state.requests) == len(texts)
        assert report.read_bytes() == first

    def test_unparsable_judge_reply_is_named_and_only_it_is_asked_again(self, stub, tmp_path,
                                                                        capsys):
        stub.state.chat_replies = ["90", "certainly! 95", "10"]
        passages, dataset = self._judge_dataset(
            tmp_path, ["Ada was a poet.", "Bo was a sailor.", "Cy was a cook."])
        config = write_config(tmp_path, stub)
        args = ["eval", "--config", str(config), "--dataset", str(dataset),
                "--scheme", "judge", "--task", "wikibio"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: record 'r1': ") and "'certainly! 95'" in err
        assert "'r0'" not in err and "'r2'" not in err
        assert len(stub.state.requests) == 3
        assert not (tmp_path / "out").exists()
        stub.state.chat_replies = ["50"]
        assert main(args) == 0
        assert len(stub.state.requests) == 4
        _, _, body = stub.state.requests[-1]
        assert passages[1].text in body["messages"][0]["content"]

    def test_eval_idempotent(self, stub, tmp_path):
        records, _ = corruption_corpus(
            n_levels=4, records_per_level=3, k=3, base_tokens=20, seed=11
        )
        dataset = tmp_path / "wikibio.jsonl"
        write_records_jsonl(dataset, passages_from_sweep_records(records))
        config = write_config(tmp_path, stub, k=3)
        args = ["eval", "--config", str(config), "--dataset", str(dataset),
                "--scheme", "checkembed", "--task", "wikibio"]
        assert main(args) == 0
        report = tmp_path / "out" / "eval_wikibio_checkembed.json"
        first = report.read_bytes()
        assert main(args) == 0
        assert report.read_bytes() == first

    @pytest.mark.parametrize(
        "task, line",
        [
            ("wikibio", '{"id":"short","sentences":["a"],"labels":["accurate"],"samples":["s","t"]}'),
            ("ragtruth", '{"id":"short","response":"a","label":"faithful","samples":["s","t"]}'),
        ],
    )
    def test_too_few_samples_exit_one(self, stub, tmp_path, capsys, task, line):
        dataset = tmp_path / "d.jsonl"
        dataset.write_text(line + "\n")
        config = write_config(tmp_path, stub, k=3)
        code = main(
            ["eval", "--config", str(config), "--dataset", str(dataset),
             "--scheme", "checkembed", "--task", task]
        )
        assert code == 1
        assert "record 'short' has 2 samples, need k=3" in capsys.readouterr().err
        assert not (tmp_path / "out" / f"eval_{task}_checkembed.json").exists()

    @pytest.mark.parametrize("scheme", ["checkembed", "judge"])
    @pytest.mark.parametrize("labels, message", [
        ([("accurate",), ("major",)], "correlate needs at least 3 paired values"),
        ([("accurate",)] * 4, "correlation is undefined for a constant sequence"),
    ], ids=["two-records", "equal-gold"])
    def test_uncorrelatable_gold_exit_one_before_any_request(self, stub, tmp_path, capsys,
                                                             labels, message, scheme):
        records = [LabeledPassage(id=f"r{i}", sentences=("One.",) * len(record_labels),
                                  labels=record_labels,
                                  samples=tuple(f"reply {i}.{s}" for s in range(3)))
                   for i, record_labels in enumerate(labels)]
        dataset = tmp_path / "wikibio.jsonl"
        write_records_jsonl(dataset, records)
        stub.state.embed_fn = lambda text, model: mock_embed(text, 64, 0).tolist()
        embedding = {"kind": "http", "base_url": stub.url, "model_id": "stub-embed",
                     "timeout": 5, "max_retries": 0}
        config = write_config(tmp_path, stub, k=3, embedding=embedding)
        assert main(["eval", "--config", str(config), "--dataset", str(dataset),
                     "--scheme", scheme, "--task", "wikibio"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert stub.state.requests == []
        assert not (tmp_path / "out").exists()

    # The ragtruth polarity and threshold grid are fixed, so no longer settings.
    @pytest.mark.parametrize("setting", [{"polarity": "low_score_flags"},
                                         {"statistic": "std_offdiag"},
                                         {"grid_points": 101}])
    def test_unknown_eval_setting_exit_one_before_embedding(self, stub, tmp_path, capsys,
                                                            setting):
        records = [BinaryRecord(id=f"r{i}", response="a", label="faithful",
                                samples=(f"x{i}", f"y{i}", f"z{i}")) for i in range(3)]
        dataset = tmp_path / "rag.jsonl"
        write_records_jsonl(dataset, records)
        config = write_config(tmp_path, stub, eval=setting)
        with pytest.raises(ConfigError):
            load_config(config)
        code = main(["eval", "--config", str(config), "--dataset", str(dataset),
                     "--scheme", "checkembed", "--task", "ragtruth"])
        assert code == 1
        name = next(iter(setting))
        expected = f"error: invalid config {config}: " + (
            f"eval.{name}: expected one of " if name == "statistic"
            else f"unknown key eval.{name}\n")
        assert capsys.readouterr().err.startswith(expected)
        assert list(tmp_path.glob("cache/embeddings/**/*.npy")) == []
        assert stub.state.requests == []

    def test_unknown_scheme_exit_one_lists_valid(self, stub, tmp_path, capsys):
        # A usage error, so it comes before the dataset (absent here) is read.
        config = write_config(tmp_path, stub)
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--config", str(config), "--dataset", str(tmp_path / "absent.jsonl"),
                  "--scheme", "mystery", "--task", "wikibio"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: samplecheck eval")
        assert "argument --scheme: invalid choice: " in err and "mystery" in err
        assert "checkembed" in err and "judge" in err
        assert stub.state.requests == []


class TestErrorsBeforeAnyRequest:
    """An error found before the first request exits 1 naming its cause, and
    leaves no file behind."""

    @pytest.mark.parametrize("case, cause", [
        ("blank-prompt", "prompt file {prompt} is empty"),
        ("blank-gt", "ground truth file {gt} is empty"),
        ("judge-ragtruth", "the judge scheme is only wired for the wikibio task"),
        ("measure-dot", "measure must be one of cosine, pearson"),
        ("empty-dataset", "{dataset}: no records found"),
    ])
    def test_exit_one_names_the_cause(self, stub, tmp_path, prompt_file, capsys, case, cause):
        dataset = tmp_path / "d.jsonl"
        dataset.write_text("\n" if case == "empty-dataset" else json.dumps(
            {"id": "r0", "response": "a", "label": "faithful", "samples": ["s", "t"]}) + "\n")
        if case == "blank-prompt":
            prompt_file.write_text(" \n\t\n")
        gt = tmp_path / "gt.txt"
        gt.write_text("   \n")
        config = write_config(tmp_path, stub, k=2, **(
            {"measure": "dot"} if case == "measure-dot" else {}))
        before = sorted(tmp_path.iterdir())
        argv = (["verify", "--config", str(config), "--prompt", str(prompt_file)]
                + (["--gt", str(gt)] if case == "blank-gt" else [])
                if case in ("blank-prompt", "blank-gt", "measure-dot") else
                ["eval", "--config", str(config), "--dataset", str(dataset), "--scheme", "judge",
                 "--task", "ragtruth" if case == "judge-ragtruth" else "wikibio"])
        assert main(argv) == 1
        cause = cause.format(prompt=prompt_file, dataset=dataset, gt=gt)
        if case == "measure-dot":
            cause = f"invalid config {config}: {cause}"
        assert capsys.readouterr().err == f"error: {cause}\n"
        assert stub.state.requests == []
        assert sorted(tmp_path.iterdir()) == before


class TestEvalWindows:
    """eval --scheme checkembed embeds consecutive records a window at a time."""

    @staticmethod
    def _run(stub, root: Path, records, k, **extra) -> tuple[int, int]:
        """One eval under root over an HTTP embedder on the stub: (exit code, requests)."""
        root.mkdir(exist_ok=True)
        dataset = root / "wikibio.jsonl"
        write_records_jsonl(dataset, passages_from_sweep_records(records))
        embedding = {"kind": "http", "base_url": stub.url, "model_id": "stub-embed",
                     "timeout": 5, "max_retries": 0}
        config = write_config(root, stub, k=k, embedding=embedding, **extra)
        before = len(stub.state.requests)
        code = main(["eval", "--config", str(config), "--dataset", str(dataset),
                     "--scheme", "checkembed", "--task", "wikibio"])
        return code, len(stub.state.requests) - before

    @staticmethod
    def _requests(records, k: int, per_window: int) -> int:
        """The sum over windows of ceil(distinct texts not embedded before / EMBED_BATCH)."""
        seen: set[str] = set()
        total = 0
        for start in range(0, len(records), per_window):
            new = {t for r in records[start:start + per_window] for t in r.samples[:k]} - seen
            seen |= new
            total += math.ceil(len(new) / EMBED_BATCH)
        return total

    def test_windows_report_what_records_scored_alone_report(self, stub, tmp_path,
                                                                monkeypatch):
        # At k=3 a window holds 85 records, 255 texts: not a multiple of EVAL_WINDOW.
        stub.state.embed_fn = lambda text, model: mock_embed(text, 64, 0).tolist()
        for k in (4, 3):
            per_window = cli.EVAL_WINDOW // k
            records, _ = corruption_corpus(n_levels=5, records_per_level=per_window // 5 + 2,
                                           k=k, base_tokens=12, seed=9)
            assert per_window < len(records) < 2 * per_window  # two windows, the second partial
            window, alone = tmp_path / f"window{k}", tmp_path / f"alone{k}"
            code, cold = self._run(stub, window, records, k, max_concurrency=2)
            assert code == 0
            assert cold == self._requests(records, k, per_window)
            report = (window / "out" / "eval_wikibio_checkembed.json").read_bytes()
            assert self._run(stub, window, records, k, max_concurrency=2) == (0, 0)
            assert (window / "out" / "eval_wikibio_checkembed.json").read_bytes() == report
            # A window of one record scores each record alone, one embed_cached call each.
            with monkeypatch.context() as patch:
                patch.setattr(cli, "EVAL_WINDOW", 1)
                code, single = self._run(stub, alone, records, k)
            assert code == 0
            assert single == self._requests(records, k, 1) > cold
            assert (alone / "out" / "eval_wikibio_checkembed.json").read_bytes() == report

    def test_failed_batch_names_its_records_and_keeps_the_rest(self, stub, tmp_path, capsys):
        k = 3
        # Every record has k distinct replies, so the batches of 4 straddle records:
        # the second request holds samples 1-2 of r1 and 0-1 of r2.
        records, _ = corruption_corpus(n_levels=5, records_per_level=1, k=k,
                                       base_tokens=10, seed=4)
        records = records[1:]
        texts = [t for r in records for t in r.samples]
        assert len(set(texts)) == len(texts) == 12
        ids = [p.id for p in passages_from_sweep_records(records)]

        def embed(text, model):
            if text == texts[5]:
                raise RuntimeError("injected")  # the stub answers HTTP 500
            return mock_embed(text, 64, 0).tolist()

        stub.state.embed_fn = embed
        assert self._run(stub, tmp_path, records, k) == (1, 3)
        err = capsys.readouterr().err
        assert err.startswith(f"error: record {ids[1]!r}: stage 'embed' failed for indices "
                              f"[1, 2]: 1, 2: ")
        assert f"; record {ids[2]!r}: stage 'embed' failed for indices [0, 1]: 0, 1: " in err
        assert ids[0] not in err and ids[3] not in err
        # The window's other batches were stored: a rerun asks only for the failed one.
        stub.state.embed_fn = lambda text, model: mock_embed(text, 64, 0).tolist()
        assert self._run(stub, tmp_path, records, k) == (0, 1)
        assert stub.state.embed_inputs[-1] == texts[4:8]


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["verify", "--config", "c.json"],
        ["verify", "--config", "c.json", "--prompt", "p.txt", "--measure", "bogus"],
        ["eval", "--config", "c.json", "--dataset", "d.jsonl", "--scheme", "checkembed",
         "--task", "bogus"],
        ["cost", "--samples", "many"],
        ["bogus"],
        [],
    ], ids=["missing-required", "invalid-measure", "invalid-task", "not-a-number",
            "unknown-command", "no-command"])
    def test_usage_error_exits_one(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "error: " in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
    def test_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: " in capsys.readouterr().out


class TestHeatmapCommand:
    def _make_report(self, stub, tmp_path, prompt_file, with_gt=False):
        stub.state.chat_replies = ["alpha beta", "alpha gamma", "delta epsilon"]
        config = write_config(tmp_path, stub)
        args = ["verify", "--config", str(config), "--prompt", str(prompt_file)]
        if with_gt:
            gt = tmp_path / "gt.txt"
            gt.write_text("alpha beta")
            args += ["--gt", str(gt)]
        main(args)
        return tmp_path / "out" / "report.json"

    def test_csv_round_trip_exact(self, stub, tmp_path, prompt_file):
        report_path = self._make_report(stub, tmp_path, prompt_file)
        out_svg = tmp_path / "render" / "heat.svg"
        assert main(["heatmap", "--report", str(report_path), "--out", str(out_svg)]) == 0
        report = report_from_json(report_path.read_bytes())
        rebuilt = csv_to_matrix((tmp_path / "render" / "heat.csv").read_text())
        assert np.array_equal(rebuilt.entries, report.matrix.entries)
        assert rebuilt.labels == report.matrix.labels

    def test_svg_values_match_csv_rounded(self, stub, tmp_path, prompt_file):
        report_path = self._make_report(stub, tmp_path, prompt_file)
        out_svg = tmp_path / "render" / "heat.svg"
        main(["heatmap", "--report", str(report_path), "--out", str(out_svg)])
        svg = out_svg.read_text()
        matrix = csv_to_matrix((tmp_path / "render" / "heat.csv").read_text())
        expected = [f"{v:.2f}" for row in matrix.entries for v in row]
        assert svg_cell_texts(svg) == expected

    def test_gt_separator_rule_present(self, stub, tmp_path, prompt_file):
        report_path = self._make_report(stub, tmp_path, prompt_file, with_gt=True)
        out_svg = tmp_path / "render" / "heat.svg"
        main(["heatmap", "--report", str(report_path), "--out", str(out_svg)])
        svg = out_svg.read_text()
        assert svg.count("<line") == 2
        assert ">GT</text>" in svg

    def test_no_rule_without_gt(self, stub, tmp_path, prompt_file):
        report_path = self._make_report(stub, tmp_path, prompt_file, with_gt=False)
        out_svg = tmp_path / "render" / "heat.svg"
        main(["heatmap", "--report", str(report_path), "--out", str(out_svg)])
        assert "<line" not in out_svg.read_text()

    @pytest.mark.parametrize("name", ["heat.csv", "heat.CSV"])
    def test_csv_out_exit_one_before_anything_is_written(self, stub, tmp_path, prompt_file,
                                                         capsys, name):
        # The CSV goes next to the SVG under the name .csv: here the SVG's own.
        report_path = self._make_report(stub, tmp_path, prompt_file)
        out = tmp_path / "render" / name
        assert main(["heatmap", "--report", str(report_path), "--out", str(out)]) == 1
        assert str(out) in capsys.readouterr().err
        assert not (tmp_path / "render").exists()

    def test_rerender_writes_verifys_bytes(self, stub, tmp_path, prompt_file):
        report_path = self._make_report(stub, tmp_path, prompt_file, with_gt=True)
        out_svg = tmp_path / "render" / "heatmap.svg"
        assert main(["heatmap", "--report", str(report_path), "--out", str(out_svg)]) == 0
        for name in ("heatmap.csv", "heatmap.svg"):
            assert (tmp_path / "render" / name).read_bytes() == (
                tmp_path / "out" / name).read_bytes()
        ET.parse(out_svg)

    def test_missing_report_exit_one(self, tmp_path, capsys):
        code = main(["heatmap", "--report", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "x.svg")])
        assert code == 1

    @pytest.mark.parametrize("entries", [
        [["1", "0.5"], ["0.5", True]],
        [[True, False], [False, True]],
        [[1.0, None], [None, 1.0]],
    ], ids=["strings-and-bool", "bools", "nulls"])
    def test_non_number_entries_exit_one(self, stub, tmp_path, prompt_file, capsys, entries):
        report_path = self._make_report(stub, tmp_path, prompt_file)
        obj = json.loads(report_path.read_text())
        obj["matrix"].update(entries=entries, labels=["0", "1"])
        report_path.write_text(json.dumps(obj))
        capsys.readouterr()
        out_svg = tmp_path / "render" / "heat.svg"
        assert main(["heatmap", "--report", str(report_path), "--out", str(out_svg)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out_svg.exists()

    @pytest.mark.parametrize("matrix, message", [
        ({"entries": [[1.0, -0.0], [0.0, 1.0]], "labels": ["0", "1"]}, "symmetric"),
        ({"entries": [[1.0, 0.5], [0.5, 1.0]], "labels": [0, 1]},
         "matrix.labels: expected a list of strings, got [0, 1]"),
        ({"entries": [[1.0, 0.5], [0.5, 1.0]], "labels": "01"},
         'matrix.labels: expected a list of strings, got "01"'),
        ({"entries": [[1.0, 0.5]], "labels": ["0"]}, "square"),
        ({"entries": [[1.0, 0.5], [0.5, 1.0]], "labels": ["0", "1", "2"]}, "matrix order"),
        ({"measure": "euclidean"}, "unknown measure 'euclidean'"),
        ({"entries": [[1.0, math.nan], [math.nan, 1.0]], "labels": ["0", "1"]}, "finite"),
        ({"entries": [[1.0, True], [True, 1.0]], "labels": ["0", "1"]}, "boolean"),
        ({"entries": [[1.0, 0.5], [0.5, 1.0]], "labels": ["a<b&c", "1"]}, "label 'a<b&c'"),
    ], ids=["mirrored-signed-zero", "integer-labels", "labels-string", "not-square",
            "label-count", "unknown-measure", "non-finite", "bool-among-numbers",
            "unsafe-label"])
    def test_invalid_matrix_exit_one(self, stub, tmp_path, prompt_file, capsys, matrix, message):
        report_path = self._make_report(stub, tmp_path, prompt_file)
        obj = json.loads(report_path.read_text())
        obj["matrix"].update(matrix)
        report_path.write_text(json.dumps(obj))
        capsys.readouterr()
        out_svg = tmp_path / "render" / "heat.svg"
        assert main(["heatmap", "--report", str(report_path), "--out", str(out_svg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out_svg.exists()

    @pytest.mark.parametrize("damage", [
        lambda obj: {**obj, "matrix": "0,1"},
        lambda obj: {**obj, "summary": list(obj["summary"].values())},
        lambda obj: [obj],
        lambda obj: {**obj, "summary": {**obj["summary"], "verdict_note": "x"}},
        lambda obj: {key: value for key, value in obj.items() if key != "thresholds"},
    ], ids=["matrix-string", "summary-list", "top-level-list", "summary-unknown-key",
            "no-thresholds"])
    def test_wrong_shape_report_exit_one(self, stub, tmp_path, prompt_file, capsys, damage):
        report_path = self._make_report(stub, tmp_path, prompt_file)
        report_path.write_text(json.dumps(damage(json.loads(report_path.read_text()))))
        capsys.readouterr()
        out_svg = tmp_path / "render" / "heat.svg"
        assert main(["heatmap", "--report", str(report_path), "--out", str(out_svg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: report {report_path}: not a samplecheck report: ")
        assert not out_svg.exists()

    @pytest.mark.parametrize("change, message", [
        ({"k": math.nan}, "not a samplecheck report: k: expected an integer, got NaN"),
        ({"k": 3.0}, "not a samplecheck report: k: expected an integer, got 3.0"),
        ({"k": 2}, "k must be the integer 3"),
        ({"measure": "pearson"}, "measure must be the matrix's, 'cosine'"),
        ({"prompt_id": 7}, "not a samplecheck report: prompt_id: expected a string, got 7"),
        ({"provenance": []}, "not a samplecheck report: provenance: expected a JSON object"),
    ], ids=["k-nan", "k-float", "k-not-reply-count", "measure-not-matrix", "prompt-id-int",
            "provenance-list"])
    def test_inconsistent_report_exit_one(self, stub, tmp_path, prompt_file, capsys, change,
                                          message):
        report_path = self._make_report(stub, tmp_path, prompt_file)
        report_path.write_text(json.dumps({**json.loads(report_path.read_text()), **change}))
        capsys.readouterr()
        out_svg = tmp_path / "render" / "heat.svg"
        assert main(["heatmap", "--report", str(report_path), "--out", str(out_svg)]) == 1
        assert capsys.readouterr().err.startswith(f"error: report {report_path}: {message}")
        assert not out_svg.exists()

    @pytest.mark.parametrize("data, message", [
        (b"{not json", "report {path} is not valid JSON: "),
        (b'{"k": "\xff"}', "report {path} is not valid JSON: "),
        (b"[]", "report {path}: not a samplecheck report: expected a JSON object"),
    ], ids=["not-json", "not-utf8", "top-level-array"])
    def test_unreadable_report_exit_one_says_why(self, tmp_path, capsys, data, message):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        out_svg = tmp_path / "render" / "heat.svg"
        assert main(["heatmap", "--report", str(path), "--out", str(out_svg)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message.format(path=path)}")
        assert not (tmp_path / "render").exists()

    def test_malformed_report_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["heatmap", "--report", str(bad), "--out", str(tmp_path / "x.svg")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestCostCommand:
    def test_table_and_json(self, tmp_path, capsys):
        out = tmp_path / "cost.json"
        code = main(
            ["cost", "--task", "open_ended_verification", "--samples", "10",
             "--embed-dim", "3072", "--inference-work", "1", "--inference-depth", "1",
             "--embed-work", "1", "--embed-depth", "1", "--out", str(out)]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "checkembed" in stdout
        report = json.loads(out.read_text())
        by_scheme = {r["scheme"]: r for r in report["rows"]}
        assert by_scheme["checkembed"]["work"] == 307220

    @pytest.mark.parametrize("task", costmodel.TASKS)
    def test_default_schemes_are_those_applicable_to_the_task(self, tmp_path, task):
        out = tmp_path / "cost.json"
        assert main(["cost", "--task", task, "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["rows"]
        assert sorted(row["scheme"] for row in rows) == sorted(costmodel.applicable_schemes(task))

    def test_explicit_scheme_subset(self, capsys):
        code = main(["cost", "--schemes", "checkembed,geval", "--task",
                     "open_ended_verification"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "geval" in stdout

    @pytest.mark.parametrize("option", ["--samples", "--inference-work"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_quantity_exit_one_no_file(self, tmp_path, capsys, option, value):
        out = tmp_path / "cost.json"
        assert main(["cost", option, value, "--out", str(out)]) == 1
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_inapplicable_scheme_exit_one(self, capsys):
        code = main(["cost", "--schemes", "bertscore", "--task",
                     "open_ended_verification"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_no_scheme_exit_one_no_file(self, tmp_path, capsys):
        out = tmp_path / "cost.json"
        assert main(["cost", "--schemes", ",", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: need at least one scheme to compare\n"
        assert not out.exists()


def stamp(path: Path) -> tuple[int, int, int]:
    """What rewriting a file changes even when its bytes stay: inode, mtime, mode."""
    st = path.stat()
    return st.st_ino, st.st_mtime_ns, st.st_mode


class TestOutputFiles:
    """Every file a command writes as output: its mode, and what a rerun does to it."""

    WRITERS = ("verify", "heatmap", "eval", "cost")

    def _writer(self, command, stub, tmp_path, prompt_file) -> tuple[list[str], list[Path]]:
        """The arguments of a run of command, and the output files it writes."""
        stub.state.chat_replies = DISJOINT
        config = write_config(tmp_path, stub)
        verify = ["verify", "--config", str(config), "--prompt", str(prompt_file)]
        out = tmp_path / "out"
        if command == "verify":
            return verify, [out / "report.json", out / "heatmap.csv", out / "heatmap.svg"]
        if command == "heatmap":
            assert main(verify) == 2
            heat = tmp_path / "heat"
            return (["heatmap", "--report", str(out / "report.json"),
                     "--out", str(heat / "heatmap.svg")],
                    [heat / "heatmap.csv", heat / "heatmap.svg"])
        if command == "eval":
            records, _ = corruption_corpus(n_levels=2, records_per_level=2, k=3,
                                           base_tokens=12, seed=5)
            dataset = tmp_path / "wikibio.jsonl"
            write_records_jsonl(dataset, passages_from_sweep_records(records))
            return (["eval", "--config", str(config), "--dataset", str(dataset),
                     "--scheme", "checkembed", "--task", "wikibio"],
                    [out / "eval_wikibio_checkembed.json"])
        cost = tmp_path / "cost.json"
        return ["cost", "--samples", "10", "--out", str(cost)], [cost]

    @pytest.mark.parametrize("command", WRITERS)
    def test_rerun_leaves_unchanged_outputs_alone(self, stub, tmp_path, prompt_file, command):
        argv, outputs = self._writer(command, stub, tmp_path, prompt_file)
        assert main(argv) in (0, 2)
        before = {path: stamp(path) for path in outputs}
        assert main(argv) in (0, 2)
        assert {path: stamp(path) for path in outputs} == before

    def test_rerun_restores_a_changed_byte_and_a_deleted_file(self, stub, tmp_path,
                                                              prompt_file):
        argv, outputs = self._writer("verify", stub, tmp_path, prompt_file)
        assert main(argv) == 2
        first = {path: path.read_bytes() for path in outputs}
        report, csv, _ = outputs
        flipped = bytearray(first[report])
        flipped[len(flipped) // 2] ^= 1  # same size, so only the bytes tell
        report.write_bytes(bytes(flipped))
        csv.unlink()
        assert main(argv) == 2
        assert {path: path.read_bytes() for path in outputs} == first

    def test_pipe_in_the_way_is_replaced_not_read(self, tmp_path):
        # Opening a pipe with no writer for reading would block for ever.
        out = tmp_path / "cost.json"
        os.mkfifo(out)
        codes = []
        run = threading.Thread(target=lambda: codes.append(
            main(["cost", "--samples", "10", "--out", str(out)])), daemon=True)
        run.start()
        run.join(timeout=30)
        assert not run.is_alive() and codes == [0]
        assert stat.S_ISREG(out.stat().st_mode)
        assert json.loads(out.read_text())["rows"]

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask022", "umask077"])
    def test_outputs_take_the_umask_and_cache_files_stay_private(self, stub, tmp_path,
                                                                prompt_file, umask, mode):
        outputs = []
        old = os.umask(umask)
        try:
            for command in self.WRITERS:
                argv, written = self._writer(command, stub, tmp_path, prompt_file)
                assert main(argv) in (0, 2)
                outputs += written
        finally:
            os.umask(old)
        assert {path: stat.S_IMODE(path.stat().st_mode) for path in outputs} == dict.fromkeys(
            outputs, mode)
        vectors = list((tmp_path / "cache" / "embeddings").rglob("*.npy"))
        assert vectors
        assert {stat.S_IMODE(path.stat().st_mode) for path in vectors} == {0o600}


@pytest.mark.parametrize("module", ["samplecheck", "samplecheck.baselines"])
def test_every_exported_name_exists(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


class TestFreshProcess:
    """Each command run as `python -m samplecheck.cli` in a new process, cold then
    warm: a fresh start finds everything it needs in the cache and the outputs."""

    WORDS = "the cat sat on a mat while rain fell over every quiet street".split()

    def _case(self, case, stub, tmp_path, prompt_file) -> tuple[list[str], list[Path], int, int]:
        """The arguments of one run, its output files, its exit code and the
        requests a cold run sends."""
        out = tmp_path / "out"
        stub.state.embed_fn = lambda text, model: mock_embed(text, 64, 0).tolist()
        embedding = {"kind": "http", "base_url": stub.url, "model_id": "stub-embed"}
        if case == "verify":
            # 10 replies of 7 distinct texts: 3 chat requests, one per worker, then
            # 7 texts at EMBED_BATCH per embeddings request.
            stub.state.choices = "n"
            stub.state.chat_replies = [f"reply {i % 7} " + "word " * (i % 7 + 1)
                                       for i in range(10)]
            config = write_config(tmp_path, stub, k=10, max_concurrency=3, embedding=embedding)
            return (["verify", "--config", str(config), "--prompt", str(prompt_file)],
                    [out / "report.json", out / "heatmap.csv", out / "heatmap.svg"],
                    2, 3 + math.ceil(7 / EMBED_BATCH))
        dataset = tmp_path / "wikibio.jsonl"
        scheme = case.removeprefix("eval-")
        if scheme == "checkembed":
            # 3 records of 3 distinct replies: 9 texts, EMBED_BATCH per request.
            passages = [LabeledPassage(
                id=f"r{i}", sentences=("One.", "Two."), labels=labels,
                samples=tuple(" ".join(self.WORDS + [f"x{i}{s}{j}" for j in range(1 + 3 * i)])
                              for s in range(3)))
                for i, labels in enumerate([("accurate",) * 2, ("accurate", "major"),
                                            ("major",) * 2])]
            config = write_config(tmp_path, stub, k=3, embedding=embedding)
            requests = math.ceil(9 / EMBED_BATCH)
        else:
            # 4 records of 3 distinct texts: one chat request per text.
            stub.state.chat_replies = ["90", "40", "10"]
            passages = [LabeledPassage(id=f"r{i}", sentences=(f"{name} was born.", "Done."),
                                       labels=labels)
                        for i, (name, labels) in enumerate([
                            ("Ada", ("accurate",) * 2), ("Bo", ("accurate", "major")),
                            ("Cy", ("major",) * 2), ("Ada", ("accurate",) * 2)])]
            config = write_config(tmp_path, stub, max_concurrency=2)
            requests = 3
        write_records_jsonl(dataset, passages)
        return (["eval", "--config", str(config), "--dataset", str(dataset), "--scheme", scheme,
                 "--task", "wikibio"], [out / f"eval_wikibio_{scheme}.json"], 0, requests)

    @pytest.mark.parametrize("case", ["verify", "eval-checkembed", "eval-judge"])
    def test_warm_rerun_sends_nothing_and_leaves_outputs_alone(self, stub, tmp_path,
                                                               prompt_file, case):
        argv, outputs, code, cold = self._case(case, stub, tmp_path, prompt_file)
        inherited = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(ROOT / "src")] + ([inherited] if inherited else []))}
        runs = []
        for expected in (cold, 0):
            before = len(stub.state.requests)
            run = subprocess.run([sys.executable, "-m", "samplecheck.cli", *argv], env=env,
                                 capture_output=True, text=True, timeout=60)
            assert run.returncode == code, run.stderr
            sent = len(stub.state.requests) - before
            assert sent == expected
            runs.append({path: (path.read_bytes(), stamp(path)) for path in outputs})
        assert runs[0] == runs[1]
        if case == "verify":  # one .npy per distinct reply
            cache = tmp_path / "cache"
            assert sorted((cache / "embeddings" / "stub-embed").iterdir()) == sorted(
                {vector_path(cache, "stub-embed", text) for text in stub.state.chat_replies})

    # `python -c FORKS LOG ARGS...` runs the command with ARGS and appends a line
    # to LOG per fork: the threads alive in the parent, then the child's pid.
    FORKS = """
import os, runpy, sys, threading
log = sys.argv.pop(1)

def note(line):
    with open(log, "a", encoding="utf-8") as fh:
        fh.write(line + "\\n")

os.register_at_fork(before=lambda: note(f"threads {threading.active_count()}"),
                    after_in_child=lambda: note(f"pid {os.getpid()}"))
runpy.run_module("samplecheck.cli", run_name="__main__", alter_sys=True)
"""

    @pytest.mark.parametrize("case", ["verify", "eval-checkembed"])
    def test_decoders_fork_from_one_thread_and_end_with_the_command(self, stub, tmp_path,
                                                                    prompt_file, case):
        argv, _, code, _ = self._case(case, stub, tmp_path, prompt_file)
        concurrency = json.loads(Path(argv[argv.index("--config") + 1]).read_text())[
            "max_concurrency"]
        inherited = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(ROOT / "src")] + ([inherited] if inherited else []))}
        for warm in (False, True):
            log = tmp_path / f"forks-{warm}.txt"
            log.touch()
            # Python 3.12 warns of a fork while other threads are alive.
            run = subprocess.run([sys.executable, "-W", "error::DeprecationWarning", "-c",
                                  self.FORKS, str(log), *argv], env=env, capture_output=True,
                                 text=True, timeout=60)
            assert (run.returncode, run.stderr) == (code, "")
            notes = [line.split() for line in log.read_text(encoding="utf-8").splitlines()]
            threads = [int(n) for kind, n in notes if kind == "threads"]
            pids = [int(n) for kind, n in notes if kind == "pid"]
            assert len(pids) == len(threads)
            if warm:  # no embeddings request, no decoder
                assert threads == []
            else:
                assert threads == [1] * len(threads) and 1 <= len(threads) <= 2 * concurrency
            for pid in pids:  # each decoder was reaped before the command exited
                with pytest.raises(ProcessLookupError):
                    os.kill(pid, 0)
