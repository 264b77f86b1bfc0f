"""CLI surface: exit codes, outputs, determinism, dataset evaluation."""

from __future__ import annotations

import io
import json

import numpy as np
import pytest
from test_eval import passages_from_sweep_records
from test_pipeline import CORRUPTIONS, vector_path
from test_render import csv_to_matrix, svg_cell_texts

from samplecheck.cli import ConfigError, _write_outputs, load_config, main
from samplecheck.eval import (
    BinaryRecord,
    corruption_corpus,
    write_binary_jsonl,
    write_passages_jsonl,
)
from samplecheck.pipeline import EMBED_BATCH, report_from_json
from samplecheck.providers import mock_embed

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

    def test_k_flag_overrides_config(self, stub, tmp_path, prompt_file):
        stub.state.chat_replies = ["stable answer"]
        config = write_config(tmp_path, stub, k=3)
        main(["verify", "--config", str(config), "--prompt", str(prompt_file), "--k", "5"])
        report = report_from_json((tmp_path / "out" / "report.json").read_bytes())
        assert report.k == 5 and report.matrix.order == 5

    @pytest.mark.parametrize("damage", ["truncated_data", "bad_header", "object_array",
                                        "two_dim"])
    def test_corrupt_cache_entry_exit_one_names_file(self, stub, tmp_path, prompt_file,
                                                     capsys, damage):
        stub.state.chat_replies = DISJOINT
        config = write_config(tmp_path, stub)
        args = ["verify", "--config", str(config), "--prompt", str(prompt_file)]
        assert main(args) == 2
        path = vector_path(tmp_path / "cache", "mock-d4096-s0", DISJOINT[0])
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
    ])
    def test_bad_sampling_settings_rejected(self, stub, tmp_path, prompt_file, capsys, given):
        with pytest.raises(ConfigError):
            self._load(tmp_path, stub, **given)
        args = ["verify", "--config", str(tmp_path / "config.json"), "--prompt",
                str(prompt_file)]
        assert main(args) == 1
        assert capsys.readouterr().err.startswith("error: invalid config:")
        assert stub.state.requests == []

    def test_nan_std_max_rejected(self, stub, tmp_path, prompt_file, capsys):
        config = write_config(tmp_path, stub, thresholds={"mean_min": 0.9, "std_max": "nan"})
        with pytest.raises(ConfigError):
            load_config(config)
        assert main(["verify", "--config", str(config), "--prompt", str(prompt_file)]) == 1
        assert capsys.readouterr().err.startswith("error: invalid config:")
        assert stub.state.requests == []


class TestEvalCommand:
    def test_wikibio_checkembed_reports_correlations(self, stub, tmp_path, capsys):
        records, _ = corruption_corpus(
            n_levels=5, records_per_level=4, k=4, base_tokens=30, seed=6
        )
        dataset = tmp_path / "wikibio.jsonl"
        write_passages_jsonl(dataset, passages_from_sweep_records(records))
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
        write_passages_jsonl(dataset, passages_from_sweep_records(records))
        stub.state.embed_fn = lambda text, model: mock_embed(text, 64, 0).tolist()
        embedding = {"kind": "http", "base_url": stub.url, "model_id": "stub-embed",
                     "timeout": 5, "max_retries": 0}
        config = write_config(tmp_path, stub, k=k, embedding=embedding)
        code = main(
            ["eval", "--config", str(config), "--dataset", str(dataset),
             "--scheme", "checkembed", "--task", "wikibio"]
        )
        assert code == 0
        # Each record's texts that the run has not embedded yet, in order,
        # EMBED_BATCH per request; the zero-corruption record's k replies are
        # one text.
        seen: set[str] = set()
        expected = []
        for record in records:
            new = [t for t in dict.fromkeys(record.samples) if t not in seen]
            seen.update(new)
            expected += [new[i:i + EMBED_BATCH] for i in range(0, len(new), EMBED_BATCH)]
        assert len(seen) < len(records) * k
        assert stub.state.embed_inputs == expected
        assert stub.state.connections == 1

    def test_second_run_sends_no_embeddings_request(self, stub, tmp_path):
        records, _ = corruption_corpus(
            n_levels=4, records_per_level=2, k=4, base_tokens=20, seed=5
        )
        dataset = tmp_path / "wikibio.jsonl"
        write_passages_jsonl(dataset, passages_from_sweep_records(records))
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
        write_binary_jsonl(dataset, records)
        config = write_config(tmp_path, stub, k=3)
        code = main(
            ["eval", "--config", str(config), "--dataset", str(dataset),
             "--scheme", "checkembed", "--task", "ragtruth"]
        )
        assert code == 0
        report = json.loads((tmp_path / "out" / "eval_ragtruth_checkembed.json").read_text())
        assert "best_threshold" in report
        assert report["best_f1"] == 1.0  # perfectly separable fixture

    def test_judge_scheme_wikibio(self, stub, tmp_path):
        stub.state.chat_replies = ["90", "50", "10"]
        records, _ = corruption_corpus(
            n_levels=3, records_per_level=1, k=2, base_tokens=10, seed=8
        )
        dataset = tmp_path / "wikibio.jsonl"
        write_passages_jsonl(dataset, passages_from_sweep_records(records))
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

    def test_eval_idempotent(self, stub, tmp_path):
        records, _ = corruption_corpus(
            n_levels=4, records_per_level=3, k=3, base_tokens=20, seed=11
        )
        dataset = tmp_path / "wikibio.jsonl"
        write_passages_jsonl(dataset, passages_from_sweep_records(records))
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

    def test_unknown_scheme_exit_one_lists_valid(self, stub, tmp_path, capsys):
        dataset = tmp_path / "d.jsonl"
        dataset.write_text('{"id":"x","sentences":["a"],"labels":["accurate"],"samples":["s","t"]}\n')
        config = write_config(tmp_path, stub)
        code = main(
            ["eval", "--config", str(config), "--dataset", str(dataset),
             "--scheme", "mystery", "--task", "wikibio"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "checkembed" in err and "judge" in err


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

    def test_missing_report_exit_one(self, tmp_path, capsys):
        code = main(["heatmap", "--report", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "x.svg")])
        assert code == 1

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

    def test_explicit_scheme_subset(self, capsys):
        code = main(["cost", "--schemes", "checkembed,geval", "--task",
                     "open_ended_verification"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "geval" in stdout

    def test_inapplicable_scheme_exit_one(self, capsys):
        code = main(["cost", "--schemes", "bertscore", "--task",
                     "open_ended_verification"])
        assert code == 1
        assert "error:" in capsys.readouterr().err
