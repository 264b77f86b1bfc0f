"""The one JSON document reader: the config, dataset lines and report.json.

Each document kind is edited at random (keys deleted, duplicated, inserted or
replaced with random JSON values); every edit is either read or refused with
the document's error, naming its source and never a Python internal.
"""

from __future__ import annotations

import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from samplecheck import document
from samplecheck.cli import ConfigError, load_config, main
from samplecheck.eval import (
    BinaryRecord,
    DatasetError,
    LabeledPassage,
    read_binary_jsonl,
    read_passages_jsonl,
)
from samplecheck.pipeline import VerificationReport, report_json_bytes
from samplecheck.scorematrix import (
    ConfidenceThresholds,
    MatrixSummary,
    SimilarityMatrix,
    build_matrix,
    summarize,
)
from samplecheck.vectors import Embedding

INTERNALS = ("__init__", "not supported between instances", "unhashable type",
             "argument after **", "NoneType")

CONFIG = {
    "k": 3, "measure": "cosine", "thresholds": {"mean_min": 0.9, "std_max": 0.05},
    "cache_dir": "cache", "output_dir": "out", "max_concurrency": 2,
    "generation": {"base_url": "http://127.0.0.1:9/v1", "model_id": "m", "temperature": 1.0,
                   "max_tokens": 256, "timeout": 5, "max_retries": 1, "top_k": 4},
    "embedding": {"kind": "mock", "dim": 16, "seed": 0},
    "eval": {"statistic": "mean_offdiag"},
}
PASSAGE = {"id": "r1", "sentences": ["A.", "B."], "labels": ["accurate", "minor"],
           "samples": ["a", "b"]}
BINARY = {"id": "b1", "response": "r", "label": "faithful", "samples": ["a", "b"]}


def _report() -> dict:
    vectors = [Embedding(np.array(v)) for v in ([1.0, 0.0, 0.5], [0.9, 0.1, 0.4],
                                                 [0.8, 0.3, 0.2], [1.0, 0.2, 0.3])]
    matrix = build_matrix(vectors[:3], vectors[3])
    report = VerificationReport(
        prompt_id="p", k=3, measure="cosine", summary=summarize(matrix), matrix=matrix,
        thresholds=ConfidenceThresholds(), provenance={"generation_model_id": "m", "top_p": None})
    return json.loads(report_json_bytes(report))


REPORT = _report()

# Every key any document holds, so that inserted keys often name a field.
KEYS = sorted({key for doc in (CONFIG, PASSAGE, BINARY, REPORT) for obj in
               [doc, *(v for v in doc.values() if isinstance(v, dict))] for key in obj}
              | {"base_url", "api_key_env", "backoff_base", "top_p", "verdict_note"})

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["0.5", "3", "3.0", "x", "mock", "http", "cosine", "Inspect"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


class _Obj(list):
    """A JSON object as its [key, value] pairs, so that a key may repeat."""


def _pairs(value: object) -> object:
    if isinstance(value, dict):
        return _Obj([key, _pairs(v)] for key, v in value.items())
    if isinstance(value, list):
        return [_pairs(v) for v in value]
    return value


def _text(node: object) -> str:
    if isinstance(node, _Obj):
        return "{" + ", ".join(f"{json.dumps(k)}: {_text(v)}" for k, v in node) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(map(_text, node)) + "]"
    return json.dumps(node)


def _objects(node: object) -> list[_Obj]:
    """Every object in node, node itself included."""
    if isinstance(node, _Obj):
        return [node] + [found for _, value in node for found in _objects(value)]
    if isinstance(node, list):
        return [found for value in node for found in _objects(value)]
    return []


@st.composite
def edited(draw, valid: dict) -> str:
    """The JSON text of valid after one to three random edits of its objects' keys."""
    root = _pairs(valid)
    for _ in range(draw(st.integers(1, 3))):
        obj = draw(st.sampled_from(_objects(root)))
        edit = draw(st.sampled_from(["delete", "duplicate", "insert", "replace"]
                                    if obj else ["insert"]))
        if edit == "insert":
            obj.append([draw(st.sampled_from(KEYS) | st.text(max_size=4)), draw(JSON)])
            continue
        i = draw(st.integers(0, len(obj) - 1))
        if edit == "delete":
            del obj[i]
        elif edit == "duplicate":
            obj.append([obj[i][0], draw(st.sampled_from([obj[i][1]]) | JSON)])
        else:
            obj[i][1] = draw(JSON)
    return _text(root)


def _clean(message: str) -> None:
    assert not [word for word in INTERNALS if word in message], message


FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestEditedDocuments:
    @FUZZ
    @given(text=edited(CONFIG))
    def test_config_is_read_or_refused_with_config_error(self, tmp_path, text):
        path = tmp_path / "config.json"
        path.write_text(text, encoding="utf-8")
        try:
            load_config(path)
        except ConfigError as exc:
            _clean(str(exc))

    @FUZZ
    @given(data=st.data())
    def test_dataset_line_is_read_or_refused_naming_path_and_line(self, tmp_path, data):
        read, valid = data.draw(st.sampled_from([(read_passages_jsonl, PASSAGE),
                                                 (read_binary_jsonl, BINARY)]))
        path = tmp_path / "data.jsonl"
        path.write_text(f"{json.dumps(valid)}\n{data.draw(edited(valid))}\n", encoding="utf-8")
        try:
            read(path)
        except DatasetError as exc:
            assert str(exc).startswith(f"{path}:2: ")
            _clean(str(exc))

    @FUZZ
    @given(text=edited(REPORT))
    def test_report_is_rendered_or_refused_naming_it(self, tmp_path, capsys, text):
        path = tmp_path / "report.json"
        path.write_text(text, encoding="utf-8")
        capsys.readouterr()
        if main(["heatmap", "--report", str(path), "--out", str(tmp_path / "h.svg")]) != 0:
            err = capsys.readouterr().err
            assert err.startswith(f"error: report {path}")
            _clean(err)


class TestRefusedValues:
    @pytest.mark.parametrize("section, key, value, message", [
        ("summary", "verdict", "Maybe",
         'summary.verdict: expected one of "HighConfidence", "Inspect", got "Maybe"'),
        ("summary", "mean_offdiag", "x", 'summary.mean_offdiag: expected a number, got "x"'),
        ("summary", "gt_alignment", [1], "summary.gt_alignment: expected a number, got [1]"),
        ("thresholds", "std_max", None, "thresholds.std_max: expected a number, got null"),
    ], ids=["verdict", "mean-string", "gt-alignment-list", "std-max-null"])
    def test_report_value_refused_naming_the_key(self, tmp_path, capsys, section, key, value,
                                                 message):
        obj = json.loads(json.dumps(REPORT))
        obj[section][key] = value
        path = tmp_path / "report.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        out_svg = tmp_path / "h.svg"
        assert main(["heatmap", "--report", str(path), "--out", str(out_svg)]) == 1
        assert capsys.readouterr().err == (
            f"error: report {path}: not a samplecheck report: {message}\n")
        assert not out_svg.exists()

    def test_report_without_entries_names_the_key(self, tmp_path, capsys):
        obj = json.loads(json.dumps(REPORT))
        del obj["matrix"]["entries"]
        path = tmp_path / "report.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        assert main(["heatmap", "--report", str(path), "--out", str(tmp_path / "h.svg")]) == 1
        assert capsys.readouterr().err == (
            f"error: report {path}: not a samplecheck report: missing key matrix.entries\n")

    @pytest.mark.parametrize("old, new, message", [
        ('"verdict": ', '"verdict": "Inspect", "verdict": ', "duplicate key summary.verdict"),
        ('"top_p": ', '"top_p": 0.5, "top_p": ',
         "provenance: expected a JSON object without a repeated key"),
    ], ids=["summary", "provenance"])
    def test_report_key_given_twice_is_refused(self, tmp_path, capsys, old, new, message):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(REPORT).replace(old, new, 1), encoding="utf-8")
        assert main(["heatmap", "--report", str(path), "--out", str(tmp_path / "h.svg")]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: report {path}: not a samplecheck report: {message}")

    @pytest.mark.parametrize("line, message", [
        ('{"id": "b", "response": null, "label": "faithful", "samples": []}',
         "missing key response"),
        ('{"id": {"x": 1}, "response": "r", "label": "faithful", "samples": []}',
         'id: expected a string, got {"x": 1}'),
        ('{"id": 7, "response": "r", "label": "faithful", "samples": []}',
         "id: expected a string, got 7"),
        ('{"id": "b", "response": "r", "label": "faithful", "label": "hallucinated", '
         '"samples": []}', "duplicate key label"),
    ], ids=["response-null", "id-object", "id-number", "repeated-key"])
    def test_dataset_value_refused_naming_line_and_key(self, tmp_path, line, message):
        path = tmp_path / "data.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(DatasetError, match=f"^{re.escape(f'{path}:1: {message}')}$"):
            read_binary_jsonl(path)

    def test_dataset_key_naming_no_field_is_ignored(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text(json.dumps({**BINARY, "source": {"a": [1]}}) + "\n", encoding="utf-8")
        assert read_binary_jsonl(path) == [BinaryRecord(id="b1", response="r", label="faithful",
                                                        samples=("a", "b"))]


@pytest.mark.parametrize("cls", [VerificationReport, MatrixSummary, SimilarityMatrix,
                                 ConfidenceThresholds, LabeledPassage, BinaryRecord])
def test_every_report_and_dataset_field_type_is_converted(cls):
    keys, specs = document._spec(cls)  # TypeError names a type the reader cannot convert
    assert keys == {name for name, *_ in specs}
