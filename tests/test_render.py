"""SVG/CSV/report.json writers: cell values, color anchors, GT rule, CSV
exactness, and byte identity with the per-cell reference writers below."""

from __future__ import annotations

import io
import json
import math
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from samplecheck.pipeline import VerificationReport, report_json_bytes
from samplecheck.render import _fills, matrix_to_csv, matrix_to_svg
from samplecheck.scorematrix import (
    DEFAULT_THRESHOLDS,
    GT_LABEL,
    MEASURES,
    SimilarityMatrix,
    summarize,
)

# The writers as they were before they formatted each pair once and computed
# the colors as arrays: one Python call per cell. The new writers must match
# them byte for byte.
_CELL = 64
_MARGIN = 56
_NEG = (59, 76, 192)
_MID = (255, 255, 255)
_POS = (180, 4, 38)


def reference_cell_color(value: float) -> str:
    lo, hi = (_MID, _POS) if value >= 0 else (_MID, _NEG)
    frac = min(1.0, abs(value))
    rgb = tuple(round(a + (b - a) * frac) for a, b in zip(lo, hi))
    return f"rgb({rgb[0]},{rgb[1]},{rgb[2]})"


def reference_text_color(value: float) -> str:
    return "#ffffff" if abs(value) > 0.6 else "#000000"


def reference_matrix_to_csv(matrix: SimilarityMatrix) -> str:
    out = io.StringIO()
    out.write("," + ",".join(matrix.labels) + "\n")
    for label, row in zip(matrix.labels, matrix.entries):
        out.write(label + "," + ",".join(repr(float(v)) for v in row) + "\n")
    return out.getvalue()


def reference_matrix_to_svg(matrix: SimilarityMatrix) -> str:
    n = matrix.order
    size = _MARGIN + n * _CELL
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="#ffffff"/>',
    ]
    for i, label in enumerate(matrix.labels):
        cx = _MARGIN + i * _CELL + _CELL // 2
        parts.append(
            f'<text x="{cx}" y="{_MARGIN - 12}" text-anchor="middle" '
            f'font-family="monospace" font-size="14">{label}</text>'
        )
        cy = _MARGIN + i * _CELL + _CELL // 2
        parts.append(
            f'<text x="{_MARGIN - 12}" y="{cy + 5}" text-anchor="end" '
            f'font-family="monospace" font-size="14">{label}</text>'
        )
    for i in range(n):
        for j in range(n):
            value = float(matrix.entries[i, j])
            x = _MARGIN + j * _CELL
            y = _MARGIN + i * _CELL
            parts.append(
                f'<rect x="{x}" y="{y}" width="{_CELL}" height="{_CELL}" '
                f'fill="{reference_cell_color(value)}" stroke="#cccccc" stroke-width="1"/>'
            )
            parts.append(
                f'<text x="{x + _CELL // 2}" y="{y + _CELL // 2 + 5}" '
                f'text-anchor="middle" font-family="monospace" font-size="14" '
                f'fill="{reference_text_color(value)}">{value:.2f}</text>'
            )
    if matrix.has_gt:
        offset = _MARGIN + (n - 1) * _CELL
        end = _MARGIN + n * _CELL
        parts.append(
            f'<line x1="{offset}" y1="{_MARGIN}" x2="{offset}" y2="{end}" '
            f'stroke="#000000" stroke-width="3"/>'
        )
        parts.append(
            f'<line x1="{_MARGIN}" y1="{offset}" x2="{end}" y2="{offset}" '
            f'stroke="#000000" stroke-width="3"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def reference_report_json_bytes(report: VerificationReport) -> bytes:
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


def svg_cell_texts(svg: str) -> list[str]:
    """Extract the rendered cell values (two-decimal strings) from an SVG."""
    return re.findall(r">(-?\d+\.\d{2})</text>", svg)


def csv_to_matrix(text: str, measure: str = "cosine") -> SimilarityMatrix:
    """Parse matrix_to_csv output back into a matrix."""
    lines = [line for line in text.splitlines() if line]
    labels = tuple(lines[0].split(",")[1:])
    entries = [[float(v) for v in line.split(",")[1:]] for line in lines[1:]]
    return SimilarityMatrix(
        entries=np.asarray(entries, dtype=np.float64), labels=labels, measure=measure
    )


def matrix(entries, labels):
    return SimilarityMatrix(np.asarray(entries, dtype=np.float64), labels, "cosine")


class TestSvg:
    def test_all_ones_two_by_two(self):
        m = matrix([[1.0, 1.0], [1.0, 1.0]], ("0", "1"))
        svg = matrix_to_svg(m)
        assert svg_cell_texts(svg) == ["1.00"] * 4
        assert svg.count('fill="rgb(180,4,38)"') == 4

    def test_diverging_anchors(self):
        rgb = _fills(np.array([1.0, 0.0, -0.0, -1.0, 0.5, -0.5])).tolist()
        assert rgb[:4] == [[180, 4, 38], [255, 255, 255], [255, 255, 255], [59, 76, 192]]
        # halfway values interpolate toward the poles
        assert rgb[4] != rgb[0] and rgb[5] != rgb[3] and rgb[4] != rgb[5]

    def test_values_two_decimals_row_major(self):
        m = matrix([[1.0, 0.256], [0.256, 1.0]], ("0", "1"))
        assert svg_cell_texts(matrix_to_svg(m)) == ["1.00", "0.26", "0.26", "1.00"]

    def test_gt_rule(self):
        m = matrix(
            [[1.0, 0.5, 0.2], [0.5, 1.0, 0.1], [0.2, 0.1, 1.0]], ("0", "1", "GT")
        )
        svg = matrix_to_svg(m)
        assert svg.count("<line") == 2

    def test_deterministic_bytes(self):
        m = matrix([[1.0, -0.37], [-0.37, 1.0]], ("0", "1"))
        assert matrix_to_svg(m) == matrix_to_svg(m)

    def test_labels_the_writers_cannot_hold_are_refused(self):
        for label in ["a<b&c", "a>b", "a,b", 'a"b', "a\nb", "a\x7fb"]:
            with pytest.raises(ValueError, match=re.escape(f"label {label!r}")):
                matrix([[1.0, 0.5], [0.5, 1.0]], (label, "1"))
        # A label that is accepted reads back out of both writers as written.
        m = matrix([[1.0, 0.5], [0.5, 1.0]], ("α b", "a'b"))
        svg_text = "{http://www.w3.org/2000/svg}text"
        texts = [t.text for t in ET.fromstring(matrix_to_svg(m)).iter(svg_text)]
        assert texts[:4] == ["α b", "α b", "a'b", "a'b"]
        assert matrix_to_csv(m).splitlines()[0].split(",") == ["", "α b", "a'b"]


class TestCsv:
    def test_header_and_labels(self):
        m = matrix([[1.0, 0.5], [0.5, 1.0]], ("0", "1"))
        lines = matrix_to_csv(m).splitlines()
        assert lines[0] == ",0,1"
        assert lines[1].startswith("0,")
        assert lines[2].startswith("1,")

    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(51)
        values = rng.uniform(-1, 1, size=(3, 3))
        entries = (values + values.T) / 2
        np.fill_diagonal(entries, 1.0)
        m = matrix(entries, ("0", "1", "GT"))
        rebuilt = csv_to_matrix(matrix_to_csv(m))
        assert np.array_equal(rebuilt.entries, m.entries)
        assert rebuilt.labels == m.labels


def _around(x: float) -> list[float]:
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


# Values where formatting or coloring could go wrong: signed zeros, the ends
# of the range, the text-color cut at |v| = 0.6 with its neighbours, ties of
# two-decimal rounding, values whose color channels land on .5 (0.5, 0.25),
# and the smallest subnormal.
SPECIAL = sorted({
    *(s * v for s in (1.0, -1.0)
      for v in [0.0, 5e-324, 0.125, 0.005, 0.015, 0.995, 0.5, 0.25, *_around(0.6)]),
    -1.0, math.nextafter(-1.0, 0.0), 1.0, math.nextafter(1.0, 0.0),
})

# Strings holding the JSON placeholder's text, as model ids or notes could.
PROVENANCE = {
    "generation_model_id": 'NaN "NaN" \\NaN',
    "embedding_model_id": '"entries": NaN',
    "note": "NaN\nNaN, ünïcode",
    "temperature": 0.7,
    "top_p": None,
    "top_k": 40,
}


def special_matrix(k: int, with_gt: bool, measure: str, seed: int, share: float):
    """A symmetric unit-diagonal matrix; about `share` of its pairs are SPECIAL."""
    rng = np.random.default_rng(seed)
    n = k + with_gt
    upper = np.where(rng.random(n * (n - 1) // 2) < share,
                     rng.choice(SPECIAL, n * (n - 1) // 2), rng.uniform(-1, 1, n * (n - 1) // 2))
    entries = np.eye(n)
    rows, cols = np.triu_indices(n, 1)
    entries[rows, cols] = entries[cols, rows] = upper
    labels = tuple(str(i) for i in range(k)) + ((GT_LABEL,) if with_gt else ())
    return SimilarityMatrix(entries, labels, measure)


def report_for(matrix: SimilarityMatrix) -> VerificationReport:
    return VerificationReport(
        prompt_id="NaN", k=matrix.reply_count, measure=matrix.measure,
        summary=summarize(matrix), matrix=matrix, thresholds=DEFAULT_THRESHOLDS,
        provenance=PROVENANCE,
    )


class TestByteIdentity:
    @given(
        st.integers(2, 70),
        st.booleans(),
        st.sampled_from(sorted(MEASURES)),
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, 0.5, 1.0]),
    )
    @example(2, False, "cosine", 0, 1.0)
    @example(2, True, "pearson", 1, 1.0)
    @example(256, True, "cosine", 2, 0.5)
    @settings(max_examples=60, deadline=None)
    def test_writers_equal_references(self, k, with_gt, measure, seed, share):
        m = special_matrix(k, with_gt, measure, seed, share)
        assert matrix_to_csv(m) == reference_matrix_to_csv(m)
        assert matrix_to_svg(m) == reference_matrix_to_svg(m)
        report = report_for(m)
        assert report_json_bytes(report) == reference_report_json_bytes(report)

    def test_every_special_value_in_one_row(self):
        n = len(SPECIAL) + 1
        entries = np.eye(n)
        entries[0, 1:] = entries[1:, 0] = SPECIAL
        m = SimilarityMatrix(entries, tuple(str(i) for i in range(n - 1)) + (GT_LABEL,), "cosine")
        assert matrix_to_csv(m) == reference_matrix_to_csv(m)
        assert matrix_to_svg(m) == reference_matrix_to_svg(m)
        report = report_for(m)
        assert report_json_bytes(report) == reference_report_json_bytes(report)
        assert json.loads(report_json_bytes(report))["provenance"] == PROVENANCE

    def test_any_labels(self):
        m = SimilarityMatrix(np.array([[1.0, -0.25], [-0.25, 1.0]]), ("α", "NaN"), "pearson")
        assert matrix_to_csv(m) == reference_matrix_to_csv(m)
        assert matrix_to_svg(m) == reference_matrix_to_svg(m)
        report = report_for(m)
        assert report_json_bytes(report) == reference_report_json_bytes(report)
