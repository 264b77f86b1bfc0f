"""SVG/CSV rendering: cell values, color anchors, GT rule, CSV exactness."""

from __future__ import annotations

import re

import numpy as np

from samplecheck.render import (
    _cell_color,
    matrix_to_csv,
    matrix_to_svg,
)
from samplecheck.scorematrix import SimilarityMatrix


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
        assert svg.count(f'fill="{_cell_color(1.0)}"') == 4

    def test_diverging_anchors(self):
        assert _cell_color(1.0) == "rgb(180,4,38)"
        assert _cell_color(0.0) == "rgb(255,255,255)"
        assert _cell_color(-1.0) == "rgb(59,76,192)"
        # halfway values interpolate toward the poles
        assert _cell_color(0.5) != _cell_color(1.0) != _cell_color(-0.5)

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
