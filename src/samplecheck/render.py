"""Heatmap export: deterministic SVG and full-precision CSV.

The SVG colors cells on a diverging scale anchored at -1 (blue), 0 (white)
and +1 (red), prints each value rounded to two decimals in the cell center,
and separates the ground-truth row/column with a rule. The CSV carries the
exact values (shortest round-tripping representation), so parsing it back
reconstructs the matrix bit-exactly.
"""

from __future__ import annotations

import io

import numpy as np

from .scorematrix import GT_LABEL, SimilarityMatrix

_CELL = 64
_MARGIN = 56
_NEG = (59, 76, 192)  # anchor at -1
_MID = (255, 255, 255)  # anchor at 0
_POS = (180, 4, 38)  # anchor at +1


def _cell_color(value: float) -> str:
    lo, hi = (_MID, _POS) if value >= 0 else (_MID, _NEG)
    frac = min(1.0, abs(value))
    rgb = tuple(round(a + (b - a) * frac) for a, b in zip(lo, hi))
    return f"rgb({rgb[0]},{rgb[1]},{rgb[2]})"


def _text_color(value: float) -> str:
    return "#ffffff" if abs(value) > 0.6 else "#000000"


def matrix_to_csv(matrix: SimilarityMatrix) -> str:
    """Header row of labels, then label-prefixed rows of exact values."""
    out = io.StringIO()
    out.write("," + ",".join(matrix.labels) + "\n")
    for label, row in zip(matrix.labels, matrix.entries):
        out.write(label + "," + ",".join(repr(float(v)) for v in row) + "\n")
    return out.getvalue()


def csv_to_matrix(text: str, measure: str = "cosine") -> SimilarityMatrix:
    lines = [line for line in text.splitlines() if line]
    labels = tuple(lines[0].split(",")[1:])
    entries = []
    for line in lines[1:]:
        fields = line.split(",")
        entries.append([float(v) for v in fields[1:]])
    return SimilarityMatrix(
        entries=np.asarray(entries, dtype=np.float64), labels=labels, measure=measure
    )


def matrix_to_svg(matrix: SimilarityMatrix) -> str:
    """n-by-n colored cells with centered two-decimal values."""
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
                f'fill="{_cell_color(value)}" stroke="#cccccc" stroke-width="1"/>'
            )
            parts.append(
                f'<text x="{x + _CELL // 2}" y="{y + _CELL // 2 + 5}" '
                f'text-anchor="middle" font-family="monospace" font-size="14" '
                f'fill="{_text_color(value)}">{value:.2f}</text>'
            )
    if matrix.has_gt:
        # Rule separating the GT row/column from the replies.
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


__all__ = [
    "GT_LABEL",
    "csv_to_matrix",
    "matrix_to_csv",
    "matrix_to_svg",
]
