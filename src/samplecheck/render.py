"""Heatmap export: deterministic SVG and full-precision CSV.

The SVG colors cells on a diverging scale anchored at -1 (blue), 0 (white)
and +1 (red), prints each value rounded to two decimals in the cell center,
and separates the ground-truth row/column with a rule. The CSV carries the
exact values (shortest round-tripping representation), so parsing it back
reconstructs the matrix bit-exactly.
"""

from __future__ import annotations

import numpy as np

from .scorematrix import GT_LABEL, SimilarityMatrix, mirrored

_CELL = 64
_MARGIN = 56
_NEG = (59, 76, 192)  # anchor at -1
_MID = (255, 255, 255)  # anchor at 0
_POS = (180, 4, 38)  # anchor at +1


def _fills(entries: np.ndarray) -> np.ndarray:
    """Each cell's RGB triple on the diverging scale, as an n-by-n-by-3 int array.

    The anchor is _POS for values >= 0 (-0.0 included) and _NEG otherwise; the
    channel is mid + (anchor - mid) * min(1, |value|) in float64, rounded half
    to even.
    """
    mid = np.array(_MID)
    anchor = np.where((entries >= 0)[..., None], _POS, _NEG)
    frac = np.minimum(1.0, np.abs(entries))[..., None]
    return np.rint(mid + (anchor - mid) * frac).astype(np.int64)


def matrix_to_csv(matrix: SimilarityMatrix) -> str:
    """Header row of labels, then label-prefixed rows of exact values."""
    lines = ["," + ",".join(matrix.labels)]
    lines += [label + "," + ",".join(row) for label, row in zip(matrix.labels, matrix.entry_reprs)]
    return "\n".join(lines) + "\n"


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
    texts = mirrored(matrix.entries.tolist(), "{:.2f}".format)
    fills = mirrored(_fills(matrix.entries).tolist(), "rgb({0[0]},{0[1]},{0[2]})".format)
    inks = np.where(np.abs(matrix.entries) > 0.6, "#ffffff", "#000000").tolist()
    # Numbers as strings: formatting ints per cell would cost as much as the rest.
    cell = str(_CELL)
    xs = [(str(_MARGIN + j * _CELL), str(_MARGIN + j * _CELL + _CELL // 2)) for j in range(n)]
    for i in range(n):
        y = str(_MARGIN + i * _CELL)
        ty = str(_MARGIN + i * _CELL + _CELL // 2 + 5)
        for (x, tx), fill, ink, text in zip(xs, fills[i], inks[i], texts[i]):
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                f'fill="{fill}" stroke="#cccccc" stroke-width="1"/>\n'
                f'<text x="{tx}" y="{ty}" text-anchor="middle" font-family="monospace" '
                f'font-size="14" fill="{ink}">{text}</text>'
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
    "matrix_to_csv",
    "matrix_to_svg",
]
