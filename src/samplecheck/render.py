"""Heatmap export: deterministic SVG and full-precision CSV.

The SVG colors cells on a diverging scale anchored at -1 (blue), 0 (white)
and +1 (red), prints each value rounded to two decimals in the cell center,
and separates the ground-truth row/column with a rule. The CSV carries the
exact values (shortest round-tripping representation), so parsing it back
reconstructs the matrix bit-exactly.

The SVG's cell texts and fills are computed as arrays, and each distinct
value is formatted once. A two-decimal text is looked up by rint(v * 100) in a
table of the 201 texts from -1.00 to 1.00. v * 100 lies within 2e-14 of the
exact product, so rint rounds it as f"{v:.2f}" would, except within 1e-12 of a
half (exact ties such as 0.125 round half to even). Those cells, and the
negative values that round to zero (printed "-0.00"), are formatted one by one
with f"{v:.2f}". A fill's RGB triple is packed into one int, and each distinct
color is formatted once.
"""

from __future__ import annotations

import numpy as np

from .scorematrix import GT_LABEL, SimilarityMatrix

_CELL = 64
_MARGIN = 56
_NEG = (59, 76, 192)  # anchor at -1
_MID = (255, 255, 255)  # anchor at 0
_POS = (180, 4, 38)  # anchor at +1
# The two-decimal text of every multiple of 0.01 in [-1, 1], indexed by q + 100.
_TWO_DECIMALS = np.array([f"{q / 100:.2f}" for q in range(-100, 101)], dtype=object)
# Cells whose v * 100 lies this close to a half are formatted exactly (module docstring).
_TIE_BAND = 1e-12


def _fills(entries: np.ndarray) -> np.ndarray:
    """Each cell's RGB triple on the diverging scale, as an int array of shape (*entries.shape, 3).

    The anchor is _POS for values >= 0 (-0.0 included) and _NEG otherwise; the
    channel is mid + (anchor - mid) * min(1, |value|) in float64, rounded half
    to even.
    """
    mid = np.array(_MID)
    anchor = np.where((entries >= 0)[..., None], _POS, _NEG)
    frac = np.minimum(1.0, np.abs(entries))[..., None]
    return np.rint(mid + (anchor - mid) * frac).astype(np.int64)


def _texts(entries: np.ndarray) -> list:
    """f"{v:.2f}" of every value in [-1, 1], as nested lists of entries' shape."""
    scaled = entries * 100
    q = np.rint(scaled)
    exact = np.abs(scaled - np.floor(scaled) - 0.5) <= _TIE_BAND
    exact |= np.signbit(entries) & (q == 0)
    out = _TWO_DECIMALS[q.astype(np.int64) + 100]
    out[exact] = [f"{v:.2f}" for v in entries[exact].tolist()]
    return out.tolist()


def _fill_texts(entries: np.ndarray) -> list:
    """The fill of every cell, "rgb(r,g,b)", as nested lists of entries' shape."""
    rgb = _fills(entries)
    packed = rgb[..., 0] << 16 | rgb[..., 1] << 8 | rgb[..., 2]
    colors, which = np.unique(packed, return_inverse=True)
    names = np.array([f"rgb({c >> 16},{c >> 8 & 255},{c & 255})" for c in colors.tolist()],
                     dtype=object)
    return names[which.reshape(entries.shape)].tolist()


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
    texts = _texts(matrix.entries)
    fills = _fill_texts(matrix.entries)
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
