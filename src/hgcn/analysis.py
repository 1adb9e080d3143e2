"""Explanation and label-correlation analyses.

The final token-label edge block, globally normalized to sum 1, is the
per-sample explanation artifact; its quality is measured as MSE against
a keyword-intensity golden matrix. Label structure is inspected two
ways: Pearson correlation over binary prediction vectors and cosine
similarity over final label-node embeddings.
"""

from __future__ import annotations

import csv
import io
import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .data import write_text
from .metrics import label_matrix


@dataclass
class AttributionMatrix:
    """m x n token-label weights, globally normalized to total 1."""

    values: np.ndarray
    tokens: list[str]
    labels: list[str]


def build_attribution(final_edges: np.ndarray, tokens, labels) -> AttributionMatrix:
    """Normalize the final edge block so all values sum to 1.

    An all-zero block (untrainable degenerate case) falls back to the
    uniform matrix with a warning rather than dividing by zero.
    """
    values = np.asarray(final_edges, dtype=float)
    total = values.sum()
    if total > 0:
        values = values / total
    else:
        warnings.warn("all-zero edge block; attribution falls back to uniform")
        values = np.full_like(values, 1.0 / values.size)
    return AttributionMatrix(values=values, tokens=list(tokens), labels=list(labels))


def build_golden(annotations, m: int, n: int) -> np.ndarray:
    """Arrange keyword-intensity annotations as an m x n matrix.

    `annotations` holds (token_index, label_index, intensity) triples
    indexed over the sample's content tokens; content token i sits on
    token-node row i + 1 (the sequence-start marker occupies row 0).
    Rows for non-keyword tokens stay zero and the matrix is deliberately
    not normalized. Annotations past the truncation boundary are dropped.
    """
    golden = np.zeros((m, n))
    for tok_idx, label_idx, intensity in annotations:
        row = tok_idx + 1
        if not 0.0 <= intensity <= 1.0:
            raise ValueError(f"intensity {intensity} outside [0, 1]")
        if row < m - 1:  # last row is the sequence-end marker
            golden[row, label_idx] = intensity
    return golden


def attribution_mse(pred: np.ndarray, golden: np.ndarray) -> float:
    """Mean squared elementwise difference between the two matrices."""
    pred = np.asarray(pred, dtype=float)
    golden = np.asarray(golden, dtype=float)
    if pred.shape != golden.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {golden.shape}")
    return float(np.mean((pred - golden) ** 2))


def pearson_matrix(pred_sets, n: int) -> np.ndarray:
    """Pearson correlation between per-label binary prediction vectors.

    This is the cosine similarity of the centred indicator vectors, so
    `label_cosine_matrix` computes it. A constant vector (a label always
    or never predicted) centres to zero and has no defined correlation;
    it gets 0 off-diagonal and 1 on the diagonal.
    """
    if not pred_sets:
        raise ValueError("empty prediction list")
    indicators = label_matrix(pred_sets, n).T.astype(float, order="C")
    return label_cosine_matrix(indicators - indicators.mean(axis=1, keepdims=True))


def label_cosine_matrix(x_label_last: np.ndarray) -> np.ndarray:
    """Raw cosine similarity between the rows, in [-1, 1]; a zero row has 0 off the diagonal."""
    x = np.asarray(x_label_last, dtype=float)
    norms = np.linalg.norm(x, axis=1)
    ok = norms > 0
    safe = np.where(ok, norms, 1.0)
    cos = (x @ x.T) / np.outer(safe, safe)
    cos = np.where(np.outer(ok, ok), cos, 0.0)
    np.fill_diagonal(cos, 1.0)
    return np.clip(cos, -1.0, 1.0)


_CELL = 24  # heatmap cell size in pixels
# the text between a rect's y and its value, for each grey level
_RECT_FILLS = [f'" width="{_CELL}" height="{_CELL}" fill="rgb({v},{v},{v})" data-value="'
               for v in range(256)]
_NEEDS_QUOTES = frozenset(',"\r\n')  # `csv.writer` quotes a name holding any of these


def _csv_fields(names) -> dict[str, str]:
    """Each distinct string of `names` as one CSV field, quoted the way `csv.writer` quotes it.

    A non-empty name holding no comma, quote, CR or LF is its own field;
    `csv.writer` quotes every other name.
    """
    fields = {name: name for name in names if name and _NEEDS_QUOTES.isdisjoint(name)}
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for name in names:
        if name not in fields:
            buf.seek(0)
            buf.truncate()
            writer.writerow([name, ""])
            fields[name] = buf.getvalue()[:-2]
    return fields


def render_heatmap(matrix: np.ndarray, row_names, col_names, path) -> None:
    """Write `<path>.csv` (exact values) and `<path>.svg` (brightness heatmap).

    The SVG embeds each cell's value in a data-value attribute so tests
    can read it back; fill brightness is linear in the value. Each
    cell's `repr` is formatted once and shared by both files.
    """
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    if matrix.shape != (len(row_names), len(col_names)):
        raise ValueError(
            f"matrix {matrix.shape} vs {len(row_names)} rows / {len(col_names)} cols")

    # repr of a list of floats is the repr of each float, joined by ", "
    cells = [repr(row)[1:-1].split(", ") for row in matrix.tolist()]
    path = str(path)
    fields = _csv_fields([*col_names, *row_names])
    lines = [",".join([""] + [fields[c] for c in col_names])]
    lines += [",".join([fields[name]] + row) for name, row in zip(row_names, cells)]
    write_text(path + ".csv", "\n".join(lines) + "\n")

    lo = min(0.0, float(matrix.min()))
    span = float(matrix.max()) - lo
    # the scalar arithmetic of 255 * (v - lo) / span, rounded half to even
    levels = (np.rint(255 * (matrix - lo) / span).astype(int).ravel().tolist() if span > 0
              else [0] * matrix.size)
    rows, cols = matrix.shape
    # each rect, row by row: its column's x, its row's y, its grey level's fill, its value
    x_open = [f'<rect x="{j * _CELL}" y="' for j in range(cols)] * rows
    ys = itertools.chain.from_iterable(itertools.repeat(str(i * _CELL), cols) for i in range(rows))
    rects = zip(x_open, ys, map(_RECT_FILLS.__getitem__, levels),
                itertools.chain.from_iterable(cells), itertools.repeat('"/>\n'))
    write_text(path + ".svg", "".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{cols * _CELL}" height="{rows * _CELL}">\n',
        *itertools.chain.from_iterable(rects), "</svg>\n"]))
