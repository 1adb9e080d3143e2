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

import numpy as np

from .data import write_text
from .metrics import label_matrix

# Most heatmap cells one group of `render_heatmap` holds at once: about
# seventy 11 x 5 maps, or one 130 x 20 map on its own. A group's float
# arrays stay at 32 KB, under glibc's 128 KiB mmap threshold; at
# `model.CHUNK_BUDGET` cells a 400-map serve explain held 0.37 MB more at
# its peak than a writer of one map at a time, and these groups are no
# slower.
HEATMAP_BUDGET = 4096


def build_attribution(final_edges: np.ndarray) -> np.ndarray:
    """The m x n final edge block normalized so all values sum to 1.

    An all-zero block (untrainable degenerate case) falls back to the
    uniform matrix with a warning rather than dividing by zero.
    """
    values = np.asarray(final_edges, dtype=float)
    total = values.sum()
    if total > 0:
        return values / total
    warnings.warn("all-zero edge block; attribution falls back to uniform")
    return np.full_like(values, 1.0 / values.size)


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


def _groups(sizes) -> list[slice]:
    """Consecutive runs of maps of at most `HEATMAP_BUDGET` cells; a larger map is alone."""
    out, start, total = [], 0, 0
    for i, size in enumerate(sizes):
        if i > start and total + size > HEATMAP_BUDGET:
            out.append(slice(start, i))
            start, total = i, 0
        total += size
    out.append(slice(start, len(sizes)))
    return out


def _grey_levels(group, sizes) -> bytes:
    """Every cell's grey level, map after map, from one numpy pass over a group of maps.

    A cell's level is 255 * (v - lo) / span with its own map's lo and
    span, rounded half to even; a map whose span is 0 is level 0
    throughout.
    """
    flat = np.concatenate([m.ravel() for m in group])
    starts = np.cumsum([0, *sizes[:-1]])
    lo = np.minimum(np.minimum.reduceat(flat, starts), 0.0)
    span = np.maximum.reduceat(flat, starts) - lo
    # in place, so a group holds its values and one temporary; every cell of a map whose
    # span is 0 equals its lo, so 255 * (v - lo) is 0 there and is left undivided
    flat -= np.repeat(lo, sizes)
    flat *= 255
    np.divide(flat, np.repeat(span, sizes), out=flat, where=np.repeat(span > 0, sizes))
    return np.rint(flat, out=flat).astype(np.uint8).tobytes()


def render_heatmap(matrices, row_names, col_names, paths) -> None:
    """Write `<path>.csv` (exact values) and `<path>.svg` (brightness heatmap) for each map.

    The maps share `col_names`; map k has the rows `row_names[k]` and is
    written to `paths[k]`. The SVG embeds each cell's value in a
    data-value attribute so tests can read it back; fill brightness is
    linear in the value, from min(0, the map's min) to the map's max.
    Each cell's `repr` is formatted once and shared by both files.

    Names are quoted once per call and the rect openings are built once,
    for the largest map. The maps run in groups of at most
    `HEATMAP_BUDGET` cells, which bounds what a call holds at once
    beside one map's text, and each group's grey levels are one numpy
    pass.
    """
    matrices = [np.atleast_2d(np.asarray(m, dtype=float)) for m in matrices]
    if not len(matrices) == len(row_names) == len(paths):
        raise ValueError(f"{len(matrices)} maps vs {len(row_names)} row name lists "
                         f"/ {len(paths)} paths")
    cols = len(col_names)
    for m, rows in zip(matrices, row_names):
        if m.shape != (len(rows), cols) or not m.size:
            raise ValueError(f"matrix {m.shape} vs {len(rows)} rows / {cols} cols")
    if not matrices:
        return

    fields = _csv_fields({*col_names, *itertools.chain.from_iterable(row_names)})
    header = ",".join(["", *map(fields.__getitem__, col_names)])
    row_opens = {name: f"\n{field}," for name, field in fields.items()}
    # each rect's opening up to its y, after the close of the rect before it, and its y
    most = max(map(len, row_names))
    rect_opens = [f'"/>\n<rect x="{j * _CELL}" y="' for j in range(cols)] * most
    rect_opens[0] = rect_opens[0][4:]
    rect_ys = [y for y in map(str, range(0, most * _CELL, _CELL)) for _ in range(cols)]

    sizes = [m.size for m in matrices]
    for part in _groups(sizes):
        group = matrices[part]
        levels = _grey_levels(group, sizes[part])
        start = 0
        for m, rows, path in zip(group, row_names[part], paths[part]):
            size = m.size
            # repr of a list of floats is the repr of each float, joined by ", "
            cells = repr(m.ravel().tolist())[1:-1].split(", ")
            # each cell after its separator: a row's first after its row name, the rest after ","
            parts = [","] * (2 * size + 2)
            parts[0], parts[-1] = header, "\n"
            parts[1:-1:2 * cols] = map(row_opens.__getitem__, rows)
            parts[2:-1:2] = cells
            write_text(f"{path}.csv", "".join(parts))
            # each rect: its opening, its y, its grey level's fill, its value
            parts = [None] * (4 * size + 2)
            parts[0] = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{cols * _CELL}" '
                        f'height="{len(rows) * _CELL}">\n')
            parts[1:-1:4] = rect_opens[:size]
            parts[2:-1:4] = rect_ys[:size]
            parts[3:-1:4] = map(_RECT_FILLS.__getitem__, levels[start:start + size])
            parts[4:-1:4] = cells
            parts[-1] = '"/>\n</svg>\n'
            svg = "".join(parts)
            del parts, cells  # the text alone is held while it is encoded and written
            write_text(f"{path}.svg", svg)
            del svg
            start += size
