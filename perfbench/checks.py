"""Checks on what the hgcn CLI writes, and the quality figures read from it.

Every check counts as one attempt; a failed check is kept with its
message. Outputs are parsed here from their file formats (train.log
lines, eval.json, heatmap CSVs), not through hgcn's own readers, so a
broken writer cannot hide behind a matching broken reader.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

SUM_TOL = 1e-9
SYM_TOL = 1e-12


class Checks:
    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.problems)

    def expect(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.problems.append(message)
        return ok


def read_heatmap_csv(path: Path):
    """(values, row names, column names) of a heatmap CSV, or None if unreadable."""
    try:
        with open(path, encoding="utf-8", newline="") as f:
            rows = list(csv.reader(f))
        values = np.array([[float(v) for v in r[1:]] for r in rows[1:]], dtype=float)
    except (OSError, ValueError, IndexError):
        return None
    if values.size == 0:
        values = values.reshape(len(rows) - 1, 0)
    return values, [r[0] for r in rows[1:]], rows[0][1:]


def check_train_log(checks: Checks, path: Path, epochs: int):
    """One finite loss per epoch. Returns (final loss or None, sha256 of the file)."""
    try:
        data = path.read_bytes()
    except OSError as e:
        checks.expect(False, f"{path.name}: {e}")
        return None, ""
    losses = []
    for line in data.decode("utf-8", "replace").splitlines():
        words = line.split()
        if "loss" in words[:-1]:
            try:
                losses.append(float(words[words.index("loss") + 1]))
            except ValueError:
                losses.append(float("nan"))
    ok = len(losses) == epochs and all(math.isfinite(x) for x in losses)
    checks.expect(ok, f"{path.name}: want {epochs} finite losses, got {losses[:5]}...")
    return (losses[-1] if ok else None), hashlib.sha256(data).hexdigest()


def read_eval(checks: Checks, path: Path, n_labels: int) -> dict:
    """Scores from eval.json, each finite and in [0, 1], and per-label (tp, fp, fn)."""
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
        got = {k: float(report[k]) for k in ("micro_f1", "macro_f1", "jaccard")}
        counts = [[int(row[k]) for k in ("tp", "fp", "fn")] for row in report["per_label"]]
    except (OSError, ValueError, KeyError, TypeError) as e:
        checks.expect(False, f"{path.name}: {e}")
        return {}
    ok = (all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in got.values())
          and len(counts) == n_labels and min(min(counts)) >= 0)
    checks.expect(ok, f"{path.name}: scores outside [0, 1] or bad counts: {got}")
    return {**got, "label_counts": counts} if ok else {}


def f1(tp: int, fp: int, fn: int) -> float:
    return 2.0 * tp / (2 * tp + fp + fn) if tp else 0.0


def read_mse(checks: Checks, path: Path):
    try:
        words = path.read_text(encoding="utf-8").split()
        mse = float(words[words.index("attribution_mse") + 1])
    except (OSError, ValueError, IndexError) as e:
        checks.expect(False, f"{path.name}: {e}")
        return None
    checks.expect(math.isfinite(mse) and mse >= 0.0, f"{path.name}: mse {mse}")
    return mse


def check_attributions(checks: Checks, attr_dir: Path, samples, label_names,
                       max_len: int, trigger_map: dict):
    """Each sample's CSV has shape (m, n), finite non-negative values summing to 1.

    Returns (hit rate, share) over every (sample, gold label) pair: the
    fraction of pairs whose highest-weight token row is the label's trigger
    token, and the mean share of the label's column weight on that row
    (0 when truncation dropped the trigger).
    """
    hits = share = total = 0
    n = len(label_names)
    for s in samples:
        m = min(len(s.tokens), max_len - 2) + 2
        got = read_heatmap_csv(attr_dir / f"{s.id}.csv")
        total += len(s.labels)
        if not checks.expect(got is not None, f"{s.id}.csv: missing or unreadable"):
            continue
        values, rows, cols = got
        ok = (values.shape == (m, n) and cols == list(label_names) and len(rows) == m
              and bool(np.all(np.isfinite(values))) and bool(np.all(values >= 0.0))
              and abs(float(values.sum()) - 1.0) <= SUM_TOL)
        if not checks.expect(ok, f"{s.id}.csv: shape {values.shape} (want {(m, n)}), "
                                 f"sum {values.sum()!r}"):
            continue
        for label in s.labels:
            column = values[:, label_names.index(label)]
            is_trigger = np.array(rows) == trigger_map[label]
            hits += bool(is_trigger[int(np.argmax(column))])
            share += float(column[is_trigger].sum() / column.sum()) if column.sum() else 0.0
    return (hits / total, share / total) if total else (None, None)


def check_correlation(checks: Checks, path: Path, label_names) -> None:
    """A label-correlation heatmap is n x n, symmetric, unit-diagonal, in [-1, 1]."""
    got = read_heatmap_csv(path)
    if not checks.expect(got is not None, f"{path.name}: missing or unreadable"):
        return
    values, rows, cols = got
    n = len(label_names)
    ok = (values.shape == (n, n) and rows == cols == list(label_names)
          and bool(np.all(np.isfinite(values)))
          and bool(np.all(np.abs(values - values.T) <= SYM_TOL))
          and bool(np.all(np.diag(values) == 1.0))
          and bool(np.all((values >= -1.0) & (values <= 1.0))))
    checks.expect(ok, f"{path.name}: not a symmetric unit-diagonal matrix in [-1, 1]")


def check_probabilities(checks: Checks, probs_list, n_samples: int, n_labels: int) -> None:
    """One probability row per sample: n finite entries in [0, 1] summing to 1."""
    checks.expect(len(probs_list) == n_samples,
                  f"decoded {len(probs_list)} probability rows for {n_samples} samples")
    for i, probs in enumerate(probs_list):
        p = np.asarray(probs, dtype=float).ravel()
        ok = (p.size == n_labels and bool(np.all(np.isfinite(p)))
              and bool(np.all((p >= 0.0) & (p <= 1.0)))
              and abs(float(p.sum()) - 1.0) <= SUM_TOL)
        checks.expect(ok, f"probabilities of sample {i}: {p}")
