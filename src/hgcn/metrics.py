"""Label scoring, decoding, and multi-label evaluation metrics."""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain
from operator import add

import numpy as np


def decode_topk(probs, k: int) -> set[int]:
    """The min(k, n) highest-probability labels; ties go to the lower index."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    order = np.argsort(-np.asarray(probs, dtype=float).ravel(), kind="stable")
    return set(order[:k].tolist())


def decode_threshold(probs, t: float) -> set[int]:
    """All labels with probability >= t; may be empty."""
    if not (0.0 < t <= 1.0):
        raise ValueError(f"threshold must be in (0, 1], got {t}")
    return {j for j, p in enumerate(np.asarray(probs, dtype=float).ravel().tolist()) if p >= t}


@dataclass
class EvalReport:
    micro_f1: float
    macro_f1: float
    jaccard: float
    per_label: list[dict]  # label index -> precision/recall/f1/tp/fp/fn

    def render(self, label_names=None) -> str:
        lines = [
            f"micro_f1 {self.micro_f1:.6f}",
            f"macro_f1 {self.macro_f1:.6f}",
            f"jaccard {self.jaccard:.6f}",
        ]
        for row in self.per_label:
            name = label_names[row["label"]] if label_names else str(row["label"])
            lines.append(
                f"label {name} precision {row['precision']:.6f} "
                f"recall {row['recall']:.6f} f1 {row['f1']:.6f}")
        return "\n".join(lines) + "\n"


def _f1(tp, fp, fn) -> dict[str, float]:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"precision": precision, "recall": recall, "f1": f1}


def label_matrix(label_sets, n: int) -> np.ndarray:
    """N x n bool matrix whose row i marks the label indices of set i."""
    sizes = list(map(len, label_sets))
    cols = np.fromiter(chain.from_iterable(label_sets), dtype=np.intp, count=sum(sizes))
    bad = (cols < 0) | (cols >= n)
    if bad.any():
        raise ValueError(f"label index {cols[bad.argmax()]} out of range for n={n}")
    out = np.zeros((len(label_sets), n), dtype=bool)
    out[np.repeat(np.arange(len(label_sets)), sizes), cols] = True
    return out


def evaluate(preds, golds, n: int) -> EvalReport:
    """Scores of the predicted against the gold label-index sets, over labels 0..n-1.

    Micro F1 comes from pooled counts and macro F1 is the unweighted
    per-label mean: a label with a zero denominator scores 0 and still
    enters the macro average. Jaccard is the mean per-sample
    |Y ∩ Ŷ| / |Y ∪ Ŷ|, where both-empty is agreement (1).
    """
    if len(preds) != len(golds):
        raise ValueError(f"{len(preds)} predictions vs {len(golds)} golds")
    if not preds:
        raise ValueError("empty evaluation set")
    p, g = label_matrix(preds, n), label_matrix(golds, n)
    tp, fp, fn = (p & g).sum(axis=0), (p & ~g).sum(axis=0), (~p & g).sum(axis=0)
    table = [{"label": j, **_f1(tp[j], fp[j], fn[j]),
              "tp": int(tp[j]), "fp": int(fp[j]), "fn": int(fn[j])} for j in range(n)]
    union = (p | g).sum(axis=1)
    ratios = np.divide((p & g).sum(axis=1), union, out=np.ones(len(p)), where=union > 0)
    # added in sample order, one Python float at a time, as a per-sample loop adds them
    jaccard = reduce(add, ratios.tolist(), 0.0) / len(p)
    return EvalReport(micro_f1=_f1(tp.sum(), fp.sum(), fn.sum())["f1"],
                      macro_f1=float(np.mean([row["f1"] for row in table])),
                      jaccard=jaccard, per_label=table)
