"""Label scoring, decoding, and multi-label evaluation metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def decode_topk(probs, k: int) -> set[int]:
    """The min(k, n) highest-probability labels; ties go to the lower index."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    probs = np.asarray(probs, dtype=float).ravel()
    order = sorted(range(len(probs)), key=lambda j: (-probs[j], j))
    return set(order[: min(k, len(probs))])


def decode_threshold(probs, t: float) -> set[int]:
    """All labels with probability >= t; may be empty."""
    if not (0.0 < t <= 1.0):
        raise ValueError(f"threshold must be in (0, 1], got {t}")
    probs = np.asarray(probs, dtype=float).ravel()
    return {j for j in range(len(probs)) if probs[j] >= t}


def jaccard(preds, golds) -> float:
    """Mean per-sample |Y ∩ Ŷ| / |Y ∪ Ŷ|. Both-empty counts as agreement (1)."""
    if len(preds) != len(golds):
        raise ValueError(f"{len(preds)} predictions vs {len(golds)} golds")
    if not preds:
        raise ValueError("empty evaluation set")
    total = 0.0
    for p, g in zip(preds, golds):
        p, g = set(p), set(g)
        union = p | g
        total += len(p & g) / len(union) if union else 1.0
    return total / len(preds)


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
    out = np.zeros((len(label_sets), n), dtype=bool)
    for i, labels in enumerate(label_sets):
        for j in labels:
            if not 0 <= j < n:
                raise ValueError(f"label index {j} out of range for n={n}")
            out[i, j] = True
    return out


def micro_macro_f1(preds, golds, n: int) -> tuple[float, float, list[dict]]:
    """Micro F1 from pooled counts, macro as the unweighted per-label mean.

    A label with a zero denominator scores 0 and still enters the macro
    average.
    """
    if len(preds) != len(golds):
        raise ValueError(f"{len(preds)} predictions vs {len(golds)} golds")
    p, g = label_matrix(preds, n), label_matrix(golds, n)
    tp, fp, fn = (p & g).sum(axis=0), (p & ~g).sum(axis=0), (~p & g).sum(axis=0)
    table = [{"label": j, **_f1(tp[j], fp[j], fn[j]),
              "tp": int(tp[j]), "fp": int(fp[j]), "fn": int(fn[j])} for j in range(n)]
    micro = _f1(tp.sum(), fp.sum(), fn.sum())["f1"]
    macro = float(np.mean([row["f1"] for row in table]))
    return micro, macro, table


def evaluate(preds, golds, n: int) -> EvalReport:
    micro, macro, table = micro_macro_f1(preds, golds, n)
    return EvalReport(micro_f1=micro, macro_f1=macro,
                      jaccard=jaccard(preds, golds), per_label=table)
