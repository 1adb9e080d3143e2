"""Synthetic trigger-word corpus generator.

Every label owns an exclusive trigger token; a sample carries each of
its labels' triggers exactly once among filler tokens, with a golden
annotation of intensity 1.0 at the trigger position. Co-occurrence
constraints let tests shape label correlations.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np

from .data import Sample


class _SmallSets:
    """Every set of 1-3 of n labels, as sorted tuples, in `_valid_label_sets`' order.

    The sets of one size follow `itertools.combinations`, smaller sizes
    first. A set is unranked when first asked for and then kept, so the
    memory grows with the sets drawn, not as n^3.
    """

    def __init__(self, n: int):
        self.n, self.counts, self.known = n, [comb(n, k) for k in (1, 2, 3)], {}

    def __len__(self) -> int:
        return sum(self.counts)

    def __getitem__(self, rank):
        key = rank
        if key in self.known:
            return self.known[key]
        for k, count in enumerate(self.counts, 1):
            if rank < count:
                break
            rank -= count
        else:
            raise IndexError("label set index out of range")
        out, first = [], 0
        for left in range(k, 0, -1):
            # skip each first element whose sets all rank below `rank`
            while rank >= (count := comb(self.n - first - 1, left - 1)):
                rank -= count
                first += 1
            out.append(first)
            first += 1
        self.known[key] = out = tuple(out)
        return out


def _valid_label_sets(n_labels, always_together, never_together):
    if always_together or never_together:
        sets = [combo for k in (1, 2, 3) for combo in combinations(range(n_labels), k)
                if all((a in combo) == (b in combo) for a, b in always_together)
                and not any(a in combo and b in combo for a, b in never_together)]
    else:
        sets = _SmallSets(n_labels)
    if not len(sets):
        raise ValueError("co-occurrence constraints leave no valid label set")
    return sets


def generate_synthetic_corpus(n_labels, vocab_size, n_samples, seed=0,
                              always_together=(), never_together=(),
                              min_fillers=5, max_fillers=9, id_prefix="s"):
    """Build a deterministic corpus; returns (samples, label_names, trigger_map).

    Each sample draws 1-3 labels (respecting any co-occurrence
    constraints), then plants each label's trigger, `trig_<name>` in
    lower case, at a random position among filler tokens `w<i>`. Filler
    vocabulary is whatever remains of vocab_size after the triggers, at
    least one token.
    """
    label_names = [f"L{i + 1}" for i in range(n_labels)]
    trigger_map = {name: f"trig_{name.lower()}" for name in label_names}
    n_fillers = vocab_size - n_labels
    fillers = [f"w{i}" for i in range(n_fillers)]

    label_sets = _valid_label_sets(n_labels, always_together, never_together)
    n_sets = len(label_sets)  # a Python-level sum on `_SmallSets`, so taken once
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n_samples):
        chosen = label_sets[rng.integers(n_sets)]
        count = int(rng.integers(min_fillers, max_fillers + 1))
        tokens = [fillers[j] for j in rng.integers(n_fillers, size=count)]
        for li in chosen:
            pos = int(rng.integers(len(tokens) + 1))
            tokens.insert(pos, trigger_map[label_names[li]])
        annotations = [(tokens.index(trigger_map[label_names[li]]), label_names[li], 1.0)
                       for li in chosen]
        samples.append(Sample(
            id=f"{id_prefix}{i}",
            tokens=tokens,
            labels=[label_names[li] for li in chosen],
            annotations=annotations,
        ))
    return samples, label_names, trigger_map
