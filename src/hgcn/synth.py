"""Synthetic trigger-word corpus generator.

Every label owns an exclusive trigger token; a sample carries each of
its labels' triggers exactly once among filler tokens, with a golden
annotation of intensity 1.0 at the trigger position. Co-occurrence
constraints let tests shape label correlations.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .data import Sample


def _valid_label_sets(n_labels, always_together, never_together):
    together = [tuple(p) for p in always_together]
    apart = [tuple(sorted(p)) for p in never_together]
    sets = []
    for k in (1, 2, 3):
        for combo in combinations(range(n_labels), k):
            s = set(combo)
            if any((a in s) != (b in s) for a, b in together):
                continue
            if any(a in s and b in s for a, b in apart):
                continue
            sets.append(tuple(sorted(s)))
    if not sets:
        raise ValueError("co-occurrence constraints leave no valid label set")
    return sets


def generate_synthetic_corpus(n_labels, vocab_size, n_samples, seed=0,
                              always_together=(), never_together=(),
                              min_fillers=5, max_fillers=9, id_prefix="s"):
    """Build a deterministic corpus; returns (samples, label_names, trigger_map).

    Each sample draws 1-3 labels (respecting any co-occurrence
    constraints), then plants each label's trigger, `trig_<name>` in
    lower case, at a random position among filler tokens `w<i>`. Filler
    vocabulary is whatever remains of vocab_size after the triggers.
    """
    label_names = [f"L{i + 1}" for i in range(n_labels)]
    trigger_map = {name: f"trig_{name.lower()}" for name in label_names}
    n_fillers = vocab_size - n_labels
    if n_fillers < 1:
        raise ValueError(f"vocab_size {vocab_size} leaves no room for filler tokens")
    fillers = [f"w{i}" for i in range(n_fillers)]

    label_sets = _valid_label_sets(n_labels, always_together, never_together)
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n_samples):
        chosen = label_sets[rng.integers(len(label_sets))]
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
