"""Synthetic trigger-word corpus generator.

Every label owns an exclusive trigger token; a sample carries each of
its labels' triggers exactly once among filler tokens, with a golden
annotation of intensity 1.0 at the trigger position. Co-occurrence
constraints let tests shape label correlations.
"""

from __future__ import annotations

from functools import cache, partial
from math import comb

import numpy as np

from .data import Sample


def _label_set(n, rank):
    """Label set `rank` of every 1-3 of n labels, as a sorted tuple: the draw order.

    Smaller sets rank first, and the sets of one size follow
    `itertools.combinations(range(n), size)`.
    """
    for k in (1, 2, 3):
        if rank < (count := comb(n, k)):
            break
        rank -= count
    out, first = [], 0
    for left in range(k, 0, -1):
        # skip each first element whose sets all rank below `rank`
        while rank >= (count := comb(n - first - 1, left - 1)):
            rank -= count
            first += 1
        out.append(first)
        first += 1
    return tuple(out)


def generate_synthetic_corpus(n_labels, vocab_size, n_samples, seed=0,
                              always_together=(), never_together=(),
                              min_fillers=5, max_fillers=9, id_prefix="s"):
    """Build a deterministic corpus; returns (samples, label_names, trigger_map).

    Each sample's label set is drawn uniformly from every allowed set of
    1-3 labels. The sets are ranked smaller first, each size in
    `itertools.combinations` order (`_label_set`); co-occurrence
    constraints keep the ranked sets that meet them, in that order, and
    a ValueError is raised if none does. Each label's trigger,
    `trig_<name>` in lower case, is then planted at a random position
    among filler tokens `w<i>`. Filler vocabulary is whatever remains of
    vocab_size after the triggers, at least one token. The seed fixes
    the whole corpus.
    """
    label_names = [f"L{i + 1}" for i in range(n_labels)]
    trigger_map = {name: f"trig_{name.lower()}" for name in label_names}
    n_fillers = vocab_size - n_labels
    fillers = [f"w{i}" for i in range(n_fillers)]

    n_sets = sum(comb(n_labels, k) for k in (1, 2, 3))
    label_set = cache(partial(_label_set, n_labels))  # unranks only the sets drawn
    if always_together or never_together:
        allowed = [combo for combo in map(label_set, range(n_sets))
                   if all((a in combo) == (b in combo) for a, b in always_together)
                   and not any(a in combo and b in combo for a, b in never_together)]
        label_set, n_sets = allowed.__getitem__, len(allowed)
    if not n_sets:
        raise ValueError("co-occurrence constraints leave no valid label set")
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n_samples):
        chosen = label_set(rng.integers(n_sets))
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
