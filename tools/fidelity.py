#!/usr/bin/env python3
"""Attribution fidelity of the criterion-4 model, one row per model seed.

    python3 tools/fidelity.py [--src DIR] [--seeds FIRST-LAST]

For each model seed, 0-4 unless `--seeds` names another inclusive
range such as 0-19, this trains the configuration of criterion 4
in tests/test_acceptance.py (5 labels, a 60-token vocabulary, 500
training and 100 test samples at fixed corpus seeds, 120 epochs) with
that seed, and prints one row of a Markdown table:

- `exact` and `±1`: the share of gold labels whose argmax row in the
  sample's final token-label block is the label's trigger, or within one
  row of it;
- `jaccard` and `micro-F1` of the decoded test predictions;
- where the argmax rows land, as counts: on the `trigger`, on a chain
  `neighbour` of it that is no marker, on a `marker` (`<s>` or `</s>`),
  on an `other` label's trigger or on a `filler`;
- the mean final edge, over every label column, on `marker`, `trigger`
  and `filler` rows.

Rows for the mean, minimum and maximum over the seeds follow. A model
change is held to the parent's figures by running both sources:

    python3 tools/fidelity.py > new.md
    python3 tools/fidelity.py --src ../parent/src > old.md

`--src` is the directory holding the `hgcn` package to import (default:
`src/` of this checkout). BLAS runs on one thread.
"""

import argparse
import sys
from pathlib import Path

from output_digest import import_hgcn  # first: it pins BLAS to one thread

import numpy as np  # noqa: E402  (after the thread pins)

ROOT = Path(__file__).resolve().parent.parent
# criterion 4's corpus (train, test) and run configuration, whose model seed each row
# replaces; equal to tests/test_acceptance.py's, as tests/test_tools.py checks
CORPUS = dict(n_labels=5, vocab_size=60, min_fillers=3, max_fillers=6)
SPLITS = {"train": (500, 0, "tr"), "test": (100, 1, "te")}
RUN = dict(num_layers=2, hidden=64, input_dim=64, activation="tanh", lr=0.02, seed=0,
           decode="threshold", threshold=0.15, epochs=120, batch_size=10, max_len=32)
CLASSES = ("trigger", "neighbour", "marker", "other", "filler")
ROW_KINDS = ("marker", "trigger", "filler")
COLUMNS = ("exact", "±1", "jaccard", "micro-F1", *CLASSES, *(f"edge {k}" for k in ROW_KINDS))


def classify(rows, r: int, trigger: str, triggers) -> str:
    """Where argmax row `r` of a sample's token rows lands for the label of `trigger`."""
    if rows[r] == trigger:
        return "trigger"
    if r in (0, len(rows) - 1):
        return "marker"
    if trigger in rows[r - 1:r + 2]:
        return "neighbour"
    return "other" if rows[r] in triggers else "filler"


def fidelity(cfg, train, test, trigger_map) -> dict:
    """COLUMNS of one trained model: `cfg` trained on `train`, read on `test`."""
    from hgcn import run as runmod
    from hgcn.encoder import token_rows
    params, provider, vocab, _ = runmod.train(train, cfg)
    report = runmod.evaluate_model(test, params, provider, cfg, vocab)
    triggers = set(trigger_map.values())
    counts = dict.fromkeys(CLASSES, 0)
    near = 0
    edge_sum, edge_count = dict.fromkeys(ROW_KINDS, 0.0), dict.fromkeys(ROW_KINDS, 0)
    blocks = [None] * len(test)  # each sample's m x n final block, in input order
    for members, lengths, trace in runmod._infer(test, params, provider, cfg, vocab):
        for b, (i, m) in enumerate(zip(members, lengths)):
            blocks[i] = trace.final_edges[b, :m]
    for s, edges in zip(test, blocks):
        rows = token_rows(s.tokens, cfg.max_len)
        for i, token in enumerate(rows):
            kind = ("marker" if i in (0, len(rows) - 1)
                    else "trigger" if token in triggers else "filler")
            edge_sum[kind] += float(edges[i].sum())
            edge_count[kind] += edges.shape[1]
        for label in s.labels:
            r = int(np.argmax(edges[:, cfg.label_names.index(label)]))
            counts[classify(rows, r, trigger_map[label], triggers)] += 1
            near += trigger_map[label] in rows[max(r - 1, 0):r + 2]
    total = sum(counts.values())
    return {"exact": counts["trigger"] / total, "±1": near / total,
            "jaccard": report.jaccard, "micro-F1": report.micro_f1, **counts,
            **{f"edge {k}": edge_sum[k] / max(edge_count[k], 1) for k in ROW_KINDS}}


def table_row(name, values) -> str:
    cells = [f"{values[c]:.0f}" if c in CLASSES else f"{values[c]:.3f}" for c in COLUMNS]
    return f"| {name} | " + " | ".join(cells) + " |"


def seed_range(text: str) -> range:
    """The model seeds FIRST-LAST, both included, or the one seed N."""
    first, dash, last = text.partition("-")
    try:
        seeds = range(int(first), int(last if dash else first) + 1)
    except ValueError:
        seeds = None
    if not seeds:
        raise argparse.ArgumentTypeError(f"not a seed range FIRST-LAST: {text!r}")
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory holding the hgcn package (default: this checkout's src)")
    parser.add_argument("--seeds", type=seed_range, default="0-4",
                        help="inclusive range of model seeds, FIRST-LAST (default: 0-4)")
    args = parser.parse_args(argv)
    import_hgcn(args.src)
    from hgcn.run import RunConfig
    from hgcn.synth import generate_synthetic_corpus
    corpus = {}
    for split, (size, seed, prefix) in SPLITS.items():
        corpus[split], label_names, trigger_map = generate_synthetic_corpus(
            n_samples=size, seed=seed, id_prefix=prefix, **CORPUS)
    print("| seed | " + " | ".join(COLUMNS) + " |")
    print("|" + "---|" * (len(COLUMNS) + 1))
    rows = []
    for seed in args.seeds:
        cfg = RunConfig(label_names=label_names, **{**RUN, "seed": seed})
        rows.append(fidelity(cfg, corpus["train"], corpus["test"], trigger_map))
        print(table_row(seed, rows[-1]), flush=True)
    for name, reduce in (("mean", np.mean), ("min", np.min), ("max", np.max)):
        print(table_row(name, {c: reduce([row[c] for row in rows]) for c in COLUMNS}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
