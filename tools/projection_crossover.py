#!/usr/bin/env python3
"""Inference time with the embedding table projected once per pass, against once per chunk.

    python3 tools/projection_crossover.py [--src DIR] [--rounds N] [--ratios R,R,...]

`hgcn.run._infer` multiplies the provider's whole table by `w_token_in`
once when the token rows the pass's chunks would multiply, padding
included, are at least `run.PROJECT_RATIO` (2) times the table's rows;
otherwise each chunk multiplies its own. This measures where that pays.
For the long-doc and serve workloads of perfbench/run.py (corpus shape
and RunConfig, imported read-only) it generates the test corpus at a
fixed seed, reads the pass's padded token rows, and builds lookup tables
with each `--ratios` multiple of those rows. The weights and the tables
are float32, as `run.train` builds them, so it times the arithmetic that
`hgcn eval` runs on a trained checkpoint. Per table, each round times
one whole `_infer` pass, its chunk stream consumed, with the projection
forced on and one with it forced off, in alternating order: it sets
`run.PROJECT_RATIO` to 0 and to infinity, so both sides run the
`_projected_table` that ships, and restores it afterwards. It prints
one JSON object: per workload, the padded rows and, per table size, the
median times, the rounds the projection won and the median of the
rounds' time ratios (projected over per chunk).

`--src` is the directory holding the `hgcn` package to import (default:
`src/` of this checkout); it needs a source at commit 4f329a0 or later,
whose `_infer` yields its chunks and whose ops follow their inputs'
float type. The workloads always come from this checkout's `perfbench/`.
BLAS runs on one thread, as in the benchmark.
"""

import argparse
import json
import math
import sys
from pathlib import Path
from time import perf_counter

from output_digest import import_hgcn, load_benchmark  # first: it pins BLAS to one thread

import numpy as np  # noqa: E402  (after the thread pins)

ROOT = Path(__file__).resolve().parent.parent
TEST_SEED, MODEL_SEED = 1, 0
WORKLOADS = ("long-doc", "serve")
PROJECTED, PER_CHUNK = 0, math.inf  # the run.PROJECT_RATIO that always, and never, projects


def infer(run, *args) -> None:
    """One whole inference pass: `run._infer` runs a chunk's forward pass only as it is consumed."""
    for _ in run._infer(*args):
        pass


def crossover(bench, name, ratios, rounds) -> dict:
    from hgcn import run, synth
    from hgcn.encoder import TrainableLookup, Vocabulary
    from hgcn.model import ModelParams
    wl = bench.WORKLOADS[name]
    lo, hi = wl.fillers
    test, label_names, _ = synth.generate_synthetic_corpus(
        wl.labels, wl.vocab, wl.test_samples, seed=TEST_SEED,
        min_fillers=lo, max_fillers=hi, id_prefix="te")
    values = bench.run_config(wl, label_names, MODEL_SEED, ROOT, ROOT)
    run_cfg = run.RunConfig(**{k: v for k, v in values.items()
                               if not k.endswith(("_path", "_dir")) and k not in run.RETIRED})
    rng = np.random.default_rng(MODEL_SEED)
    params = ModelParams.init(run_cfg.model_config(), rng, np.float32)
    vocab = Vocabulary([t for s in test for t in s.tokens])
    real, project_ratio = run._projected_table, run.PROJECT_RATIO
    asked = []

    def probe(provider, params, padded_rows):
        asked.append(padded_rows)
        return real(provider, params, padded_rows)

    try:
        run._projected_table, run.PROJECT_RATIO = probe, PER_CHUNK
        infer(run, test, params,
              TrainableLookup(len(vocab), run_cfg.input_dim, rng, dtype=np.float32), run_cfg,
              vocab)
        run._projected_table = real
        out = {"padded_rows": asked[0], "tables": []}
        for ratio in ratios:
            provider = TrainableLookup(max(len(vocab), round(ratio * asked[0])),
                                       run_cfg.input_dim, rng, dtype=np.float32)
            times = {PROJECTED: [], PER_CHUNK: []}
            for r in range(rounds + 1):
                for side in (PROJECTED, PER_CHUNK) if r % 2 else (PER_CHUNK, PROJECTED):
                    run.PROJECT_RATIO = side
                    start = perf_counter()
                    infer(run, test, params, provider, run_cfg, vocab)
                    if r:  # round 0 warms up
                        times[side].append(perf_counter() - start)
            pair = np.divide(times[PROJECTED], times[PER_CHUNK])
            out["tables"].append({
                "rows": len(provider.table.value), "ratio": ratio, "rounds": rounds,
                "projected_ms": 1e3 * float(np.median(times[PROJECTED])),
                "per_chunk_ms": 1e3 * float(np.median(times[PER_CHUNK])),
                "projected_wins": int(np.sum(pair < 1.0)),
                "median_pair_ratio": float(np.median(pair))})
            print(name, json.dumps(out["tables"][-1]), file=sys.stderr, flush=True)
    finally:
        run._projected_table, run.PROJECT_RATIO = real, project_ratio
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory holding the hgcn package (default: this checkout's src)")
    parser.add_argument("--rounds", type=int, default=41)
    parser.add_argument("--ratios", default="0.05,0.1,0.25,0.5,1,1.5",
                        help="table rows as multiples of the pass's padded token rows")
    args = parser.parse_args(argv)
    bench = load_benchmark()
    import_hgcn(args.src)
    ratios = [float(r) for r in args.ratios.split(",")]
    print(json.dumps({name: crossover(bench, name, ratios, args.rounds) for name in WORKLOADS},
                     indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
