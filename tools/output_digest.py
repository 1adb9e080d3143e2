#!/usr/bin/env python3
"""SHA-256 of every file the hgcn user path writes, for each benchmark workload shape.

    python3 tools/output_digest.py [--src DIR]

For each workload in perfbench/run.py (its corpus shape and the full
RunConfig from its `run_config`, imported read-only), this generates a
train and a test corpus at fixed seeds and runs `train`, `eval`,
`explain` and `correlate` through `hgcn.cli.main` in a temporary
directory. It prints one line per output file: the workload, the path
under the output directory and the file's SHA-256. The corpus comes from
`hgcn.synth.generate_synthetic_corpus`, as in the benchmark, because the
`synth` subcommand cannot set a workload's filler range.

More runs of the short-chain shape follow, each printed under the
`short-chain` workload with its own path prefix:

- `file-encoder/` reads per-sample vectors drawn at a fixed seed through
  `--encoder file:PATH`;
- one run per entry of VARIANTS sets the knobs the benchmark leaves at
  their defaults (layer count, `relu`, `freeze`, the `topk` decoder, a
  `dev_path` whose metrics `train.log` records), on a corpus cut to
  VARIANT_SIZE to keep the runs short;
- `synth/` holds the two datasets `hgcn synth` writes at its default
  flags (5 labels over 60 tokens, as in short-chain), so the generator
  and the subcommand are pinned too.

To show that a change leaves every output byte-identical, run it against
both checkouts' sources and compare:

    python3 tools/output_digest.py > new.txt
    python3 tools/output_digest.py --src ../parent/src > old.txt
    diff old.txt new.txt

`--src` is the directory holding the `hgcn` package to import (default:
`src/` of this checkout); the workloads always come from this checkout's
`perfbench/`. BLAS runs on one thread, as in the benchmark.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the thread pins)

ROOT = Path(__file__).resolve().parent.parent
TRAIN_SEED, TEST_SEED, MODEL_SEED, EMBEDDING_SEED = 0, 1, 0, 2
# the shape of the file-encoder and VARIANTS runs
EXTRA_RUN_WORKLOAD = "short-chain"
VARIANTS = {
    "layers3/": {"num_layers": 3},
    "relu/": {"activation": "relu"},
    "layers1/": {"num_layers": 1},
    "freeze/": {"freeze": True},
    "topk/": {"decode": "topk", "topk": 2},
    "dev/": {"dev_path": "test.jsonl"},
}
VARIANT_SIZE = {"train_samples": 40, "test_samples": 8, "epochs": 2}


def load_benchmark():
    """perfbench/run.py as a module, for its `WORKLOADS` and `run_config`."""
    sys.path.insert(0, str(ROOT / "perfbench"))  # for its own `checks` and `tracer`
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def import_hgcn(src):
    """The `hgcn` package imported from directory `src`; exits unless it came from there."""
    src = Path(src).resolve()
    sys.path.insert(0, str(src))
    try:
        import hgcn
    except ModuleNotFoundError as e:
        if e.name != "hgcn":
            raise
        raise SystemExit(f"imported no hgcn from {src}: it holds no hgcn package") from None
    if Path(hgcn.__file__).resolve().parent != src / "hgcn":
        raise SystemExit(f"imported hgcn from {hgcn.__file__}, not {src}")
    return hgcn


def digest_workload(wl, run_config, work: Path, file_encoder=False,
                    overrides=None) -> list[tuple[str, str]]:
    """(path under the output directory, SHA-256) of every file the four commands write.

    With `file_encoder`, the run reads one vector per token node of each
    sample from an embedding file instead of training a lookup table.
    `overrides` replace entries of the workload's run configuration; a
    `*_path` one is a file name under `work`.
    """
    from hgcn import data, synth
    from hgcn.encoder import token_rows
    lo, hi = wl.fillers
    train, label_names, _ = synth.generate_synthetic_corpus(
        wl.labels, wl.vocab, wl.train_samples, seed=TRAIN_SEED,
        min_fillers=lo, max_fillers=hi, id_prefix="tr")
    test, _, _ = synth.generate_synthetic_corpus(
        wl.labels, wl.vocab, wl.test_samples, seed=TEST_SEED,
        min_fillers=lo, max_fillers=hi, id_prefix="te")
    data.save_dataset(train, work / "train.jsonl")
    data.save_dataset(test, work / "test.jsonl")
    out = work / "out"
    config = work / "config.json"
    values = run_config(wl, label_names, MODEL_SEED, work, out)
    values |= {key: str(work / value) if key.endswith("_path") else value
               for key, value in (overrides or {}).items()}
    if file_encoder:
        rng = np.random.default_rng(EMBEDDING_SEED)
        data.save_embeddings(work / "vectors.bin", {
            s.id: rng.normal(size=(len(token_rows(s.tokens, wl.max_len)), values["input_dim"]))
            for s in train + test})
        values["encoder"] = f"file:{work / 'vectors.bin'}"
    config.write_text(json.dumps(values), encoding="utf-8")
    for command in ("train", "eval", "explain", "correlate"):
        run_cli([command, "--config", str(config)])
    return digest_files(out)


def run_cli(argv) -> None:
    from hgcn import cli
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"hgcn {argv[0]} exited {rc}")


def digest_files(out: Path) -> list[tuple[str, str]]:
    """(path under `out`, SHA-256) of every file below `out`, sorted by path."""
    return [(path.relative_to(out).as_posix(), hashlib.sha256(path.read_bytes()).hexdigest())
            for path in sorted(out.rglob("*")) if path.is_file()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory holding the hgcn package (default: this checkout's src)")
    args = parser.parse_args(argv)
    bench = load_benchmark()
    import_hgcn(args.src)
    short = bench.WORKLOADS[EXTRA_RUN_WORKLOAD]
    runs = [(name, wl, "", False, None) for name, wl in bench.WORKLOADS.items()]
    runs.append((EXTRA_RUN_WORKLOAD, short, "file-encoder/", True, None))
    runs += [(EXTRA_RUN_WORKLOAD, dataclasses.replace(short, **VARIANT_SIZE), prefix,
              False, overrides) for prefix, overrides in VARIANTS.items()]
    for name, wl, prefix, file_encoder, overrides in runs:
        with tempfile.TemporaryDirectory() as tmp:
            for rel, digest in digest_workload(wl, bench.run_config, Path(tmp), file_encoder,
                                               overrides):
                print(f"{name} {prefix}{rel} {digest}")
    with tempfile.TemporaryDirectory() as tmp:
        run_cli(["synth", "--out", tmp])
        for rel, digest in digest_files(Path(tmp)):
            print(f"{EXTRA_RUN_WORKLOAD} synth/{rel} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
