"""Command-line surface: train | eval | explain | correlate | synth.

Configuration comes from an optional JSON file plus flag overrides.
Exit codes: 0 success, 1 config/validation failure, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

from . import run as runmod
from .analysis import render_heatmap
from .data import (
    DatasetError,
    CheckpointError,
    load_dataset,
    save_checkpoint,
    save_dataset,
    write_text,
)
from .run import ConfigError, RunConfig
from .synth import generate_synthetic_corpus


def _load_run_config(args) -> RunConfig:
    values = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as f:
                values = json.load(f)
        except OSError as e:
            raise ConfigError(f"cannot read config {args.config}: {e}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"config {args.config}: invalid JSON ({e.msg})") from e
        if not isinstance(values, dict):
            raise ConfigError(f"config {args.config}: top level must be a JSON object, "
                              f"got {json.dumps(values)}")
    for key, kept in runmod.RETIRED.items():
        value = values.pop(key, kept)
        if type(value) is not type(kept) or value != kept:  # 0 is not false
            raise ConfigError(f"{key} is retired: its only accepted value is "
                              f"{json.dumps(kept)}, got {json.dumps(value)}")
    known = {f.name for f in fields(RunConfig)}
    unknown = set(values) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    # the override flags given, each stored under its config key
    values.update((key, value) for key, value in vars(args).items() if key in known)
    if args.decode_flag is not None:
        kind, _, value = args.decode_flag.partition(":")
        try:
            if kind == "topk":
                values["decode"], values["topk"] = "topk", int(value)
            elif kind == "thr":
                values["decode"], values["threshold"] = "threshold", float(value)
            else:
                raise ValueError
        except ValueError:
            raise ConfigError(
                f"--decode must be topk:K or thr:T, got {args.decode_flag!r}") from None

    if "label_names" not in values:
        raise ConfigError("config must declare label_names")
    return RunConfig(**values)


def _require(cfg: RunConfig, attr: str, what: str) -> str:
    path = getattr(cfg, attr)
    if not path:
        raise ConfigError(f"{what} requires config key {attr!r}")
    return path


def cmd_train(cfg: RunConfig) -> int:
    train_samples = load_dataset(_require(cfg, "train_path", "train"), cfg.label_names)
    dev = load_dataset(cfg.dev_path, cfg.label_names) if cfg.dev_path else None
    params, provider, vocab, lines = runmod.train(train_samples, cfg, dev, log=print)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_text(out / "train.log", "".join(line + "\n" for line in lines))
    save_checkpoint(params, cfg.model_config(), out / "model.ckpt",
                    vocab=vocab, label_names=cfg.label_names, provider=provider)
    return 0


def cmd_eval(cfg: RunConfig, samples, params, provider, vocab) -> int:
    report = runmod.evaluate_model(samples, params, provider, cfg, vocab)
    text = report.render(cfg.label_names)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_text(out / "eval.txt", text)
    write_text(out / "eval.json", json.dumps(vars(report), indent=2))
    print(text, end="")
    return 0


def cmd_explain(cfg: RunConfig, samples, params, provider, vocab) -> int:
    attributions, corpus_mse = runmod.explain_samples(samples, params, provider, cfg, vocab)
    out = Path(cfg.out_dir) / "attributions"
    out.mkdir(parents=True, exist_ok=True)
    prefix = os.path.join(out, "")
    render_heatmap([attr.values for _, attr in attributions],
                   [attr.tokens for _, attr in attributions], cfg.label_names,
                   [prefix + sample.id for sample, _ in attributions])
    # heatmaps of samples an earlier run explained would pass for this run's
    written = {sample.id + ext for sample, _ in attributions for ext in (".csv", ".svg")}
    for entry in os.scandir(out):
        if entry.name.endswith((".csv", ".svg")) and entry.name not in written and entry.is_file():
            os.unlink(entry.path)
    if corpus_mse is None:
        (out / "mse.txt").unlink(missing_ok=True)  # no earlier run's figure is left behind
    else:
        write_text(out / "mse.txt", f"attribution_mse {corpus_mse:.8f}\n")
        print(f"attribution_mse {corpus_mse:.8f}")
    print(f"wrote {len(attributions)} attribution matrices to {out}")
    return 0


def cmd_correlate(cfg: RunConfig, samples, params, provider, vocab) -> int:
    pearson, cosine = runmod.correlate(samples, params, provider, cfg, vocab)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    render_heatmap([pearson, cosine], [cfg.label_names] * 2, cfg.label_names,
                   [out / "pearson", out / "label_cosine"])
    print(f"wrote pearson and label_cosine heatmaps to {out}")
    return 0


# the commands that read the test set through a trained model
MODEL_COMMANDS = {"eval": cmd_eval, "explain": cmd_explain, "correlate": cmd_correlate}


def cmd_synth(args) -> int:
    # --vocab-size holds one trigger token per label and at least one filler token
    for flag, value, least in [("--seed", args.seed, 0), ("--labels", args.labels, 1),
                               ("--vocab-size", args.vocab_size, args.labels + 1),
                               ("--train-samples", args.train_samples, 1),
                               ("--test-samples", args.test_samples, 1)]:
        if value < least:
            raise ConfigError(f"{flag} must be >= {least}, got {value}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    train_samples, label_names, _ = generate_synthetic_corpus(
        args.labels, args.vocab_size, args.train_samples, seed=args.seed,
        id_prefix="train_")
    test_samples, _, _ = generate_synthetic_corpus(
        args.labels, args.vocab_size, args.test_samples, seed=args.seed + 1,
        id_prefix="test_")
    save_dataset(train_samples, out / "train.jsonl")
    save_dataset(test_samples, out / "test.jsonl")
    print(f"wrote {len(train_samples)} train / {len(test_samples)} test samples "
          f"with labels {label_names} to {out}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `hgcn` argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="hgcn",
                                     description="heterogeneous graph network for "
                                                 "multi-label text classification")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("train", *MODEL_COMMANDS):
        # an override flag absent from the command line sets no config key
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        p.add_argument("--config", default=None, help="JSON run configuration")
        p.add_argument("--seed", type=int)
        p.add_argument("--layers", type=int, dest="num_layers", metavar="LAYERS")
        p.add_argument("--hidden", type=int)
        p.add_argument("--decode", default=None, dest="decode_flag", metavar="DECODE",
                       help="topk:K or thr:T")
        p.add_argument("--encoder", help="lookup or file:PATH")
        p.add_argument("--freeze", action="store_true")
        p.add_argument("--out", dest="out_dir", metavar="OUT", help="output directory")
    p = sub.add_parser("synth")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--labels", type=int, default=5)
    p.add_argument("--vocab-size", type=int, default=60)
    p.add_argument("--train-samples", type=int, default=500)
    p.add_argument("--test-samples", type=int, default=100)
    return parser


def main(argv=None) -> int:
    # glibc M_TRIM_THRESHOLD (-1), 128 KiB -> 8 MiB: trimming each freed tape cost about 300
    # minor page faults per short-chain step (0 after), and 114k (2k) in five long-doc trainings
    with contextlib.suppress(OSError, AttributeError, TypeError):
        ctypes.CDLL(None).mallopt(-1, 8 << 20)
    args = build_parser().parse_args(argv)
    try:
        if args.command == "synth":
            return cmd_synth(args)
        cfg = _load_run_config(args)
        if args.command == "train":
            return cmd_train(cfg)
        samples = load_dataset(_require(cfg, "test_path", args.command), cfg.label_names)
        return MODEL_COMMANDS[args.command](cfg, samples, *runmod.load_model(cfg))
    except (ConfigError, DatasetError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (CheckpointError, OSError, ValueError) as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return 2
