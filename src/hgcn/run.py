"""Training and evaluation orchestration shared by the CLI and tests."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .analysis import (
    build_attribution,
    build_golden,
    attribution_mse,
    label_cosine_matrix,
    pearson_matrix,
)
from .autodiff import Adam, Node
from .data import load_checkpoint, load_embeddings
from .encoder import PrecomputedFile, TrainableLookup, Vocabulary
from .metrics import EvalReport, decode_threshold, decode_topk, evaluate
from .model import ModelConfig, ModelParams, build_target, chunks, forward, train_step

# `_infer` projects the whole embedding table once only when its chunks
# would multiply at least this many padded token rows per table row; at
# fewer, the float32 whole-table product measured no faster at the
# long-doc and serve shapes (tools/projection_crossover.py)
PROJECT_RATIO = 2


class ConfigError(ValueError):
    pass


# deleted knobs a config file may still name, each at the one value it held by
# default, accepted only so that existing config files load: training runs Adam
# with gradients through every edge. "precision" no longer describes the
# arithmetic (the body runs in float32, see `train`); the key goes when the
# benchmark stops sending it
RETIRED = {"detach_edges": False, "optimizer": "adam", "precision": "float64"}


@dataclass(frozen=True)
class RunConfig:
    """Every run setting and its default; `model_config()` is the checkpointed part.

    A config checks itself when it is built: each problem found is
    joined into one ConfigError, types first, since the range checks
    assume the right types.
    """

    label_names: tuple[str, ...]  # a list is accepted and stored as a tuple
    train_path: str | None = None
    dev_path: str | None = None
    test_path: str | None = None
    num_layers: int = 2
    hidden: int = 64
    input_dim: int = 64
    activation: str = "tanh"
    lr: float = 0.01
    seed: int = 0
    decode: str = "topk"       # "topk" or "threshold"
    topk: int = 1
    threshold: float = 0.5
    encoder: str = "lookup"    # "lookup" or "file:PATH"
    freeze: bool = False
    epochs: int = 50
    batch_size: int = 10
    max_len: int = 32
    out_dir: str = "out"

    def __post_init__(self):
        problems = [f"{f.name} must be {f.type}, got {getattr(self, f.name)!r}"
                    for f in fields(self) if not _has_type(getattr(self, f.name), _HINTS[f.name])]
        if problems:  # the range checks below assume the right types
            raise ConfigError("; ".join(problems))
        object.__setattr__(self, "label_names", tuple(self.label_names))
        if not self.label_names:
            problems.append("label_names must be nonempty")
        if len(set(self.label_names)) != len(self.label_names):
            problems.append(f"label_names must not repeat a name, got {list(self.label_names)}")
        if self.decode not in ("topk", "threshold"):
            problems.append(f"decode must be topk or threshold, got {self.decode!r}")
        if self.decode == "topk" and self.topk < 1:
            problems.append(f"topk must be >= 1, got {self.topk}")
        if self.decode == "threshold" and not (0 < self.threshold <= 1):
            problems.append(f"threshold must be in (0, 1], got {self.threshold}")
        if not (self.encoder == "lookup" or self.encoder.startswith("file:")):
            problems.append(f"encoder must be 'lookup' or 'file:PATH', got {self.encoder!r}")
        if not math.isfinite(self.lr) or self.lr <= 0:
            problems.append(f"lr must be finite and > 0, got {self.lr}")
        if self.seed < 0:
            problems.append(f"seed must be >= 0, got {self.seed}")
        try:
            self.model_config()
        except ValueError as e:
            problems.append(str(e))
        if self.max_len < 3:
            problems.append("max_len must be >= 3")
        if self.epochs < 1:
            problems.append("epochs must be >= 1")
        if self.batch_size < 1:
            problems.append("batch_size must be >= 1")
        if problems:
            raise ConfigError("; ".join(problems))

    def model_config(self) -> ModelConfig:
        """`num_labels` counts `label_names`; each other architecture field is copied by name."""
        return ModelConfig(num_labels=len(self.label_names), **{
            f.name: getattr(self, f.name) for f in fields(ModelConfig) if f.name != "num_labels"})


_HINTS = get_type_hints(RunConfig)  # each field's annotation, resolved once


def _has_type(value, hint) -> bool:
    """isinstance against a field annotation; a bool is not an int, an int is a float."""
    if isinstance(hint, UnionType):
        return any(_has_type(value, h) for h in get_args(hint))
    if get_origin(hint) is tuple:  # tuple[X, ...], given as a list or a tuple
        item = get_args(hint)[0]
        return isinstance(value, (list, tuple)) and all(_has_type(v, item) for v in value)
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, hint)


def make_provider(run_cfg: RunConfig, vocab: Vocabulary, rng: np.random.Generator | None,
                  dtype):
    """The configured token-feature provider at float type `dtype`; `rng` draws a new lookup table.

    File vectors whose width is not `input_dim` are a configuration error.
    """
    if run_cfg.encoder.startswith("file:"):
        path = run_cfg.encoder[len("file:"):]
        provider = PrecomputedFile(load_embeddings(path), path, dtype)
        width = provider.table.value.shape[1]
        if width != run_cfg.input_dim:
            raise ConfigError(f"input_dim is {run_cfg.input_dim}, "
                              f"but {path} holds {width}-wide vectors")
        return provider
    return TrainableLookup(len(vocab), run_cfg.input_dim, rng, run_cfg.freeze, dtype)


def load_model(run_cfg: RunConfig):
    """(params, provider, vocab) from `out_dir/model.ckpt`, as `train` returns them.

    The label names, the architecture and the encoder must be the
    config's, or it is a configuration error. A stored embedding table
    means the `lookup` encoder and none means `file:` vectors, which are
    loaded first, so their own errors come before this check. The
    weights and the table keep their stored float type, and `file:`
    vectors are stacked at the weights' type, so a float64 checkpoint
    evaluates in float64.
    """
    path = Path(run_cfg.out_dir) / "model.ckpt"
    params, model_cfg, vocab, label_names, lookup = load_checkpoint(path)
    if tuple(label_names) != run_cfg.label_names:
        raise ConfigError(
            f"checkpoint label set {label_names} differs from config {list(run_cfg.label_names)}")
    run_model_cfg = run_cfg.model_config()
    for f in fields(ModelConfig):
        stored, wanted = getattr(model_cfg, f.name), getattr(run_model_cfg, f.name)
        if stored != wanted:
            raise ConfigError(f"checkpoint {f.name} {stored!r} differs from config {wanted!r}")
    lookup_wanted = run_cfg.encoder == "lookup"
    provider = (lookup if lookup_wanted
                else make_provider(run_cfg, vocab, None, params.w_token_in.value.dtype))
    if (lookup is not None) != lookup_wanted:
        raise ConfigError(f"{path} was trained with the {'file:' if lookup is None else 'lookup'} "
                          f"encoder, but encoder is {run_cfg.encoder!r}")
    return params, provider, vocab


def decode_probs(probs, run_cfg: RunConfig) -> set[int]:
    """The label set of one sample's probability vector.

    Decoding stays one call per sample, not one pass over the N x n
    array: the benchmark (`perfbench/run.py`) reads the probabilities by
    wrapping `metrics.decode_topk` and `decode_threshold` where they are
    imported, and its output check expects exactly one probability row
    per test sample.
    """
    if run_cfg.decode == "topk":
        return decode_topk(probs, run_cfg.topk)
    return decode_threshold(probs, run_cfg.threshold)


def _infer(samples, params, provider, run_cfg, vocab):
    """Each chunk's (members, lengths, trace), one forward pass at a time.

    The samples are sorted by length, stably, and cut into chunks by
    `model.chunks` at the weights' itemsize, the same CHUNK_BUDGET bytes
    as in training, so a chunk pads few rows; `batch_size` plays no
    part. `members` are the chunk's indices into `samples`, `lengths`
    their token row counts, ascending, and `trace` the chunk's
    `ForwardTrace`, whose row b is sample `members[b]`. Inference
    records no tape, and a command reads from each trace what it needs
    before the next chunk runs. The chunks gather their first token rows
    from `_projected_table`'s product when there is one.
    """
    cfg = run_cfg.model_config()
    ids = [provider.token_ids(s, vocab, run_cfg.max_len) for s in samples]
    order = sorted(range(len(ids)), key=lambda i: len(ids[i]))
    lengths = [len(ids[i]) for i in order]
    parts = chunks(lengths, cfg, params.w_token_in.value.itemsize)
    # a chunk pads its samples to its last, the longest
    projected = _projected_table(provider, params,
                                 sum((p.stop - p.start) * lengths[p.stop - 1] for p in parts))
    for part in parts:
        yield order[part], lengths[part], forward([ids[i] for i in order[part]], provider,
                                                  params, cfg, projected)


def _projected_table(provider, params, padded_rows: int) -> Node | None:
    """`provider`'s table times `w_token_in`, or None if `padded_rows` are too few to pay for it.

    Nothing moves the table or the weights during an inference pass, so
    one product of the whole table can serve every chunk. Without it the
    chunks multiply their `padded_rows` token rows, padding included. It
    is made only when those are at least PROJECT_RATIO times the table's
    rows.
    """
    table = provider.table.value
    if PROJECT_RATIO * len(table) > padded_rows:
        return None
    return Node(table @ params.w_token_in.value)


def predict(samples, params, provider, run_cfg, vocab):
    """Forward every sample; returns (pred_sets, gold_sets)."""
    index = {name: i for i, name in enumerate(run_cfg.label_names)}
    probs = np.empty((len(samples), len(index)))
    for members, _, trace in _infer(samples, params, provider, run_cfg, vocab):
        probs[members] = trace.probs
        del trace  # so the next chunk runs with this one's arrays freed
    return ([decode_probs(p, run_cfg) for p in probs],
            [{index[name] for name in s.labels} for s in samples])


def evaluate_model(samples, params, provider, run_cfg, vocab) -> EvalReport:
    preds, golds = predict(samples, params, provider, run_cfg, vocab)
    return evaluate(preds, golds, len(run_cfg.label_names))


def train(train_samples, run_cfg: RunConfig, dev_samples=None, log=None):
    """Full training run; returns (params, provider, vocab, log_lines).

    All randomness flows from run_cfg.seed; the per-epoch shuffle order
    is derived from (seed, epoch), so logs are reproducible byte for
    byte. The model's body runs in float32: the weights and a lookup
    table are drawn in float64, so a seed draws the same random stream
    at any type, then cast to float32; `file:` vectors are cast as they
    are stacked.
    """
    if not train_samples:
        raise ValueError("empty training set")
    vocab = Vocabulary(t for s in train_samples for t in s.tokens)
    cfg = run_cfg.model_config()
    rng = np.random.default_rng(run_cfg.seed)
    params = ModelParams.init(cfg, rng, np.float32)
    provider = make_provider(run_cfg, vocab, rng, np.float32)
    optimizer = Adam(params.parameters() + provider.parameters(), run_cfg.lr)

    # (ids, target) pairs: each sample's token ids and target distribution
    prepared = [(provider.token_ids(s, vocab, run_cfg.max_len),
                 build_target([name in s.labels for name in run_cfg.label_names]))
                for s in train_samples]
    lines = []
    for epoch in range(run_cfg.epochs):
        order = np.random.default_rng([run_cfg.seed, epoch]).permutation(len(prepared))
        losses = []
        for start in range(0, len(order), run_cfg.batch_size):
            batch = [prepared[i] for i in order[start:start + run_cfg.batch_size]]
            losses.append(train_step(batch, params, cfg, provider, optimizer))
        mean_loss = float(np.mean(losses))
        if not math.isfinite(mean_loss):
            raise ValueError(f"training diverged: epoch {epoch} mean loss is {mean_loss}")
        line = f"epoch {epoch} loss {mean_loss:.8f}"
        if dev_samples:
            report = evaluate_model(dev_samples, params, provider, run_cfg, vocab)
            line += (f" micro_f1 {report.micro_f1:.6f} macro_f1 {report.macro_f1:.6f}"
                     f" jaccard {report.jaccard:.6f}")
        lines.append(line)
        if log is not None:
            log(line)
    return params, provider, vocab, lines


def explain_samples(samples, params, provider, run_cfg, vocab):
    """(attributions, corpus golden MSE or None if no goldens).

    `attributions` holds each sample's m x n `build_attribution` array,
    in input order. A chunk's samples of the same row count m sit next
    to each other, since `_infer` sorts by length; each such run is a
    group, normalized and scored as one stack cut from the chunk's final
    edge blocks, so each attribution is a view of its group's array. A
    row count that spans two chunks makes two groups.

    A group's annotated samples are scored against their golden
    matrices, the annotated keyword intensities at the annotated token
    rows, built as one stack when the group is scored; samples without
    annotations do not enter the MSE mean, which is taken in input order.
    """
    attributions, mses = [None] * len(samples), [None] * len(samples)
    for members, lengths, trace in _infer(samples, params, provider, run_cfg, vocab):
        cuts = [0, *np.flatnonzero(np.diff(lengths)) + 1, len(lengths)]
        for lo, hi in zip(cuts, cuts[1:]):
            group = members[lo:hi]
            stack = build_attribution(trace.final_edges[lo:hi, :lengths[lo]])
            for i, attr in zip(group, stack):
                attributions[i] = attr
            scored = [b for b, i in enumerate(group) if samples[i].annotations]
            # unnamed, the goldens are freed before the next chunk runs
            scores = attribution_mse(stack if len(scored) == len(group) else stack[scored],
                                     build_golden([samples[group[b]].annotations for b in scored],
                                                  stack.shape[1], run_cfg.label_names))
            for b, mse in zip(scored, scores):
                mses[group[b]] = mse
        del trace
    mses = [mse for mse in mses if mse is not None]
    return attributions, float(np.mean(mses)) if mses else None


def correlate(samples, params, provider, run_cfg, vocab):
    """Pearson over decoded predictions and cosine over mean final label features."""
    n = len(run_cfg.label_names)
    probs, labels = np.empty((len(samples), n)), np.empty((len(samples), n, run_cfg.hidden))
    for members, _, trace in _infer(samples, params, provider, run_cfg, vocab):
        probs[members], labels[members] = trace.probs, trace.final_labels
        del trace
    pearson = pearson_matrix([decode_probs(p, run_cfg) for p in probs], len(run_cfg.label_names))
    cosine = label_cosine_matrix(np.mean(labels, axis=0))
    return pearson, cosine
