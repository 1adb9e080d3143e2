"""The HGCN stack: projections, convolution layers, loss, training step.

Each sample is its own graph. A layer is one GCN update
act(D^{-1/2} (A + I) D^{-1/2} H W), applied by `graph.propagate` from
the token-label block alone. Layer 1 runs before any token-label edges
exist: the token rows mix along their chains only, and each label row,
whose only neighbour is itself, becomes act(w_label_in @ w_layer[0]).
Those label rows are the same for every sample, so the first layer's
node features hold them once, under the token rows of every sample.
Later layers and the final prediction re-estimate the token-label
block from the current node features, and each later layer gives each
sample its own label rows.
Label scores are column sums of the final token-label block, pushed
through a softmax and trained against a target distribution with MSE.

The body, from the input projections to the label scores, runs at the
weights' and the table's float type: each op follows its inputs'
dtype, and `run.train` draws float64 weights and casts them to
float32. The head (the softmax and the loss) computes in float64, so
the probabilities are float64 at any body type.

`forward` runs a whole batch of samples at once, padded to its longest
sample, in the layout `graph` describes: each layer's node features
are one (rows, hidden) array, so its matmul and activation are single
passes. One sample is a batch of one. A training step runs its whole
minibatch as one tape, whose backward frees the graph as it walks it,
and one optimizer step, so the minibatch size sets its memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Node, Tape, parameter
from .graph import Chains, propagate, reconstruct_token_label

@dataclass(frozen=True)
class ModelConfig:
    """The architecture a checkpoint needs to rebuild the network, and nothing else."""

    num_labels: int
    num_layers: int
    hidden: int
    input_dim: int
    activation: str

    def __post_init__(self):
        for name in ("num_labels", "num_layers", "hidden", "input_dim"):
            if type(getattr(self, name)) is not int:  # a bool is no int here
                raise ValueError(f"{name} must be an int, got {getattr(self, name)!r}")
        for name in ("num_layers", "hidden", "input_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not (isinstance(self.activation, str) and self.activation in ad.ACTIVATIONS):
            raise ValueError(f"activation must be one of {sorted(ad.ACTIVATIONS)}, "
                             f"got {self.activation!r}")

    def weight_shapes(self) -> dict[str, tuple[int, int]]:
        """Each learned weight's checkpoint name and shape, in `ModelParams.parameters` order."""
        return {"w_token_in": (self.input_dim, self.hidden),
                "w_label_in": (self.num_labels, self.hidden),
                **{f"w_layer_{i}": (self.hidden, self.hidden) for i in range(self.num_layers)}}


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    s = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, size=(fan_in, fan_out))


@dataclass
class ModelParams:
    """Learned weights: per-type input projections plus per-layer mixers."""

    w_token_in: Node
    w_label_in: Node
    w_layer: list[Node]

    @classmethod
    def from_values(cls, values) -> "ModelParams":
        """Weights from arrays in `ModelConfig.weight_shapes` order."""
        w_token_in, w_label_in, *w_layer = (parameter(v) for v in values)
        return cls(w_token_in, w_label_in, w_layer)

    @classmethod
    def init(cls, cfg: ModelConfig, rng: np.random.Generator, dtype=np.float64) -> "ModelParams":
        """Glorot-uniform weights, drawn in float64 whatever `dtype`, then cast to it."""
        return cls.from_values([_glorot(rng, *shape).astype(dtype, copy=False)
                                for shape in cfg.weight_shapes().values()])

    def parameters(self) -> list[Node]:
        return [self.w_token_in, self.w_label_in, *self.w_layer]


@dataclass
class ForwardTrace:
    """What callers read from one batched pass: decoders, `explain`, `correlate` and the loss."""

    probs: np.ndarray                  # B x n
    final_edges: np.ndarray            # B x M x n token-label blocks after the last layer
    final_labels: np.ndarray           # G x n x hidden, G = 1 when the batch shares its label rows
    probs_node: Node


def forward(batch_ids, provider, params: ModelParams, cfg: ModelConfig,
            projected: Node | None = None) -> ForwardTrace:
    """Run the HGCN on a batch of token-id sequences; records on the active Tape, if any.

    Sample b's token rows are the first len(batch_ids[b]) of the M padded
    ones; its padded rows of `final_edges` are zero.
    `projected`, if given, is `provider`'s table times `w_token_in`, made
    once for an inference pass, and the first token rows are gathered
    from it instead of projected here. No gradient reaches the table
    through it.
    """
    if projected is None:
        h = ad.matmul(provider.embed(batch_ids), params.w_token_in)
    else:
        h = provider.embed(batch_ids, projected)
    lengths = [len(ids) for ids in batch_ids]
    chains = Chains(lengths, max(lengths, default=0), cfg.num_labels, h.value.dtype)
    # first layer, before any token-label edges (see above); one-hot label
    # inputs make I_n @ w_label_in the label rows' projection
    h = ad.activation(ad.matmul(propagate(h, None, chains, params.w_label_in),
                                params.w_layer[0]), cfg.activation)
    for w in params.w_layer[1:]:
        edges = reconstruct_token_label(h, chains)
        h = ad.activation(ad.matmul(propagate(h, edges, chains), w), cfg.activation)

    final_edges = reconstruct_token_label(h, chains)
    scores = ad.col_sums(final_edges)
    probs = ad.softmax_row(scores)
    return ForwardTrace(probs=probs.value, final_edges=final_edges.value,
                        final_labels=chains.labels(h.value), probs_node=probs)


def build_target(labels) -> np.ndarray:
    """Ground-truth distribution: uniform over positive labels.

    A sample with no positive label gets the uniform distribution; a
    softmax output cannot represent the all-zero vector.
    """
    labels = np.asarray(labels, dtype=float).reshape(1, -1)
    k = labels.sum()
    if k == 0:
        return np.full_like(labels, 1.0 / labels.shape[1])
    return labels / k


def batch_loss(batch, provider, params, cfg) -> Node:
    """Mean per-sample MSE over a batch of (ids, target) pairs."""
    trace = forward([ids for ids, _ in batch], provider, params, cfg)
    return ad.mse_loss(trace.probs_node, np.concatenate([target for _, target in batch]))


def train_step(batch, params: ModelParams, cfg: ModelConfig, provider,
               optimizer: ad.Adam) -> float:
    """One optimizer step on a nonempty batch of (ids, target) pairs, as one tape.

    Loss is the mean per-sample MSE. The tape is left before its backward,
    so it exits holding every node it recorded, as a tracer that counts a
    tape's nodes at exit reads them; the backward then frees the graph.
    """
    with Tape() as tape:
        loss = batch_loss(batch, provider, params, cfg)
    tape.backward(loss)
    optimizer.step()
    return float(loss.value[0, 0])
