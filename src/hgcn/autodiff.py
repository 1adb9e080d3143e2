"""Minimal dense-matrix reverse-mode autodiff.

Every value is a float array of at least two axes. A 3-D value is a
batch: its leading axis indexes samples, and each sample is one matrix.
The ops read a batch the way numpy's matmul does, treating each sample
alone, and a 2-D weight is shared by every sample. `col_sums` turns each
sample into one row, so `softmax_row` and `mse_loss` see a B x n matrix
with one sample per row.

A `Node` wraps a value together with its gradient and a closure that
pushes incoming gradients to its parents. Nodes created while a `Tape`
is active are recorded in creation order, which is a valid topological
order, so `Tape.backward` simply walks the list in reverse. With no
active tape nothing is recorded and no node keeps its closure, which is
how inference runs: each intermediate array is freed as soon as nothing
reads it.

Every backward adds into a node through `Node.accumulate`. Only a leaf
that trains has a gradient of its own: a parameter lives outside any
tape and starts with a zero gradient, which builds up in place until an
optimizer step zeroes it. A constant has none, and nothing pushes into
it: a two-parent op checks `requires_grad`, and a one-parent op over a
constant keeps no backward. A non-leaf node has no gradient until its
first push in `Tape.backward`, which stores the pushed array as is; each
later push rebinds the sum. A node that receives no push is skipped.

Every op follows its inputs' dtype: its output and the gradient it pushes
into a parent are at the parent's float type, and a parameter or
constant keeps a float input's dtype (any other input becomes float64).
`run.train` picks float32 for the model's body; `softmax_row` alone
computes in float64 and casts its pushed gradient back, so the
probabilities and the loss after it are float64 whatever the body's
type. `Adam` keeps its store at its parameters' dtype.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


_current_tape: "Tape | None" = None


class Tape:
    """Records non-leaf nodes in creation order. Usable as a context manager."""

    def __init__(self):
        self.nodes: list[Node] = []

    def __enter__(self) -> "Tape":
        global _current_tape
        self._outer = _current_tape
        _current_tape = self
        return self

    def __exit__(self, *exc):
        global _current_tape
        _current_tape = self._outer
        return False

    def backward(self, loss: "Node", weight: float = 1.0) -> None:
        """Seed d(loss) = weight and push gradients back through the tape.

        Leaf gradients accumulate; calling twice doubles them. `weight`
        scales every pushed gradient, as a chunk's share of its batch does
        in `model.train_step`.
        """
        if loss.value.shape != (1, 1):
            raise ShapeError(f"loss must be scalar (1x1), got {loss.value.shape}")
        if loss not in self.nodes:
            raise ValueError("loss node is not on this tape")
        # clear intermediate grads so each call contributes exactly one
        # d(loss)/d(leaf) into the (persistent) leaf gradients
        for node in self.nodes:
            node.grad = None
        loss.grad = np.full_like(loss.value, weight)
        for node in reversed(self.nodes):
            if node.grad is not None and node._backward is not None:
                node._backward(node.grad)


class Node:
    """A matrix in the computation graph.

    `value` is stored as given: every caller, each op, `parameter` and
    `constant` among them, hands it an array of at least two axes. `op`
    names the producing operation ("" for leaves). Only a leaf with
    `requires_grad` starts with a zero gradient; a constant's `grad`
    stays None, and a non-leaf's is None until its first push.
    """

    __slots__ = ("value", "grad", "op", "requires_grad", "_backward")

    def __init__(self, value, requires_grad=False, op="", backward_fn=None):
        self.value = value
        self.grad = np.zeros_like(value) if requires_grad and not op else None
        self.op = op
        self.requires_grad = bool(requires_grad)
        self._backward = backward_fn
        if op and _current_tape is not None:
            _current_tape.nodes.append(self)

    def accumulate(self, g) -> None:
        """Add `g` to this node's gradient: a leaf's in place, a non-leaf's never.

        `g` may be a read-only view (a broadcast) or the very array stored as
        another node's gradient, so a non-leaf stores its first push as is.
        """
        out = None if self.op else self.grad
        self.grad = g if self.grad is None else np.add(self.grad, g, out=out)

    def __repr__(self):
        return f"Node(op={self.op!r}, shape={self.value.shape}, requires_grad={self.requires_grad})"


def _float_dtype(value) -> np.dtype:
    """A float array's own dtype; float64 for any other value."""
    dtype = np.asarray(value).dtype
    return dtype if dtype.kind == "f" else np.dtype(np.float64)


def parameter(value) -> Node:
    """A trainable leaf holding its own copy of `value`, until an optimizer moves it to its store.

    Rejects non-finite input.
    """
    value = np.atleast_2d(np.array(value, dtype=_float_dtype(value)))
    if not np.all(np.isfinite(value)):
        raise ValueError("parameter contains NaN/Inf")
    return Node(value, requires_grad=True)


def constant(value) -> Node:
    value = np.atleast_2d(np.asarray(value, dtype=_float_dtype(value)))
    if not np.all(np.isfinite(value)):
        raise ValueError("constant contains NaN/Inf")
    return Node(value, requires_grad=False)


def _result(value, op, parents, backward_fn) -> Node:
    """An op output; its backward is kept only on a tape, and only if a parent needs a gradient.

    So the push of a one-parent op needs no `requires_grad` check, and
    outside a tape no closure holds the parents or the forward's
    intermediate arrays alive. An op has one parent or two.
    """
    requires = parents[0].requires_grad or parents[-1].requires_grad
    keep = requires and _current_tape is not None
    return Node(value, requires_grad=requires, op=op, backward_fn=backward_fn if keep else None)


def matmul(a: Node, b: Node) -> Node:
    """a @ b for a 2-D `b`; a batched `a` multiplies every sample by the same `b`."""
    k = b.value.shape[0]
    if a.value.shape[-1] != k:
        raise ShapeError(f"matmul: inner dims differ, {a.value.shape} x {b.value.shape}")

    def push(g):
        if a.requires_grad:
            a.accumulate(g @ b.value.T)
        if b.requires_grad:
            # one product over the rows of every sample at once
            b.accumulate(a.value.reshape(-1, k).T @ g.reshape(-1, g.shape[-1]))

    return _result(a.value @ b.value, "matmul", (a, b), push)


# elementwise nonlinearities: kind -> (f(x), f'(x) from x and f(x))
ACTIVATIONS = {
    "relu": (lambda x: np.maximum(x, 0.0), lambda x, y: x > 0.0),
    "tanh": (np.tanh, lambda x, y: 1.0 - y * y),
}


def activation(a: Node, kind: str = "relu") -> Node:
    """Elementwise nonlinearity `kind`, an ACTIVATIONS key; ReLU's subgradient at 0 is 0."""
    f, df = ACTIVATIONS[kind]
    out = f(a.value)

    def push(g):
        a.accumulate(g * df(a.value, out))

    return _result(out, f"activation[{kind}]", (a,), push)


def softmax_row(a: Node) -> Node:
    """Stabilized softmax of each row of a B x N matrix, with exact Jacobian.

    It computes in float64 whatever `a`'s float type, and pushes its
    gradient back at `a`'s.
    """
    if a.value.ndim != 2:
        raise ShapeError(f"softmax_row expects a BxN matrix, got {a.value.shape}")
    if a.value.shape[1] == 0:
        raise ShapeError("softmax_row: empty vector")
    x = a.value.astype(np.float64, copy=False)
    shifted = x - np.maximum.reduce(x, axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / np.add.reduce(e, axis=1, keepdims=True)

    def push(g):
        # per row, J^T g with J = diag(s) - s s^T
        dot = np.add.reduce(g * out, axis=1, keepdims=True)
        a.accumulate((out * (g - dot)).astype(a.value.dtype, copy=False))

    return _result(out, "softmax_row", (a,), push)


def mse_loss(pred: Node, target) -> Node:
    """Mean squared error over all entries: for B x N rows, the mean of per-row losses."""
    target = np.atleast_2d(np.asarray(target, dtype=pred.value.dtype))
    if pred.value.shape != target.shape:
        raise ShapeError(f"mse_loss: shapes differ, {pred.value.shape} vs {target.shape}")
    diff = pred.value - target
    count = diff.size
    out = np.array([[np.add.reduce(diff * diff, axis=None) / count]])

    def push(g):
        pred.accumulate(g[0, 0] * 2.0 * diff / count)

    return _result(out, "mse_loss", (pred,), push)


def col_sums(a: Node) -> Node:
    """Column sums of each m x N sample as one row: 1 x N, or B x N for a batch."""
    shape = a.value.shape
    out = np.add.reduce(a.value, axis=-2).reshape(-1, shape[-1])

    def push(g):
        a.accumulate(np.repeat(g.reshape(shape[:-2] + (1, shape[-1])), shape[-2], axis=-2))

    return _result(out, "col_sums", (a,), push)


def gather_rows(table: Node, ids) -> Node:
    """Row lookup; backward scatter-adds into exactly the looked-up rows.

    `ids` may have any shape. Padded slots look up the PAD row like any
    other id; `graph.propagate` is what makes them inert, so they push
    only zeros into it.
    """
    ids = np.asarray(ids, dtype=np.intp)
    if ids.size and (ids.min() < 0 or ids.max() >= table.value.shape[0]):
        raise ShapeError(f"gather_rows: id out of range for table {table.value.shape}")

    def push(g):
        # one bincount over flat (row, column) slots: the same sums, in the
        # same order, as np.add.at into float64 zeros; cast to the table's type
        rows, width = table.value.shape
        slots = (ids[..., None] * width + np.arange(width)).ravel()
        sums = np.bincount(slots, weights=g.ravel(), minlength=rows * width)
        table.accumulate(sums.astype(table.value.dtype, copy=False).reshape(rows, width))

    return _result(table.value[ids], "gather_rows", (table,), push)


def _flat_store(params):
    """(params, values, grads), each leaf's value and grad copied in and rebound as views.

    The store is at the parameters' common float type; with none, it is empty.
    """
    params = list(params)
    dtype = np.result_type(*(p.value for p in params)) if params else np.float64
    values = np.concatenate([np.empty(0, dtype), *(p.value.ravel() for p in params)])
    grads = np.concatenate([np.empty(0, dtype), *(p.grad.ravel() for p in params)])
    cuts = np.cumsum([p.value.size for p in params])[:-1]
    for p, v, g in zip(params, np.split(values, cuts), np.split(grads, cuts)):
        p.value, p.grad = v.reshape(p.value.shape), g.reshape(p.value.shape)
    return params, values, grads


class Adam:
    """Adaptive-moment optimizer with the usual hyperparameters and a learning rate `lr` > 0."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, lr):
        self.params, self.values, self.grads = _flat_store(params)
        self.lr, self.t = lr, 0
        self.m, self.v, self._scratch = (np.zeros_like(self.values) for _ in range(3))

    def step(self) -> None:
        self.t += 1
        b1, b2, g, m, v, s = self.beta1, self.beta2, self.grads, self.m, self.v, self._scratch
        # p -= lr * (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps), per element in this order
        m *= b1
        np.multiply(g, 1 - b1, out=s)
        m += s
        v *= b2
        np.multiply(g, 1 - b2, out=s)
        s *= g
        v += s
        np.divide(v, 1 - b2 ** self.t, out=g)
        np.sqrt(g, out=g)
        g += self.eps
        np.divide(m, 1 - b1 ** self.t, out=s)
        s *= self.lr
        s /= g
        self.values -= s
        g.fill(0.0)
