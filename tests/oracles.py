"""Shared test oracles: central finite differences and brute-force references.

The ops below record on the tape like `hgcn.autodiff`'s but serve only
the tests. The dense adjacency code builds the sample graph as an
explicit (m+n)^2 matrix; it is the reference for `hgcn.graph.propagate`.
The per-cell heatmap writer is the reference for `hgcn.analysis.render_heatmap`.
The per-sample model path (one graph, one tape per sample, no padding)
is the reference for the batched `hgcn.model` path. The per-token and
per-sample loops are the references for `hgcn.encoder.tokenize` and
the Jaccard of `hgcn.metrics.evaluate`, and the full enumeration of label sets is the
reference for `hgcn.synth`'s draw.
"""

import csv
import io
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from hgcn import autodiff as ad
from hgcn.autodiff import Node, ShapeError, Tape, _result, constant, gather_rows
from hgcn.encoder import RESERVED, SEQ_END, SEQ_START, UNKNOWN, token_rows
from hgcn.model import ForwardTrace


def finite_difference_grad(f, x, eps=1e-6):
    """Central-difference gradient of scalar f w.r.t. array x."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for idx in np.ndindex(*x.shape):
        xp = x.copy()
        xm = x.copy()
        xp[idx] += eps
        xm[idx] -= eps
        grad[idx] = (f(xp) - f(xm)) / (2 * eps)
    return grad


def max_rel_err(analytic, numeric, floor=1e-6):
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def brute_force_topk(probs, k):
    probs = list(probs)
    remaining = list(range(len(probs)))
    chosen = []
    while remaining and len(chosen) < k:
        best = remaining[0]
        for j in remaining:
            if probs[j] > probs[best]:
                best = j
        chosen.append(best)
        remaining.remove(best)
    return set(chosen)


def brute_force_threshold(probs, t):
    out = set()
    for j, p in enumerate(probs):
        if p >= t:
            out.add(j)
    return out


def tokenize_reference(tokens, vocab, max_len):
    """Each content token's vocabulary id, or UNKNOWN for a reserved id, between the markers."""
    ids = vocab.to_dict()
    content = (ids.get(t, UNKNOWN) for t in token_rows(tokens, max_len)[1:-1])
    return [SEQ_START, *(i if i >= len(RESERVED) else UNKNOWN for i in content), SEQ_END]


def label_sets_reference(n_labels, always_together=(), never_together=()):
    """Every set of 1-3 labels that meets the constraints, smaller sets first, as sorted tuples."""
    return [combo for k in (1, 2, 3) for combo in combinations(range(n_labels), k)
            if all((a in combo) == (b in combo) for a, b in always_together)
            and not any(a in combo and b in combo for a, b in never_together)]


def jaccard_reference(preds, golds):
    """Mean per-sample |Y ∩ Ŷ| / |Y ∪ Ŷ|, both-empty 1, added up sample by sample."""
    total = 0.0
    for p, g in zip(preds, golds):
        p, g = set(p), set(g)
        union = p | g
        total += len(p & g) / len(union) if union else 1.0
    return total / len(preds)


# --- test-only ops -----------------------------------------------------

def add(a: Node, b: Node) -> Node:
    if a.value.shape != b.value.shape:
        raise ShapeError(f"add: shapes differ, {a.value.shape} vs {b.value.shape}")

    def push(g):
        if a.requires_grad:
            a.accumulate(g)
        if b.requires_grad:
            b.accumulate(g)

    return _result(a.value + b.value, "add", (a, b), push)


def elementwise_mul(a: Node, b: Node) -> Node:
    if a.value.shape != b.value.shape:
        raise ShapeError(f"elementwise_mul: shapes differ, {a.value.shape} vs {b.value.shape}")

    def push(g):
        if a.requires_grad:
            a.accumulate(g * b.value)
        if b.requires_grad:
            b.accumulate(g * a.value)

    return _result(a.value * b.value, "elementwise_mul", (a, b), push)


def total_sum(a: Node) -> Node:
    out = np.array([[np.sum(a.value)]])

    def push(g):
        a.accumulate(np.full_like(a.value, g[0, 0]))

    return _result(out, "total_sum", (a,), push)


def slice_rows(a: Node, start: int, stop: int) -> Node:
    if not (0 <= start <= stop <= a.value.shape[0]):
        raise ShapeError(f"slice_rows: [{start}:{stop}] out of range for {a.value.shape}")

    def push(g):
        pad = np.zeros_like(a.value)
        pad[start:stop] = g
        a.accumulate(pad)

    return _result(a.value[start:stop].copy(), "slice_rows", (a,), push)


def concat_rows(a: Node, b: Node) -> Node:
    """The rows of 2-D `b` stacked under 2-D `a`: one sample's token rows over its label rows."""
    if a.value.ndim != 2 or b.value.ndim != 2 or a.value.shape[1] != b.value.shape[1]:
        raise ShapeError(f"concat_rows: widths differ, {a.value.shape} vs {b.value.shape}")
    m = a.value.shape[0]

    def push(g):
        if a.requires_grad:
            a.accumulate(g[:m])
        if b.requires_grad:
            b.accumulate(g[m:])

    return _result(np.concatenate([a.value, b.value]), "concat_rows", (a, b), push)


class ReferenceSGD:
    """Plain gradient descent, p <- p - lr * grad, as a loop over the parameters.

    Tests step with it where only the gradients matter, not Adam's moments.
    """

    def __init__(self, params, lr):
        self.params, self.lr = list(params), lr

    def step(self) -> None:
        for p in self.params:
            p.value = p.value - self.lr * p.grad
            p.grad.fill(0.0)


class ReferenceAdam:
    """`Adam` as a loop over the parameters, out of place, with per-parameter moments.

    The reference for the flat store's in-place step.
    """

    beta1, beta2, eps = ad.Adam.beta1, ad.Adam.beta2, ad.Adam.eps

    def __init__(self, params, lr):
        self.params, self.lr, self.t = list(params), lr, 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for i, p in enumerate(self.params):
            g = p.grad
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            m_hat = self.m[i] / (1 - b1 ** self.t)
            v_hat = self.v[i] / (1 - b2 ** self.t)
            p.value = p.value - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            p.grad.fill(0.0)


def scatter_add_reference(table_shape, ids, g) -> np.ndarray:
    """`gather_rows`' table gradient by np.add.at into zeros."""
    acc = np.zeros(table_shape)
    np.add.at(acc, ids, g)
    return acc


def parse_heatmap_csv(path) -> tuple[np.ndarray, list[str], list[str]]:
    """Read back a heatmap CSV written by `hgcn.analysis.render_heatmap`."""
    with open(str(path), encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    col_names = rows[0][1:]
    row_names = [r[0] for r in rows[1:]]
    values = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
    return values, row_names, col_names


def render_heatmap_reference(matrix, row_names, col_names, path) -> None:
    """`render_heatmap`'s files built one cell at a time, every name quoted by `csv.writer`."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    cells = [[repr(v) for v in row] for row in matrix.tolist()]

    def field(name):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow([name, ""])
        return buf.getvalue()[:-2]

    lines = [",".join([""] + [field(c) for c in col_names])]
    lines += [",".join([field(name)] + row) for name, row in zip(row_names, cells)]
    with open(f"{path}.csv", "wb") as f:
        f.write(("\n".join(lines) + "\n").encode("utf-8"))

    lo = min(0.0, float(matrix.min()))
    span = float(matrix.max()) - lo
    levels = (np.rint(255 * (matrix - lo) / span).astype(int) if span > 0
              else np.zeros(matrix.shape, dtype=int))
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'width="{matrix.shape[1] * 24}" height="{matrix.shape[0] * 24}">']
    for i, row in enumerate(cells):
        for j, text in enumerate(row):
            v = levels[i, j]
            parts.append(f'<rect x="{j * 24}" y="{i * 24}" width="24" height="24" '
                         f'fill="rgb({v},{v},{v})" data-value="{text}"/>')
    parts.append("</svg>")
    with open(f"{path}.svg", "wb") as f:
        f.write(("\n".join(parts) + "\n").encode("utf-8"))


# --- dense adjacency reference ------------------------------------------

@dataclass
class AdjacencyBlocks:
    """The three relation blocks of one sample graph."""

    a_token: np.ndarray      # m x m chain
    a_label: np.ndarray      # n x n identity
    a_token_label: np.ndarray  # m x n, entries in [0, 1]

    @property
    def m(self) -> int:
        return self.a_token.shape[0]

    @property
    def n(self) -> int:
        return self.a_label.shape[0]


def build_chain_adjacency(m: int) -> np.ndarray:
    """Symmetric bandwidth-1 chain with self-loops: A[i][i]=A[i][i+1]=A[i+1][i]=1."""
    if m < 1:
        raise ValueError(f"need at least one token node, got m={m}")
    a = np.eye(m)
    idx = np.arange(m - 1)
    a[idx, idx + 1] = 1.0
    a[idx + 1, idx] = 1.0
    return a


def build_label_adjacency(n: int) -> np.ndarray:
    if n < 1:
        raise ValueError(f"need at least one label node, got n={n}")
    return np.eye(n)


def initial_blocks(m: int, n: int) -> AdjacencyBlocks:
    return AdjacencyBlocks(
        a_token=build_chain_adjacency(m),
        a_label=build_label_adjacency(n),
        a_token_label=np.zeros((m, n)),
    )


def assemble_block(blocks: AdjacencyBlocks) -> np.ndarray:
    """[[A_token, A_tl], [A_tl^T, A_label]] as one (m+n)^2 matrix."""
    at, al, atl = blocks.a_token, blocks.a_label, blocks.a_token_label
    if at.shape[0] != at.shape[1] or al.shape[0] != al.shape[1]:
        raise ShapeError("token/label blocks must be square")
    if atl.shape != (at.shape[0], al.shape[0]):
        raise ShapeError(
            f"token-label block {atl.shape} incompatible with {at.shape} and {al.shape}")
    return np.block([[at, atl], [atl.T, al]])


def normalize_adjacency(a: np.ndarray) -> np.ndarray:
    """D^{-1/2} (A + I) D^{-1/2} with D the degree matrix of A + I.

    Row sums are >= 1 after the +I augmentation, so the inverse square
    root is always defined.
    """
    a = np.asarray(a, dtype=float)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"adjacency must be square, got {a.shape}")
    a_tilde = a + np.eye(a.shape[0])
    d = a_tilde.sum(axis=1)
    if np.any(d <= 0):
        raise ValueError("adjacency row degree must be positive after self-loops")
    s = 1.0 / np.sqrt(d)
    return a_tilde * np.outer(s, s)


def assemble_block_node(a_token: np.ndarray, a_label: np.ndarray, a_tl: Node) -> Node:
    """Differentiable block assembly; the two homogeneous blocks are constants.

    The token-label block appears twice (upper-right and transposed
    lower-left), so its gradient collects both placements.
    """
    m, n = a_token.shape[0], a_label.shape[0]
    if a_tl.value.shape != (m, n):
        raise ShapeError(f"token-label block {a_tl.value.shape}, expected {(m, n)}")
    full = np.block([[a_token, a_tl.value], [a_tl.value.T, a_label]])

    def push(g):
        a_tl.accumulate(g[:m, m:] + g[m:, :m].T)

    return _result(full, "assemble_block", (a_tl,), push)


def normalize_adjacency_node(a: Node) -> Node:
    """Differentiable symmetric normalization (same math as normalize_adjacency)."""
    if a.value.shape[0] != a.value.shape[1]:
        raise ShapeError(f"adjacency must be square, got {a.value.shape}")
    a_tilde = a.value + np.eye(a.value.shape[0])
    d = a_tilde.sum(axis=1)
    if np.any(d <= 0):
        raise ValueError("adjacency row degree must be positive after self-loops")
    s = 1.0 / np.sqrt(d)
    out = a_tilde * np.outer(s, s)

    def push(g):
        # n_ij = ã_ij s_i s_j with s_i = d_i^{-1/2}, d_i = Σ_q ã_iq.
        # Degree terms contribute a per-row constant.
        direct = g * np.outer(s, s)
        row_mix = np.sum(g * a_tilde * s[None, :], axis=1)   # Σ_j g_pj ã_pj s_j
        col_mix = np.sum(g * a_tilde * s[:, None], axis=0)   # Σ_i g_ip ã_ip s_i
        u = -0.5 * s ** 3 * (row_mix + col_mix)
        a.accumulate(direct + u[:, None])

    return _result(out, "normalize_adjacency", (a,), push)


# --- per-sample model path ----------------------------------------------

def _normalized_mix_one(x, e, s_t, s_l):
    """S (A + I) S x for one sample, with S = diag(s_t, s_l)."""
    m = e.shape[0]
    u_t = s_t[:, None] * x[:m]
    u_l = s_l[:, None] * x[m:]
    out = np.empty(x.shape)
    y_t = out[:m]
    np.matmul(e, u_l, out=y_t)
    y_t += 2.0 * u_t
    y_t[1:] += u_t[:-1]
    y_t[:-1] += u_t[1:]
    y_t *= s_t[:, None]
    y_l = out[m:]
    np.matmul(e.T, u_t, out=y_l)
    y_l += 2.0 * u_l
    y_l *= s_l[:, None]
    return out


def propagate_one(h: Node, edges: Node) -> Node:
    """D^{-1/2} (A + I) D^{-1/2} h for one sample's (m+n) x hidden `h` and m x n `edges`."""
    e = edges.value
    m, n = e.shape
    if m < 1 or n < 1:
        raise ValueError(f"need at least one token and one label node, got m={m}, n={n}")
    if h.value.shape[0] != m + n:
        raise ShapeError(f"propagate: h has {h.value.shape[0]} rows, "
                         f"expected m + n = {m} + {n} from edges {e.shape}")
    d_t = 4.0 + e.sum(axis=1)   # two chain neighbours, one fewer at each end
    d_t[0] -= 1.0
    d_t[-1] -= 1.0
    d_l = 2.0 + e.sum(axis=0)
    if d_t.min() <= 0 or d_l.min() <= 0:
        raise ValueError("adjacency row degree must be positive after self-loops")
    s_t = 1.0 / np.sqrt(d_t)
    s_l = 1.0 / np.sqrt(d_l)
    out = _normalized_mix_one(h.value, e, s_t, s_l)

    def push(g):
        dh = _normalized_mix_one(g, e, s_t, s_l)
        if h.requires_grad:
            h.accumulate(dh)
        if edges.requires_grad:
            x = h.value
            ge = (s_t[:, None] * g[:m]) @ (s_l[:, None] * x[m:]).T
            ge += (s_t[:, None] * x[:m]) @ (s_l[:, None] * g[m:]).T
            r = -0.5 * np.concatenate([s_t, s_l]) ** 2 * np.sum(g * out + x * dh, axis=1)
            ge += r[:m, None] + r[None, m:]
            edges.accumulate(ge)

    return _result(out, "propagate", (h, edges), push)


def reconstruct_one(h: Node, m: int) -> Node:
    """(cos + 1) / 2 token-label edges of one sample's stacked rows; zero-norm rows get 0."""
    xt, xl = h.value[:m], h.value[m:]
    tn = np.linalg.norm(xt, axis=1)
    ln = np.linalg.norm(xl, axis=1)
    t_ok = tn > 0.0
    l_ok = ln > 0.0
    tn_safe = np.where(t_ok, tn, 1.0)
    ln_safe = np.where(l_ok, ln, 1.0)
    cos = (xt @ xl.T) / np.outer(tn_safe, ln_safe)
    live = np.outer(t_ok, l_ok)
    out = np.where(live, (cos + 1.0) / 2.0, 0.0)

    def push(g):
        ge = np.where(live, g, 0.0) * 0.5
        dh = np.empty(h.value.shape)
        dh[:m] = ((ge / ln_safe[None, :]) @ xl / tn_safe[:, None]
                  - np.sum(ge * cos, axis=1, keepdims=True) * xt / (tn_safe ** 2)[:, None])
        dh[m:] = ((ge.T / tn_safe[None, :]) @ xt / ln_safe[:, None]
                  - np.sum(ge * cos, axis=0)[:, None] * xl / (ln_safe ** 2)[:, None])
        h.accumulate(dh)

    return _result(out, "reconstruct_token_label", (h,), push)


def embed_one(provider, ids, block=None) -> Node:
    """One sample's m x dim token features, unpadded: its own vector `block`
    if given (read from a test's dict, not a provider's stacked table), else
    the provider's table rows.
    """
    if block is not None:
        return constant(block)
    return gather_rows(provider.table, ids)


def forward_one(ids, provider, params, cfg, block=None) -> ForwardTrace:
    """The HGCN on one sample: probs 1 x n, edges m x n, token and label rows m and n x hidden."""
    m = len(ids)
    n = cfg.num_labels
    h_token = ad.matmul(embed_one(provider, ids, block), params.w_token_in)
    h = concat_rows(h_token, params.w_label_in)
    edges = constant(np.zeros((m, n)))
    for layer in range(cfg.num_layers):
        if layer > 0:
            edges = reconstruct_one(h, m)
        h = ad.activation(ad.matmul(propagate_one(h, edges), params.w_layer[layer]),
                          cfg.activation)
    final_edges = reconstruct_one(h, m)
    probs = ad.softmax_row(ad.col_sums(final_edges))
    return ForwardTrace(probs=probs.value, final_edges=final_edges.value,
                        final_tokens=h.value[:m], final_labels=h.value[m:], probs_node=probs)


def sample_loss_one(ids, target, provider, params, cfg, block=None) -> Node:
    trace = forward_one(ids, provider, params, cfg, block)
    return ad.mse_loss(trace.probs_node, target)


def train_step_one(batch, params, cfg, provider, optimizer) -> float:
    """One optimizer step, one tape per sample; gradients accumulate over the batch."""
    total = 0.0
    inv = 1.0 / len(batch)
    for ids, target in batch:
        with Tape() as tape:
            loss = sample_loss_one(ids, target, provider, params, cfg)
            tape.backward(loss, inv)
        total += float(loss.value[0, 0])
    optimizer.step()
    return total * inv
