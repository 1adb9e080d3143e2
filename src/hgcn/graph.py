"""Graph operations on a batch of per-sample heterogeneous graphs.

Each sample's m token nodes form an undirected chain with self-loops,
its n label nodes are joined only to themselves, and its m x n
token-label block E is re-estimated from node features each layer via
cosine similarity mapped affinely into [0, 1]. The adjacency is
therefore always

    A = [[C, E], [E^T, I_n]],   C = chain with self-loops,

so its normalized form is applied straight from E, without forming an
(m+n)^2 matrix.

A batch pads every sample to the longest one's M token rows: node
features are B x (M + n) x hidden, token rows over label rows, and the
token-label blocks are B x M x n. This module is the one place that
makes padded token rows inert: `propagate` gives them a zero inverse
root degree, so whatever finite features they hold (the lookup encoder
repeats its PAD row there) scale to ±0, push ±0 gradients back, and mix
with nothing. From the first `propagate` on they are zero, so they get
zero edges too.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Node, ShapeError, _result


def _mix(u: np.ndarray, e: np.ndarray | None, s: np.ndarray) -> np.ndarray:
    """S (A + I) u per sample, for rows u already scaled by S = diag(s).

    (C + I) is two shifted adds on top of 2u; the cross terms are
    E @ u_label and E^T @ u_token. A shift that crosses a sample's last
    real token meets a zero scale, so it adds nothing. With no block E,
    u holds token rows only.
    """
    m = u.shape[1] if e is None else e.shape[1]
    u_t = u[:, :m]
    out = np.empty(u.shape)
    y_t = out[:, :m]
    if e is None:
        np.multiply(u_t, 2.0, out=y_t)
    else:
        np.matmul(e, u[:, m:], out=y_t)
        y_t += 2.0 * u_t
        y_l = out[:, m:]
        np.matmul(e.transpose(0, 2, 1), u_t, out=y_l)
        y_l += 2.0 * u[:, m:]
    y_t[:, 1:] += u_t[:, :-1]
    y_t[:, :-1] += u_t[:, 1:]
    out *= s[..., None]
    return out


def propagate(h: Node, edges: Node | None, lengths) -> Node:
    """D^{-1/2} (A + I) D^{-1/2} h per sample, with token-label blocks `edges`.

    `h` is B x (M + n) x hidden and `edges` B x M x n; sample b has
    `lengths[b]` real token rows. With the chain's own self-loop and the
    +I augmentation, token i has degree 2 + (chain neighbours of i) +
    sum_j E_ij and label j has degree 2 + sum_i E_ij, so degrees stay
    positive for any E >= 0. Padded token rows get inverse root degree
    0: their output and their share of dh are ±0, whatever their input.

    `edges` None means no token-label edges yet, as in the first layer:
    `h` is then the B x M x hidden token rows alone, which mix along
    their chains only. A label row of that graph has degree 2 and keeps
    its features unchanged, so the caller leaves the label rows out.

    The normalized matrix N = S (A + I) S is symmetric, so dh = N g. E
    enters both A (directly) and the degrees. The forward keeps the
    scaled rows S h for the backward, which scales g once for both dh
    and the edge gradient.
    """
    x = h.value
    e = None if edges is None else edges.value
    lengths = np.asarray(lengths)
    if e is None:
        if x.ndim != 3:
            raise ShapeError(f"propagate: token rows must be B x M x hidden, got {x.shape}")
        b, m = x.shape[:2]
    else:
        b, m, n = e.shape
        if n < 1:
            raise ValueError(f"need at least one label node per sample, got edges {e.shape}")
        if x.shape[:2] != (b, m + n):
            raise ShapeError(f"propagate: h has shape {x.shape}, expected "
                             f"B x (m + n) = {b} x ({m} + {n}) rows from edges {e.shape}")
    if m < 1 or lengths.shape != (b,) or lengths.min() < 1 or lengths.max() > m:
        raise ValueError(f"need at least one token node per sample, got "
                         f"lengths {lengths.tolist()} for {b} x {m} token rows")
    pos = np.arange(m)
    last = lengths[:, None] - 1
    # two chain neighbours, one fewer at each of the sample's real ends
    d = (4.0 if e is None else 4.0 + e.sum(axis=2)) - (pos == 0) - (pos == last)
    if e is not None:
        d = np.concatenate([d, 2.0 + e.sum(axis=1)], axis=1)
    if d.min() <= 0:
        raise ValueError("adjacency row degree must be positive after self-loops")
    s = 1.0 / np.sqrt(d)
    s[:, :m] *= pos <= last  # zero on padded rows
    u = s[..., None] * x
    out = _mix(u, e, s)

    def push(g):
        v = s[..., None] * g
        dh = _mix(v, e, s)
        if h.requires_grad:
            h.accumulate(dh)
        if e is not None and edges.requires_grad:
            # direct: out_t += s_t (E u_l), out_l += s_l (E^T u_t)
            ge = v[:, :m] @ u[:, m:].transpose(0, 2, 1)
            ge += u[:, :m] @ v[:, m:].transpose(0, 2, 1)
            # degrees: dL/dd_p = -s_p^2 / 2 * sum_k (g out + h dh)_pk
            r = -0.5 * s ** 2 * np.sum(g * out + x * dh, axis=2)
            ge += r[:, :m, None] + r[:, None, m:]
            edges.accumulate(ge)

    return _result(out, "propagate", (h,) if e is None else (h, edges), push)


def reconstruct_token_label(h: Node, m: int) -> Node:
    """Token-label edge weights (cos + 1) / 2 from current node features.

    `h` stacks m token rows over the label rows, as `propagate` reads it,
    for one sample or (with a leading axis) for each sample of a batch.
    Entry (i, j) maps the cosine of token row i and label row j into
    [0, 1]. Rows with zero norm, padded token rows among them, get
    weight 0, not 0.5 — a dead feature vector should not manufacture
    edges — and carry no gradient.
    """
    x = h.value
    xt, xl = x[..., :m, :], x[..., m:, :]
    norm = np.sqrt(np.sum(x * x, axis=-1))
    live_row = norm > 0.0
    inv = np.divide(1.0, norm, out=np.zeros(norm.shape), where=live_row)
    inv_t, inv_l = inv[..., :m], inv[..., m:]
    half_live = 0.5 * (live_row[..., :m, None] & live_row[..., None, m:])
    # zero on dead rows, whose dot products are zero too
    cos = (xt @ np.swapaxes(xl, -1, -2)) * inv_t[..., :, None] * inv_l[..., None, :]
    out = (cos + 1.0) * half_live

    def push(g):
        ge = g * half_live  # d out / d cos = 1/2
        gc = ge * cos
        # w_ij = ge_ij / (|xt_i||xl_j|), zero where either row is dead
        w = ge * inv_t[..., :, None] * inv_l[..., None, :]
        dh = np.empty(x.shape)
        # d cos_ij / d xt_i = xl_j/(|xt_i||xl_j|) - cos_ij xt_i/|xt_i|^2
        d_t = dh[..., :m, :]
        np.matmul(w, xl, out=d_t)
        d_t -= (np.sum(gc, axis=-1) * inv_t ** 2)[..., None] * xt
        d_l = dh[..., m:, :]
        np.matmul(np.swapaxes(w, -1, -2), xt, out=d_l)
        d_l -= (np.sum(gc, axis=-2) * inv_l ** 2)[..., None] * xl
        h.accumulate(dh)

    return _result(out, "reconstruct_token_label", (h,), push)
