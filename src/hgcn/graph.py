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
token-label blocks are B x M x n. Padded token rows hold zero features,
so they get zero edges and, with a zero inverse root degree, mix with
nothing.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Node, ShapeError, _result


def _normalized_mix(x: np.ndarray, e: np.ndarray, s_t: np.ndarray,
                    s_l: np.ndarray) -> np.ndarray:
    """S (A + I) S x per sample, with S = diag(s_t, s_l) and A built from e as above.

    (C + I) is two shifted adds on top of 2x; the cross terms are
    E @ x_label and E^T @ x_token. A shift that crosses a sample's last
    real token meets a zero s_t, so it adds nothing.
    """
    m = e.shape[1]
    u_t = s_t[..., None] * x[:, :m]
    u_l = s_l[..., None] * x[:, m:]
    out = np.empty(x.shape)
    y_t = out[:, :m]
    np.matmul(e, u_l, out=y_t)
    y_t += 2.0 * u_t
    y_t[:, 1:] += u_t[:, :-1]
    y_t[:, :-1] += u_t[:, 1:]
    y_t *= s_t[..., None]
    y_l = out[:, m:]
    np.matmul(e.transpose(0, 2, 1), u_t, out=y_l)
    y_l += 2.0 * u_l
    y_l *= s_l[..., None]
    return out


def propagate(h: Node, edges: Node, lengths) -> Node:
    """D^{-1/2} (A + I) D^{-1/2} h per sample, with token-label blocks `edges`.

    `h` is B x (M + n) x hidden and `edges` B x M x n; sample b has
    `lengths[b]` real token rows. With the chain's own self-loop and the
    +I augmentation, token i has degree 2 + (chain neighbours of i) +
    sum_j E_ij and label j has degree 2 + sum_i E_ij, so degrees stay
    positive for any E >= 0. Padded token rows get inverse root degree
    0: their output and their share of dh are zero.

    The normalized matrix N is symmetric, so dh = N g. E enters both
    A (directly) and the degrees; the backward keeps only the inverse
    root degrees and recomputes the scaled features from h and the output.
    """
    e = edges.value
    b, m, n = e.shape
    lengths = np.asarray(lengths)
    if m < 1 or n < 1 or lengths.shape != (b,) or lengths.min() < 1 or lengths.max() > m:
        raise ValueError(f"need at least one token and one label node per sample, got "
                         f"lengths {lengths.tolist()} for edges {e.shape}")
    if h.value.shape[:2] != (b, m + n):
        raise ShapeError(f"propagate: h has shape {h.value.shape}, expected "
                         f"B x (m + n) = {b} x ({m} + {n}) rows from edges {e.shape}")
    pos = np.arange(m)
    last = lengths[:, None] - 1
    # two chain neighbours, one fewer at each of the sample's real ends
    d_t = 4.0 + e.sum(axis=2) - (pos == 0) - (pos == last)
    d_l = 2.0 + e.sum(axis=1)
    if d_t.min() <= 0 or d_l.min() <= 0:
        raise ValueError("adjacency row degree must be positive after self-loops")
    s_t = (pos <= last) / np.sqrt(d_t)  # zero on padded rows
    s_l = 1.0 / np.sqrt(d_l)
    out = _normalized_mix(h.value, e, s_t, s_l)

    def push(g):
        dh = _normalized_mix(g, e, s_t, s_l)
        if h.requires_grad:
            h.accumulate(dh)
        if edges.requires_grad:
            x = h.value
            # direct: out_t += s_t (E u_l), out_l += s_l (E^T u_t)
            ge = (s_t[..., None] * g[:, :m]) @ (s_l[..., None] * x[:, m:]).transpose(0, 2, 1)
            ge += (s_t[..., None] * x[:, :m]) @ (s_l[..., None] * g[:, m:]).transpose(0, 2, 1)
            # degrees: dL/dd_p = -s_p^2 / 2 * sum_k (g out + h dh)_pk
            r = -0.5 * np.concatenate([s_t, s_l], axis=1) ** 2 * np.sum(g * out + x * dh, axis=2)
            ge += r[:, :m, None] + r[:, None, m:]
            edges.accumulate(ge)

    return _result(out, "propagate", (h, edges), push)


def reconstruct_token_label(h: Node, m: int) -> Node:
    """Token-label edge weights (cos + 1) / 2 from current node features.

    `h` stacks m token rows over the label rows, as `propagate` reads it,
    for one sample or (with a leading axis) for each sample of a batch.
    Entry (i, j) maps the cosine of token row i and label row j into
    [0, 1]. Rows with zero norm, padded token rows among them, get
    weight 0, not 0.5 — a dead feature vector should not manufacture
    edges — and carry no gradient.
    """
    xt, xl = h.value[..., :m, :], h.value[..., m:, :]
    xl_t = np.swapaxes(xl, -1, -2)
    tn = np.linalg.norm(xt, axis=-1)
    ln = np.linalg.norm(xl, axis=-1)
    t_ok = tn > 0.0
    l_ok = ln > 0.0
    tn_safe = np.where(t_ok, tn, 1.0)[..., :, None]
    ln_safe = np.where(l_ok, ln, 1.0)[..., None, :]
    cos = (xt @ xl_t) / (tn_safe * ln_safe)
    live = t_ok[..., :, None] & l_ok[..., None, :]
    out = np.where(live, (cos + 1.0) / 2.0, 0.0)

    def push(g):
        ge = np.where(live, g, 0.0) * 0.5  # d out / d cos = 1/2
        gc = ge * cos
        dh = np.empty(h.value.shape)
        # d cos_ij / d xt_i = xl_j/(|xt_i||xl_j|) - cos_ij xt_i/|xt_i|^2
        dh[..., :m, :] = ((ge / ln_safe) @ xl / tn_safe
                          - np.sum(gc, axis=-1)[..., :, None] * xt / tn_safe ** 2)
        dh[..., m:, :] = ((np.swapaxes(ge / tn_safe, -1, -2) @ xt) / np.swapaxes(ln_safe, -1, -2)
                          - np.sum(gc, axis=-2)[..., :, None] * xl
                          / np.swapaxes(ln_safe, -1, -2) ** 2)
        h.accumulate(dh)

    return _result(out, "reconstruct_token_label", (h,), push)
