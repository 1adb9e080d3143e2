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
makes padded token rows inert: `Chains` marks them once per pass and
`propagate` gives them a zero inverse root degree, so whatever finite
features they hold (the lookup encoder repeats its PAD row there) scale
to ±0, push ±0 gradients back, and mix with nothing. From the first
`propagate` on they are zero, so they get zero edges too.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Node, ShapeError, _result


def _mix(u: np.ndarray, e: np.ndarray | None, s: np.ndarray) -> np.ndarray:
    """S (A + I) u per sample, for rows u already scaled by S = diag(s).

    (C + I) is two shifted adds on top of 2u; the cross terms are
    E @ u_label and E^T @ u_token, written into their blocks before one
    whole-array add of 2u. A shift that crosses a sample's last real
    token meets a zero scale, so it adds nothing. With no block E, u
    holds token rows only.
    """
    m = u.shape[1] if e is None else e.shape[1]
    u_t = u[:, :m]
    if e is None:
        out = 2.0 * u
    else:
        out = np.empty(u.shape)
        np.matmul(e, u[:, m:], out=out[:, :m])
        np.matmul(e.transpose(0, 2, 1), u_t, out=out[:, m:])
        out += 2.0 * u
    y_t = out[:, :m]
    y_t[:, 1:] += u_t[:, :-1]
    y_t[:, :-1] += u_t[:, 1:]
    out *= s[..., None]
    return out


class Chains:
    """The token chains of a chunk of `lengths` samples padded to m rows, built once per pass.

    Sample b has `lengths[b]` real token rows. `ends` counts, per row,
    the chain ends it is (0, 1 or 2: a one-token chain is both ends), so
    a real token row has 2 - ends chain neighbours; `real` is 1 on real
    rows and 0 on padded ones; `layer1_scales` are the inverse root
    degrees 1/sqrt(4 - ends) of the token rows before any token-label
    edge exists, 0 on padded rows. Every array is B x m, and no op
    writes to them.
    """

    def __init__(self, lengths, m: int):
        lengths = np.asarray(lengths)
        if (m < 1 or lengths.ndim != 1 or not lengths.size
                or lengths.min() < 1 or lengths.max() > m):
            raise ValueError(f"need at least one token node per sample, got "
                             f"lengths {lengths.tolist()} for {m} token rows")
        self.shape = (len(lengths), m)
        pos, last = np.arange(m), lengths[:, None] - 1
        self.real = (pos <= last).astype(float)
        self.ends = np.add(pos == 0, pos == last, dtype=float)
        self.layer1_scales = self.real / np.sqrt(4.0 - self.ends)


def propagate(h: Node, edges: Node | None, chains: Chains) -> Node:
    """D^{-1/2} (A + I) D^{-1/2} h per sample, with token-label blocks `edges`.

    `h` is B x (M + n) x hidden and `edges` B x M x n, over the B x M
    token rows that `chains` describes. With the chain's own self-loop
    and the +I augmentation, token i has degree 2 + (chain neighbours of
    i) + sum_j E_ij and label j has degree 2 + sum_i E_ij, so degrees
    stay positive for any E >= 0. Padded token rows get inverse root
    degree 0: their output and their share of dh are ±0, whatever their
    input.

    `edges` None means no token-label edges yet, as in the first layer:
    `h` is then the B x M x hidden token rows alone, which mix along
    their chains only, with the scales `chains` holds. A label row of
    that graph has degree 2 and keeps its features unchanged, so the
    caller leaves the label rows out.

    The normalized matrix N = S (A + I) S is symmetric, so dh = N g. E
    enters both A (directly) and the degrees. The forward keeps the
    scaled rows S h for the backward, which scales g once for both dh
    and the edge gradient.
    """
    x = h.value
    e = None if edges is None else edges.value
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
    if chains.shape != (b, m):
        raise ShapeError(f"propagate: chains are {chains.shape[0]} x {chains.shape[1]} "
                         f"token rows, h has {b} x {m}")
    if e is None:
        s = chains.layer1_scales
    else:
        # degrees 4 + sum_j E_ij - ends (the ends' subtractions are exact)
        # for token rows, 2 + sum_i E_ij for label rows
        d = np.empty(x.shape[:2])
        d_t, d_l = d[:, :m], d[:, m:]
        np.sum(e, axis=2, out=d_t)
        d_t += 4.0
        d_t -= chains.ends
        np.sum(e, axis=1, out=d_l)
        d_l += 2.0
        if d.min() <= 0:
            raise ValueError("adjacency row degree must be positive after self-loops")
        s = np.divide(1.0, np.sqrt(d, out=d), out=d)
        s[:, :m] *= chains.real  # zero on padded rows
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
    cos = xt @ np.swapaxes(xl, -1, -2)
    cos *= inv_t[..., :, None]
    cos *= inv_l[..., None, :]
    out = (cos + 1.0) * half_live

    def push(g):
        ge = g * half_live  # d out / d cos = 1/2
        gc = ge * cos
        # w_ij = ge_ij / (|xt_i||xl_j|), zero where either row is dead
        w = ge * inv_t[..., :, None] * inv_l[..., None, :]
        dh = np.empty(x.shape)
        np.matmul(w, xl, out=dh[..., :m, :])
        np.matmul(np.swapaxes(w, -1, -2), xt, out=dh[..., m:, :])
        # d cos_ij / d xt_i = xl_j/(|xt_i||xl_j|) - cos_ij xt_i/|xt_i|^2, and
        # the same for xl_j; c holds each row's sum_j ge cos / |row|^2
        c = np.empty(norm.shape)
        np.sum(gc, axis=-1, out=c[..., :m])
        np.sum(gc, axis=-2, out=c[..., m:])
        c *= inv ** 2
        dh -= c[..., None] * x
        h.accumulate(dh)

    return _result(out, "reconstruct_token_label", (h,), push)
