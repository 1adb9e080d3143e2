"""Graph operations on a batch of per-sample heterogeneous graphs.

Each sample's m token nodes form an undirected chain with self-loops,
its n label nodes are joined only to themselves, and its m x n
token-label block E is re-estimated from node features each layer via
cosine similarity mapped affinely into [0, 1]. The adjacency is
therefore always

    A = [[C, E], [E^T, I_n]],   C = chain with self-loops,

so its normalized form is applied straight from E, without forming an
(m+n)^2 matrix.

A batch pads every sample to the longest one's M token rows. Node
features are one (rows, hidden) array: the B x M token rows, sample by
sample and contiguous, then the label rows. Until token-label edges
exist every sample has the same label rows, so after the first layer
they are n rows shared by the batch; each later layer gives every
sample its own n (see `Chains.labels`). Token-label blocks are
B x M x n. This module is the one place that makes padded token rows
inert: `Chains` marks them once per pass and `propagate` gives them a
zero inverse root degree, so whatever finite features they hold (the
lookup encoder repeats its PAD row there) scale to ±0, push ±0
gradients back, and mix with nothing. From the first `propagate` on
they are zero, so they get zero edges too.

Every op here works at its node features' float type: `Chains` is built
for that type, and each buffer is made at it.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Node, ShapeError, _result


def _mix(u: np.ndarray, e: np.ndarray | None, s: np.ndarray, m: int,
         out: np.ndarray) -> np.ndarray:
    """Write S (A + I) u into `out` per sample, for rows u already scaled by S = diag(s).

    `u`, `s` and `out` hold the token rows, m per sample, then each
    sample's label rows; with no block E, the token rows alone. (C + I)
    is 2u plus two chain shifts; the cross terms E @ u_label and
    E^T @ u_token go into their blocks before one whole-array add of 2u.
    Each shift is one flat shift over all token rows. It would also
    carry a row across each boundary between samples, so each sample's
    first row is saved before the forward shift and its last row before
    the backward one, and written back after: every row gets its own
    chain's additions, in the same order as a shift within each sample.
    A shift that crosses a sample's last real token meets a zero scale,
    so it adds nothing.
    """
    t = len(u) if e is None else e.shape[0] * m
    if e is None:
        np.multiply(u, 2.0, out=out)
    else:
        b, _, n = e.shape
        width = u.shape[1]
        np.matmul(e, u[t:].reshape(b, n, width), out=out[:t].reshape(b, m, width))
        np.matmul(e.transpose(0, 2, 1), u[:t].reshape(b, m, width),
                  out=out[t:].reshape(b, n, width))
        out += 2.0 * u
    u_t, y_t = u[:t], out[:t]
    first = y_t[m::m].copy()
    y_t[1:] += u_t[:-1]
    y_t[m::m] = first
    last = y_t[m - 1:-1:m].copy()
    y_t[:-1] += u_t[1:]
    y_t[m - 1:-1:m] = last
    out *= s[:, None]
    return out


class Chains:
    """The token chains of `lengths` samples padded to m rows, and n labels; built once per pass.

    Sample b has `lengths[b]` real token rows. `ends` counts, per row,
    the chain ends it is (0, 1 or 2: a one-token chain is both ends), so
    a real token row has 2 - ends chain neighbours; `real` is 1 on real
    rows and 0 on padded ones; `layer1_scales` are the inverse root
    degrees 1/sqrt(4 - ends) of the token rows before any token-label
    edge exists, 0 on padded rows. Every array is B x m, at `dtype`, the
    float type of the node features read with them, and no op writes to
    them. `labels` finds the label rows of node features.
    """

    def __init__(self, lengths, m: int, n: int, dtype=np.float64):
        lengths = np.asarray(lengths)
        if (m < 1 or lengths.ndim != 1 or not lengths.size
                or lengths.min() < 1 or lengths.max() > m):
            raise ValueError(f"need at least one token node per sample, got "
                             f"lengths {lengths.tolist()} for {m} token rows")
        if n < 1:
            raise ValueError(f"need at least one label node per sample, got {n}")
        self.shape = (len(lengths), m)
        self.num_labels = n
        pos, last = np.arange(m), lengths[:, None] - 1
        self.real = (pos <= last).astype(dtype)
        self.ends = np.add(pos == 0, pos == last, dtype=dtype)
        self.layer1_scales = self.real / np.sqrt(4.0 - self.ends)

    def labels(self, x: np.ndarray) -> np.ndarray:
        """The label rows of node features `x`, as G x n x hidden.

        G is 1 when the batch shares its n label rows and B when each
        sample has its own; with one sample the two are the same.
        """
        b, m = self.shape
        n = self.num_labels
        if x.ndim != 2 or x.shape[0] - b * m not in (n, b * n):
            raise ShapeError(f"node features of shape {x.shape} are not the {b} x {m} token "
                             f"rows over {n} shared or {b} x {n} label rows of these chains")
        return x[b * m:].reshape(-1, n, x.shape[1])


def propagate(h: Node, edges: Node | None, chains: Chains, labels: Node | None = None) -> Node:
    """D^{-1/2} (A + I) D^{-1/2} h per sample, with token-label blocks `edges`.

    `h` holds the token rows of `chains` over their label rows, shared
    or per sample, and `edges` is B x M x n. With the chain's own
    self-loop and the +I augmentation, token i has degree
    2 + (chain neighbours of i) + sum_j E_ij and label j has degree
    2 + sum_i E_ij, so degrees stay positive for any E >= 0. Padded
    token rows get inverse root degree 0: their output and their share
    of dh are ±0, whatever their input. The output gives each sample
    its own label rows, since each sample's E reaches them.

    `edges` None means no token-label edges yet, as in the first layer:
    `h` is then the token rows alone, which mix along their chains only,
    with the scales `chains` holds. A label row of that graph has degree
    2 and keeps its features unchanged, so the output holds the mixed
    token rows over `labels`, the n x hidden rows every sample shares,
    as they are.

    The normalized matrix N = S (A + I) S is symmetric, so dh = N g. E
    enters both A (directly) and the degrees. The forward keeps the
    scaled rows S h for the backward, which scales g once for both dh
    and the edge gradient.
    """
    x = h.value
    b, m = chains.shape
    t, n = b * m, chains.num_labels
    if edges is None:
        if x.ndim != 2 or x.shape[0] != t:
            raise ShapeError(f"propagate: token rows have shape {x.shape}, chains need "
                             f"B x M = {b} x {m} rows")
        if labels is None or labels.value.shape != (n, x.shape[1]):
            raise ShapeError(f"propagate: the first layer needs {n} x {x.shape[1]} label rows")
        s = chains.layer1_scales.ravel()
        out = np.empty((t + n, x.shape[1]), x.dtype)
        _mix(s[:, None] * x, None, s, m, out[:t])
        out[t:] = labels.value

        def push_first(g):
            if h.requires_grad:
                h.accumulate(_mix(s[:, None] * g[:t], None, s, m, np.empty_like(x)))
            if labels.requires_grad:
                labels.accumulate(g[t:])

        return _result(out, "propagate", (h, labels), push_first)

    e = edges.value
    if e.shape != (b, m, n):
        raise ShapeError(f"propagate: edges have shape {e.shape}, chains are {b} x {m} "
                         f"token rows with {n} labels")
    x_l = chains.labels(x)
    # degrees 4 + sum_j E_ij - ends (the ends' subtractions are exact)
    # for token rows, 2 + sum_i E_ij for each sample's label rows
    d = np.empty(t + b * n, x.dtype)
    d_t, d_l = d[:t].reshape(b, m), d[t:].reshape(b, n)
    np.add.reduce(e, axis=2, out=d_t)
    d_t += 4.0
    d_t -= chains.ends
    np.add.reduce(e, axis=1, out=d_l)
    d_l += 2.0
    if d.min() <= 0:
        raise ValueError("adjacency row degree must be positive after self-loops")
    s = np.divide(1.0, np.sqrt(d, out=d), out=d)
    s[:t] *= chains.real.ravel()  # zero on padded rows
    u = np.empty((len(s), x.shape[1]), x.dtype)
    np.multiply(s[:t, None], x[:t], out=u[:t])
    np.multiply(s[t:].reshape(b, n, 1), x_l, out=u[t:].reshape(b, n, -1))
    out = _mix(u, e, s, m, np.empty_like(u))

    def push(g):
        v = s[:, None] * g
        dh = _mix(v, e, s, m, np.empty_like(v))
        dh_l = dh[t:].reshape(b, n, -1)
        if edges.requires_grad:
            # direct: out_t += s_t (E u_l), out_l += s_l (E^T u_t)
            v_t, v_l = v[:t].reshape(b, m, -1), v[t:].reshape(b, n, -1)
            u_t, u_l = u[:t].reshape(b, m, -1), u[t:].reshape(b, n, -1)
            ge = v_t @ u_l.transpose(0, 2, 1)
            ge += u_t @ v_l.transpose(0, 2, 1)
            # degrees: dL/dd_p = -s_p^2 / 2 * sum_k (g out + h dh)_pk
            p = g * out
            p[:t] += x[:t] * dh[:t]
            p_l = p[t:].reshape(b, n, -1)
            p_l += x_l * dh_l
            r = -0.5 * s ** 2 * np.add.reduce(p, axis=1)
            ge += r[:t].reshape(b, m, 1) + r[t:].reshape(b, 1, n)
            edges.accumulate(ge)
        if h.requires_grad:
            if len(x_l) < b:
                # shared label rows collect every sample's share, written
                # over the first sample's so the token rows are not copied
                dh[t:t + n] = np.add.reduce(dh_l, axis=0)
                dh = dh[:t + n]
            h.accumulate(dh)

    return _result(out, "propagate", (h, edges), push)


def reconstruct_token_label(h: Node, chains: Chains) -> Node:
    """B x M x n token-label edge weights (cos + 1) / 2 from current node features.

    `h` holds the token rows of `chains` over their label rows, as
    `propagate` reads it. Entry (b, i, j) maps the cosine of sample b's
    token row i and its label row j into [0, 1]; label rows that every
    sample shares make the cosines one 2-D product. Rows with zero norm,
    padded token rows among them, get weight 0, not 0.5 — a dead feature
    vector should not manufacture edges — and carry no gradient.
    """
    x = h.value
    b, m = chains.shape
    t, n = b * m, chains.num_labels
    xl = chains.labels(x)
    groups = len(xl)
    xt = x[:t].reshape(groups, -1, x.shape[1])  # the token rows that meet each group
    norm = np.sqrt(np.add.reduce(np.square(x), axis=1))
    live_row = norm > 0.0
    inv = np.divide(1.0, norm, out=np.zeros_like(norm), where=live_row)
    inv_t, inv_l = inv[:t].reshape(groups, -1, 1), inv[t:].reshape(groups, 1, n)
    live = live_row[:t].reshape(inv_t.shape) & live_row[t:].reshape(inv_l.shape)
    half_live = x.dtype.type(0.5) * live
    # zero on dead rows, whose dot products are zero too
    cos = xt @ xl.transpose(0, 2, 1)
    cos *= inv_t
    cos *= inv_l
    out = (cos + 1.0) * half_live

    def push(g):
        ge = g.reshape(cos.shape) * half_live  # d out / d cos = 1/2
        gc = ge * cos
        # w_ij = ge_ij / (|xt_i||xl_j|), zero where either row is dead
        w = ge * inv_t * inv_l
        dh = np.empty_like(x)
        np.matmul(w, xl, out=dh[:t].reshape(xt.shape))
        np.matmul(w.transpose(0, 2, 1), xt, out=dh[t:].reshape(xl.shape))
        # d cos_ij / d xt_i = xl_j/(|xt_i||xl_j|) - cos_ij xt_i/|xt_i|^2, and
        # the same for xl_j; c holds each row's sum_j ge cos / |row|^2
        c = np.empty_like(norm)
        np.add.reduce(gc, axis=2, out=c[:t].reshape(groups, -1))
        np.add.reduce(gc, axis=1, out=c[t:].reshape(groups, n))
        c *= inv ** 2
        dh -= c[:, None] * x
        h.accumulate(dh)

    return _result(out.reshape(b, m, n), "reconstruct_token_label", (h,), push)
