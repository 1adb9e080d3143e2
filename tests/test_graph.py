import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgcn import autodiff as ad
from hgcn.autodiff import ShapeError, Tape, constant, parameter
from hgcn.graph import Chains, propagate, reconstruct_token_label

from oracles import (
    AdjacencyBlocks,
    assemble_block,
    assemble_block_node,
    build_chain_adjacency,
    build_label_adjacency,
    finite_difference_grad,
    initial_blocks,
    max_rel_err,
    normalize_adjacency,
    normalize_adjacency_node,
    total_sum,
)


def one(m, n):
    """The chains of one sample whose m token rows are all real, with n labels.

    Its node features are its m token rows over its n label rows, as
    `forward_one` stacks them.
    """
    return Chains([m], m, n)


def test_chain_single_node():
    assert np.array_equal(build_chain_adjacency(1), [[1.0]])


def test_chain_m3_exact():
    expected = [[1, 1, 0], [1, 1, 1], [0, 1, 1]]
    assert np.array_equal(build_chain_adjacency(3), expected)


def test_chain_m4_bandwidth():
    a = build_chain_adjacency(4)
    assert np.array_equal(a, a.T)
    assert a[0, 2] == a[0, 3] == a[1, 3] == 0


def test_chain_rejects_zero():
    with pytest.raises(ValueError):
        build_chain_adjacency(0)


@given(st.integers(min_value=1, max_value=50))
def test_chain_nonzero_count(m):
    assert np.count_nonzero(build_chain_adjacency(m)) == 3 * m - 2


def test_label_adjacency_identity():
    assert np.array_equal(build_label_adjacency(2), np.eye(2))
    assert np.array_equal(build_label_adjacency(1), [[1.0]])
    a = build_label_adjacency(11)
    assert np.trace(a) == 11
    assert np.sum(a) - np.trace(a) == 0


def test_label_adjacency_rejects_zero():
    with pytest.raises(ValueError):
        build_label_adjacency(0)


def test_assemble_zero_cross_block_is_block_diagonal():
    blocks = initial_blocks(3, 2)
    full = assemble_block(blocks)
    assert np.array_equal(full[:3, 3:], np.zeros((3, 2)))
    assert np.array_equal(full[3:, :3], np.zeros((2, 3)))
    assert np.array_equal(full[:3, :3], blocks.a_token)
    assert np.array_equal(full[3:, 3:], blocks.a_label)


def test_assemble_placement_and_symmetry():
    rng = np.random.default_rng(0)
    atl = rng.uniform(0, 1, (3, 2))
    blocks = AdjacencyBlocks(build_chain_adjacency(3), build_label_adjacency(2), atl)
    full = assemble_block(blocks)
    for i in range(3):
        for j in range(2):
            assert full[i, 3 + j] == atl[i, j]
    assert np.array_equal(full, full.T)


def test_assemble_shape_mismatch():
    blocks = AdjacencyBlocks(build_chain_adjacency(3), build_label_adjacency(2),
                             np.zeros((2, 2)))
    with pytest.raises(ShapeError):
        assemble_block(blocks)


def test_normalize_zeros_gives_identity():
    assert np.allclose(normalize_adjacency(np.zeros((2, 2))), np.eye(2), atol=1e-15)


def test_normalize_hand_value():
    out = normalize_adjacency(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert np.allclose(out, [[2 / 3, 1 / 3], [1 / 3, 2 / 3]], atol=1e-12)


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=1000))
@settings(max_examples=50)
def test_normalize_symmetric_bounded(size, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0, 1, (size, size))
    a = (a + a.T) / 2
    out = normalize_adjacency(a)
    assert np.allclose(out, out.T, atol=1e-12)
    assert np.all(out >= 0) and np.all(out <= 1 + 1e-12)


def test_normalize_node_matches_pure_function():
    rng = np.random.default_rng(1)
    a = rng.uniform(0, 1, (5, 5))
    a = (a + a.T) / 2
    with Tape():
        out = normalize_adjacency_node(constant(a))
    assert np.allclose(out.value, normalize_adjacency(a), atol=1e-15)


def test_normalize_node_gradient_vs_finite_differences():
    rng = np.random.default_rng(2)
    a0 = rng.uniform(0, 1, (4, 4))
    t = rng.uniform(0, 1, (4, 4))

    def run(a_val):
        a = parameter(a_val)
        with Tape() as tape:
            loss = ad.mse_loss(normalize_adjacency_node(a), t)
            tape.backward(loss)
        return float(loss.value[0, 0]), a.grad

    _, grad = run(a0)
    fd = finite_difference_grad(lambda a: run(a)[0], a0)
    assert max_rel_err(grad, fd) < 1e-4


def test_assemble_node_gradient_collects_both_placements():
    rng = np.random.default_rng(3)
    atl0 = rng.uniform(0, 1, (3, 2))
    at = build_chain_adjacency(3)
    al = build_label_adjacency(2)
    t = rng.uniform(0, 1, (5, 5))

    def run(atl_val):
        atl = parameter(atl_val)
        with Tape() as tape:
            loss = ad.mse_loss(assemble_block_node(at, al, atl), t)
            tape.backward(loss)
        return float(loss.value[0, 0]), atl.grad

    _, grad = run(atl0)
    fd = finite_difference_grad(lambda x: run(x)[0], atl0)
    assert max_rel_err(grad, fd) < 1e-4


def test_reconstruct_extreme_cosines():
    v = np.array([[1.0, 2.0, 3.0]])
    with Tape():
        out = reconstruct_token_label(
            constant(np.vstack([v, -v, v, [[3.0, 0.0, -1.0]]])), one(2, 2)).value[0]
    assert out[0, 0] == pytest.approx(1.0, abs=1e-12)   # identical -> 1
    assert out[1, 0] == pytest.approx(0.0, abs=1e-12)   # opposite -> 0
    assert out[0, 1] == pytest.approx(0.5, abs=1e-12)   # orthogonal -> 0.5


def test_reconstruct_zero_norm_row_forced_to_zero():
    with Tape():
        out = reconstruct_token_label(constant([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]), one(2, 1))
    assert out.value[0, 0, 0] == 0.0


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=100)
def test_reconstruct_entries_in_unit_interval(seed):
    rng = np.random.default_rng(seed)
    with Tape():
        out = reconstruct_token_label(constant(rng.normal(size=(7, 6))), one(4, 3))
    assert np.all(out.value >= 0) and np.all(out.value <= 1)


def test_reconstruct_scale_invariance():
    rng = np.random.default_rng(5)
    xt = rng.normal(size=(4, 6))
    xl = rng.normal(size=(3, 6))
    with Tape():
        base = reconstruct_token_label(constant(np.vstack([xt, xl])), one(4, 3))
    scaled = xt.copy()
    scaled[2] *= 37.5
    with Tape():
        out = reconstruct_token_label(constant(np.vstack([scaled, xl])), one(4, 3))
    assert np.allclose(out.value[0, 2], base.value[0, 2], atol=1e-9)


def test_reconstruct_gradient_vs_finite_differences():
    rng = np.random.default_rng(6)
    xt0 = rng.uniform(0.2, 1, (3, 4)) * rng.choice([-1, 1], (3, 4))
    xl0 = rng.uniform(0.2, 1, (2, 4)) * rng.choice([-1, 1], (2, 4))
    t = rng.uniform(0, 1, (1, 3, 2))

    def run(h_val):
        h = parameter(h_val)
        with Tape() as tape:
            loss = ad.mse_loss(reconstruct_token_label(h, one(3, 2)), t)
            tape.backward(loss)
        return float(loss.value[0, 0]), h.grad

    h0 = np.vstack([xt0, xl0])
    _, grad = run(h0)
    fd = finite_difference_grad(lambda x: run(x)[0], h0)
    assert max_rel_err(grad[:3], fd[:3]) < 1e-4
    assert max_rel_err(grad[3:], fd[3:]) < 1e-4


def dense_propagate(h, edges):
    """The same op through the dense (m+n)^2 reference on the tape."""
    m, n = edges.value.shape
    full = assemble_block_node(build_chain_adjacency(m), build_label_adjacency(n), edges)
    return ad.matmul(normalize_adjacency_node(full), h)


def edge_block(kind, m, n, rng):
    if kind == "zeros":
        return np.zeros((m, n))
    if kind == "ones":
        return np.ones((m, n))
    return rng.uniform(0, 1, (m, n))


def propagate_batch_of_one(h, edges):
    """`propagate` on one sample's stacked rows and its 1 x m x n block."""
    _, m, n = edges.value.shape
    return propagate(h, edges, one(m, n))


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=20),
       st.sampled_from(["uniform", "zeros", "ones"]), st.integers(min_value=0, max_value=1000))
@settings(max_examples=100, deadline=None)
def test_propagate_matches_dense_normalized_product(m, n, kind, seed):
    rng = np.random.default_rng(seed)
    e = edge_block(kind, m, n, rng)
    h = rng.normal(size=(m + n, 3))
    with Tape():
        out = propagate_batch_of_one(constant(h), constant(e[None]))
    blocks = AdjacencyBlocks(build_chain_adjacency(m), build_label_adjacency(n), e)
    dense = normalize_adjacency(assemble_block(blocks)) @ h
    assert np.max(np.abs(out.value - dense)) < 1e-12


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=20),
       st.sampled_from(["uniform", "zeros", "ones"]), st.integers(min_value=0, max_value=1000))
@settings(max_examples=50, deadline=None)
def test_propagate_gradients_match_dense_tape(m, n, kind, seed):
    rng = np.random.default_rng(seed)
    e0 = edge_block(kind, m, n, rng)
    h0 = rng.normal(size=(m + n, 3))
    t = rng.normal(size=(m + n, 3))

    def grads(op, lead):
        h, e = parameter(h0), parameter(e0.reshape(lead + e0.shape))
        with Tape() as tape:
            tape.backward(ad.mse_loss(op(h, e), t))
        return h.grad, e.grad.reshape(e0.shape)

    gh, ge = grads(propagate_batch_of_one, (1,))
    dh, de = grads(dense_propagate, ())
    assert np.max(np.abs(gh - dh)) < 1e-12
    assert np.max(np.abs(ge - de)) < 1e-12


def test_propagate_gradients_vs_finite_differences():
    rng = np.random.default_rng(8)
    for m, n in [(1, 1), (2, 3), (5, 2)]:
        h0 = rng.normal(size=(m + n, 4))
        e0 = rng.uniform(0, 1, (1, m, n))
        t = rng.normal(size=(m + n, 4))

        def run(h_val, e_val):
            h, e = parameter(h_val), parameter(e_val)
            with Tape() as tape:
                loss = ad.mse_loss(propagate_batch_of_one(h, e), t)
                tape.backward(loss)
            return float(loss.value[0, 0]), h.grad, e.grad

        _, gh, ge = run(h0, e0)
        assert max_rel_err(gh, finite_difference_grad(lambda x: run(x, e0)[0], h0)) < 1e-4
        assert max_rel_err(ge, finite_difference_grad(lambda x: run(h0, x)[0], e0)) < 1e-4


def test_propagate_constant_edges_get_no_gradient():
    h = parameter(np.ones((4, 2)))
    e = constant(np.full((1, 3, 1), 0.5))
    with Tape() as tape:
        tape.backward(total_sum(propagate_batch_of_one(h, e)))
    assert not e.requires_grad and e.grad is None
    assert np.all(h.grad > 0)


def test_propagate_row_count_mismatch():
    with pytest.raises(ShapeError, match="token rows over 3 shared or 1 x 3 label rows"):
        propagate(constant(np.ones((4, 2))), constant(np.zeros((1, 2, 3))), one(2, 3))


def ragged_batch(lengths, n, width, rng):
    """Per-sample (h, e), and their zero-padded stacks: node features and B x M x n blocks.

    The node features are each sample's M token rows, then each
    sample's n label rows, as `propagate` reads them.
    """
    big, t = max(lengths), len(lengths) * max(lengths)
    hs = [rng.normal(size=(m + n, width)) for m in lengths]
    es = [rng.uniform(0, 1, (m, n)) for m in lengths]
    h = np.zeros((t + len(lengths) * n, width))
    e = np.zeros((len(lengths), big, n))
    for b, m in enumerate(lengths):
        h[b * big:b * big + m], h[t + b * n:t + (b + 1) * n] = hs[b][:m], hs[b][m:]
        e[b, :m] = es[b]
    return hs, es, h, e


def sample_rows(x, lengths, n, b):
    """Sample b's real token rows over its label rows, and its padded token rows, from `x`."""
    big, t, m = max(lengths), len(lengths) * max(lengths), lengths[b]
    return (np.vstack([x[b * big:b * big + m], x[t + b * n:t + (b + 1) * n]]),
            x[b * big + m:(b + 1) * big])


def test_propagate_ragged_batch_matches_dense_per_sample():
    rng = np.random.default_rng(9)
    lengths, n = [1, 5, 3, 2], 3
    big = max(lengths)
    hs, es, h0, e0 = ragged_batch(lengths, n, 4, rng)
    t = rng.normal(size=h0.shape)
    h, e = parameter(h0), parameter(e0)
    with Tape() as tape:
        out = propagate(h, e, Chains(lengths, big, n))
        tape.backward(ad.mse_loss(out, t))
    for b, m in enumerate(lengths):
        hb, eb = parameter(hs[b]), parameter(es[b])
        tb = sample_rows(t, lengths, n, b)[0]
        with Tape() as tape:
            dense = dense_propagate(hb, eb)
            tape.backward(ad.mse_loss(dense, tb))
        # the batched loss averages over every padded entry
        hb.grad *= tb.size / t.size
        eb.grad *= tb.size / t.size
        rows, padded = sample_rows(out.value, lengths, n, b)
        assert np.max(np.abs(rows - dense.value)) < 1e-12
        assert not padded.any()
        rows, padded = sample_rows(h.grad, lengths, n, b)
        assert np.max(np.abs(rows - hb.grad)) < 1e-12
        assert not padded.any()
        assert np.max(np.abs(e.grad[b, :m] - eb.grad)) < 1e-12


def test_chains_reject_bad_lengths():
    for lengths, m in [([0, 3], 3), ([4, 3], 3), ([], 3), ([1], 0), ([[1, 2]], 2)]:
        with pytest.raises(ValueError, match="at least one token node"):
            Chains(lengths, m, 2)
    with pytest.raises(ValueError, match="at least one label node"):
        Chains([1], 1, 0)


def test_chains_layer1_scales():
    # the inverse root degree 1/sqrt(2 + chain neighbours + self-loop) of
    # each real token row before any token-label edge, 0 on padded rows
    chains = Chains([1, 4, 2], 4, 2)
    ends = np.array([[2, 0, 0, 0], [1, 0, 0, 1], [1, 1, 0, 0]])
    real = np.array([[1, 0, 0, 0], [1, 1, 1, 1], [1, 1, 0, 0]])
    assert chains.shape == (3, 4) and chains.num_labels == 2
    assert np.array_equal(chains.ends, ends)
    assert np.array_equal(chains.real, real)
    assert np.array_equal(chains.layer1_scales, real / np.sqrt(4.0 - ends))


def test_propagate_rejects_chains_of_another_shape():
    # with a token-label block, and token rows alone: a B, an M or an n
    # that differs from the rows' is a shape error
    labels = constant(np.ones((2, 2)))
    for h, e in [((10, 2), constant(np.zeros((2, 3, 2)))), ((6, 2), None)]:
        for chains in (Chains([3], 3, 2), Chains([3, 3, 3], 3, 2), Chains([3, 2], 4, 2),
                       Chains([2, 2], 2, 2), Chains([3, 3], 3, 3)):
            with pytest.raises(ShapeError, match="chains|label rows"):
                propagate(constant(np.ones(h)), e, chains, labels)


def test_propagate_token_only_needs_batched_rows():
    # the first layer reads the B * M token rows as one 2-D array, and the
    # n label rows every sample shares
    with pytest.raises(ShapeError, match="B x M"):
        propagate(constant(np.ones((1, 3, 2))), None, one(3, 2), constant(np.ones((2, 2))))
    for labels in (None, constant(np.ones((3, 2))), constant(np.ones((2, 3)))):
        with pytest.raises(ShapeError, match="2 x 2 label rows"):
            propagate(constant(np.ones((3, 2))), None, one(3, 2), labels)


def test_propagate_without_edges_is_the_zero_block():
    # token rows match the zero-block graph's, value and gradient, and
    # that graph leaves its label rows as they are
    rng = np.random.default_rng(11)
    lengths, n = [1, 5, 3, 2], 3
    big = max(lengths)
    t = len(lengths) * big
    _, _, h0, _ = ragged_batch(lengths, n, 4, rng)
    h0[t:] = np.tile(h0[t:t + n], (len(lengths), 1))  # every sample's the same
    target = rng.normal(size=h0.shape)
    chains = Chains(lengths, big, n)
    full, tokens, labels = parameter(h0), parameter(h0[:t]), parameter(h0[t:t + n])
    with Tape() as tape:
        out = propagate(full, constant(np.zeros((len(lengths), big, n))), chains)
        tape.backward(ad.mse_loss(out, target))
    with Tape() as tape:
        alone = propagate(tokens, None, chains, labels)
        tape.backward(ad.mse_loss(alone, target[:t + n]))
    tokens.grad *= (t + n) / len(h0)
    assert np.max(np.abs(alone.value[:t] - out.value[:t])) < 1e-12
    assert np.max(np.abs(tokens.grad - full.grad[:t])) < 1e-12
    assert np.array_equal(alone.value[t:], labels.value)
    assert np.max(np.abs(out.value[t:] - h0[t:])) < 1e-15


def test_reconstruct_ragged_batch_matches_per_sample():
    rng = np.random.default_rng(10)
    lengths, n = [2, 4, 1], 3
    big = max(lengths)
    hs, _, h0, _ = ragged_batch(lengths, n, 5, rng)
    t = rng.uniform(0, 1, (len(lengths), big, n))
    h = parameter(h0)
    with Tape() as tape:
        out = reconstruct_token_label(h, Chains(lengths, big, n))
        tape.backward(ad.mse_loss(out, t))
    for b, m in enumerate(lengths):
        hb = parameter(hs[b])
        with Tape() as tape:
            single = reconstruct_token_label(hb, one(m, n))
            tape.backward(ad.mse_loss(single, t[b:b + 1, :m]))
        hb.grad *= single.value.size / t.size
        assert np.max(np.abs(out.value[b, :m] - single.value[0])) < 1e-12
        assert not out.value[b, m:].any()
        rows, padded = sample_rows(h.grad, lengths, n, b)
        assert np.max(np.abs(rows - hb.grad)) < 1e-12
        assert not padded.any()


def test_shared_label_rows_match_a_copy_per_sample():
    # label rows the batch shares give the edges, propagation and
    # gradients of one copy per sample; their gradient is the copies' sum
    rng = np.random.default_rng(12)
    lengths, n = [3, 1, 4], 2
    big = max(lengths)
    t, b = len(lengths) * big, len(lengths)
    _, _, h0, _ = ragged_batch(lengths, n, 3, rng)
    shared0 = h0[:t + n]
    copies0 = np.vstack([h0[:t], np.tile(h0[t:t + n], (b, 1))])
    target = rng.normal(size=h0.shape)
    chains = Chains(lengths, big, n)
    results = []
    for value in (shared0, copies0):
        h = parameter(value)
        with Tape() as tape:
            edges = reconstruct_token_label(h, chains)
            out = propagate(h, edges, chains)
            tape.backward(ad.mse_loss(out, target))
        results.append((edges.value, out.value, h.grad))
    (edges, out, grad), (edges_c, out_c, grad_c) = results
    assert np.max(np.abs(edges - edges_c)) < 1e-12
    assert np.max(np.abs(out - out_c)) < 1e-12
    assert np.max(np.abs(grad[:t] - grad_c[:t])) < 1e-12
    assert np.max(np.abs(grad[t:] - grad_c[t:].reshape(b, n, -1).sum(axis=0))) < 1e-12
