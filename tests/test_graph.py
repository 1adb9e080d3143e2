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
            constant(np.vstack([v, -v, v, [[3.0, 0.0, -1.0]]])), 2)
    assert out.value[0, 0] == pytest.approx(1.0, abs=1e-12)   # identical -> 1
    assert out.value[1, 0] == pytest.approx(0.0, abs=1e-12)   # opposite -> 0
    assert out.value[0, 1] == pytest.approx(0.5, abs=1e-12)   # orthogonal -> 0.5


def test_reconstruct_zero_norm_row_forced_to_zero():
    with Tape():
        out = reconstruct_token_label(constant([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]), 2)
    assert out.value[0, 0] == 0.0


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=100)
def test_reconstruct_entries_in_unit_interval(seed):
    rng = np.random.default_rng(seed)
    with Tape():
        out = reconstruct_token_label(constant(rng.normal(size=(7, 6))), 4)
    assert np.all(out.value >= 0) and np.all(out.value <= 1)


def test_reconstruct_scale_invariance():
    rng = np.random.default_rng(5)
    xt = rng.normal(size=(4, 6))
    xl = rng.normal(size=(3, 6))
    with Tape():
        base = reconstruct_token_label(constant(np.vstack([xt, xl])), 4)
    scaled = xt.copy()
    scaled[2] *= 37.5
    with Tape():
        out = reconstruct_token_label(constant(np.vstack([scaled, xl])), 4)
    assert np.allclose(out.value[2], base.value[2], atol=1e-9)


def test_reconstruct_gradient_vs_finite_differences():
    rng = np.random.default_rng(6)
    xt0 = rng.uniform(0.2, 1, (3, 4)) * rng.choice([-1, 1], (3, 4))
    xl0 = rng.uniform(0.2, 1, (2, 4)) * rng.choice([-1, 1], (2, 4))
    t = rng.uniform(0, 1, (3, 2))

    def run(h_val):
        h = parameter(h_val)
        with Tape() as tape:
            loss = ad.mse_loss(reconstruct_token_label(h, 3), t)
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
    """`propagate` on 3-D leaves holding one sample with all its rows real."""
    m = edges.value.shape[1]
    return propagate(h, edges, Chains([m], m))


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=20),
       st.sampled_from(["uniform", "zeros", "ones"]), st.integers(min_value=0, max_value=1000))
@settings(max_examples=100, deadline=None)
def test_propagate_matches_dense_normalized_product(m, n, kind, seed):
    rng = np.random.default_rng(seed)
    e = edge_block(kind, m, n, rng)
    h = rng.normal(size=(m + n, 3))
    with Tape():
        out = propagate_batch_of_one(constant(h[None]), constant(e[None]))
    blocks = AdjacencyBlocks(build_chain_adjacency(m), build_label_adjacency(n), e)
    dense = normalize_adjacency(assemble_block(blocks)) @ h
    assert np.max(np.abs(out.value[0] - dense)) < 1e-12


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=20),
       st.sampled_from(["uniform", "zeros", "ones"]), st.integers(min_value=0, max_value=1000))
@settings(max_examples=50, deadline=None)
def test_propagate_gradients_match_dense_tape(m, n, kind, seed):
    rng = np.random.default_rng(seed)
    e0 = edge_block(kind, m, n, rng)
    h0 = rng.normal(size=(m + n, 3))
    t = rng.normal(size=(m + n, 3))

    def grads(op, lead):
        h, e = parameter(h0.reshape(lead + h0.shape)), parameter(e0.reshape(lead + e0.shape))
        with Tape() as tape:
            tape.backward(ad.mse_loss(op(h, e), t.reshape(lead + t.shape)))
        return h.grad.reshape(h0.shape), e.grad.reshape(e0.shape)

    gh, ge = grads(propagate_batch_of_one, (1,))
    dh, de = grads(dense_propagate, ())
    assert np.max(np.abs(gh - dh)) < 1e-12
    assert np.max(np.abs(ge - de)) < 1e-12


def test_propagate_gradients_vs_finite_differences():
    rng = np.random.default_rng(8)
    for m, n in [(1, 1), (2, 3), (5, 2)]:
        h0 = rng.normal(size=(1, m + n, 4))
        e0 = rng.uniform(0, 1, (1, m, n))
        t = rng.normal(size=(1, m + n, 4))

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
    h = parameter(np.ones((1, 4, 2)))
    e = constant(np.full((1, 3, 1), 0.5))
    with Tape() as tape:
        tape.backward(total_sum(propagate_batch_of_one(h, e)))
    assert not e.requires_grad and e.grad is None
    assert np.all(h.grad > 0)


def test_propagate_row_count_mismatch():
    with pytest.raises(ShapeError, match="m \\+ n"):
        propagate(constant(np.ones((1, 4, 2))), constant(np.zeros((1, 2, 3))), Chains([2], 2))


def ragged_batch(lengths, n, width, rng):
    """Per-sample (h, e) and their zero-padded B x (M + n) x width and B x M x n stacks."""
    big = max(lengths)
    hs = [rng.normal(size=(m + n, width)) for m in lengths]
    es = [rng.uniform(0, 1, (m, n)) for m in lengths]
    h = np.zeros((len(lengths), big + n, width))
    e = np.zeros((len(lengths), big, n))
    for b, m in enumerate(lengths):
        h[b, :m], h[b, big:] = hs[b][:m], hs[b][m:]
        e[b, :m] = es[b]
    return hs, es, h, e


def test_propagate_ragged_batch_matches_dense_per_sample():
    rng = np.random.default_rng(9)
    lengths, n = [1, 5, 3, 2], 3
    big = max(lengths)
    hs, es, h0, e0 = ragged_batch(lengths, n, 4, rng)
    t = rng.normal(size=h0.shape)
    h, e = parameter(h0), parameter(e0)
    with Tape() as tape:
        out = propagate(h, e, Chains(lengths, big))
        tape.backward(ad.mse_loss(out, t))
    for b, m in enumerate(lengths):
        hb, eb = parameter(hs[b]), parameter(es[b])
        tb = np.vstack([t[b, :m], t[b, big:]])
        with Tape() as tape:
            dense = dense_propagate(hb, eb)
            # the batched loss averages over every padded entry
            tape.backward(ad.mse_loss(dense, tb), tb.size / t.size)
        assert np.max(np.abs(out.value[b, :m] - dense.value[:m])) < 1e-12
        assert np.max(np.abs(out.value[b, big:] - dense.value[m:])) < 1e-12
        assert not out.value[b, m:big].any()
        assert np.max(np.abs(h.grad[b, :m] - hb.grad[:m])) < 1e-12
        assert np.max(np.abs(h.grad[b, big:] - hb.grad[m:])) < 1e-12
        assert not h.grad[b, m:big].any()
        assert np.max(np.abs(e.grad[b, :m] - eb.grad)) < 1e-12


def test_chains_reject_bad_lengths():
    for lengths, m in [([0, 3], 3), ([4, 3], 3), ([], 3), ([1], 0), ([[1, 2]], 2)]:
        with pytest.raises(ValueError, match="at least one token node"):
            Chains(lengths, m)


def test_chains_layer1_scales():
    # the inverse root degree 1/sqrt(2 + chain neighbours + self-loop) of
    # each real token row before any token-label edge, 0 on padded rows
    chains = Chains([1, 4, 2], 4)
    ends = np.array([[2, 0, 0, 0], [1, 0, 0, 1], [1, 1, 0, 0]])
    real = np.array([[1, 0, 0, 0], [1, 1, 1, 1], [1, 1, 0, 0]])
    assert chains.shape == (3, 4)
    assert np.array_equal(chains.ends, ends)
    assert np.array_equal(chains.real, real)
    assert np.array_equal(chains.layer1_scales, real / np.sqrt(4.0 - ends))


def test_propagate_rejects_chains_of_another_shape():
    # with a token-label block, and token rows alone: a B or an M that
    # differs from the rows' is a shape error
    for h, e in [((2, 5, 2), constant(np.zeros((2, 3, 2)))), ((2, 3, 2), None)]:
        for chains in (Chains([3], 3), Chains([3, 3, 3], 3), Chains([3, 2], 4), Chains([2, 2], 2)):
            with pytest.raises(ShapeError, match="chains"):
                propagate(constant(np.ones(h)), e, chains)


def test_propagate_token_only_needs_batched_rows():
    with pytest.raises(ShapeError, match="B x M"):
        propagate(constant(np.ones((3, 2))), None, Chains([3], 3))


def test_propagate_without_edges_is_the_zero_block():
    # token rows match the zero-block graph's, value and gradient, and
    # that graph leaves its label rows as they are
    rng = np.random.default_rng(11)
    lengths, n = [1, 5, 3, 2], 3
    big = max(lengths)
    _, _, h0, _ = ragged_batch(lengths, n, 4, rng)
    t = rng.normal(size=h0.shape)
    full, tokens = parameter(h0), parameter(h0[:, :big])
    with Tape() as tape:
        out = propagate(full, constant(np.zeros((len(lengths), big, n))), Chains(lengths, big))
        tape.backward(ad.mse_loss(out, t))
    with Tape() as tape:
        alone = propagate(tokens, None, Chains(lengths, big))
        tape.backward(ad.mse_loss(alone, t[:, :big]), big / (big + n))
    assert np.max(np.abs(alone.value - out.value[:, :big])) < 1e-12
    assert np.max(np.abs(tokens.grad - full.grad[:, :big])) < 1e-12
    assert np.max(np.abs(out.value[:, big:] - h0[:, big:])) < 1e-15


def test_reconstruct_ragged_batch_matches_per_sample():
    rng = np.random.default_rng(10)
    lengths, n = [2, 4, 1], 3
    big = max(lengths)
    hs, _, h0, _ = ragged_batch(lengths, n, 5, rng)
    t = rng.uniform(0, 1, (len(lengths), big, n))
    h = parameter(h0)
    with Tape() as tape:
        out = reconstruct_token_label(h, big)
        tape.backward(ad.mse_loss(out, t))
    for b, m in enumerate(lengths):
        hb = parameter(hs[b])
        with Tape() as tape:
            one = reconstruct_token_label(hb, m)
            tape.backward(ad.mse_loss(one, t[b, :m]), one.value.size / t.size)
        assert np.max(np.abs(out.value[b, :m] - one.value)) < 1e-12
        assert not out.value[b, m:].any()
        assert np.max(np.abs(h.grad[b, :m] - hb.grad[:m])) < 1e-12
        assert np.max(np.abs(h.grad[b, big:] - hb.grad[m:])) < 1e-12
        assert not h.grad[b, m:big].any()
