import weakref

import numpy as np
import pytest

from hgcn import autodiff as ad
from hgcn.autodiff import (
    Adam,
    Node,
    ShapeError,
    Tape,
    constant,
    parameter,
)

from oracles import (
    ReferenceAdam,
    add,
    concat_rows,
    elementwise_mul,
    finite_difference_grad,
    max_rel_err,
    scatter_add_reference,
    slice_rows,
    total_sum,
)


def test_matmul_identity():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    with Tape():
        out = ad.matmul(constant(np.eye(2)), constant(m))
    assert np.array_equal(out.value, m)


def test_matmul_hand_value():
    with Tape():
        out = ad.matmul(constant([[1.0, 2.0], [3.0, 4.0]]), constant([[1.0], [1.0]]))
    assert np.array_equal(out.value, [[3.0], [7.0]])


def test_matmul_shape_error_names_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 2\).*\(3, 1\)"):
        ad.matmul(constant(np.zeros((2, 2))), constant(np.zeros((3, 1))))


def test_matmul_gradient_frozen_oracle():
    # d sum(A @ B) / dA at A = I2, B = [[2,3],[4,5]], frozen from finite differences
    a = parameter(np.eye(2))
    b = constant([[2.0, 3.0], [4.0, 5.0]])
    with Tape() as tape:
        loss = total_sum(ad.matmul(a, b))
        tape.backward(loss)
    assert np.allclose(a.grad, [[5.0, 9.0], [5.0, 9.0]], atol=1e-12)


def test_add_identity_and_grad():
    m = np.array([[1.0, -2.0]])
    a = parameter(m)
    with Tape() as tape:
        out = add(a, constant(np.zeros((1, 2))))
        tape.backward(total_sum(out))
    assert np.array_equal(out.value, m)
    assert np.array_equal(a.grad, np.ones((1, 2)))


def test_elementwise_mul_identity():
    m = np.array([[1.5, -2.5]])
    with Tape():
        out = elementwise_mul(constant(m), constant(np.ones((1, 2))))
    assert np.array_equal(out.value, m)


def test_elementwise_mul_shape_error():
    with pytest.raises(ShapeError):
        elementwise_mul(constant(np.zeros((1, 2))), constant(np.zeros((2, 1))))


def test_relu_values_and_grad():
    a = parameter([[-1.0, 2.0]])
    with Tape() as tape:
        out = ad.activation(a)
        tape.backward(total_sum(out))
    assert np.array_equal(out.value, [[0.0, 2.0]])
    assert np.array_equal(a.grad, [[0.0, 1.0]])


def test_relu_zeros_and_subgradient_at_zero():
    a = parameter([[0.0, 3.0]])
    with Tape() as tape:
        out = ad.activation(a)
        tape.backward(total_sum(out))
    assert np.array_equal(out.value, [[0.0, 3.0]])
    assert a.grad[0, 0] == 0.0  # subgradient at exactly 0 is 0
    assert a.grad[0, 1] == 1.0


def test_tanh_activation():
    a = parameter([[0.5, -0.5]])
    with Tape() as tape:
        out = ad.activation(a, "tanh")
        tape.backward(total_sum(out))
    assert np.allclose(out.value, np.tanh([[0.5, -0.5]]))
    assert np.allclose(a.grad, 1 - np.tanh([[0.5, -0.5]]) ** 2)


def test_softmax_uniform():
    with Tape():
        out = ad.softmax_row(constant([[0.0, 0.0, 0.0]]))
    assert np.allclose(out.value, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-12)


def test_softmax_hand_value():
    with Tape():
        out = ad.softmax_row(constant([[np.log(2.0), 0.0]]))
    assert np.allclose(out.value, [[2 / 3, 1 / 3]], atol=1e-12)


def test_softmax_sums_to_one_and_in_open_interval():
    rng = np.random.default_rng(0)
    for _ in range(20):
        with Tape():
            out = ad.softmax_row(constant(rng.uniform(-5, 5, size=(1, 7))))
        assert abs(out.value.sum() - 1.0) < 1e-9
        assert np.all(out.value > 0) and np.all(out.value < 1)


def test_softmax_rejects_non_matrix():
    with pytest.raises(ShapeError):
        ad.softmax_row(constant(np.zeros((1, 2, 2))))


def test_softmax_normalizes_each_row_alone():
    rows = np.array([[np.log(2.0), 0.0], [0.0, 0.0], [5.0, 5.0 + np.log(3.0)]])
    with Tape():
        out = ad.softmax_row(constant(rows))
    assert np.allclose(out.value, [[2 / 3, 1 / 3], [0.5, 0.5], [0.25, 0.75]], atol=1e-12)


def test_softmax_rejects_empty():
    with pytest.raises(ShapeError):
        ad.softmax_row(Node(np.zeros((1, 0))))


def test_mse_zero_when_equal():
    with Tape():
        out = ad.mse_loss(constant([[1.0, 2.0]]), [[1.0, 2.0]])
    assert out.value[0, 0] == 0.0


def test_mse_hand_value():
    with Tape():
        out = ad.mse_loss(constant([[1.0, 0.0]]), [[0.0, 0.0]])
    assert out.value[0, 0] == pytest.approx(0.5, abs=1e-12)


def test_mse_shape_error():
    with pytest.raises(ShapeError):
        ad.mse_loss(constant([[1.0, 0.0]]), [[0.0], [0.0]])


def col_sum_values(a):
    with Tape():
        return ad.col_sums(constant(a)).value[0]


def test_col_sums_zero_matrix():
    assert np.array_equal(col_sum_values(np.zeros((4, 3))), np.zeros(3))


def test_col_sums_hand_value():
    scores = col_sum_values([[0.2, 0.8], [0.4, 0.1]])
    assert np.allclose(scores, [0.6, 0.9], atol=1e-12)


def test_col_sums_single_row():
    assert np.allclose(col_sum_values([[0.3, 0.7]]), [0.3, 0.7])


def test_col_sums_matches_double_loop():
    rng = np.random.default_rng(0)
    a = rng.uniform(0, 1, (7, 5))
    expected = [sum(a[i][j] for i in range(7)) for j in range(5)]
    assert np.allclose(col_sum_values(a), expected, atol=1e-12)


def test_backward_sum_gives_ones():
    w = parameter(np.arange(6.0).reshape(2, 3))
    with Tape() as tape:
        tape.backward(total_sum(w))
    assert np.array_equal(w.grad, np.ones((2, 3)))


def test_backward_rejects_non_scalar_loss():
    w = parameter(np.ones((2, 2)))
    with Tape() as tape:
        out = ad.activation(w, "tanh")
        with pytest.raises(ShapeError):
            tape.backward(out)


def test_backward_accumulates_across_calls():
    # two tapes add into one leaf; a second backward on a used tape raises
    # before it pushes anything
    w = parameter(np.ones((2, 2)))
    grads = []
    for _ in range(2):
        with Tape() as tape:
            loss = total_sum(elementwise_mul(w, w))
            tape.backward(loss)
        grads.append(w.grad.copy())
    assert np.allclose(grads[1], 2 * grads[0])
    with pytest.raises(ValueError, match="not on this tape"):
        tape.backward(loss)
    assert np.array_equal(w.grad, grads[1])


def test_backward_empties_the_tape_and_frees_each_node_before_its_parents_push():
    # when the parent's push runs, the child it fed is already freed, and
    # with it the value the child's closure saved. A Node takes no weak
    # reference, so the child is watched through its value
    w = parameter(np.ones((2, 2)))
    with Tape() as tape:
        parent = ad.activation(w, "tanh")
        child = ad.activation(parent, "tanh")
        loss = total_sum(child)
    child_value = weakref.ref(child.value)
    del child
    seen = []
    push = parent._backward

    def recording_push(g):
        seen.append(child_value() is None)
        push(g)

    parent._backward = recording_push
    tape.backward(loss)
    assert seen == [True]
    assert tape.nodes == [] and parent._backward is None
    assert np.allclose(w.grad, (1.0 - np.tanh(np.tanh(1.0)) ** 2) * (1.0 - np.tanh(1.0) ** 2))
    with pytest.raises(ValueError, match="not on this tape"):
        tape.backward(loss)


def test_only_a_trainable_leaf_holds_a_gradient():
    assert constant(np.ones((2, 3))).grad is None
    assert np.array_equal(parameter(np.ones((2, 3))).grad, np.zeros((2, 3)))


def test_non_leaf_grad_is_created_by_backward():
    w = parameter(np.ones((2, 2)))
    assert np.array_equal(w.grad, np.zeros((2, 2)))
    with Tape() as tape:
        sq = elementwise_mul(w, w)
        loss = total_sum(sq)
    assert sq.grad is None and loss.grad is None
    tape.backward(loss)
    assert np.array_equal(sq.grad, np.ones((2, 2)))
    assert np.array_equal(w.grad, np.full((2, 2), 2.0))


UNARY_OPS = {
    "matmul": lambda w: ad.matmul(w, constant(np.eye(2))),
    "tanh": lambda w: ad.activation(w, "tanh"),
    "col_sums": ad.col_sums,
    "gather_rows": lambda w: ad.gather_rows(w, [1, 0, 1]),
}


@pytest.mark.parametrize("opname", sorted(UNARY_OPS))
def test_op_keeps_its_backward_only_on_a_tape(opname):
    w = parameter(np.arange(4.0).reshape(2, 2))
    untaped = UNARY_OPS[opname](w)
    with Tape():
        taped = UNARY_OPS[opname](w)
    assert untaped._backward is None and taped._backward is not None
    assert np.array_equal(untaped.value, taped.value)


def test_untaped_intermediate_is_freed_once_unread():
    inner = ad.matmul(parameter(np.ones((2, 2))), parameter(np.ones((2, 2))))
    value = weakref.ref(inner.value)
    outer = ad.activation(inner, "tanh")
    del inner
    assert value() is None
    assert np.allclose(outer.value, np.tanh(2.0))


def test_first_push_is_stored_and_later_pushes_add_out_of_place():
    # x feeds a matmul and col_sums; col_sums, recorded later, pushes first,
    # and what it pushes is a read-only broadcast of its own gradient
    w = parameter(np.arange(6.0).reshape(3, 2))
    with Tape() as tape:
        x = ad.matmul(w, constant(np.eye(2)))
        doubled = ad.matmul(x, constant(2.0 * np.eye(2)))
        sums = ad.col_sums(x)
        loss = add(total_sum(doubled), total_sum(sums))
        tape.backward(loss)
    assert np.array_equal(x.grad, np.full((3, 2), 3.0))
    assert np.array_equal(sums.grad, np.ones((1, 2)))  # upstream g unchanged
    assert np.array_equal(w.grad, np.full((3, 2), 3.0))


def test_fanout_accumulation_matches_duplicate_construction():
    # y = sum(w @ w): w feeds the matmul twice; gradient must be the sum of
    # both path contributions, checked against a hand-unrolled duplicate.
    w0 = np.array([[1.0, 2.0], [3.0, 4.0]])
    w = parameter(w0)
    with Tape() as tape:
        tape.backward(total_sum(ad.matmul(w, w)))
    a = parameter(w0)
    b = parameter(w0)
    with Tape() as tape:
        tape.backward(total_sum(ad.matmul(a, b)))
    assert np.allclose(w.grad, a.grad + b.grad, atol=1e-12)


@pytest.mark.parametrize("opname", [
    "matmul", "add", "elementwise_mul", "relu", "tanh",
    "softmax_row", "mse_loss", "col_sums", "concat_rows", "slice_rows",
    "gather_rows",
])
def test_gradients_match_finite_differences(opname):
    rng = np.random.default_rng(hash(opname) % 2**32)
    for _ in range(20):
        if opname == "matmul":
            a0 = rng.uniform(-1, 1, (3, 4))
            b0 = rng.uniform(-1, 1, (4, 2))

            def run(a_val, b_val):
                a, b = parameter(a_val), parameter(b_val)
                with Tape() as tape:
                    loss = ad.mse_loss(ad.matmul(a, b), np.zeros((3, 2)))
                    tape.backward(loss)
                return float(loss.value[0, 0]), [a.grad, b.grad]

            _, grads = run(a0, b0)
            for i, x0 in enumerate((a0, b0)):
                fd = finite_difference_grad(
                    lambda x, i=i: run(*( (x, b0) if i == 0 else (a0, x)))[0], x0)
                assert max_rel_err(grads[i], fd) < 1e-4
            continue

        x0 = rng.uniform(-1, 1, (1, 5) if opname in ("softmax_row", "mse_loss") else (3, 4))
        other = rng.uniform(-1, 1, x0.shape)
        ids = rng.integers(0, 3, size=4)

        def run(x_val):
            x = parameter(x_val)
            with Tape() as tape:
                if opname == "add":
                    out = add(x, constant(other))
                elif opname == "elementwise_mul":
                    out = elementwise_mul(x, constant(other))
                elif opname == "relu":
                    out = ad.activation(x, "relu")
                elif opname == "tanh":
                    out = ad.activation(x, "tanh")
                elif opname == "softmax_row":
                    out = ad.softmax_row(x)
                elif opname == "mse_loss":
                    out = ad.mse_loss(x, other)
                elif opname == "col_sums":
                    out = ad.col_sums(x)
                elif opname == "concat_rows":
                    out = concat_rows(x, constant(other))
                elif opname == "slice_rows":
                    out = slice_rows(x, 1, 3)
                elif opname == "gather_rows":
                    out = ad.gather_rows(x, ids)
                loss = out if out.value.shape == (1, 1) else \
                    ad.mse_loss(out, np.zeros(out.value.shape))
                tape.backward(loss)
            return float(loss.value[0, 0]), x.grad

        _, grad = run(x0)
        fd = finite_difference_grad(lambda x: run(x)[0], x0)
        assert max_rel_err(grad, fd) < 1e-4


def test_full_chain_gradient_matches_finite_differences():
    # loss = mse(softmax(x @ W), t)
    rng = np.random.default_rng(7)
    x0 = rng.uniform(-1, 1, (1, 4))
    w0 = rng.uniform(-1, 1, (4, 3))
    t = rng.uniform(0, 1, (1, 3))

    def run(w_val):
        w = parameter(w_val)
        with Tape() as tape:
            loss = ad.mse_loss(ad.softmax_row(ad.matmul(constant(x0), w)), t)
            tape.backward(loss)
        return float(loss.value[0, 0]), w.grad

    _, grad = run(w0)
    fd = finite_difference_grad(lambda w: run(w)[0], w0)
    assert max_rel_err(grad, fd) < 1e-5


def test_public_ops_reject_nonfinite_inputs():
    with pytest.raises(ValueError):
        parameter([[np.nan]])
    with pytest.raises(ValueError):
        constant([[np.inf, 1.0]])


def test_adam_first_step_moves_against_gradient():
    p = parameter([[1.0]])
    p.grad[...] = np.array([[2.0]])
    Adam([p], 0.1).step()
    # bias-corrected first step is lr * g / (|g| + eps) ~ lr
    assert p.value[0, 0] == pytest.approx(0.9, abs=1e-6)


def test_optimizer_determinism():
    def run():
        rng = np.random.default_rng(3)
        p = parameter(rng.uniform(-1, 1, (2, 2)))
        opt = Adam([p], 0.05)
        for _ in range(10):
            with Tape() as tape:
                loss = ad.mse_loss(elementwise_mul(p, p), np.ones((2, 2)))
                tape.backward(loss)
            opt.step()
        return p.value

    assert np.array_equal(run(), run())


def test_adam_in_place_steps_match_the_reference_bitwise():
    rng = np.random.default_rng(4)
    init = [rng.normal(size=(3, 4)), rng.normal(size=(1, 5)), rng.normal(size=(64, 64))]
    grads = [[rng.normal(size=v.shape) for v in init] for _ in range(6)]
    runs = []
    for cls in (Adam, ReferenceAdam):
        params = [parameter(v) for v in init]
        opt = cls(params, 0.05)
        for step in grads:
            for p, g in zip(params, step):
                p.grad[...] = g
            opt.step()
        runs.append((params, opt))
    (params, opt), (ref_params, ref) = runs
    for p, q in zip(params, ref_params):
        assert np.array_equal(p.value, q.value)
        assert not p.grad.any()
    assert np.array_equal(opt.m, np.concatenate([m.ravel() for m in ref.m]))
    assert np.array_equal(opt.v, np.concatenate([v.ravel() for v in ref.v]))


def test_gather_rows_scatter_matches_add_at_bitwise():
    # repeated ids, and padded slots holding the PAD row's id
    rng = np.random.default_rng(5)
    pad = 3
    ids = np.array([[4, 0, 4, 4, pad], [1, 4, 1, pad, pad]])
    table = parameter(rng.normal(size=(6, 7)))
    g = rng.normal(size=ids.shape + (7,))
    with Tape() as tape:
        tape.backward(total_sum(elementwise_mul(ad.gather_rows(table, ids), constant(g))))
    assert np.array_equal(table.grad, scatter_add_reference(table.value.shape, ids, g))
    assert table.grad[pad].any()
