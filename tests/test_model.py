import shutil
from dataclasses import MISSING, FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest

from hgcn import autodiff as ad
from hgcn import model, run
from hgcn.autodiff import Adam, Tape
from hgcn.data import Sample
from hgcn.encoder import TrainableLookup
from hgcn.graph import Chains, propagate
from hgcn.model import (
    ModelConfig,
    ModelParams,
    batch_loss,
    build_target,
    forward,
    train_step,
)

from oracles import ReferenceSGD, finite_difference_grad, max_rel_err


def tiny_setup(num_layers=2, hidden=6, n=3, d=5, vocab=8, seed=0, activation="relu"):
    cfg = ModelConfig(num_labels=n, num_layers=num_layers, hidden=hidden, input_dim=d,
                      activation=activation)
    rng = np.random.default_rng(seed)
    params = ModelParams.init(cfg, rng)
    provider = TrainableLookup(vocab, d, rng)
    return cfg, params, provider


def test_forward_shapes_single_token_single_label():
    cfg, params, provider = tiny_setup(num_layers=1, n=1)
    assert params.w_label_in.value.shape == (cfg.num_labels, cfg.hidden)
    with Tape():
        trace = forward([[0]], provider, params, cfg)
    assert trace.probs.shape == (1, 1)
    assert trace.final_edges.shape == (1, 1, 1)
    assert trace.final_labels.shape == (1, 1, cfg.hidden)
    assert trace.probs_node.value is trace.probs


def test_first_layer_token_features_independent_of_label_params():
    # the token-label block is zero at layer 1, so layer-1 token features
    # cannot depend on the label inputs
    cfg, params, provider = tiny_setup(num_layers=1)
    ids = [0, 2, 3]
    m = len(ids)
    chains = Chains([m], m, cfg.num_labels, np.float64)
    h = ad.matmul(provider.embed([ids]), params.w_token_in)

    def first_layer(labels):
        # the first layer as `forward` runs it, over label rows `labels`
        return ad.activation(ad.matmul(propagate(h, None, chains, labels), params.w_layer[0]),
                             cfg.activation).value

    before = first_layer(params.w_label_in)
    after = first_layer(ad.constant(params.w_label_in.value + 0.5))
    assert before.shape == (m + cfg.num_labels, cfg.hidden)
    assert np.array_equal(before[:m], after[:m])
    assert not np.array_equal(before[m:], after[m:])


def test_forward_without_tape_matches_taped_and_records_nothing():
    cfg, params, provider = tiny_setup(activation="tanh")
    ids = [0, 4, 5, 1]
    with Tape() as tape:
        taped = forward([ids], provider, params, cfg)
    recorded = len(tape.nodes)
    untaped = forward([ids], provider, params, cfg)
    assert len(tape.nodes) == recorded
    assert untaped.probs_node.grad is None
    for field in ("probs", "final_edges", "final_labels"):
        assert np.array_equal(getattr(untaped, field), getattr(taped, field))


def test_forward_without_tape_keeps_no_closure():
    cfg, params, provider = tiny_setup(activation="tanh")
    with Tape():
        taped = forward([[0, 4, 1]], provider, params, cfg)
    untaped = forward([[0, 4, 1]], provider, params, cfg)
    assert taped.probs_node._backward is not None
    assert untaped.probs_node._backward is None


def test_forward_probabilities_sum_to_one():
    cfg, params, provider = tiny_setup()
    with Tape():
        trace = forward([[0, 4, 5, 1]], provider, params, cfg)
    assert abs(trace.probs.sum() - 1.0) < 1e-9
    assert np.all(trace.final_edges >= 0) and np.all(trace.final_edges <= 1)


def test_build_target_examples():
    assert np.allclose(build_target([1, 0, 1, 0]), [[0.5, 0, 0.5, 0]], atol=1e-15)
    assert np.allclose(build_target([1, 0, 0]), [[1, 0, 0]], atol=1e-15)
    assert np.allclose(build_target([0, 0]), [[0.5, 0.5]], atol=1e-15)


def test_end_to_end_gradient_matches_finite_differences():
    cfg, params, provider = tiny_setup(num_layers=2, hidden=6, n=3, d=4)
    ids = [0, 4, 5, 1]
    target = build_target([1, 0, 1])

    def loss_with(node, value):
        old = node.value
        node.value = value
        with Tape():
            loss = batch_loss([(ids, target)], provider, params, cfg)
        node.value = old
        return float(loss.value[0, 0])

    with Tape() as tape:
        loss = batch_loss([(ids, target)], provider, params, cfg)
        tape.backward(loss)

    for node in params.parameters() + provider.parameters():
        fd = finite_difference_grad(lambda v, n=node: loss_with(n, v), node.value)
        assert max_rel_err(node.grad, fd) < 1e-3


def test_end_to_end_gradient_with_tanh():
    cfg, params, provider = tiny_setup(num_layers=2, hidden=5, n=2, d=4,
                                       activation="tanh")
    ids = [0, 4, 1]
    target = build_target([0, 1])

    def loss_with(node, value):
        old = node.value
        node.value = value
        with Tape():
            loss = batch_loss([(ids, target)], provider, params, cfg)
        node.value = old
        return float(loss.value[0, 0])

    with Tape() as tape:
        loss = batch_loss([(ids, target)], provider, params, cfg)
        tape.backward(loss)
    for node in params.parameters():
        fd = finite_difference_grad(lambda v, n=node: loss_with(n, v), node.value)
        assert max_rel_err(node.grad, fd) < 1e-3


def test_label_permutation_equivariance():
    cfg, params, provider = tiny_setup(n=4)
    ids = [0, 4, 6, 1]
    with Tape():
        base = forward([ids], provider, params, cfg)
    perm = np.array([2, 0, 3, 1])
    params.w_label_in.value = params.w_label_in.value[perm]
    with Tape():
        permuted = forward([ids], provider, params, cfg)
    assert np.allclose(permuted.probs[0], base.probs[0][perm], atol=1e-9)


def test_train_step_zero_loss_leaves_params():
    # when prediction already equals target the gradient is zero
    cfg, params, provider = tiny_setup(n=2)
    with Tape():
        trace = forward([[0, 4, 1]], provider, params, cfg)
    target = trace.probs.copy()
    before = [p.value.copy() for p in params.parameters()]
    optimizer = ReferenceSGD(params.parameters() + provider.parameters(), 0.5)
    loss = train_step([([0, 4, 1], target)], params, cfg, provider, optimizer)
    assert loss == pytest.approx(0.0, abs=1e-15)
    for b, p in zip(before, params.parameters()):
        assert np.array_equal(b, p.value)


def test_loss_decreases_on_separable_fixture():
    cfg, params, provider = tiny_setup(n=2, d=6, hidden=8, vocab=10,
                                       activation="tanh")
    rng = np.random.default_rng(0)
    batch = []
    for i in range(20):
        label = i % 2
        trigger = 4 + label  # token 4 -> label 0, token 5 -> label 1
        ids = [0, trigger, int(rng.integers(6, 10)), 1]
        binary = [0, 0]
        binary[label] = 1
        batch.append((ids, build_target(binary)))
    optimizer = Adam(params.parameters() + provider.parameters(), 0.05)
    losses = [train_step(batch, params, cfg, provider, optimizer) for _ in range(50)]
    assert losses[-1] < losses[0]
    assert losses[-1] < 0.05


def test_training_determinism():
    def run():
        cfg, params, provider = tiny_setup(n=2, seed=11)
        optimizer = Adam(params.parameters() + provider.parameters(), 0.01)
        batch = [([0, 4, 1], build_target([1, 0])),
                 ([0, 5, 6, 1], build_target([0, 1]))]
        losses = [train_step(batch, params, cfg, provider, optimizer)
                  for _ in range(5)]
        return losses, [p.value.copy() for p in params.parameters()]

    l1, p1 = run()
    l2, p2 = run()
    assert l1 == l2
    for a, b in zip(p1, p2):
        assert np.array_equal(a, b)


def test_frozen_provider_bitwise_unchanged_by_training():
    cfg, params, provider = tiny_setup()
    provider = TrainableLookup(8, cfg.input_dim, np.random.default_rng(0), freeze=True)
    before = provider.table.value.copy()
    batch = [([0, 4, 1], build_target([1, 0, 0]))]
    optimizer = Adam(params.parameters() + provider.parameters(), 0.01)
    for _ in range(10):
        train_step(batch, params, cfg, provider, optimizer)
    assert np.array_equal(provider.table.value, before)


def test_model_config_validation():
    arch = dict(num_labels=2, num_layers=2, hidden=6, input_dim=5, activation="relu")
    with pytest.raises(ValueError):
        ModelConfig(**{**arch, "num_layers": 0})
    with pytest.raises(ValueError):
        ModelConfig(**{**arch, "hidden": 0})


@pytest.mark.parametrize("values, key", [
    ({"decode": "thresh"}, "decode"), ({"encoder": "File:v.bin"}, "encoder"),
    ({"hidden": "8"}, "hidden"), ({"topk": 0}, "topk"),
    ({"decode": "threshold", "threshold": 0.0}, "threshold"),
    ({"decode": "threshold", "threshold": 1.5}, "threshold"),
    ({"max_len": 2}, "max_len"), ({"batch_size": 0}, "batch_size"), ({"lr": 0.0}, "lr"),
], ids=["decode", "encoder", "hidden-string", "topk-zero", "threshold-zero", "threshold-above-1",
        "max_len-2", "batch_size-zero", "lr-zero"])
def test_run_config_checks_itself_when_built(values, key):
    # in process, with no CLI in between: a bad value cannot reach training
    with pytest.raises(run.ConfigError, match=f"^{key} must be"):
        run.RunConfig(label_names=["x"], **values)


def test_run_config_joins_its_problems_after_the_type_pass():
    with pytest.raises(run.ConfigError) as bad_ranges:
        run.RunConfig(label_names=[], epochs=0)
    assert str(bad_ranges.value) == "label_names must be nonempty; epochs must be >= 1"
    # the range checks assume the right types, so a type problem is reported alone
    with pytest.raises(run.ConfigError) as bad_type:
        run.RunConfig(label_names=["x"], hidden="8", epochs=0)
    assert str(bad_type.value) == "hidden must be int, got '8'"
    assert not hasattr(run.RunConfig, "validate")


def test_label_names_are_stored_as_a_tuple():
    cfg = run.RunConfig(label_names=["A", "B"])  # a list, as a JSON config gives it
    assert cfg.label_names == ("A", "B")
    with pytest.raises(AttributeError):
        cfg.label_names.append("A")
    assert cfg.model_config().num_labels == 2
    assert replace(cfg, label_names=["A", "B", "C"]).label_names == ("A", "B", "C")
    with pytest.raises(run.ConfigError, match="label_names must not repeat a name"):
        replace(cfg, label_names=["A", "A"])
    with pytest.raises(run.ConfigError, match="^label_names must be"):
        replace(cfg, label_names="AB")


def test_configs_are_frozen():
    cfg = run.RunConfig(label_names=["x"])
    with pytest.raises(FrozenInstanceError):
        cfg.decode = "thresh"
    with pytest.raises(FrozenInstanceError):
        cfg.model_config().hidden = 0
    assert cfg.decode == "topk" and cfg.model_config().hidden == 64


def test_model_config_is_the_architecture_without_defaults():
    assert [f.name for f in fields(ModelConfig)] == [
        "num_labels", "num_layers", "hidden", "input_dim", "activation"]
    assert all(f.default is MISSING and f.default_factory is MISSING
               for f in fields(ModelConfig))


def test_two_layer_sample_loss_tape_size():
    # per batch: embed, projection; per layer: propagate, matmul, activation
    # (+ a reconstruction after layer 1), the first layer's label rows
    # riding in its propagate; head: reconstruction, col_sums, softmax, mse
    cfg, params, provider = tiny_setup(num_layers=2)
    with Tape() as tape:
        batch_loss([([0, 4, 5, 1], build_target([1, 0, 0]))], provider, params, cfg)
    assert len(tape.nodes) == 13
    assert not any(node.op == "slice_rows" for node in tape.nodes)
    assert sum(node.op == "propagate" for node in tape.nodes) == 2


def test_trained_leaves_stay_views_into_the_optimizer_store(monkeypatch):
    made = []

    class Recorded(Adam):
        def __init__(self, params, lr):
            super().__init__(params, lr)
            made.append(self)

    monkeypatch.setattr(run, "Adam", Recorded)
    samples = [Sample(id=f"s{i}", tokens=["a", "b"][: 1 + i % 2], labels=[["x"], ["y"]][i % 2])
               for i in range(6)]
    cfg = run.RunConfig(label_names=["x", "y"], hidden=6, input_dim=5, epochs=2,
                        batch_size=4)
    params, provider, _, _ = run.train(samples, cfg)
    (opt,) = made
    trainable = params.parameters() + provider.parameters()
    assert opt.params == trainable and len(trainable) == 5
    assert sum(p.value.size for p in trainable) == opt.values.size

    def assert_views():
        for p in trainable:
            assert np.shares_memory(p.value, opt.values)
            assert np.shares_memory(p.grad, opt.grads)

    assert_views()
    assert not opt.grads.any()
    for p in trainable:
        p.grad.fill(0.0)
    with Tape() as tape:
        tape.backward(batch_loss([([0, 4, 1], build_target([1, 0]))], provider, params,
                                 cfg.model_config()))
    assert_views()
    assert all(p.grad.any() for p in trainable)


# float32 body, float64 head: the float32 forward and gradients against the
# float64 ones from the same (float32-representable) weights and inputs, as a
# relative error: the largest difference over the largest float64 value, and
# the norm of the whole gradient's difference over its norm, plus a floor for a
# gradient that cancels to about 0 (a relu model whose units all died). Over 60
# models of `float32_setup` (seeds 0-29, tanh and relu) the largest relative
# errors were 5.6e-7 for the forward and 1.6e-4 for the gradient; the four whose
# float64 gradient norm was under 2e-16 were off by at most 1.1e-7 in float32.
F32_FORWARD_REL = 1e-5
F32_GRAD_REL, F32_GRAD_FLOOR = 1e-3, 1e-6
BATCH = [([0, 4, 5, 1], build_target([1, 0, 1])), ([0, 6, 1], build_target([0, 1, 0])),
         ([0, 7, 4, 6, 5, 7, 1], build_target([0, 0, 1]))]


def float32_setup(activation="tanh", seed=0):
    """A 3-layer model drawn as `tiny_setup` draws it, cast to float32; trainable table."""
    cfg = ModelConfig(num_labels=3, num_layers=3, hidden=6, input_dim=5, activation=activation)
    rng = np.random.default_rng(seed)
    return (cfg, ModelParams.init(cfg, rng, np.float32),
            TrainableLookup(8, 5, rng, dtype=np.float32))


def test_float32_train_step_keeps_the_body_float32_and_the_head_float64(monkeypatch):
    # backward frees each node after its push, so every node's dtypes are
    # recorded as it pushes, and every recorded node must push
    recorded, pushed = [0], []

    def recording(node, push):
        def recorded_push(g):
            pushed.append((node.op, node.value.dtype, node.grad.dtype))
            push(g)
        return recorded_push

    class RecordingTape(Tape):
        def backward(self, loss):
            recorded[0] += len(self.nodes)
            for node in self.nodes:
                node._backward = recording(node, node._backward)
            super().backward(loss)

    monkeypatch.setattr(model, "Tape", RecordingTape)
    cfg, params, provider = float32_setup()
    optimizer = Adam(params.parameters() + provider.parameters(), 0.01)
    train_step(BATCH, params, cfg, provider, optimizer)
    head = {"softmax_row", "mse_loss"}
    assert len(pushed) == recorded[0]
    assert {op for op, _, _ in pushed} >= head | {"gather_rows", "propagate", "col_sums"}
    for op, value_dtype, grad_dtype in pushed:
        want = np.float64 if op in head else np.float32
        assert (op, value_dtype, grad_dtype) == (op, want, want)
    for array in (optimizer.values, optimizer.grads, optimizer.m, optimizer.v):
        assert array.dtype == np.float32
    assert forward([ids for ids, _ in BATCH], provider, params, cfg).probs.dtype == np.float64


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_float32_forward_and_gradients_are_near_float64(activation, seed):
    results = []
    for dtype in (np.float32, np.float64):
        cfg, params, provider = float32_setup(activation, seed)
        # the float64 side holds the float32 values exactly, so only the arithmetic differs
        params = ModelParams.from_values([p.value.astype(dtype) for p in params.parameters()])
        provider.table = ad.parameter(provider.table.value.astype(dtype))
        with Tape() as tape:
            loss = batch_loss(BATCH, provider, params, cfg)
            tape.backward(loss)
        trace = forward([ids for ids, _ in BATCH], provider, params, cfg)
        assert trace.final_edges.dtype == dtype and trace.probs.dtype == np.float64
        results.append((trace, [p.grad for p in params.parameters() + provider.parameters()]))
    (low, low_grads), (high, high_grads) = results
    for a, b in ((low.probs, high.probs), (low.final_edges, high.final_edges)):
        assert np.max(np.abs(a - b)) <= F32_FORWARD_REL * np.max(np.abs(b))
    assert all(g.dtype == np.float32 for g in low_grads)
    low_grads, high_grads = (np.concatenate([g.ravel() for g in grads])
                             for grads in (low_grads, high_grads))
    assert (np.linalg.norm(low_grads - high_grads)
            <= F32_GRAD_REL * np.linalg.norm(high_grads) + F32_GRAD_FLOOR)


# tests/fixtures/float64_model.ckpt was trained and saved by the float64
# program, before its body ran in float32: `run.train` on
# `generate_synthetic_corpus(3, 10, 30, seed=7, min_fillers=1, max_fillers=4)`
# at hidden and input_dim 8, 3 epochs, seed 0, with its lookup table.
# FLOAT64_PROBS are the probabilities that program's inference gave for
# FLOAT64_SAMPLES from it, as float.hex.
FLOAT64_CHECKPOINT = Path(__file__).parent / "fixtures" / "float64_model.ckpt"
FLOAT64_SAMPLES = [Sample("a", ["trig_l1", "w0", "w2"], ["L1"]),
                   Sample("b", ["w1", "trig_l2", "w3", "trig_l3", "w4"], ["L2", "L3"]),
                   Sample("c", ["w5"], []),
                   Sample("d", ["w6", "trig_l3", "w9", "w2"], ["L3"])]
FLOAT64_PROBS = [["0x1.a8a1b097fed33p-2", "0x1.228ef43f2c7abp-2", "0x1.34cf5b28d4b21p-2"],
                 ["0x1.88a828c18a373p-3", "0x1.7e72cde73685dp-2", "0x1.bd391db8045e9p-2"],
                 ["0x1.95cbaf146ac00p-2", "0x1.15a9595abf838p-2", "0x1.548af790d5bc6p-2"],
                 ["0x1.e25bc0e978f29p-3", "0x1.6eddda47704dbp-2", "0x1.9ff44543d338fp-2"]]


def test_a_float64_checkpoint_evaluates_in_float64_as_it_did(tmp_path):
    # an older checkpoint keeps its stored type, so it gives the same bits
    shutil.copy(FLOAT64_CHECKPOINT, tmp_path / "model.ckpt")
    run_cfg = run.RunConfig(label_names=["L1", "L2", "L3"], hidden=8, input_dim=8,
                            out_dir=str(tmp_path))
    params, provider, vocab = run.load_model(run_cfg)
    assert all(p.value.dtype == np.float64 for p in params.parameters())
    assert provider.table.value.dtype == np.float64
    probs = np.empty((len(FLOAT64_SAMPLES), 3))
    for members, _, trace in run._infer(FLOAT64_SAMPLES, params, provider, run_cfg, vocab):
        probs[members] = trace.probs
    expected = [[float.fromhex(x) for x in row] for row in FLOAT64_PROBS]
    assert np.array_equal(probs, expected)
