from dataclasses import MISSING, FrozenInstanceError, fields, replace

import numpy as np
import pytest

from hgcn import autodiff as ad
from hgcn import run
from hgcn.autodiff import Adam, Tape
from hgcn.data import Sample
from hgcn.encoder import TrainableLookup
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
    assert trace.final_tokens.shape == (1, 1, cfg.hidden)
    assert trace.final_labels.shape == (1, 1, cfg.hidden)
    assert trace.probs_node.value is trace.probs


def test_first_layer_token_features_independent_of_label_params():
    # the token-label block is zero at layer 1, so layer-1 token features
    # cannot depend on the label inputs
    cfg, params, provider = tiny_setup(num_layers=1)
    ids = [0, 2, 3]
    with Tape():
        before = forward([ids], provider, params, cfg)
    params.w_label_in.value = params.w_label_in.value + 0.5
    with Tape():
        after = forward([ids], provider, params, cfg)
    m = len(ids)
    assert before.final_tokens.shape == (1, m, cfg.hidden)
    assert np.array_equal(before.final_tokens, after.final_tokens)
    assert not np.array_equal(before.final_labels, after.final_labels)


def test_forward_without_tape_matches_taped_and_records_nothing():
    cfg, params, provider = tiny_setup(activation="tanh")
    ids = [0, 4, 5, 1]
    with Tape() as tape:
        taped = forward([ids], provider, params, cfg)
    recorded = len(tape.nodes)
    untaped = forward([ids], provider, params, cfg)
    assert len(tape.nodes) == recorded
    assert untaped.probs_node.grad is None
    for field in ("probs", "final_edges", "final_tokens", "final_labels"):
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
