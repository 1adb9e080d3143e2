"""The batched model path against the per-sample reference in oracles.py.

A batch pads its samples to the longest one; these tests check that the
padding changes nothing: probabilities, final edges and every parameter
gradient agree with one graph and one tape per sample to within 1e-12,
and so do the outputs of a forward that gathers its first token rows
from the projected table.
Inference that gathers its token rows from one projected table is
checked against inference that projects them per chunk, bitwise at a
64-wide shape.
"""

import sys

import numpy as np
import pytest

from hgcn import metrics, model
from hgcn import run as runmod
from hgcn.autodiff import Node, Tape
from hgcn.data import Sample, save_embeddings
from hgcn.encoder import PAD, PrecomputedFile, TrainableLookup, Vocabulary, tokenize
from hgcn.model import (ModelConfig, ModelParams, batch_loss, build_target, chunks, forward,
                        train_step)

from oracles import ReferenceSGD, forward_one, sample_loss_one, train_step_one

TOL = 1e-12
VOCAB = 14
DIM = 5


def make_model(activation="tanh", encoder="lookup", num_layers=2):
    cfg = ModelConfig(num_labels=3, num_layers=num_layers, hidden=6, input_dim=DIM,
                      activation=activation)
    rng = np.random.default_rng(3)
    params = ModelParams.init(cfg, rng)
    if encoder == "lookup":
        provider = TrainableLookup(VOCAB, DIM, rng)
    else:
        provider = PrecomputedFile(BLOCKS)
    return cfg, params, provider


# m = 3, a truncated sample (tokenize at max_len 8), m = 2, a long one
VOCABULARY = Vocabulary([f"w{i}" for i in range(VOCAB - 4)])
TOKENS = [["w0"], [f"w{i % 10}" for i in range(15)], [], ["w3", "w9", "w9", "w1", "w5"]]
SAMPLES = [Sample(id=f"s{i}", tokens=t, labels=[]) for i, t in enumerate(TOKENS)]
IDS = [tokenize(t, VOCABULARY, 8) for t in TOKENS]
LENGTHS = [len(ids) for ids in IDS]
TARGETS = [build_target(y) for y in ([1, 0, 0], [0, 1, 1], [0, 0, 0], [1, 1, 1])]
BATCH = list(zip(IDS, TARGETS))
# the file provider's per-sample vectors; the oracle reads these, not its stacked table
BLOCKS = {s.id: np.random.default_rng(4 + i).normal(size=(m, DIM))
          for i, (s, m) in enumerate(zip(SAMPLES, LENGTHS))}


def provider_batch(provider, members):
    """BATCH's members as `provider` tokenizes them, and each one's oracle block (or None)."""
    blocks = [BLOCKS[SAMPLES[i].id] if isinstance(provider, PrecomputedFile) else None
              for i in members]
    return ([(provider.token_ids(SAMPLES[i], VOCABULARY, 8), TARGETS[i]) for i in members],
            blocks)


def test_batch_is_ragged_with_a_truncated_sample():
    assert LENGTHS == [3, 8, 2, 7] and len(TOKENS[1]) + 2 > 8


def per_sample_grads(batch, blocks, cfg, params, provider):
    trainable = params.parameters() + provider.parameters()
    for (ids, target), block in zip(batch, blocks):
        with Tape() as tape:
            loss = sample_loss_one(ids, target, provider, params, cfg, block)
            tape.backward(loss)
    grads = [p.grad / len(batch) for p in trainable]
    for p in trainable:
        p.grad.fill(0.0)
    return grads


def assert_close(a, b):
    assert a.shape == b.shape
    assert np.max(np.abs(a - b), initial=0.0) <= TOL


CASES = [("tanh", False, "lookup"), ("relu", False, "lookup"), ("tanh", True, "lookup"),
         ("relu", True, "file"), ("tanh", False, "file")]


@pytest.mark.parametrize("activation,projected,encoder", CASES)
@pytest.mark.parametrize("members", [[0, 1, 2, 3], [1], [2, 0]], ids=["ragged", "one", "pair"])
def test_forward_and_gradients_match_per_sample(activation, projected, encoder, members):
    cfg, params, provider = make_model(activation, encoder)
    assert_matches_per_sample(*provider_batch(provider, members), cfg, params, provider,
                              projected)


# full-length samples side by side, then a one-token sample after one: a
# chain shift over the flat token rows crosses each sample boundary
# between two real rows
BOUNDARY = [[0, 4, 5, 6, 1], [0, 7, 7, 8, 1], [9], [0, 10, 11, 12, 1]]


@pytest.mark.parametrize("activation,num_layers", [("tanh", 2), ("relu", 3), ("tanh", 1)])
def test_full_length_neighbours_match_per_sample(activation, num_layers):
    cfg, params, provider = make_model(activation, num_layers=num_layers)
    assert [len(ids) for ids in BOUNDARY] == [5, 5, 1, 5]
    assert_matches_per_sample(list(zip(BOUNDARY, TARGETS)), [None] * len(BOUNDARY),
                              cfg, params, provider)


def assert_matches_per_sample(batch, blocks, cfg, params, provider, projected=False):
    """`forward`'s outputs and every parameter gradient against one tape per sample.

    With `projected`, the forward gathers its first token rows from the
    table times `w_token_in`, as inference may; the training step never does.
    """
    table = Node(provider.table.value @ params.w_token_in.value) if projected else None
    trace = forward([ids for ids, _ in batch], provider, params, cfg, table)
    big = max(len(ids) for ids, _ in batch)
    for b, ((ids, _), block) in enumerate(zip(batch, blocks)):
        ref = forward_one(ids, provider, params, cfg, block)
        m = len(ids)
        assert_close(trace.probs[b:b + 1], ref.probs)
        assert_close(trace.final_edges[b, :m], ref.final_edges)
        assert not trace.final_edges[b, m:].any()
        assert_close(trace.final_tokens[b, :m], ref.final_tokens)
        assert_close(trace.final_labels[b], ref.final_labels)
        assert not trace.final_tokens[b, m:big].any()

    trainable = params.parameters() + provider.parameters()
    with Tape() as tape:
        tape.backward(batch_loss(batch, provider, params, cfg))
    grads = [p.grad.copy() for p in trainable]
    for p in trainable:
        p.grad.fill(0.0)
    for got, want in zip(grads, per_sample_grads(batch, blocks, cfg, params, provider)):
        assert_close(got, want)


def test_padding_pushes_no_gradient_into_the_pad_row():
    cfg, params, provider = make_model()
    assert all(PAD not in ids for ids in IDS)
    with Tape() as tape:
        tape.backward(batch_loss(BATCH, provider, params, cfg))
    assert not provider.table.grad[PAD].any()
    assert provider.table.grad[IDS[1]].any()


def test_pad_row_is_inert():
    # padded slots look up the PAD row; propagate's zero inverse root degree
    # alone must keep even a large PAD row out of every result, the file
    # provider's stacked zero row as much as the lookup's trained one
    for encoder in ("lookup", "file"):
        check_pad_row_is_inert(*make_model(encoder=encoder))


def check_pad_row_is_inert(cfg, params, provider):
    provider.table.value[PAD] = 1e3
    batch, blocks = provider_batch(provider, range(len(SAMPLES)))
    all_ids = [ids for ids, _ in batch]
    out = provider.embed(all_ids).value.reshape(4, 8, DIM)
    for b, ids in enumerate(all_ids):
        assert np.array_equal(out[b, :len(ids)], provider.table.value[ids])
        assert (out[b, len(ids):] == 1e3).all()
    trace = forward(all_ids, provider, params, cfg)
    for b, (ids, block) in enumerate(zip(all_ids, blocks)):
        ref = forward_one(ids, provider, params, cfg, block)
        assert_close(trace.probs[b:b + 1], ref.probs)
        assert_close(trace.final_edges[b, :len(ids)], ref.final_edges)
    trainable = params.parameters() + provider.parameters()
    with Tape() as tape:
        tape.backward(batch_loss(batch, provider, params, cfg))
    grads = [p.grad.copy() for p in trainable]
    for p in trainable:
        p.grad.fill(0.0)
    for got, want in zip(grads, per_sample_grads(batch, blocks, cfg, params, provider)):
        assert_close(got, want)
    if provider.parameters():
        assert not grads[-1][PAD].any()


class Recorder:
    """An optimizer that keeps the accumulated gradients instead of stepping."""

    def __init__(self, params):
        self.params = params
        self.grads = None

    def step(self):
        self.grads = [p.grad.copy() for p in self.params]
        for p in self.params:
            p.grad.fill(0.0)


@pytest.mark.parametrize("budget,count", [(model.CHUNK_BUDGET, 1), (1, len(BATCH))],
                         ids=["one-chunk", "split"])
def test_train_step_matches_per_sample_step(budget, count, monkeypatch):
    monkeypatch.setattr(model, "CHUNK_BUDGET", budget)
    cfg, params, provider = make_model("relu")
    assert len(chunks(LENGTHS, cfg)) == count

    def step(fn):
        rec = Recorder(params.parameters() + provider.parameters())
        loss = fn(BATCH, params, cfg, provider, rec)
        return loss, rec.grads

    loss, grads = step(train_step)
    ref_loss, ref_grads = step(train_step_one)
    assert loss == pytest.approx(ref_loss, abs=TOL)
    for got, want in zip(grads, ref_grads):
        assert_close(got, want)


def test_sgd_step_matches_per_sample_step():
    def trained(fn):
        cfg, params, provider = make_model()
        opt = ReferenceSGD(params.parameters() + provider.parameters(), 0.5)
        losses = [fn(BATCH, params, cfg, provider, opt) for _ in range(3)]
        return losses, [p.value for p in params.parameters() + provider.parameters()]

    losses, values = trained(train_step)
    ref_losses, ref_values = trained(train_step_one)
    assert np.allclose(losses, ref_losses, rtol=0, atol=TOL)
    for got, want in zip(values, ref_values):
        assert_close(got, want)


def test_chunks_keep_order_and_respect_the_budget(monkeypatch):
    cfg = ModelConfig(num_labels=3, num_layers=1, hidden=4, input_dim=2, activation="tanh")
    monkeypatch.setattr(model, "CHUNK_BUDGET", 4 * 2 * (5 + 3))
    # two samples of up to 5 tokens fit, three of 1; a 9-token sample stands alone
    assert chunks([3, 5, 2, 9, 1, 1, 1], cfg) == [
        slice(0, 2), slice(2, 3), slice(3, 4), slice(4, 7)]
    assert chunks([1], cfg) == [slice(0, 1)]
    assert chunks([], cfg) == []


# every output `run._infer` builds, and what each command asks it for:
# predict, correlate, explain
OUTPUTS = ("probs", "edges", "labels")
CALLER_OUTPUTS = [("probs",), ("probs", "labels"), ("edges",)]


def infer_checked(args):
    """Every output of `run._infer(*args)`, once what each command asks for is checked against them.

    Each command's outputs must equal the full build's bitwise.
    """
    full = runmod._infer(*args, *OUTPUTS)
    for asked in CALLER_OUTPUTS:
        for name, got in zip(asked, runmod._infer(*args, *asked), strict=True):
            want = full[OUTPUTS.index(name)]
            if name == "edges":
                assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))
            else:
                assert type(got) is type(want) and np.array_equal(got, want)
    return full


@pytest.mark.parametrize("batch_size", [1, 3, 10])
def test_inference_matches_per_sample(batch_size, monkeypatch):
    monkeypatch.setattr(model, "CHUNK_BUDGET", 6 * (8 + 3) * 2)  # splits the batch of 3
    for num_layers in (2, 1):  # own label rows per sample, and rows the batch shares
        assert_inference_matches_per_sample(batch_size, num_layers)


def assert_inference_matches_per_sample(batch_size, num_layers):
    cfg, params, provider = make_model(num_layers=num_layers)
    run_cfg = runmod.RunConfig(label_names=["A", "B", "C"], hidden=6, input_dim=DIM,
                               max_len=8, batch_size=batch_size, num_layers=num_layers)
    samples = [Sample(id=f"s{i}", tokens=t, labels=[]) for i, t in enumerate(TOKENS)]
    probs, edges, labels = infer_checked((samples, params, provider, run_cfg, VOCABULARY))
    # index i of every result is sample i: the oracle over its own ids agrees
    ids = [provider.token_ids(s, VOCABULARY, 8) for s in samples]
    assert probs.shape == (len(samples), 3) and labels.shape == (len(samples), 3, 6)
    assert len(edges) == len(samples)
    for i, sample_ids in enumerate(ids):
        ref = forward_one(sample_ids, provider, params, cfg)
        assert_close(probs[i], ref.probs[0])
        assert_close(edges[i], ref.final_edges)
        assert_close(labels[i], ref.final_labels)


def test_each_command_asks_inference_for_what_it_reads(monkeypatch):
    cfg, params, provider = make_model()
    run_cfg = runmod.RunConfig(label_names=["A", "B", "C"], hidden=6, input_dim=DIM, max_len=8)
    asked = []
    real_infer = runmod._infer

    def recording_infer(*args):
        asked.append(args[5:])
        return real_infer(*args)

    monkeypatch.setattr(runmod, "_infer", recording_infer)
    args = (SAMPLES, params, provider, run_cfg, VOCABULARY)
    runmod.predict(*args)
    runmod.correlate(*args)
    runmod.explain_samples(*args)
    assert asked == CALLER_OUTPUTS


# lengths 3, 16 (truncated), 2, 5, 7, 4 at max_len 16
MIXED = [["w0"], [f"w{i % 10}" for i in range(20)], [], ["w3", "w9", "w1"],
         ["w2"] * 5, ["w4", "w7"]]


def blas_name():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


def wide_model():
    """A 64-wide model and 40 samples of 1-30 tokens over a 40-token vocabulary."""
    run_cfg = runmod.RunConfig(label_names=["A", "B", "C", "D", "E"], max_len=32)
    cfg = run_cfg.model_config()
    rng = np.random.default_rng(6)
    params = ModelParams.init(cfg, rng)
    vocab = Vocabulary([f"w{i}" for i in range(36)])
    provider = TrainableLookup(len(vocab), cfg.input_dim, rng)
    samples = [Sample(id=f"s{i}", tokens=[f"w{j}" for j in rng.integers(36, size=k)], labels=[])
               for i, k in enumerate(rng.integers(1, 31, size=40))]
    return run_cfg, params, provider, vocab, samples


def small_model():
    """`make_model`'s small shapes over MIXED at max_len 16."""
    _, params, provider = make_model()
    run_cfg = runmod.RunConfig(label_names=["A", "B", "C"], hidden=6, input_dim=DIM, max_len=16)
    samples = [Sample(id=f"s{i}", tokens=t, labels=[]) for i, t in enumerate(MIXED)]
    return run_cfg, params, provider, VOCABULARY, samples


@pytest.mark.parametrize("shape,tol", [("wide", 0.0), ("small", TOL)])
def test_projected_inference_matches_per_chunk_inference(shape, tol, monkeypatch):
    run_cfg, params, provider, vocab, samples = {"wide": wide_model, "small": small_model}[shape]()
    args = (samples, params, provider, run_cfg, vocab)
    made = []
    real_projected_table = runmod._projected_table

    def recording(*projected_args):
        made.append(real_projected_table(*projected_args))
        return made[-1]

    monkeypatch.setattr(runmod, "_projected_table", recording)
    projected = [runmod._infer(*args, *asked) for asked in CALLER_OUTPUTS]
    assert len(made) == len(CALLER_OUTPUTS) and all(p is not None for p in made)
    monkeypatch.setattr(runmod, "_projected_table", lambda *projected_args: None)
    per_chunk = [runmod._infer(*args, *asked) for asked in CALLER_OUTPUTS]
    for got, want in zip(projected, per_chunk, strict=True):
        for a, b in zip(got, want, strict=True):
            # an array output, or the list of edge blocks
            for x, y in [(a, b)] if isinstance(a, np.ndarray) else zip(a, b, strict=True):
                assert x.shape == y.shape
                if tol:
                    assert np.max(np.abs(x - y), initial=0.0) <= tol
                else:
                    # holds only if the BLAS computes each row of X @ W whatever the row count
                    assert x.tobytes() == y.tobytes(), f"differs on {blas_name()}"


def test_projection_is_made_only_for_enough_padded_rows(monkeypatch):
    cfg, params, lookup = make_model()
    # the lookup table's 14 rows against 56 and 55 padded token rows
    made = runmod._projected_table(lookup, params, runmod.PROJECT_RATIO * 14)
    assert np.array_equal(made.value, lookup.table.value @ params.w_token_in.value)
    assert runmod._projected_table(lookup, params, runmod.PROJECT_RATIO * 14 - 1) is None
    asked, calls = [], []
    real_projected_table = runmod._projected_table

    def recording_projected_table(provider, params, padded_rows):
        asked.append(padded_rows)
        return real_projected_table(provider, params, padded_rows)

    def recording_forward(batch_ids, provider, params, cfg, projected=None):
        calls.append(projected)
        return forward(batch_ids, provider, params, cfg, projected)

    monkeypatch.setattr(runmod, "_projected_table", recording_projected_table)
    monkeypatch.setattr(runmod, "forward", recording_forward)
    run_cfg = runmod.RunConfig(label_names=["A", "B", "C"], hidden=6, input_dim=DIM, max_len=16)
    mixed = [Sample(id=f"s{i}", tokens=t, labels=[]) for i, t in enumerate(MIXED)]
    # MIXED's 2, 3, 4, 5, 7 and 16 token rows make one chunk of 6 x 16
    runmod.predict(mixed, params, lookup, run_cfg, VOCABULARY)
    assert asked == [96] and len(calls) == 1 and calls[0] is not None
    # a file table holds its reserved rows and every sample's vectors:
    # 24 rows against SAMPLES' one chunk of 4 x 8 at max_len 8
    run_cfg8 = runmod.RunConfig(label_names=["A", "B", "C"], hidden=6, input_dim=DIM, max_len=8)
    runmod.predict(SAMPLES, params, PrecomputedFile(BLOCKS), run_cfg8, VOCABULARY)
    assert asked[1:] == [32] and calls[1:] == [None]
    # chunks of 5 x 7 and 1 x 16 pad to 51 rows, fewer than 56
    monkeypatch.setattr(model, "CHUNK_BUDGET", 5 * (7 + 3) * 6)
    runmod.predict(mixed, params, lookup, run_cfg, VOCABULARY)
    assert asked[2:] == [51] and calls[2:] == [None, None]
    # an empty test set builds nothing
    (probs,) = runmod._infer([], params, lookup, run_cfg, VOCABULARY, "probs")
    assert probs.shape == (0, 3) and asked[3:] == [0] and len(calls) == 4


def test_inference_ignores_batch_size(monkeypatch):
    # two samples of up to 6 tokens fit a chunk; the 16-token one does not fit alone
    monkeypatch.setattr(model, "CHUNK_BUDGET", 6 * (6 + 3) * 2)
    cfg, params, provider = make_model()
    samples = [Sample(id=f"s{i}", tokens=t, labels=["A", "C"][: i % 3],
                      annotations=[(0, "B", 1.0)] if t else [])
               for i, t in enumerate(MIXED)]
    by_length = sorted(len(tokenize(t, VOCABULARY, 16)) for t in MIXED)
    assert (max(by_length) + 3) * 6 > model.CHUNK_BUDGET
    parts = chunks(by_length, cfg)
    assert len(parts) < len(MIXED)
    calls = []

    def recording_forward(batch_ids, *args, **kwargs):
        calls.append([len(ids) for ids in batch_ids])
        return forward(batch_ids, *args, **kwargs)

    monkeypatch.setattr(runmod, "forward", recording_forward)
    results = []
    for batch_size in (1, 3, 1000):
        run_cfg = runmod.RunConfig(label_names=["A", "B", "C"], hidden=6, input_dim=DIM,
                                   max_len=16, batch_size=batch_size)
        args = (samples, params, provider, run_cfg, VOCABULARY)
        calls.clear()
        probs, edges, _ = infer_checked(args)
        for i, s in enumerate(samples):
            ref = forward_one(provider.token_ids(s, VOCABULARY, 16), provider, params, cfg)
            assert_close(probs[i], ref.probs[0])
            assert_close(edges[i], ref.final_edges)
        # the full build, then each command's
        assert calls == [by_length[part] for part in parts] * (1 + len(CALLER_OUTPUTS))
        attributions, mse = runmod.explain_samples(*args)
        results.append((runmod.predict(*args), attributions, mse,
                        *runmod.correlate(*args)))
    first = results[0]
    assert first[2] is not None
    for preds, values, mse, pearson, cosine in results[1:]:
        assert preds == first[0] and mse == first[2]
        assert all(np.array_equal(a, b) for a, b in zip(values, first[1], strict=True))
        assert np.array_equal(pearson, first[3]) and np.array_equal(cosine, first[4])


def test_inference_runs_length_sorted_chunks_and_yields_owned_arrays_in_order(monkeypatch):
    # MIXED, then two samples as long as its first and last ones
    monkeypatch.setattr(model, "CHUNK_BUDGET", 6 * (6 + 3) * 2)
    cfg, params, provider = make_model()
    samples = [Sample(id=f"s{i}", tokens=t, labels=[])
               for i, t in enumerate(MIXED + [["w5"], ["w6", "w8"]])]
    all_ids = [tokenize(s.tokens, VOCABULARY, 16) for s in samples]
    calls = []

    def recording_forward(batch_ids, *args, **kwargs):
        calls.append(batch_ids)
        return forward(batch_ids, *args, **kwargs)

    monkeypatch.setattr(runmod, "forward", recording_forward)
    run_cfg = runmod.RunConfig(label_names=["A", "B", "C"], hidden=6, input_dim=DIM, max_len=16)
    probs, edges, labels = infer_checked((samples, params, provider, run_cfg, VOCABULARY))
    # each command's build ran the full build's chunks
    builds = 1 + len(CALLER_OUTPUTS)
    assert calls == calls[:len(calls) // builds] * builds
    calls = calls[:len(calls) // builds]
    # a stable sort: equal lengths keep their input order
    assert len(calls) > 1
    assert [ids for call in calls for ids in call] == sorted(all_ids, key=len)
    # results are written back in input order, samples of equal length included
    for i, sample_ids in enumerate(all_ids):
        ref = forward_one(sample_ids, provider, params, cfg)
        assert_close(probs[i], ref.probs[0])
        assert_close(edges[i], ref.final_edges)
        assert_close(labels[i], ref.final_labels)
    for array in (probs, labels, *edges):
        assert array.base is None


@pytest.mark.parametrize("decode", ["topk", "threshold"])
def test_decoders_get_one_probability_vector_per_sample(decode, monkeypatch):
    # perfbench/run.py probes `hgcn eval` this way: it swaps both decoders at
    # every hgcn import site and expects one n-vector per test sample
    cfg, params, provider = make_model()
    run_cfg = runmod.RunConfig(label_names=["A", "B", "C"], hidden=6, input_dim=DIM,
                               max_len=16, decode=decode)
    samples = [Sample(id=f"s{i}", tokens=t, labels=[]) for i, t in enumerate(MIXED)]
    seen = []
    for name in ("decode_threshold", "decode_topk"):
        original = getattr(metrics, name)

        def recording(probs, *args, _original=original):
            seen.append(probs)
            return _original(probs, *args)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "hgcn":
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, recording)
    refs = [forward_one(tokenize(s.tokens, VOCABULARY, 16), provider, params, cfg).probs[0]
            for s in samples]
    for fn in (runmod.predict, runmod.correlate):
        seen.clear()
        fn(samples, params, provider, run_cfg, VOCABULARY)
        assert len(seen) == len(samples)
        for probs, ref in zip(seen, refs):
            assert probs.shape == (3,)
            assert_close(probs, ref)


@pytest.mark.parametrize("block", [None, np.ones((LENGTHS[3] + 1, DIM))],
                         ids=["missing", "wrong-length"])
def test_file_block_errors_come_at_tokenization(block, tmp_path, monkeypatch):
    blocks = {sid: v for sid, v in BLOCKS.items() if sid != "s3"}
    if block is not None:
        blocks["s3"] = block
    save_embeddings(tmp_path / "v.bin", blocks)
    calls = []

    def recording_forward(*args, **kwargs):
        calls.append(args)
        return forward(*args, **kwargs)

    monkeypatch.setattr(model, "forward", recording_forward)
    monkeypatch.setattr(runmod, "forward", recording_forward)
    run_cfg = runmod.RunConfig(label_names=["A", "B", "C"], hidden=6, input_dim=DIM,
                               max_len=8, epochs=1, encoder=f"file:{tmp_path / 'v.bin'}")
    with pytest.raises(ValueError, match="s3"):
        runmod.train(SAMPLES, run_cfg)
    params = make_model()[1]
    with pytest.raises(ValueError, match="s3"):
        runmod.predict(SAMPLES, params, PrecomputedFile(blocks), run_cfg, VOCABULARY)
    assert calls == []
