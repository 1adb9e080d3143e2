"""The batched model path against the per-sample reference in oracles.py.

A batch pads its samples to the longest one; these tests check that the
padding changes nothing: probabilities, final edges, final label rows and
every parameter gradient agree with one graph and one tape per sample to
within 1e-12, and so do the outputs of a forward that gathers its first
token rows from the projected table.
Inference that gathers its token rows from one projected table is
checked against inference that projects them per chunk, bitwise at a
64-wide shape.
"""

import sys
import weakref

import numpy as np
import pytest

from hgcn import metrics, model
from hgcn import run as runmod
from hgcn.analysis import build_golden, label_cosine_matrix
from hgcn.autodiff import Node, Tape
from hgcn.data import Sample, save_embeddings
from hgcn.encoder import PAD, PrecomputedFile, TrainableLookup, Vocabulary, tokenize
from hgcn.model import (ModelConfig, ModelParams, batch_loss, build_target, chunks, forward,
                        train_step)

from oracles import ReferenceSGD, forward_one, sample_loss_one, train_step_one

TOL = 1e-12
VOCAB = 14
DIM = 5
# `make_model`'s weights are float64, and CHUNK_BUDGET counts bytes: the
# budgets below are value counts times this itemsize
F64 = np.dtype(np.float64).itemsize


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


def per_sample_labels(trace):
    """`trace.final_labels` as B x n x hidden, a G = 1 trace's shared rows broadcast."""
    labels = trace.final_labels
    return np.broadcast_to(labels, (len(trace.probs),) + labels.shape[1:])


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
    labels = per_sample_labels(trace)
    for b, ((ids, _), block) in enumerate(zip(batch, blocks)):
        ref = forward_one(ids, provider, params, cfg, block)
        m = len(ids)
        assert_close(trace.probs[b:b + 1], ref.probs)
        assert_close(trace.final_edges[b, :m], ref.final_edges)
        assert not trace.final_edges[b, m:].any()
        assert_close(labels[b], ref.final_labels)

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


@pytest.mark.parametrize("budget,count", [(model.CHUNK_BUDGET, 1), (F64, len(BATCH))],
                         ids=["one-chunk", "split"])
def test_train_step_matches_per_sample_step(budget, count, monkeypatch):
    monkeypatch.setattr(model, "CHUNK_BUDGET", budget)
    cfg, params, provider = make_model("relu")
    assert len(chunks(LENGTHS, cfg, F64)) == count

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
    monkeypatch.setattr(model, "CHUNK_BUDGET", F64 * 4 * 2 * (5 + 3))
    # two samples of up to 5 tokens fit, three of 1; a 9-token sample stands alone
    assert chunks([3, 5, 2, 9, 1, 1, 1], cfg, F64) == [
        slice(0, 2), slice(2, 3), slice(3, 4), slice(4, 7)]
    assert chunks([1], cfg, F64) == [slice(0, 1)]
    assert chunks([], cfg, F64) == []


def long_doc_model(dtype):
    """The long-doc shape (20 labels, hidden 64) at `dtype`, and ten 128-row documents."""
    run_cfg = runmod.RunConfig(label_names=[f"L{j}" for j in range(20)], max_len=128)
    rng = np.random.default_rng(5)
    params = ModelParams.init(run_cfg.model_config(), rng, dtype)
    vocab = Vocabulary([f"w{i}" for i in range(40)])
    provider = TrainableLookup(len(vocab), run_cfg.input_dim, rng, dtype=dtype)
    samples = [Sample(id=f"s{i}", tokens=[f"w{j}" for j in rng.integers(40, size=126)],
                      labels=[f"L{i}"]) for i in range(10)]
    return run_cfg, params, provider, vocab, samples


@pytest.mark.parametrize("dtype,sizes", [(np.float32, [4, 4, 2]), (np.float64, [2] * 5)],
                         ids=["float32", "float64"])
def test_the_budget_counts_bytes_at_the_weights_itemsize(dtype, sizes, monkeypatch):
    # the same CHUNK_BUDGET bytes hold four 128-token documents with 20
    # labels in float32 and two in float64, in training and in inference
    run_cfg, params, provider, vocab, samples = long_doc_model(dtype)
    cfg = run_cfg.model_config()
    assert [p.stop - p.start for p in chunks([128] * 10, cfg, np.dtype(dtype).itemsize)] == sizes
    trained, inferred_sizes = [], []
    real_batch_loss = model.batch_loss

    def recording_batch_loss(batch, *args):
        trained.append(len(batch))
        return real_batch_loss(batch, *args)

    def recording_forward(batch_ids, *args, **kwargs):
        inferred_sizes.append(len(batch_ids))
        return forward(batch_ids, *args, **kwargs)

    monkeypatch.setattr(model, "batch_loss", recording_batch_loss)
    monkeypatch.setattr(runmod, "forward", recording_forward)
    batch = [(provider.token_ids(s, vocab, 128), build_target([1] + [0] * 19)) for s in samples]
    assert {len(ids) for ids, _ in batch} == {128}
    train_step(batch, params, cfg, provider, Recorder(params.parameters() + provider.parameters()))
    runmod.predict(samples, params, provider, run_cfg, vocab)
    assert trained == inferred_sizes == sizes


def test_train_step_frees_a_chunk_before_the_next_one_runs(monkeypatch):
    # each sample of BATCH is a chunk; when each chunk's forward pass starts,
    # the tape and the loss of every chunk before it are already freed, so a
    # step holds one chunk's graph at a time. A Node takes no weak reference,
    # so the loss is watched through its value, which it alone holds
    monkeypatch.setattr(model, "CHUNK_BUDGET", F64)
    cfg, params, provider = make_model()
    tapes, losses = [], []
    real_batch_loss = model.batch_loss

    class RecordingTape(Tape):
        def __init__(self):
            super().__init__()
            tapes.append(weakref.ref(self))

    def recording_batch_loss(*args):
        assert [ref() for ref in tapes[:-1] + losses] == [None] * (len(tapes) - 1 + len(losses))
        loss = real_batch_loss(*args)
        losses.append(weakref.ref(loss.value))
        return loss

    monkeypatch.setattr(model, "Tape", RecordingTape)
    monkeypatch.setattr(model, "batch_loss", recording_batch_loss)
    train_step(BATCH, params, cfg, provider, Recorder(params.parameters() + provider.parameters()))
    assert len(tapes) == len(BATCH)
    assert len(losses) == len(BATCH)


def inferred(args):
    """`run._infer(*args)`'s chunks read back per sample in input order: probs, edge blocks, label rows.

    Each chunk's lengths must be its members' token row counts, ascending.
    """
    samples, _, provider, run_cfg, vocab = args
    probs, edges, labels = ([None] * len(samples) for _ in range(3))
    for members, lengths, trace in runmod._infer(*args):
        assert list(lengths) == sorted(lengths) == [
            len(provider.token_ids(samples[i], vocab, run_cfg.max_len)) for i in members]
        chunk_labels = per_sample_labels(trace)
        for b, (i, m) in enumerate(zip(members, lengths, strict=True)):
            probs[i], edges[i] = trace.probs[b], trace.final_edges[b, :m].copy()
            labels[i] = chunk_labels[b]
    return probs, edges, labels


@pytest.mark.parametrize("batch_size", [1, 3, 10])
def test_inference_matches_per_sample(batch_size, monkeypatch):
    monkeypatch.setattr(model, "CHUNK_BUDGET", F64 * 6 * (8 + 3) * 2)  # splits the batch of 3
    for num_layers in (2, 1):  # own label rows per sample, and rows the batch shares
        assert_inference_matches_per_sample(batch_size, num_layers)


def assert_inference_matches_per_sample(batch_size, num_layers):
    cfg, params, provider = make_model(num_layers=num_layers)
    run_cfg = runmod.RunConfig(label_names=["A", "B", "C"], hidden=6, input_dim=DIM,
                               max_len=8, batch_size=batch_size, num_layers=num_layers)
    samples = [Sample(id=f"s{i}", tokens=t, labels=[]) for i, t in enumerate(TOKENS)]
    probs, edges, labels = inferred((samples, params, provider, run_cfg, VOCABULARY))
    # member i of every chunk is sample i: the oracle over its own ids agrees
    ids = [provider.token_ids(s, VOCABULARY, 8) for s in samples]
    for i, sample_ids in enumerate(ids):
        ref = forward_one(sample_ids, provider, params, cfg)
        assert_close(probs[i], ref.probs[0])
        assert_close(edges[i], ref.final_edges)
        assert_close(labels[i], ref.final_labels)


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
    projected = list(runmod._infer(*args))
    assert len(made) == 1 and made[0] is not None
    monkeypatch.setattr(runmod, "_projected_table", lambda *projected_args: None)
    per_chunk = list(runmod._infer(*args))
    for (members, lengths, got), (want_members, want_lengths, want) in zip(projected, per_chunk,
                                                                           strict=True):
        assert members == want_members and lengths == want_lengths
        for x, y in [(got.probs, want.probs), (got.final_edges, want.final_edges),
                     (got.final_labels, want.final_labels)]:
            assert x.shape == y.shape
            if tol:
                assert np.max(np.abs(x - y), initial=0.0) <= tol
            else:
                # holds only if the BLAS computes each row of X @ W whatever the row count
                assert x.tobytes() == y.tobytes(), f"differs on {blas_name()}"


def test_projection_is_made_only_for_enough_padded_rows(monkeypatch):
    cfg, params, _ = make_model()
    # a lookup table of 56 / PROJECT_RATIO rows (14 at a ratio of 4, 28 at 2) against 56
    # and 55 padded token rows
    lookup = TrainableLookup(56 // runmod.PROJECT_RATIO, DIM, np.random.default_rng(3))
    made = runmod._projected_table(lookup, params, 56)
    assert np.array_equal(made.value, lookup.table.value @ params.w_token_in.value)
    assert runmod._projected_table(lookup, params, 55) is None
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
    monkeypatch.setattr(model, "CHUNK_BUDGET", F64 * 5 * (7 + 3) * 6)
    runmod.predict(mixed, params, lookup, run_cfg, VOCABULARY)
    assert asked[2:] == [51] and calls[2:] == [None, None]
    # an empty test set runs no chunk
    assert runmod.predict([], params, lookup, run_cfg, VOCABULARY) == ([], [])
    assert asked[3:] == [0] and len(calls) == 4


def test_one_layer_trace_holds_the_shared_label_rows_once():
    # a 1-layer model's label rows are the same for every sample: the trace
    # holds them once, and `correlate` broadcasts them to each member
    cfg, params, provider = make_model(num_layers=1)
    trace = forward(IDS[:3], provider, params, cfg)
    assert trace.final_labels.shape == (1, cfg.num_labels, cfg.hidden)
    for ids in IDS[:3]:
        assert_close(trace.final_labels[0], forward_one(ids, provider, params, cfg).final_labels)
    run_cfg = runmod.RunConfig(label_names=["A", "B", "C"], hidden=6, input_dim=DIM,
                               max_len=8, num_layers=1)
    _, cosine = runmod.correlate(SAMPLES[:3], params, provider, run_cfg, VOCABULARY)
    assert np.array_equal(cosine, cosine.T)
    assert np.array_equal(np.diag(cosine), np.ones(cfg.num_labels))
    assert np.allclose(cosine, label_cosine_matrix(trace.final_labels[0]), rtol=0, atol=TOL)


def test_inference_ignores_batch_size(monkeypatch):
    # two samples of up to 6 tokens fit a chunk; the 16-token one does not fit alone
    monkeypatch.setattr(model, "CHUNK_BUDGET", F64 * 6 * (6 + 3) * 2)
    cfg, params, provider = make_model()
    samples = [Sample(id=f"s{i}", tokens=t, labels=["A", "C"][: i % 3],
                      annotations=[(0, "B", 1.0)] if t else [])
               for i, t in enumerate(MIXED)]
    by_length = sorted(len(tokenize(t, VOCABULARY, 16)) for t in MIXED)
    assert F64 * (max(by_length) + 3) * 6 > model.CHUNK_BUDGET
    parts = chunks(by_length, cfg, F64)
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
        probs, edges, _ = inferred(args)
        for i, s in enumerate(samples):
            ref = forward_one(provider.token_ids(s, VOCABULARY, 16), provider, params, cfg)
            assert_close(probs[i], ref.probs[0])
            assert_close(edges[i], ref.final_edges)
        assert calls == [by_length[part] for part in parts]
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
    monkeypatch.setattr(model, "CHUNK_BUDGET", F64 * 6 * (6 + 3) * 2)
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
    stream = runmod._infer(samples, params, provider, run_cfg, VOCABULARY)
    assert calls == []  # no chunk runs before the stream is read
    chunked = list(stream)
    # a stable sort: equal lengths keep their input order
    assert len(calls) == len(chunked) > 1
    assert [ids for call in calls for ids in call] == sorted(all_ids, key=len)
    assert [i for members, _, _ in chunked for i in members] == sorted(
        range(len(samples)), key=lambda i: len(all_ids[i]))
    # each chunk's arrays are its own: read after every chunk has run, each
    # member's rows still match the oracle, samples of equal length included
    traces = [trace for _, _, trace in chunked]
    for a in range(len(traces)):
        for b in range(a):
            for name in ("probs", "final_edges", "final_labels"):
                assert not np.shares_memory(getattr(traces[a], name), getattr(traces[b], name))
    for members, lengths, trace in chunked:
        for b, (i, m) in enumerate(zip(members, lengths, strict=True)):
            ref = forward_one(all_ids[i], provider, params, cfg)
            assert m == len(all_ids[i])
            assert_close(trace.probs[b], ref.probs[0])
            assert_close(trace.final_edges[b, :m], ref.final_edges)
            assert_close(trace.final_labels[b], ref.final_labels)


@pytest.mark.parametrize("command", ["predict", "correlate", "explain_samples"])
def test_each_command_frees_a_chunk_before_the_next_one_runs(command, monkeypatch):
    # MIXED runs as several chunks; when each forward pass starts, every trace
    # yielded before it is already freed, so a command holds one chunk at a time
    monkeypatch.setattr(model, "CHUNK_BUDGET", F64 * 6 * (6 + 3) * 2)
    cfg, params, provider = make_model()
    samples = [Sample(id=f"s{i}", tokens=t, labels=["A"],
                      annotations=[(0, "B", 1.0)] if t else [])
               for i, t in enumerate(MIXED)]
    yielded = []

    def recording_forward(*args, **kwargs):
        assert [ref() for ref in yielded] == [None] * len(yielded)
        trace = forward(*args, **kwargs)
        yielded.append(weakref.ref(trace))
        return trace

    monkeypatch.setattr(runmod, "forward", recording_forward)
    run_cfg = runmod.RunConfig(label_names=["A", "B", "C"], hidden=6, input_dim=DIM, max_len=16)
    getattr(runmod, command)(samples, params, provider, run_cfg, VOCABULARY)
    assert len(yielded) > 1


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


def explain_reference(samples, edges, label_names):
    """`run.explain_samples`'s results, one sample at a time, from the same edge blocks."""
    attributions, mses = [], []
    for s, block in zip(samples, edges):
        total = np.sum(block)
        attr = block / total if total > 0 else np.full(block.shape, 1.0 / block.size)
        attributions.append(attr)
        if s.annotations:
            [golden] = build_golden([s.annotations], len(block), label_names)
            mses.append(np.mean((attr - golden) ** 2))
    return attributions, float(np.mean(mses)) if mses else None


# at max_len 8, m = 3, 8 (truncated), 3, 7, 4, 3, 8 (truncated): in one chunk, groups of
# three, one, one and two, in an order that is not input order; s1's second annotation is
# past its truncation
EXPLAINED = [
    Sample(id="s0", tokens=["w0"], labels=[], annotations=[(0, "A", 1.0)]),
    Sample(id="s1", tokens=[f"w{i % 10}" for i in range(15)], labels=[],
           annotations=[(2, "B", 0.5), (10, "C", 1.0)]),
    Sample(id="s2", tokens=["w3"], labels=[]),
    Sample(id="s3", tokens=["w3", "w9", "w9", "w1", "w5"], labels=[],
           annotations=[(4, "C", 0.25), (1, "A", 1.0)]),
    Sample(id="s4", tokens=["w2", "w6"], labels=[], annotations=[(1, "B", 0.75)]),
    Sample(id="s5", tokens=["w1"], labels=[], annotations=[(0, "C", 1.0)]),
    Sample(id="s6", tokens=[f"w{i % 7}" for i in range(20)], labels=[]),
]


def explain_args():
    """(params, provider, run_cfg) for EXPLAINED, and its edge blocks as `_infer` yields them."""
    cfg, params, provider = make_model()
    run_cfg = runmod.RunConfig(label_names=["A", "B", "C"], hidden=6, input_dim=DIM, max_len=8)
    _, edges, _ = inferred((EXPLAINED, params, provider, run_cfg, VOCABULARY))
    return params, provider, run_cfg, edges


def assert_explained_like_reference(samples, params, provider, run_cfg, edges):
    args = (samples, params, provider, run_cfg, VOCABULARY)
    attributions, mse = runmod.explain_samples(*args)
    want, want_mse = explain_reference(samples, edges, run_cfg.label_names)
    assert len(attributions) == len(want)
    for got, ref in zip(attributions, want):
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
    assert mse == want_mse
    return attributions, mse


def test_explain_groups_match_the_per_sample_reference_bitwise():
    params, provider, run_cfg, edges = explain_args()
    assert [len(block) for block in edges] == [3, 8, 3, 7, 4, 3, 8]
    attributions, mse = assert_explained_like_reference(EXPLAINED, params, provider, run_cfg,
                                                        edges)
    assert mse is not None
    # the three samples of m = 3 are views of one group array; s3's group of one is its own
    group = attributions[0].base
    assert group is not None and attributions[2].base is group and attributions[5].base is group
    assert attributions[3].base is not group and attributions[1].base is attributions[6].base
    # samples without annotations: the same maps, and no MSE
    bare = [Sample(id=s.id, tokens=s.tokens, labels=[]) for s in EXPLAINED]
    _, bare_mse = assert_explained_like_reference(bare, params, provider, run_cfg, edges)
    assert bare_mse is None


def test_explain_scores_a_group_split_across_chunks_like_the_reference(monkeypatch):
    # two 3-row samples fit a chunk, so the runs of m = 3 and m = 8 each span two chunks
    monkeypatch.setattr(model, "CHUNK_BUDGET", F64 * 2 * (3 + 3) * 6)
    params, provider, run_cfg, edges = explain_args()
    chunked = [lengths for _, lengths, _ in
               runmod._infer(EXPLAINED, params, provider, run_cfg, VOCABULARY)]
    assert chunked == [[3, 3], [3], [4], [7], [8], [8]]
    attributions, mse = assert_explained_like_reference(EXPLAINED, params, provider, run_cfg,
                                                        edges)
    assert mse is not None
    assert attributions[0].base is attributions[2].base is not attributions[5].base


def test_explain_all_zero_block_in_a_group_is_uniform_with_its_warning(monkeypatch):
    params, provider, run_cfg, edges = explain_args()
    edges[5] = np.zeros_like(edges[5])  # one of the three blocks of m = 3
    real_infer = runmod._infer

    def zeroing_infer(*args):
        for members, lengths, trace in real_infer(*args):
            if 5 in members:
                trace.final_edges[members.index(5)] = 0.0
            yield members, lengths, trace

    monkeypatch.setattr(runmod, "_infer", zeroing_infer)
    with pytest.warns(UserWarning, match="all-zero edge block") as caught:
        attributions, _ = assert_explained_like_reference(EXPLAINED, params, provider, run_cfg,
                                                          edges)
    assert len(caught) == 1
    assert np.array_equal(attributions[5], np.full((3, 3), 1 / 9))
