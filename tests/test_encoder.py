import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgcn import autodiff as ad
from hgcn.autodiff import Tape
from hgcn.encoder import (
    PAD,
    RESERVED,
    PrecomputedFile,
    SEQ_END,
    SEQ_START,
    TrainableLookup,
    UNKNOWN,
    Vocabulary,
    pad_ids,
    tokenize,
)
from hgcn.data import Sample

from oracles import tokenize_reference, total_sum


@pytest.fixture
def vocab():
    return Vocabulary(["a", "b", "c"])


def test_reserved_ids_fixed(vocab):
    ids = vocab.to_dict()
    assert ids["<s>"] == SEQ_START == 0
    assert ids["</s>"] == SEQ_END == 1
    assert ids["<unk>"] == UNKNOWN == 2


def test_tokenize_structure(vocab):
    ids = tokenize(["a", "b"], vocab, 17)
    assert ids == [SEQ_START, vocab.to_dict()["a"], vocab.to_dict()["b"], SEQ_END]


def test_tokenize_oov(vocab):
    ids = tokenize(["a", "zzz"], vocab, 17)
    assert ids[2] == UNKNOWN


def test_tokenize_places_markers_by_position_only():
    # content spelled like a marker must not share its row, nor train PAD's
    tokens = ["x", "<s>", "<pad>", "</s>"]
    vocab = Vocabulary(tokens)
    assert len(vocab) == 5
    # in id order, as the checkpoint header stores it
    assert list(vocab.to_dict().items()) == [*zip(RESERVED, range(4)), ("x", 4)]
    assert tokenize(tokens, vocab, 17) == [SEQ_START, 4, UNKNOWN, UNKNOWN, UNKNOWN, SEQ_END]


def test_tokenize_truncation(vocab):
    ids = tokenize(["a"] * 40, vocab, 17)
    assert len(ids) == 17
    assert ids[0] == SEQ_START and ids[-1] == SEQ_END
    assert len(ids[1:-1]) == 15


def test_tokenize_empty(vocab):
    assert tokenize([], vocab, 17) == [SEQ_START, SEQ_END]


# content and reserved spellings, some of them never in the vocabulary
SPELLINGS = st.sampled_from([*RESERVED, "a", "b", "c", "zzz", "<S>", ""])


@given(st.lists(SPELLINGS, max_size=8), st.lists(SPELLINGS, max_size=20),
       st.integers(min_value=3, max_value=12))
@settings(max_examples=300)
def test_tokenize_matches_per_token_reference(vocab_tokens, tokens, max_len):
    vocab = Vocabulary(vocab_tokens)
    assert tokenize(tokens, vocab, max_len) == tokenize_reference(tokens, vocab, max_len)


def test_tokenize_length_bounds(vocab):
    for count in range(0, 30):
        ids = tokenize(["a"] * count, vocab, 10)
        assert 2 <= len(ids) <= 10


def test_vocab_roundtrip(vocab):
    rebuilt = Vocabulary.from_dict(vocab.to_dict())
    assert rebuilt.to_dict() == vocab.to_dict()


@pytest.mark.parametrize("mapping", [
    {"<s>": 0, "</s>": 1, "<unk>": 2, "foo": 3, "bar": 4},
    {"foo": 0, "bar": 4},
    ["a"],
    {"a": "x", "b": 4},
], ids=["token-on-pad-id", "sparse-ids", "not-a-mapping", "string-id"])
def test_vocab_from_dict_accepts_only_what_to_dict_writes(mapping):
    with pytest.raises(ValueError, match="vocabulary"):
        Vocabulary.from_dict(mapping)


def test_pad_ids_fills_ragged_batches_with_pad():
    for batch in ([[0, 7, 1], [0, 1], [0, 5, 6, 9, 1]], [range(4, 7), [0]], [[0, 1]]):
        padded = pad_ids(batch)
        m = max(len(ids) for ids in batch)
        assert padded.dtype == np.intp
        assert padded.shape == (len(batch), m)
        for row, ids in zip(padded, batch):
            assert row.tolist() == [*ids, *[PAD] * (m - len(ids))]


def test_lookup_identical_ids_identical_rows():
    rng = np.random.default_rng(0)
    lookup = TrainableLookup(10, 8, rng)
    with Tape():
        out = lookup.embed([[4, 4, 5]])
    assert np.array_equal(out.value[0], out.value[1])
    assert out.value.shape == (3, 8)


def test_lookup_gradient_reaches_only_batch_rows():
    rng = np.random.default_rng(1)
    lookup = TrainableLookup(10, 4, rng)
    with Tape() as tape:
        out = lookup.embed([[2, 7, 2]])
        tape.backward(total_sum(out))
    touched = np.flatnonzero(np.abs(lookup.table.grad).sum(axis=1))
    assert set(touched) == {2, 7}
    # row looked up twice accumulates both contributions
    assert np.allclose(lookup.table.grad[2], 2.0)


def test_frozen_lookup_has_no_parameters_and_never_moves():
    rng = np.random.default_rng(2)
    lookup = TrainableLookup(10, 4, rng, freeze=True)
    assert lookup.parameters() == []
    before = lookup.table.value.copy()
    with Tape() as tape:
        out = lookup.embed([[1, 2]])
        tape.backward(total_sum(out))
    ad.Adam(lookup.parameters(), 0.1).step()
    assert np.array_equal(lookup.table.value, before)
    assert lookup.table.grad is None


def test_precomputed_table_is_held_once():
    # the stacked table, cast as it is stacked: no second copy at its own
    # dtype, even for a moment, and no gradient array as large beside it
    vectors = {f"s{i}": np.full((50, 64), float(i)) for i in range(40)}
    for dtype in (np.float64, np.float32):
        nbytes = sum(v.size for v in vectors.values()) * np.dtype(dtype).itemsize
        tracemalloc.start()
        try:
            provider = PrecomputedFile(vectors, dtype=dtype)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert provider.table.value.dtype == dtype
        assert provider.table.value.nbytes > nbytes
        assert peak < 1.5 * nbytes


def test_precomputed_provider_frozen_and_keyed(vocab):
    vecs = {"s1": np.ones((4, 6)), "s2": np.full((3, 6), 2.0)}
    provider = PrecomputedFile(vecs)
    batch = [provider.token_ids(Sample(sid, ["a"] * (len(v) - 2), []), vocab, 17)
             for sid, v in reversed(vecs.items())]
    with Tape():
        out = provider.embed(batch)
    assert out.value.shape == (2 * 4, 6)
    # each sample reads its own block; its padded slot reads a zero row
    assert np.array_equal(out.value[:3], vecs["s2"]) and not out.value[3].any()
    assert np.array_equal(out.value[4:], vecs["s1"])
    assert not out.requires_grad
    assert provider.parameters() == []
    assert provider.table.grad is None


def test_precomputed_missing_sample_names_id(vocab):
    provider = PrecomputedFile({"s1": np.ones((2, 3))}, "v.bin")
    with pytest.raises(ValueError, match="v.bin holds no vector block for sample 's9'"):
        provider.token_ids(Sample("s9", [], []), vocab, 17)


def test_precomputed_length_mismatch(vocab):
    provider = PrecomputedFile({"s1": np.ones((2, 3))})
    with pytest.raises(ValueError, match="s1"):
        provider.token_ids(Sample("s1", ["a"], []), vocab, 17)


@pytest.mark.parametrize("blocks", [
    {"s1": np.ones(3), "s2": np.ones((2, 3))},
    {"s1": np.array(1.0), "s2": np.ones((2, 3))},
    {"s2": np.ones((2, 3)), "s1": np.ones((2, 4))},
], ids=["first-1d", "first-0d", "width-differs"])
def test_precomputed_bad_block_names_sample(blocks):
    with pytest.raises(ValueError, match="'s1'"):
        PrecomputedFile(blocks)

