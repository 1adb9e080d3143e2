import json
import os
import re
from itertools import chain, combinations
from math import comb

import numpy as np
import pytest

from hgcn import synth
from hgcn.autodiff import Tape
from hgcn.cli import main
from hgcn.data import (
    CheckpointError,
    DatasetError,
    Sample,
    load_checkpoint,
    load_dataset,
    load_tensors,
    save_checkpoint,
    save_dataset,
    save_embeddings,
    save_tensors,
    write_bytes,
    write_text,
)
from hgcn.encoder import TrainableLookup, Vocabulary
from hgcn.model import ModelConfig, ModelParams, forward
from hgcn.synth import generate_synthetic_corpus

from oracles import label_set_draw_reference, label_sets_reference


LABELS = ["A", "B"]


def write(tmp_path, text, name="data.jsonl"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_dataset_roundtrip(tmp_path):
    samples = [
        Sample("s1", ["hello", "world"], ["A"], [(0, "A", 1.0)]),
        Sample("s2", ["x"], [], []),
    ]
    path = tmp_path / "d.jsonl"
    save_dataset(samples, path)
    back = load_dataset(path, LABELS)
    assert back == samples


def test_dataset_text_field_whitespace_split(tmp_path):
    path = write(tmp_path, '{"id": "s1", "text": "a  b\\tc", "labels": ["A"]}\n')
    [sample] = load_dataset(path, LABELS)
    assert sample.tokens == ["a", "b", "c"]


def test_dataset_skips_blank_lines(tmp_path):
    path = write(tmp_path, '\n{"id": "s1", "tokens": ["a"], "labels": []}\n\n')
    assert len(load_dataset(path, LABELS)) == 1


def test_dataset_malformed_json_reports_line(tmp_path):
    path = write(tmp_path, '{"id": "s1", "tokens": ["a"], "labels": []}\n{oops\n')
    with pytest.raises(DatasetError, match="line 2"):
        load_dataset(path, LABELS)


def test_dataset_unknown_label_named(tmp_path):
    path = write(tmp_path, '{"id": "s1", "tokens": ["a"], "labels": ["Z"]}\n')
    with pytest.raises(DatasetError, match="'Z'"):
        load_dataset(path, LABELS)


def test_dataset_missing_id(tmp_path):
    path = write(tmp_path, '{"tokens": ["a"], "labels": []}\n')
    with pytest.raises(DatasetError, match="line 1.*id"):
        load_dataset(path, LABELS)


GOOD_LINE = '{"id": "s1", "tokens": ["a"], "labels": ["A"]}\n'
NOT_STRINGS = "'labels' must be a list of strings"


@pytest.mark.parametrize("line,match", [
    ('5', "expected a JSON object"),
    ('["s2", "a"]', "expected a JSON object"),
    ('{"id": "s2", "tokens": ["a"], "labels": 5}', NOT_STRINGS),
    ('{"id": "s2", "tokens": ["a"], "labels": "AB"}', NOT_STRINGS),
    ('{"id": "s2", "tokens": ["a"], "labels": [["A"]]}', NOT_STRINGS),
    ('{"id": "s2", "text": 5, "labels": []}', "'text' must be a string"),
    # `explain` names each sample's heatmap files after its id
    ('{"id": "s1", "tokens": ["a"]}', "id 's1' repeats line 1"),
    ('{"id": "", "tokens": ["a"]}', "id '' is not a plain file name"),
    ('{"id": ".", "tokens": ["a"]}', r"id '\.' is not a plain file name"),
    ('{"id": "..", "tokens": ["a"]}', r"id '\.\.' is not a plain file name"),
    ('{"id": "sub/z", "tokens": ["a"]}', "id 'sub/z' is not a plain file name"),
    ('{"id": "/tmp", "tokens": ["a"]}', "id '/tmp' is not a plain file name"),
    ('{"id": "a\\u0000b", "tokens": ["a"]}', r"id 'a\\x00b' is not a plain file name"),
    ('{"id": null, "tokens": ["a"]}', "'id' must be a string or a number, got None"),
    ('{"id": true, "tokens": ["a"]}', "'id' must be a string or a number, got True"),
    ('{"id": ["x"], "tokens": ["a"]}', r"'id' must be a string or a number, got \['x'\]"),
    # each line is one JSON value on its own, never part of a parse of joined lines
    ('{"id": "s2", "tokens": ["a"]} {"id": "s3", "tokens": ["a"]}',
     r"malformed JSON \(Extra data\)"),
    ('{"id": "s2", "tokens": ["a"]} trailing', r"malformed JSON \(Extra data\)"),
    ('{"id": "s2", "tokens": ["a"]\n"labels": []}\n'
     '{"id": "s3", "tokens": ["a"]},{"id": "s4", "tokens": ["a"]}',
     r"malformed JSON \(Expecting ',' delimiter\)"),
    ('\ufeff{"id": "s2", "tokens": ["a"]}', r"malformed JSON \(Unexpected UTF-8 BOM"),
    ('{"id": "s2", "tokens": ["a"], "labels": ["Z", 5]}', "unknown label 'Z'"),
    ('{"id": "s2", "tokens": ["a"], "labels": [5, "Z"]}', NOT_STRINGS),
], ids=["number-line", "array-line", "int-labels", "string-labels", "nested-labels",
        "int-text", "repeated-id", "empty-id", "dot-id", "dotdot-id", "slash-id",
        "absolute-id", "nul-id", "null-id", "bool-id", "list-id", "two-objects",
        "trailing-text", "object-split-across-lines", "byte-order-mark",
        "unknown-before-non-string", "non-string-before-unknown"])
def test_dataset_type_errors_name_the_line(tmp_path, capsys, line, match):
    path = write(tmp_path, GOOD_LINE + line + "\n")
    with pytest.raises(DatasetError, match=f"line 2: {match}"):
        load_dataset(path, LABELS)
    config = write(tmp_path, json.dumps({"label_names": LABELS, "train_path": str(path),
                                         "out_dir": str(tmp_path / "out")}), "config.json")
    assert main(["train", "--config", str(config)]) == 1
    assert "line 2: " in capsys.readouterr().err
    assert not (tmp_path / "out" / "train.log").exists()


def test_dataset_ids_may_be_numbers_or_dotted_names(tmp_path):
    path = write(tmp_path, "".join('{"id": %s, "tokens": ["a"], "labels": []}\n' % i
                                   for i in ('7', '"te0"', '"a.b"', '"..."')))
    assert [s.id for s in load_dataset(path, LABELS)] == ["7", "te0", "a.b", "..."]


def test_dataset_labels_checked_without_whitelist(tmp_path):
    # the string's characters are declared labels, but a string is no list
    path = write(tmp_path, '{"id": "s1", "tokens": ["a"], "labels": "AB"}\n')
    with pytest.raises(DatasetError, match=f"line 1: {NOT_STRINGS}"):
        load_dataset(path, LABELS)


MALFORMED = "malformed annotation"


@pytest.mark.parametrize("annotations,match", [
    ('[[5, "A", 1.0]]', "out of range"),
    ('[[0, "A", 2.0]]', "intensity"),
    ('[[0, "A", -0.5]]', r"intensity -0\.5 outside"),
    ('[["0", "A", 0.5]]', MALFORMED),
    ('[[0, "A", "0.5"]]', MALFORMED),
    ('[[1, "A"]]', MALFORMED),
    ('[[0, "A", 0.5, 1]]', MALFORMED),
    ('[[true, "A", 0.5]]', MALFORMED),
    ('[[0, "A", false]]', MALFORMED),
    ('[[0, "A", true]]', MALFORMED),
    ('[[0.0, "A", 0.5]]', MALFORMED),
    ('[[0, 1, 0.5]]', MALFORMED),
    ('[{"0": "A"}]', MALFORMED),
    ('{"0": "A"}', "must be a list"),
    ('[[0, "Z", 0.5]]', "unknown annotation label 'Z'"),
], ids=["index-out-of-range", "intensity-above-1", "intensity-below-0", "string-index",
        "string-intensity", "two-elements", "four-elements", "bool-index", "bool-intensity",
        "true-intensity", "float-index", "int-label", "object-entry", "object-annotations",
        "unknown-label"])
def test_dataset_annotation_validation(tmp_path, annotations, match):
    path = write(tmp_path, '{"id": "s1", "tokens": ["a", "b"], "labels": ["A"], '
                           f'"annotations": {annotations}}}\n')
    with pytest.raises(DatasetError, match=f"line 1: .*{match}"):
        load_dataset(path, LABELS)


# --- tensor container ---------------------------------------------------

def test_tensor_container_bit_exact_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {"a": rng.normal(size=(3, 4)),
               "b": rng.normal(size=(2,)).astype(np.float32)}
    path = tmp_path / "t.bin"
    save_tensors(path, tensors, {"note": 1}, "hgcn-test")
    meta, back = load_tensors(path)
    assert meta["format"] == "hgcn-test" and meta["note"] == 1
    for name, t in tensors.items():
        assert back[name].dtype == t.dtype
        assert np.array_equal(
            back[name].view(np.uint8), t.astype(t.dtype.newbyteorder("<")).view(np.uint8))


@pytest.mark.parametrize("dtype", [">f8", ">f4"])
def test_tensor_container_big_endian_roundtrip(tmp_path, dtype):
    # the payload is written little-endian, so the header must say so
    tensor = np.array([0.0, 1.5, -2.25e30, 3.0e-20], dtype=dtype)
    path = tmp_path / "t.bin"
    save_tensors(path, {"a": tensor}, {}, "hgcn-test")
    _, back = load_tensors(path)
    assert back["a"].dtype == tensor.dtype.newbyteorder("<")
    assert np.array_equal(back["a"], tensor)


@pytest.mark.parametrize("tensor", [
    np.ones((2, 3), dtype=np.complex128),
    np.array([["ab", "c"]]),
    np.array([1.0, "x"], dtype=object),
], ids=["complex", "unicode", "object"])
def test_tensor_container_rejects_non_float_tensors(tmp_path, tensor):
    path = tmp_path / "t.bin"
    save_tensors(path, {"w": np.ones(2), "a": tensor}, {}, "hgcn-test")
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: tensor 'a' has dtype")):
        load_tensors(path)


def test_tensor_container_truncation_detected(tmp_path):
    path = tmp_path / "t.bin"
    save_tensors(path, {"a": np.ones((2, 2))}, {}, "hgcn-test")
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(CheckpointError, match="truncated"):
        load_tensors(path)


def test_tensor_container_trailing_bytes_detected(tmp_path):
    path = tmp_path / "t.bin"
    save_tensors(path, {"a": np.ones((2, 2))}, {}, "hgcn-test")
    path.write_bytes(path.read_bytes() + b"\x00" * 4)
    with pytest.raises(CheckpointError, match="trailing"):
        load_tensors(path)


def _one_tensor(shape: str) -> bytes:
    return b'{"version": 1, "tensors": [{"name": "a", "shape": %s, "dtype": "<f8"}]}' % (
        shape.encode())


CORRUPT = "corrupt container header"


@pytest.mark.parametrize("header,message", [
    (b"\xff\xfenot json", CORRUPT), (b"[1, 2]", CORRUPT),
    (b'{"version": 1, "tensors": 5}', CORRUPT),
    (b'{"version": 1, "tensors": [{"name": "a", "shape": [1], "dtype": "foo"}]}', CORRUPT),
    (_one_tensor('["2"]'), CORRUPT), (_one_tensor("[2.5]"), CORRUPT),
    (_one_tensor("[true]"), CORRUPT), (_one_tensor("[-1]"), CORRUPT),
    # the element count, 2**64, wraps to 0 in int64 arithmetic
    (_one_tensor(f"[{2**62}, 4]"), "payload truncated for tensor 'a'"),
    # 8 + 16 bytes, the whole payload: the second block would replace the first
    (b'{"version": 1, "tensors": [{"name": "a", "shape": [1], "dtype": "<f8"}, '
     b'{"name": "a", "shape": [2], "dtype": "<f8"}]}', "tensor 'a' is named twice"),
    (b'{"version": 1, "tensors": [{"name": ["a"], "shape": [3], "dtype": "<f8"}]}', CORRUPT),
], ids=["not-utf8", "array", "int-tensors", "bad-dtype",
        "string-dim", "float-dim", "bool-dim", "negative-dim", "size-overflow",
        "repeated-name", "list-name"])
def test_tensor_container_corrupt_header(tmp_path, header, message):
    path = tmp_path / "t.bin"
    path.write_bytes(header + b"\n" + bytes(24))
    with pytest.raises(CheckpointError, match=f"{path}: {message}"):
        load_tensors(path)


def test_tensor_container_bad_version(tmp_path):
    path = tmp_path / "t.bin"
    path.write_bytes(b'{"format": "hgcn-test", "version": 99, "meta": {}, "tensors": []}\n')
    with pytest.raises(CheckpointError, match="version"):
        load_tensors(path)


# --- checkpoints --------------------------------------------------------

def make_model(seed=0):
    cfg = ModelConfig(num_labels=3, num_layers=2, hidden=6, input_dim=5, activation="relu")
    rng = np.random.default_rng(seed)
    params = ModelParams.init(cfg, rng)
    provider = TrainableLookup(8, cfg.input_dim, rng)
    return cfg, params, provider


VOCAB = Vocabulary(["a", "b", "c", "d"])  # 8 ids, the rows of make_model's table
LABEL_NAMES = ["A", "B", "C"]


def test_checkpoint_restores_bitwise_identical_forward(tmp_path):
    cfg, params, provider = make_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(params, cfg, path, VOCAB, LABEL_NAMES)
    params2, cfg2, vocab2, label_names, _ = load_checkpoint(path)
    assert cfg2 == cfg
    assert vocab2.to_dict() == VOCAB.to_dict()
    assert label_names == LABEL_NAMES
    ids = [0, 4, 5, 1]
    with Tape():
        before = forward([ids], provider, params, cfg)
    with Tape():
        after = forward([ids], provider, params2, cfg2)
    assert np.array_equal(before.probs, after.probs)
    assert np.array_equal(before.final_edges, after.final_edges)


def test_checkpoint_header_config_is_the_architecture(tmp_path):
    cfg, params, _ = make_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(params, cfg, path, VOCAB, LABEL_NAMES)
    meta, _ = load_tensors(path)
    assert meta["config"] == {"num_labels": 3, "num_layers": 2, "hidden": 6, "input_dim": 5,
                              "activation": "relu"}


@pytest.mark.parametrize("freeze", [False, True])
def test_checkpoint_restores_embedding_table(tmp_path, freeze):
    # only inference loads a checkpoint, so a trained or frozen table restores fixed
    cfg, params, _ = make_model()
    provider = TrainableLookup(8, cfg.input_dim, np.random.default_rng(3), freeze=freeze)
    path = tmp_path / "m.ckpt"
    save_checkpoint(params, cfg, path, VOCAB, LABEL_NAMES, provider=provider)
    lookup = load_checkpoint(path)[4]
    assert np.array_equal(lookup.table.value, provider.table.value)
    assert lookup.parameters() == []


@pytest.mark.parametrize("flag", [True, False, "false", 0, 1, None])
def test_checkpoint_ignores_an_older_freeze_flag(tmp_path, flag):
    # older checkpoints stored `embedding_frozen`; nothing reads it, whatever its value
    cfg, params, _ = make_model()
    provider = TrainableLookup(8, cfg.input_dim, np.random.default_rng(3))
    path = tmp_path / "m.ckpt"
    save_checkpoint(params, cfg, path, VOCAB, LABEL_NAMES, provider=provider)
    meta, tensors = load_tensors(path)
    assert "embedding_frozen" not in meta
    del meta["format"]
    save_tensors(path, tensors, {**meta, "embedding_frozen": flag}, "hgcn-checkpoint")
    lookup = load_checkpoint(path)[4]
    assert np.array_equal(lookup.table.value, provider.table.value)
    assert lookup.parameters() == []


def test_checkpoint_without_provider_has_no_lookup(tmp_path):
    cfg, params, _ = make_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(params, cfg, path, VOCAB, LABEL_NAMES)
    assert load_checkpoint(path)[4] is None


def test_checkpoint_missing_tensor_reported(tmp_path):
    cfg, params, _ = make_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(params, cfg, path, VOCAB, LABEL_NAMES)
    meta, tensors = load_tensors(path)
    del meta["format"], tensors["w_token_in"]
    save_tensors(path, tensors, meta, "hgcn-checkpoint")
    with pytest.raises(CheckpointError,
                       match=re.escape(f"{path}: checkpoint missing tensor 'w_token_in'")):
        load_checkpoint(path)


def test_checkpoint_rejects_wrong_format(tmp_path):
    path = tmp_path / "e.bin"
    save_embeddings(path, {"s1": np.ones((2, 3))})
    with pytest.raises(CheckpointError, match="not a model checkpoint"):
        load_checkpoint(path)


def test_embeddings_container_format(tmp_path):
    path = tmp_path / "e.bin"
    save_embeddings(path, {"s1": np.ones((2, 3)), "s2": np.zeros((4, 3))})
    meta, tensors = load_tensors(path)
    assert meta["format"] == "hgcn-embeddings"
    assert set(tensors) == {"s1", "s2"}


# --- synthetic corpus ---------------------------------------------------

def test_synth_deterministic_per_seed():
    a = generate_synthetic_corpus(3, 20, 10, seed=7)
    b = generate_synthetic_corpus(3, 20, 10, seed=7)
    c = generate_synthetic_corpus(3, 20, 10, seed=8)
    assert a == b
    assert a != c


def test_synth_triggers_exclusive_and_annotated():
    samples, label_names, trigger_map = generate_synthetic_corpus(4, 30, 50, seed=1)
    assert label_names == ["L1", "L2", "L3", "L4"]
    inverse = {tok: lab for lab, tok in trigger_map.items()}
    for s in samples:
        present = [inverse[t] for t in s.tokens if t in inverse]
        assert sorted(present) == sorted(s.labels)
        assert 1 <= len(s.labels) <= 3
        for idx, name, intensity in s.annotations:
            assert s.tokens[idx] == trigger_map[name]
            assert intensity == 1.0
        # each trigger appears exactly once
        for lab in s.labels:
            assert s.tokens.count(trigger_map[lab]) == 1


def test_synth_filler_count_bounds():
    samples, _, trigger_map = generate_synthetic_corpus(
        2, 20, 40, seed=3, min_fillers=5, max_fillers=9)
    triggers = set(trigger_map.values())
    for s in samples:
        fillers = [t for t in s.tokens if t not in triggers]
        assert 5 <= len(fillers) <= 9


def test_synth_cooccurrence_constraints():
    samples, _, _ = generate_synthetic_corpus(
        3, 20, 200, seed=0, always_together=[(0, 1)], never_together=[(0, 2)])
    for s in samples:
        assert ("L1" in s.labels) == ("L2" in s.labels)
        assert not ("L1" in s.labels and "L3" in s.labels)


def test_synth_unsatisfiable_constraints():
    with pytest.raises(ValueError):
        generate_synthetic_corpus(2, 20, 5, always_together=[(0, 1)],
                                  never_together=[(0, 1)])


# no constraint, a pair kept together, a pair kept apart, and both
CONSTRAINTS = [((), ()), ([(0, 1)], ()), ((), [(2, 0)]), ([(1, 3)], [(0, 1), (2, 4)])]


def ranked_label_sets(n):
    """Every 1-3-label set of n labels, in the order `synth._label_set` ranks them."""
    return [synth._label_set(n, rank) for rank in range(n + comb(n, 2) + comb(n, 3))]


@pytest.mark.parametrize("together,apart", CONSTRAINTS)
def test_synth_label_sets_match_the_enumeration(together, apart):
    for n in range(1, 13):
        if max(chain(*together, *apart), default=-1) >= n:
            continue
        assert ranked_label_sets(n) == label_sets_reference(n)
        # the constraints leave exactly the oracle's sets: each one is drawn, no other is
        want = label_sets_reference(n, together, apart)
        samples = generate_synthetic_corpus(n, n + 1, 12 * len(want), always_together=together,
                                            never_together=apart, min_fillers=0,
                                            max_fillers=0)[0]
        assert {tuple(int(name[1:]) - 1 for name in s.labels) for s in samples} == set(want)


def test_synth_label_set_order_at_paper_scale_label_counts():
    # AAPD's 54 labels: every rank
    assert ranked_label_sets(54) == label_sets_reference(54)
    # RCV1-V2's 103 labels: the first and the last rank of each set size
    first = 0
    for k in (1, 2, 3):
        sets = list(combinations(range(103), k))
        assert synth._label_set(103, first) == sets[0]
        assert synth._label_set(103, first + len(sets) - 1) == sets[-1]
        first += len(sets)


@pytest.mark.parametrize("together,apart", CONSTRAINTS)
def test_synth_corpus_matches_the_enumerated_draw(together, apart):
    # in sample order, so the ranking and the constraint filter must both keep the oracle's order
    for n in (6, 12):
        samples = generate_synthetic_corpus(n, 30, 200, seed=3, always_together=together,
                                            never_together=apart)[0]
        drawn = [tuple(int(name[1:]) - 1 for name in s.labels) for s in samples]
        assert drawn == label_set_draw_reference(n, 30, 200, 3, together, apart)


def test_synth_vocab_too_small():
    with pytest.raises(ValueError):
        generate_synthetic_corpus(3, 3, 5)


def test_synth_samples_load_back_through_dataset(tmp_path):
    samples, label_names, _ = generate_synthetic_corpus(3, 20, 10, seed=2)
    path = tmp_path / "synth.jsonl"
    save_dataset(samples, path)
    assert load_dataset(path, label_names) == samples


def test_write_text_replaces_longer_file(tmp_path):
    path = tmp_path / "out.txt"
    write_text(path, "a much longer first text\n")
    write_text(path, "é\n")
    assert path.read_bytes() == "é\n".encode("utf-8")


@pytest.mark.parametrize("old, new, cuts", [
    (b"a much longer first text\n", b"short\n", 1),
    (b"short\n", b"a much longer second text\n", 0),
    (b"same size\n", b"SAME SIZE\n", 0),
    (None, b"new file\n", 0),
    (b"non-empty", b"", 1),
], ids=["shorter", "longer", "same-length", "new", "empty"])
def test_write_bytes_cuts_only_a_longer_file(tmp_path, monkeypatch, old, new, cuts):
    calls = []
    real_ftruncate = os.ftruncate
    monkeypatch.setattr(os, "ftruncate", lambda fd, size: (calls.append(size),
                                                           real_ftruncate(fd, size)))
    path = tmp_path / "out.bin"
    if old is not None:
        path.write_bytes(old)
    write_bytes(path, new)
    assert path.read_bytes() == new
    assert calls == [len(new)] * cuts


@pytest.mark.parametrize("existing", [b"x" * 12000, None], ids=["over-longer", "new"])
def test_write_bytes_writes_every_byte_of_short_writes(tmp_path, monkeypatch, existing):
    # a descriptor write may take fewer bytes than it was given
    real_write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, data[:7]))
    payload = bytes(range(256)) * 40  # 10240 bytes
    path = tmp_path / "out.bin"
    if existing is not None:
        path.write_bytes(existing)
    write_bytes(path, payload)
    assert path.read_bytes() == payload
