"""Dataset ingestion, binary persistence and the CLI's text output files.

Datasets are JSON-lines, one sample per line. Tensors (checkpoints and
precomputed embeddings) share a single container format: a one-line JSON
header describing named shapes, followed by raw little-endian float
payloads in header order, so round-trips are bit-exact.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .encoder import TrainableLookup, Vocabulary
from .model import ModelConfig, ModelParams

CHECKPOINT_FORMAT = "hgcn-checkpoint"
EMBEDDING_FORMAT = "hgcn-embeddings"
CONTAINER_VERSION = 1
EMBEDDING_TABLE = "embedding_table"


def write_bytes(path, data: bytes) -> None:
    """Write `data` to `path`, over an existing file's bytes, then cut a longer file to length.

    Every output file is written so. The file is not truncated to zero
    first: on ext4 a file truncated to zero and written again is flushed
    to disk as soon as it is closed, and with two heatmap files per
    sample that flush made `explain` into an existing output directory
    slow and erratic. A file no longer than `data` needs no cut.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if os.fstat(fd).st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def write_text(path, text: str) -> None:
    write_bytes(path, text.encode("utf-8"))


class DatasetError(ValueError):
    pass


class CheckpointError(ValueError):
    pass


@dataclass
class Sample:
    id: str
    tokens: list[str]
    labels: list[str]
    # (content-token index, label name, intensity in [0, 1])
    annotations: list[tuple[int, str, float]] = field(default_factory=list)

    def to_json(self) -> dict:
        obj = {"id": self.id, "tokens": self.tokens, "labels": self.labels}
        if self.annotations:
            obj["annotations"] = [[i, name, x] for i, name, x in self.annotations]
        return obj


# `type(x) is int` and not `isinstance`: a JSON true/false is no number
_NUMBER = (int, float)


def _all_strings(items: list) -> bool:
    """Whether every item is a str, checked in one C pass: `str.join` takes nothing else."""
    try:
        "".join(items)
    except TypeError:
        return False
    return True


def _label_error(labels, label_set) -> str:
    """What is wrong with `labels`, found entry by entry as a per-name check meets it."""
    if isinstance(labels, list):
        for name in labels:
            if not isinstance(name, str):
                break
            if name not in label_set:
                return f"unknown label {name!r}"
    return "'labels' must be a list of strings"


def _parse_sample(obj, label_set, lineno: int) -> Sample:
    if not isinstance(obj, dict):
        raise DatasetError(f"line {lineno}: expected a JSON object, got {obj!r}")
    if "id" not in obj:
        raise DatasetError(f"line {lineno}: missing 'id'")
    sample_id = obj["id"]
    if type(sample_id) is not str:
        if type(sample_id) not in _NUMBER:
            raise DatasetError(f"line {lineno}: 'id' must be a string or a number, "
                               f"got {sample_id!r}")
        sample_id = str(sample_id)
    # `explain` writes attributions/<id>.csv and .svg
    if sample_id in ("", ".", "..") or "/" in sample_id or "\0" in sample_id:
        raise DatasetError(f"line {lineno}: id {sample_id!r} is not a plain file name")
    if "tokens" in obj:
        tokens = obj["tokens"]
        if not (isinstance(tokens, list) and _all_strings(tokens)):
            raise DatasetError(f"line {lineno}: 'tokens' must be a list of strings")
    elif "text" in obj:
        if not isinstance(obj["text"], str):
            raise DatasetError(f"line {lineno}: 'text' must be a string")
        tokens = obj["text"].split()
    else:
        raise DatasetError(f"line {lineno}: need 'tokens' or 'text'")
    labels = obj.get("labels", [])
    if not (isinstance(labels, list) and _all_strings(labels) and label_set.issuperset(labels)):
        raise DatasetError(f"line {lineno}: {_label_error(labels, label_set)}")
    entries = obj.get("annotations", [])
    if not isinstance(entries, list):
        raise DatasetError(f"line {lineno}: 'annotations' must be a list")
    annotations = []
    for entry in entries:
        if not (type(entry) is list and len(entry) == 3 and type(entry[0]) is int
                and type(entry[1]) is str and type(entry[2]) in _NUMBER):
            raise DatasetError(f"line {lineno}: malformed annotation {entry!r}, expected "
                               f"[token index, label name, intensity]")
        idx, name, intensity = entry
        if not 0 <= idx < len(tokens):
            raise DatasetError(f"line {lineno}: annotation token index {idx} out of range")
        if name not in label_set:
            raise DatasetError(f"line {lineno}: unknown annotation label {name!r}")
        if not 0.0 <= intensity <= 1.0:
            raise DatasetError(f"line {lineno}: intensity {intensity} outside [0, 1]")
        annotations.append((idx, name, float(intensity)))
    # the lists are the decoded line's own, so the sample takes them uncopied
    return Sample(sample_id, tokens, labels, annotations)


def load_dataset(path, label_names) -> list[Sample]:
    """Parse a JSON-lines dataset; labels must be declared, ids unique plain file names.

    Each line is decoded alone: a line must hold exactly one JSON value,
    which one parse of the joined lines would not check.
    """
    label_set = set(label_names)
    decode = json.JSONDecoder().raw_decode
    samples = []
    first_line = {}  # sample id -> line it was first seen on
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj, end = decode(line)
            except json.JSONDecodeError:
                end = None
            if end != len(line):  # json.loads raises the line's own error
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as e:
                    raise DatasetError(f"line {lineno}: malformed JSON ({e.msg})") from e
            sample = _parse_sample(obj, label_set, lineno)
            if sample.id in first_line:
                raise DatasetError(f"line {lineno}: id {sample.id!r} repeats line "
                                   f"{first_line[sample.id]}")
            first_line[sample.id] = lineno
            samples.append(sample)
    return samples


def save_dataset(samples, path) -> None:
    write_text(path, "".join(json.dumps(s.to_json(), ensure_ascii=False) + "\n"
                             for s in samples))


# --- tensor container ---------------------------------------------------

def save_tensors(path, tensors: dict[str, np.ndarray], meta: dict, fmt: str) -> None:
    header = {
        "format": fmt,
        "version": CONTAINER_VERSION,
        "meta": meta,
        "tensors": [
            {"name": name, "shape": list(t.shape), "dtype": t.dtype.newbyteorder("<").str}
            for name, t in tensors.items()
        ],
    }
    write_bytes(path, b"".join([
        json.dumps(header, ensure_ascii=False).encode("utf-8") + b"\n",
        *(np.ascontiguousarray(t).astype(t.dtype.newbyteorder("<")).tobytes()
          for t in tensors.values())]))


def load_tensors(path) -> tuple[dict, dict[str, np.ndarray]]:
    with open(path, "rb") as f:
        header_line = f.readline()
        payload = f.read()
    try:
        header = json.loads(header_line.decode("utf-8"))
        if header.get("version") != CONTAINER_VERSION:
            raise CheckpointError(
                f"{path}: container version {header.get('version')!r}, "
                f"expected {CONTAINER_VERSION}")
        meta = {"format": header.get("format"), **header.get("meta", {})}
        specs = [(spec["name"], spec["shape"], np.dtype(spec["dtype"]))
                 for spec in header.get("tensors", [])]
        names = set()
        for name, shape, dtype in specs:  # `type(n) is int` rejects a JSON true
            if name in names:  # a later block would replace the first, read for nothing
                raise CheckpointError(f"{path}: tensor {name!r} is named twice")
            names.add(name)
            if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
                raise CheckpointError(f"{path}: corrupt container header: shape {shape!r}")
            if dtype.kind != "f":
                raise CheckpointError(f"{path}: tensor {name!r} has dtype {dtype.str}, "
                                      f"not a float type")
    except (UnicodeDecodeError, json.JSONDecodeError, AttributeError, KeyError,
            TypeError) as e:
        raise CheckpointError(f"{path}: corrupt container header") from e
    tensors = {}
    offset = 0
    for name, shape, dtype in specs:
        nbytes = math.prod(shape) * dtype.itemsize
        if offset + nbytes > len(payload):
            raise CheckpointError(f"{path}: payload truncated for tensor {name!r}")
        tensors[name] = np.frombuffer(
            payload[offset:offset + nbytes], dtype=dtype).reshape(shape).copy()
        offset += nbytes
    if offset != len(payload):
        raise CheckpointError(f"{path}: {len(payload) - offset} trailing payload bytes")
    return meta, tensors


# --- checkpoints --------------------------------------------------------

def save_checkpoint(params: ModelParams, cfg: ModelConfig, path, vocab: Vocabulary,
                    label_names, provider=None) -> None:
    """Write the weights, vocabulary, label names and, for a `TrainableLookup`
    provider, its table.

    Precomputed vectors (the `PrecomputedFile` subclass) are rebuilt
    from their own file, so nothing of them is stored.
    """
    meta = {"config": asdict(cfg), "vocab": vocab.to_dict(), "label_names": list(label_names)}
    tensors = {name: p.value
               for name, p in zip(cfg.weight_shapes(), params.parameters(), strict=True)}
    if type(provider) is TrainableLookup:
        tensors[EMBEDDING_TABLE] = provider.table.value
    save_tensors(path, tensors, meta, CHECKPOINT_FORMAT)


def load_checkpoint(path):
    """Returns (params, cfg, vocab, label_names, lookup_or_None).

    The lookup is a fixed `TrainableLookup` over the stored table: only
    inference loads a checkpoint, and it trains nothing, so an older
    header's `embedding_frozen` flag is not read.
    The stored tensors must be the weights `ModelConfig.weight_shapes`
    names, plus the table if any, each at its shape, and no other.
    """
    meta, tensors = load_tensors(path)
    if meta.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path}: not a model checkpoint")
    if not isinstance(meta.get("config"), dict):
        raise CheckpointError(f"{path}: checkpoint header has no config object")
    if type(meta["config"].get("detach_edges")) is bool:
        # stored before that knob was deleted; it never changed the forward pass
        del meta["config"]["detach_edges"]
    stored, expected = set(meta["config"]), {f.name for f in fields(ModelConfig)}
    if stored != expected:
        raise CheckpointError(
            f"{path}: checkpoint config keys do not match the model's: "
            f"unexpected {sorted(stored - expected)}, missing {sorted(expected - stored)}")
    try:
        cfg = ModelConfig(**meta["config"])
        vocab = Vocabulary.from_dict(meta.get("vocab"))
        weights = cfg.weight_shapes()
        table = {EMBEDDING_TABLE: (len(vocab), cfg.input_dim)}  # one row per vocabulary id
        shapes = weights | table if EMBEDDING_TABLE in tensors else weights
        for name in shapes | tensors:
            if name not in shapes:
                raise ValueError(f"unexpected tensor {name!r}")
            if name not in tensors:
                raise ValueError(f"checkpoint missing tensor {name!r}")
            if tensors[name].shape != shapes[name]:
                raise ValueError(f"tensor {name!r} has shape {tensors[name].shape}, "
                                 f"expected {shapes[name]}")
        params = ModelParams.from_values([tensors[name] for name in weights])
        label_names = meta.get("label_names")
        if not (isinstance(label_names, list) and all(isinstance(n, str) for n in label_names)):
            raise ValueError(f"label_names must be a list of strings, got {label_names!r}")
        lookup = (TrainableLookup.from_table(tensors[EMBEDDING_TABLE])
                  if EMBEDDING_TABLE in shapes else None)
    except ValueError as e:
        raise CheckpointError(f"{path}: {e}") from e
    return params, cfg, vocab, label_names, lookup


def save_embeddings(path, vectors: dict[str, np.ndarray]) -> None:
    save_tensors(path, vectors, {}, EMBEDDING_FORMAT)


def load_embeddings(path) -> dict[str, np.ndarray]:
    """The per-sample vector blocks that `save_embeddings` wrote, keyed by sample id."""
    meta, tensors = load_tensors(path)
    if meta.get("format") != EMBEDDING_FORMAT:
        raise ValueError(f"{path}: not an embedding container")
    return tensors
