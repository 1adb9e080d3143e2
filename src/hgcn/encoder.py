"""Token-node feature providers.

A pluggable stand-in for a pretrained contextual encoder: either a
trainable embedding table or frozen per-sample vectors loaded from a
tensor container file. Sequence boundary markers are real token nodes.

A provider's `token_ids` turns a sample into row ids of its table, and
`embed` gathers a batch of id sequences as B * M rows of dim features,
M rows per sample, M the longest sequence. The rows past a sequence's
end read the PAD row, and `graph.propagate` makes them inert.
"""

from __future__ import annotations

from itertools import count, repeat

import numpy as np

from .autodiff import Node, constant, gather_rows, parameter

SEQ_START = 0
SEQ_END = 1
UNKNOWN = 2
PAD = 3
RESERVED = ["<s>", "</s>", "<unk>", "<pad>"]


class Vocabulary:
    """Dense token -> id map: the reserved ids 0..3, then each new token in first-seen order."""

    def __init__(self, tokens=()):
        # the content tokens alone, after the reserved ids: `tokenize` maps a reserved
        # spelling to UNKNOWN
        new = dict.fromkeys(tokens)
        for t in RESERVED:
            new.pop(t, None)
        self._content = dict(zip(new, count(len(RESERVED))))

    def __len__(self) -> int:
        return len(RESERVED) + len(self._content)

    def to_dict(self) -> dict[str, int]:
        """Every token's id, in id order."""
        return {t: i for i, t in enumerate(RESERVED)} | self._content

    @classmethod
    def from_dict(cls, mapping) -> "Vocabulary":
        """The vocabulary `to_dict` stored, rebuilt from its tokens in id order.

        A mapping the rebuild does not reproduce exactly is a ValueError.
        """
        if not (isinstance(mapping, dict) and all(type(i) is int for i in mapping.values())):
            raise ValueError("vocabulary must map each token to an integer id")
        vocab = cls(sorted(mapping, key=mapping.get))
        if vocab.to_dict() != mapping:
            raise ValueError("vocabulary is not the reserved tokens at ids 0..3, then dense ids")
        return vocab


def _truncated(tokens, max_len: int):
    """The content tokens that fit between the two markers, for max_len >= 3."""
    return tokens[: max_len - 2]


def token_rows(tokens, max_len: int) -> list[str]:
    """A sample's token nodes: <s>, the tokens truncated to max_len - 2, </s>."""
    return [RESERVED[SEQ_START], *_truncated(tokens, max_len), RESERVED[SEQ_END]]


def tokenize(tokens, vocab: Vocabulary, max_len: int) -> list[int]:
    """The ids of `token_rows`. The markers are placed by position only: a
    content token that is out of vocabulary or spelled like a reserved
    marker gets UNKNOWN, so data text never shares a marker's or PAD's row.
    """
    content = map(vocab._content.get, _truncated(tokens, max_len), repeat(UNKNOWN))
    return [SEQ_START, *content, SEQ_END]


def pad_ids(batch_ids) -> np.ndarray:
    """B x M ids, each sequence padded with PAD to the longest."""
    m = max(map(len, batch_ids))
    return np.array([[*ids, *[PAD] * (m - len(ids))] for ids in batch_ids], dtype=np.intp)


class TrainableLookup:
    """Embedding table of learned parameters, one row per vocabulary id.

    With freeze=True the table is excluded from training (frozen random
    embeddings, the degraded-encoder ablation arm). The table is drawn
    in float64 whatever `dtype`, then cast to it.
    """

    def __init__(self, vocab_size: int, dim: int, rng: np.random.Generator, freeze=False,
                 dtype=np.float64):
        scale = 1.0 / np.sqrt(dim)
        self.table = (constant if freeze else parameter)(
            rng.uniform(-scale, scale, size=(vocab_size, dim)).astype(dtype, copy=False))

    @classmethod
    def from_table(cls, table: np.ndarray) -> "TrainableLookup":
        """A fixed lookup over an existing table, such as one a checkpoint restores.

        Only inference loads a checkpoint, and it trains nothing, so the
        table is a constant.
        """
        lookup = cls.__new__(cls)
        lookup.table = constant(table)
        return lookup

    def token_ids(self, sample, vocab: Vocabulary, max_len: int) -> list[int]:
        return tokenize(sample.tokens, vocab, max_len)

    def embed(self, batch_ids, table: Node | None = None) -> Node:
        """`batch_ids`' rows of the table, or of `table`: the same rows in order, e.g. projected."""
        return gather_rows(self.table if table is None else table, pad_ids(batch_ids).ravel())

    def parameters(self) -> list[Node]:
        return [self.table] if self.table.requires_grad else []


class PrecomputedFile(TrainableLookup):
    """Frozen per-sample vectors keyed by sample id; never updated by training.

    The blocks are stacked into one constant table of `dtype` under
    len(RESERVED) zero rows, so PAD reads zeros; the stacking casts them,
    so the table is the one copy made. A sample's ids are its own block's
    rows, checked against its token nodes when it is tokenized; errors
    name the vectors by `source`, such as the file they came from.
    """

    def __init__(self, vectors: dict[str, np.ndarray], source: str = "the given vectors",
                 dtype=np.float64):
        if not vectors:
            raise ValueError("no precomputed vectors given")
        self.source = source
        first = next(iter(vectors.values()))
        self.rows: dict[str, range] = {}
        start = len(RESERVED)
        for sid, v in vectors.items():
            if v.ndim != 2 or v.shape[1:] != first.shape[1:]:
                raise ValueError(f"vector block for sample {sid!r} has shape {v.shape}")
            self.rows[sid] = range(start, start + len(v))
            start += len(v)
        reserved = np.zeros((len(RESERVED), first.shape[1]), dtype)
        self.table = constant(np.concatenate([reserved, *vectors.values()], dtype=dtype))

    def token_ids(self, sample, vocab: Vocabulary, max_len: int) -> list[int]:
        if sample.id not in self.rows:
            raise ValueError(f"{self.source} holds no vector block for sample {sample.id!r}")
        rows, m = self.rows[sample.id], len(_truncated(sample.tokens, max_len)) + 2
        if len(rows) != m:
            raise ValueError(f"sample {sample.id!r}: {len(rows)} vectors for {m} tokens")
        return list(rows)
