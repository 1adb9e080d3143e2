import csv
import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgcn import analysis
from hgcn.analysis import (
    _csv_field,
    attribution_mse,
    build_attribution,
    build_golden,
    label_cosine_matrix,
    pearson_matrix,
    render_heatmap,
)

from oracles import parse_heatmap_csv, render_heatmap_reference


def test_attribution_normalizes_to_one():
    att = build_attribution([[0.2, 0.2], [0.4, 0.2]])
    assert att.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(att, [[0.2, 0.2], [0.4, 0.2]], atol=1e-12)


def test_attribution_all_zero_falls_back_to_uniform():
    with pytest.warns(UserWarning):
        att = build_attribution(np.zeros((2, 3)))
    assert np.allclose(att, 1 / 6, atol=1e-15)


@pytest.mark.parametrize("k, m, n", [(1, 2, 1), (3, 5, 4), (4, 9, 7), (2, 130, 20), (2, 130, 103)])
def test_stack_matches_each_block_alone_bitwise(k, m, n):
    # 130 x 103 cells is past numpy's 8192-element buffer
    rng = np.random.default_rng(k * m * n)
    blocks = rng.random((k, m, n)) * 10.0 ** rng.uniform(-3, 3, (k, m, n))
    goldens = np.where(rng.random((k, m, n)) < 0.1, rng.random((k, m, n)), 0.0)
    attrs = build_attribution(blocks)
    mses = attribution_mse(attrs, goldens)
    assert attrs.shape == blocks.shape and mses.shape == (k,)
    for block, golden, attr, mse in zip(blocks, goldens, attrs, mses):
        assert attr.tobytes() == (block / np.sum(block)).tobytes()
        assert mse == np.mean((attr - golden) ** 2) == attribution_mse(attr, golden)


def test_stack_all_zero_block_warns_once_per_block():
    blocks = np.ones((4, 2, 3))
    blocks[[1, 3]] = 0.0
    with pytest.warns(UserWarning, match="all-zero edge block") as caught:
        attrs = build_attribution(blocks)
    assert len(caught) == 2
    assert np.array_equal(attrs[[1, 3]], np.full((2, 2, 3), 1 / 6))
    assert np.array_equal(attrs[[0, 2]], np.full((2, 2, 3), 1 / 6))


def test_golden_hand_value():
    # content token 0 maps to row 1; row 0 is the sequence-start marker, and the second
    # sample's token 2 would sit on row 3, the end marker's, so it is dropped
    golden = build_golden([[(0, "B", 1.0), (1, "A", 0.5)], [(2, "B", 0.25)]], m=4,
                          label_names=["A", "B"])
    expected = [[[0, 0], [0, 1.0], [0.5, 0], [0, 0]],
                [[0, 0], [0, 0], [0, 0], [0, 0]]]
    assert golden.shape == (2, 4, 2)
    assert np.array_equal(golden, expected)


def test_golden_drops_truncated_annotations():
    golden = build_golden([[(0, "A", 1.0), (9, "B", 1.0)], [(1, "B", 1.0)]], m=4,
                          label_names=["A", "B"])
    assert golden[0, 1, 0] == 1.0 and golden[1, 2, 1] == 1.0
    assert golden.sum() == 2.0


def test_mse_hand_values():
    assert attribution_mse([[1.0, 0.0]], [[0.0, 0.0]]) == pytest.approx(0.5, abs=1e-15)
    m, n = 5, 4
    uniform = np.full((m, n), 1.0 / (m * n))
    # uniform vs all-zero golden: every cell off by 1/(mn)
    assert attribution_mse(uniform, np.zeros((m, n))) == pytest.approx(
        1.0 / (m * n) ** 2, abs=1e-15)


def test_mse_shape_mismatch():
    with pytest.raises(ValueError):
        attribution_mse(np.zeros((2, 2)), np.zeros((2, 3)))


def test_pearson_perfect_positive_and_negative():
    # L0 and L1 always co-occur; L2 is their exact complement
    preds = [{0, 1}, {2}, {0, 1}, {2}]
    corr = pearson_matrix(preds, 3)
    assert corr[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert corr[0, 2] == pytest.approx(-1.0, abs=1e-12)
    assert np.allclose(corr, corr.T, atol=1e-12)
    assert np.allclose(np.diag(corr), 1.0)


def test_pearson_independent_labels_near_zero():
    rng = np.random.default_rng(0)
    preds = [set(np.flatnonzero(rng.integers(0, 2, 2))) for _ in range(4000)]
    corr = pearson_matrix(preds, 2)
    assert abs(corr[0, 1]) < 0.05


def test_pearson_constant_label_zeroed():
    corr = pearson_matrix([{0}, {0, 1}, {0}], 2)
    assert corr[0, 1] == 0.0
    assert corr[0, 0] == 1.0


@pytest.mark.parametrize("label", [2, -1])
def test_pearson_rejects_out_of_range_labels(label):
    # -1 must not wrap around to the last label
    with pytest.raises(ValueError, match=f"label index {label} out of range for n=2"):
        pearson_matrix([{0}, {label}], 2)


def test_pearson_hand_value():
    # x = (1,1,0,0), y = (1,0,1,0) -> r = 0; x vs (1,0,0,0): r = 1/sqrt(3)
    preds = [{0, 1, 2}, {0}, {1}, set()]
    corr = pearson_matrix(preds, 3)
    assert corr[0, 1] == pytest.approx(0.0, abs=1e-12)
    assert corr[0, 2] == pytest.approx(1 / np.sqrt(3), abs=1e-12)


def test_cosine_hand_values():
    x = np.array([[1.0, 0.0], [0.0, 2.0], [-3.0, 0.0], [1.0, 1.0]])
    cos = label_cosine_matrix(x)
    assert cos[0, 1] == pytest.approx(0.0, abs=1e-12)
    assert cos[0, 2] == pytest.approx(-1.0, abs=1e-12)
    assert cos[0, 3] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert np.allclose(np.diag(cos), 1.0)
    assert np.allclose(cos, cos.T, atol=1e-12)


def test_cosine_zero_row_zeroed():
    cos = label_cosine_matrix([[0.0, 0.0], [1.0, 1.0]])
    assert cos[0, 1] == 0.0
    assert cos[0, 0] == 1.0


def test_heatmap_csv_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(3)
    matrix = rng.normal(size=(3, 4))
    path = tmp_path / "heat"
    render_heatmap([matrix], [["r1", "r2", "r3"]], ["a", "b", "c", "d"], [path])
    values, rows, cols = parse_heatmap_csv(str(path) + ".csv")
    assert np.array_equal(values, matrix)  # repr round-trip is bit exact
    assert rows == ["r1", "r2", "r3"]
    assert cols == ["a", "b", "c", "d"]


@settings(max_examples=300)
@given(st.lists(st.text(), min_size=1, max_size=6))
def test_heatmap_csv_quotes_names_as_csv_writer_does(names):
    for name in names:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow([name, ""])
        assert _csv_field(name) == buf.getvalue()[:-3]


# names csv.writer quotes (',', '"', CR, LF) next to ones it writes bare (empty, spaces, non-ASCII)
_ODD_NAMES = ["a,b", 'say "hi"', "cr\rhere", "line\nbreak", "", "two words", " ", "é", "標籤",
              "plain", "a,b", "\r\n"]


def _names(prefix, k):
    return [_ODD_NAMES[i] if i < len(_ODD_NAMES) else f"{prefix}{i}" for i in range(k)]


_RNG = np.random.default_rng(11)


@pytest.mark.parametrize("matrix", [
    _RNG.normal(size=(7, 5)),
    np.zeros((4, 3)),
    np.array([[0.25]]),
    _RNG.normal(size=(1, 6)),
    _RNG.random(size=(6, 1)),
    _RNG.random(size=(130, 20)) / 1300,
], ids=["normal", "all-zero", "1x1", "1xn", "mx1", "long-doc"])
def test_heatmap_matches_per_cell_reference(tmp_path, matrix):
    rows, cols = _names("r", matrix.shape[0]), _names("c", matrix.shape[1])[::-1]
    render_heatmap([matrix], [rows], cols, [tmp_path / "fast"])
    render_heatmap_reference(matrix, rows, cols, tmp_path / "ref")
    for ext in (".csv", ".svg"):
        assert (tmp_path / f"fast{ext}").read_bytes() == (tmp_path / f"ref{ext}").read_bytes()


def test_heatmap_csv_reads_back_every_odd_name(tmp_path):
    # every odd name as a row and as a column; a bare CR would split its row in two
    rng = np.random.default_rng(7)
    rows = [_ODD_NAMES, ["\r", "cr\rhere"]]
    cols = _ODD_NAMES[::-1]
    matrices = [rng.normal(size=(len(names), len(cols))) for names in rows]
    paths = [tmp_path / "odd", tmp_path / "cr"]
    render_heatmap(matrices, rows, cols, paths)
    for matrix, names, path in zip(matrices, rows, paths):
        values, got_rows, got_cols = parse_heatmap_csv(str(path) + ".csv")
        assert got_rows == names and got_cols == cols
        assert values.tobytes() == matrix.tobytes()


def test_heatmap_svg_brightness_monotone(tmp_path):
    matrix = np.array([[0.0, 0.25], [0.5, 1.0]])
    path = tmp_path / "heat"
    render_heatmap([matrix], [["r1", "r2"]], ["a", "b"], [path])
    svg = (tmp_path / "heat.svg").read_text()
    cells = re.findall(r'fill="rgb\((\d+),\d+,\d+\)" data-value="([^"]+)"', svg)
    assert len(cells) == 4
    pairs = sorted((float(v), int(level)) for level, v in cells)
    values = [v for v, _ in pairs]
    levels = [l for _, l in pairs]
    assert values == [0.0, 0.25, 0.5, 1.0]
    assert levels == sorted(levels)
    assert levels[0] == 0 and levels[-1] == 255


def test_heatmap_rejects_mismatched_names(tmp_path):
    with pytest.raises(ValueError):
        render_heatmap([np.zeros((2, 2))], [["r1"]], ["a", "b"], [tmp_path / "h"])


@pytest.mark.parametrize("budget", [analysis.HEATMAP_BUDGET, 60, 1],
                         ids=["default", "small", "one"])
def test_heatmap_batch_matches_per_cell_reference(tmp_path, monkeypatch, budget):
    # 1 to 130 rows, an all-zero map, negative cells and the odd names shared by every map;
    # a small bound splits the batch into groups, and the 130-row map is larger than it alone
    monkeypatch.setattr(analysis, "HEATMAP_BUDGET", budget)
    rng = np.random.default_rng(5)
    matrices = [rng.random(size=(1, 4)), rng.random(size=(2, 4)) / 7, np.zeros((4, 4)),
                rng.normal(size=(12, 4)), rng.random(size=(130, 4)) / 520,
                -rng.random(size=(3, 4)), np.array([[0.0, 0.5, 1.0, 0.25]] * 5)]
    rows = [_names("r", m.shape[0]) for m in matrices]
    cols = _names("c", 4)[::-1]
    render_heatmap(matrices, rows, cols, [tmp_path / f"fast{k}" for k in range(len(matrices))])
    for k, (matrix, names) in enumerate(zip(matrices, rows)):
        render_heatmap_reference(matrix, names, cols, tmp_path / f"ref{k}")
        for ext in (".csv", ".svg"):
            fast, ref = tmp_path / f"fast{k}{ext}", tmp_path / f"ref{k}{ext}"
            assert fast.read_bytes() == ref.read_bytes()


def test_heatmap_empty_batch_writes_nothing(tmp_path):
    render_heatmap([], [], ["a", "b"], [])
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("matrices,rows,paths", [
    ([np.zeros((1, 2))] * 2, [["r"]], ["p", "q"]),
    ([np.zeros((1, 2))], [["r"]], ["p", "q"]),
    ([np.zeros((1, 2)), np.zeros((2, 2))], [["r"], ["r"]], ["p", "q"]),
    ([np.zeros((1, 3))], [["r"]], ["p"]),
    ([np.zeros((0, 2))], [[]], ["p"]),
], ids=["rows-short", "paths-long", "second-shape", "cols", "empty-map"])
def test_heatmap_batch_rejects_mismatches_before_writing(tmp_path, matrices, rows, paths):
    with pytest.raises(ValueError):
        render_heatmap(matrices, rows, ["a", "b"], [tmp_path / p for p in paths])
    assert not any(tmp_path.iterdir())
