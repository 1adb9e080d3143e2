import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgcn.metrics import (
    decode_threshold,
    decode_topk,
    evaluate,
    label_matrix,
)

from oracles import brute_force_threshold, brute_force_topk, jaccard_reference


def test_topk_basic():
    assert decode_topk([0.5, 0.3, 0.2], 2) == {0, 1}


def test_topk_k_at_least_n():
    assert decode_topk([0.5, 0.3, 0.2], 5) == {0, 1, 2}


def test_topk_tie_breaks_low_index():
    assert decode_topk([0.4, 0.4, 0.2], 1) == {0}


def test_topk_rejects_zero_k():
    with pytest.raises(ValueError):
        decode_topk([0.5, 0.5], 0)


def test_threshold_uniform_eleven_labels():
    probs = np.full(11, 1 / 11)
    assert decode_threshold(probs, 2 / 11) == set()


def test_threshold_below_min_selects_all():
    probs = [0.5, 0.3, 0.2]
    assert decode_threshold(probs, 0.19) == {0, 1, 2}


def test_threshold_rejects_out_of_range():
    with pytest.raises(ValueError):
        decode_threshold([0.5], 0.0)
    with pytest.raises(ValueError):
        decode_threshold([0.5], 1.5)


def test_decoders_match_brute_force_on_random_vectors():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        n = rng.integers(1, 21)
        raw = rng.uniform(0, 1, n)
        probs = raw / raw.sum()
        k = int(rng.integers(1, n + 2))
        assert decode_topk(probs, k) == brute_force_topk(probs, k)
        t = float(rng.uniform(0.01, 1.0))
        assert decode_threshold(probs, t) == brute_force_threshold(probs, t)


@given(st.lists(st.sampled_from([0.0, 0.125, 0.25, 0.5]), min_size=1, max_size=12),
       st.integers(min_value=1, max_value=15))
@settings(max_examples=200)
def test_topk_ties_go_to_the_lower_index(probs, k):
    assert decode_topk(probs, k) == brute_force_topk(probs, k)


@given(st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=12),
       st.floats(min_value=0.01, max_value=0.99), st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=200)
def test_threshold_antitone(probs, t1, t2):
    lo, hi = sorted([t1, t2])
    assert decode_threshold(probs, hi) <= decode_threshold(probs, lo)


@given(st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=12),
       st.integers(min_value=1, max_value=15))
@settings(max_examples=200)
def test_topk_cardinality(probs, k):
    assert len(decode_topk(probs, k)) == min(k, len(probs))


def test_jaccard_identical():
    assert evaluate([{0, 1}, {2}], [{0, 1}, {2}], 3).jaccard == 1.0


def test_jaccard_hand_value():
    assert evaluate([{1, 2}], [{0, 1}], 3).jaccard == pytest.approx(1 / 3, abs=1e-12)


def test_jaccard_disjoint():
    assert evaluate([{0}], [{1}], 2).jaccard == 0.0


def test_jaccard_both_empty_counts_as_agreement():
    assert evaluate([set()], [set()], 1).jaccard == 1.0


def test_jaccard_length_mismatch():
    with pytest.raises(ValueError, match="1 predictions vs 2 golds"):
        evaluate([{0}], [{0}, {1}], 2)


def test_jaccard_empty_evaluation_set():
    with pytest.raises(ValueError, match="empty evaluation set"):
        evaluate([], [], 3)


LABEL_SET = st.sets(st.integers(min_value=0, max_value=5), max_size=6)


@given(st.data())
@settings(max_examples=200)
def test_jaccard_matches_per_sample_sum_bitwise(data):
    preds = data.draw(st.lists(LABEL_SET, min_size=1, max_size=40))
    golds = data.draw(st.lists(LABEL_SET, min_size=len(preds), max_size=len(preds)))
    # the same float, summed sample by sample: eval.json must not change in its last bit
    assert evaluate(preds, golds, 6).jaccard == jaccard_reference(preds, golds)


def test_label_matrix_names_the_first_index_out_of_range():
    assert label_matrix([{0, 2}, set(), {1}], 3).tolist() == [
        [True, False, True], [False, False, False], [False, True, False]]
    with pytest.raises(ValueError, match="label index 7 out of range for n=3"):
        label_matrix([{1}, {7}, {-1}], 3)
    with pytest.raises(ValueError, match="label index -1 out of range for n=3"):
        label_matrix([{1}, {-1}, {7}], 3)


def test_f1_perfect():
    report = evaluate([{0, 1}, {1}], [{0, 1}, {1}], 2)
    assert report.micro_f1 == 1.0 and report.macro_f1 == 1.0


def test_f1_hand_value():
    # one label: TP=1, FP=1, FN=0 -> P=0.5, R=1, F1=2/3
    report = evaluate([{0}, {0}], [{0}, set()], 1)
    assert report.per_label[0]["precision"] == pytest.approx(0.5, abs=1e-12)
    assert report.per_label[0]["recall"] == 1.0
    assert report.micro_f1 == pytest.approx(2 / 3, abs=1e-12)
    assert report.macro_f1 == pytest.approx(2 / 3, abs=1e-12)


def test_f1_absent_label_zero_and_averaged():
    report = evaluate([{0}], [{0}], 2)
    assert report.per_label[1]["f1"] == 0.0
    assert report.macro_f1 == pytest.approx(0.5, abs=1e-12)


def test_micro_equals_macro_single_label():
    preds = [{0}, set(), {0}]
    golds = [{0}, {0}, set()]
    report = evaluate(preds, golds, 1)
    assert report.micro_f1 == pytest.approx(report.macro_f1, abs=1e-12)


def test_f1_rejects_out_of_range_label():
    with pytest.raises(ValueError):
        evaluate([{3}], [{0}], 2)


def test_evaluate_report_fields_in_unit_interval():
    rng = np.random.default_rng(1)
    preds = [set(np.flatnonzero(rng.integers(0, 2, 4))) for _ in range(30)]
    golds = [set(np.flatnonzero(rng.integers(0, 2, 4))) for _ in range(30)]
    report = evaluate(preds, golds, 4)
    for v in (report.micro_f1, report.macro_f1, report.jaccard):
        assert 0.0 <= v <= 1.0
    text = report.render()
    assert "micro_f1" in text and "jaccard" in text
