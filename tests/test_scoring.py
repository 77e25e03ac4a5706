import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from panokit import (
    DEFAULT_TAXONOMY,
    ScoreParams,
    ValidationError,
    confidence,
    segmentation_quality,
    stack_scores,
)
from panokit.scoring import predicted_labels
from panokit.synth import random_stack

from conftest import make_stack


def test_quality_all_ones():
    assert segmentation_quality(np.ones((3, 3), np.float32)) == 1.0


def test_quality_nothing_above_half():
    assert segmentation_quality(np.full((3, 3), 0.5, np.float32)) == 0.0


def test_quality_hand_average():
    m = np.array([[0.6, 0.8, 0.4]], np.float32)
    assert segmentation_quality(m) == pytest.approx(0.7, abs=1e-7)


def test_confidence_hand_value():
    # p=0.8, q=0.7 under defaults alpha=1 beta=2 gives 0.8 * 0.49
    m = np.array([[0.6, 0.8, 0.4]], np.float32)
    s = confidence(0.8, m)
    assert s == pytest.approx(0.392, abs=1e-6)


def test_confidence_beta_zero_reduces_to_p():
    m = np.full((4, 4), 0.1, np.float32)  # q = 0
    assert confidence(0.6, m, ScoreParams(alpha=1.0, beta=0.0)) == 0.6


def test_confidence_perfect_inputs_give_one():
    assert confidence(1.0, np.ones((2, 2), np.float32)) == 1.0


def test_confidence_zero_quality_zeroes_score():
    assert confidence(0.9, np.zeros((2, 2), np.float32)) == 0.0


def test_defaults_are_alpha1_beta2():
    params = ScoreParams()
    assert params.alpha == 1.0 and params.beta == 2.0


def test_probability_range_checked():
    with pytest.raises(ValidationError):
        confidence(1.5, np.ones((2, 2), np.float32))


def test_negative_exponent_rejected():
    with pytest.raises(ValidationError):
        ScoreParams(alpha=-1.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("name", ["alpha", "beta"])
def test_nonfinite_exponent_rejected(name, bad):
    with pytest.raises(ValidationError, match=f"{name} must be finite.*got {bad}"):
        ScoreParams(**{name: bad})


@given(
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 4.0),
    st.floats(0.0, 4.0),
)
def test_confidence_in_unit_interval(p, fill, alpha, beta):
    m = np.full((3, 3), fill, np.float32)
    s = confidence(p, m, ScoreParams(alpha, beta))
    assert 0.0 <= s <= 1.0


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_confidence_monotone_in_p(p_lo, p_hi):
    if p_lo > p_hi:
        p_lo, p_hi = p_hi, p_lo
    m = np.full((3, 3), 0.8, np.float32)
    assert confidence(p_lo, m) <= confidence(p_hi, m)


@given(st.floats(0.51, 1.0), st.floats(0.51, 1.0))
def test_confidence_monotone_in_quality(q_lo, q_hi):
    if q_lo > q_hi:
        q_lo, q_hi = q_hi, q_lo
    lo = confidence(0.7, np.full((3, 3), q_lo, np.float32))
    hi = confidence(0.7, np.full((3, 3), q_hi, np.float32))
    assert lo <= hi + 1e-12


def test_predicted_labels_thing_argmax_and_stuff_fixed():
    stack = make_stack(
        np.full((2, 4, 4), 0.9),
        [2, 7],
        [0.8, 0.6],
    )
    cats, probs = predicted_labels(stack, DEFAULT_TAXONOMY)
    assert list(cats) == [2, 7]
    assert probs == pytest.approx([0.8, 0.6])


def test_predicted_labels_tie_takes_lowest_column():
    from panokit import MaskStack, QueryProvenance

    masks = np.full((1, 4, 4), 0.9, np.float32)
    probs = np.full((1, len(DEFAULT_TAXONOMY)), 0.5, np.float32)
    stack = MaskStack(masks, probs, (QueryProvenance(0, True),))
    cats, _ = predicted_labels(stack, DEFAULT_TAXONOMY)
    assert cats[0] == DEFAULT_TAXONOMY[0].id


def _naive_labels(stack, taxonomy):
    columns = {c.id: i for i, c in enumerate(taxonomy)}
    cats, probs = [], []
    for row, prov in zip(stack.class_probs, stack.provenance):
        row = row.astype(np.float64)
        if prov.is_thing:
            col = int(np.argmax(row))
            cats.append(taxonomy[col].id)
        else:
            col = columns[prov.fixed_category]
            cats.append(prov.fixed_category)
        probs.append(row[col])
    return np.array(cats, np.int64), np.array(probs, np.float64)


def test_predicted_labels_match_naive_reference():
    # probabilities quantized to k/8 make argmax ties common; seeds 0, 5, …
    # give zero-mask stacks
    for seed in range(300):
        stack = random_stack(seed, 1 + seed % 3, 1 + seed % 4, seed % 5)
        got = predicted_labels(stack, DEFAULT_TAXONOMY)
        for value, expected in zip(got, _naive_labels(stack, DEFAULT_TAXONOMY)):
            assert value.dtype == expected.dtype
            np.testing.assert_array_equal(value, expected)


def test_stack_scores_combines_confidence():
    stack = make_stack(
        np.stack([np.full((4, 4), 0.9), np.full((4, 4), 0.3)]),
        [1, 6],
        [1.0, 0.8],
    )
    cats, probs, confs = stack_scores(stack, DEFAULT_TAXONOMY)
    assert list(cats) == [1, 6]
    assert confs[0] == pytest.approx(0.9 * 0.9)
    assert confs[1] == 0.0  # empty binarized mask gives q=0
