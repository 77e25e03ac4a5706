import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panokit import (
    DEFAULT_TAXONOMY,
    LossWeights,
    ValidationError,
    deep_supervised_loss,
    dice_loss,
    dice_loss_grad,
    dynamic_lambda,
    focal_loss,
    lambda_counts,
)

from conftest import make_map


def test_focal_exact_one_hot_is_zero():
    pred = np.array([0.0, 1.0, 0.0], np.float64)
    assert focal_loss(pred, 1) == pytest.approx(0.0, abs=1e-9)


def test_focal_gamma_zero_is_scaled_bce():
    pred = np.array([0.3, 0.6], np.float64)
    target = 1
    got = focal_loss(pred, target, gamma=0.0, alpha_bal=0.5)
    bce = -math.log(0.6) - math.log(1.0 - 0.3)
    assert got == pytest.approx(0.5 * bce, abs=1e-12)


def test_focal_hand_value():
    pred = np.array([0.5], np.float64)
    got = focal_loss(pred, 0, gamma=2.0, alpha_bal=0.25)
    assert got == pytest.approx(0.25 * 0.25 * math.log(2.0), abs=1e-9)


def test_focal_no_target_sums_negatives_only():
    pred = np.array([0.5, 0.5], np.float64)
    got = focal_loss(pred, None, gamma=0.0, alpha_bal=0.25)
    assert got == pytest.approx(2 * 0.75 * math.log(2.0), abs=1e-12)


def test_focal_log_clamp_keeps_finite():
    pred = np.array([1.0, 0.0], np.float64)
    assert math.isfinite(focal_loss(pred, 1))


@pytest.mark.parametrize("bad", [np.nan, -0.1, 1.5])
def test_focal_rejects_probabilities_outside_the_unit_interval(bad):
    with pytest.raises(ValidationError, match=r"pred entries must lie in \[0, 1\]"):
        focal_loss([bad, 0.2], 1)


def test_dice_identical_binary_is_zero():
    g = np.zeros((4, 4), np.float64)
    g[:2] = 1.0
    assert dice_loss(g, g > 0.5) == pytest.approx(0.0, abs=1e-12)


def test_dice_disjoint_equal_area():
    a = np.zeros((4, 4), np.float64)
    a[0] = 1.0
    b = np.zeros((4, 4), np.float64)
    b[2] = 1.0
    got = dice_loss(a, b > 0.5)
    assert got == pytest.approx(1.0 - 1.0 / (8.0 + 1.0), abs=1e-12)


def test_dice_half_cover_hand_value():
    pred = np.full((4, 4), 0.5, np.float64)
    gt = np.zeros((4, 4), bool)
    gt[:2] = True
    # S = 8*0.5 = 4, T = 8 + 8 = 16: 1 - (8+1)/(16+1)
    assert dice_loss(pred, gt) == pytest.approx(1.0 - 9.0 / 17.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_dice_grad_matches_central_differences(seed):
    rng = np.random.default_rng(seed)
    pred = rng.uniform(0.05, 0.95, (8, 8))
    gt = rng.random((8, 8)) > 0.5
    grad = dice_loss_grad(pred, gt)
    step = 1e-5
    for _ in range(4):
        i, j = rng.integers(0, 8, 2)
        hi = pred.copy()
        hi[i, j] += step
        lo = pred.copy()
        lo[i, j] -= step
        numeric = (dice_loss(hi, gt) - dice_loss(lo, gt)) / (2 * step)
        assert grad[i, j] == pytest.approx(numeric, abs=1e-4)


def test_deep_supervision_hand_sum():
    per_layer = tuple((0.1, 0.2) for _ in range(6))
    got = deep_supervised_loss(per_layer, det_loss=0.3, weights=LossWeights())
    # 0.3 + 6 * (2*0.1 + 1*0.2)
    assert got == pytest.approx(2.7, abs=1e-12)


def test_deep_supervision_all_zero():
    per_layer = tuple((0.0, 0.0) for _ in range(6))
    assert deep_supervised_loss(per_layer, det_loss=0.0) == 0.0


def test_deep_supervision_stuff_variant_drops_det():
    per_layer = tuple((0.1, 0.2) for _ in range(6))
    got = deep_supervised_loss(per_layer)
    assert got == pytest.approx(2.4, abs=1e-12)


def test_deep_supervision_layer_count_enforced():
    with pytest.raises(ValidationError):
        deep_supervised_loss(((0.1, 0.2),), det_loss=0.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
@pytest.mark.parametrize("name", ["lambda_cls", "lambda_seg", "lambda_det"])
def test_loss_weights_must_be_finite_and_nonnegative(name, bad):
    with pytest.raises(ValidationError, match=f"{name} must be finite.*got {bad}"):
        LossWeights(**{name: bad})


def test_dynamic_lambda_cases():
    assert dynamic_lambda(10, 10) == (0.5, 0.5)
    assert dynamic_lambda(0, 7) == (0.0, 1.0)
    assert dynamic_lambda(300, 100) == (0.75, 0.25)
    with pytest.raises(ValidationError):
        dynamic_lambda(0, 0)


@pytest.mark.parametrize(
    "amounts", [(float("nan"), 1.0), (1.0, float("nan")), (float("inf"), 1.0), (-1, 3)]
)
def test_dynamic_lambda_rejects_non_finite_or_negative_amounts(amounts):
    with pytest.raises(ValidationError, match="amount must be finite and >= 0"):
        dynamic_lambda(*amounts)


def test_dynamic_lambda_of_amounts_whose_sum_overflows():
    assert dynamic_lambda(1e308, 1e308) == (0.5, 0.5)
    things, stuff = dynamic_lambda(1.5e308, 5e307)
    assert np.isfinite([things, stuff]).all()
    assert abs(things + stuff - 1.0) <= np.spacing(1.0)


def test_lambda_counts_pixels_and_segments():
    sem = np.zeros((4, 4), np.int32)
    ids = np.zeros((4, 4), np.int32)
    sem[:3], ids[:3] = 1, 1  # 12 thing pixels
    sem[3], ids[3] = 6, 2  # 4 stuff pixels
    pmap = make_map(sem, ids)
    assert lambda_counts(pmap, DEFAULT_TAXONOMY) == (12, 4)
    assert lambda_counts(pmap, DEFAULT_TAXONOMY, base="segments") == (1, 1)
