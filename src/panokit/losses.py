"""Classification/segmentation losses, deep-supervision aggregation, and the
dynamic thing/stuff weighting.

Forward values only (plus a test-oriented analytic dice gradient); training
loops and autodiff are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .types import (
    CategorySpec,
    PanopticMap,
    ValidationError,
    check_nonnegative,
    thing_ids,
)

_LOG_FLOOR = 1e-12
# focal terms of Lin et al. (arXiv 1708.02002); dice smoothing and the number
# of supervised decoder layers of DETR's
_FOCAL_GAMMA = 2.0
_FOCAL_ALPHA = 0.25
_DICE_EPS = 1.0
_DECODER_LAYERS = 6


@dataclass(frozen=True)
class LossWeights:
    """Weights of the classification, segmentation and detection terms."""

    lambda_cls: float = 2.0
    lambda_seg: float = 1.0
    lambda_det: float = 1.0

    def __post_init__(self) -> None:
        for name in ("lambda_cls", "lambda_seg", "lambda_det"):
            check_nonnegative(f"loss weight {name}", getattr(self, name))


def focal_loss(
    pred: np.ndarray,
    target: Optional[int],
    gamma: float = _FOCAL_GAMMA,
    alpha_bal: float = _FOCAL_ALPHA,
) -> float:
    """Sigmoid-style focal loss summed over classes.

    pred is a vector of per-class probabilities in [0, 1]; target is the
    index of the positive class, or None when every class is negative.
    Logs are clamped at 1e-12.
    """
    p = np.asarray(pred, np.float64)
    if p.ndim != 1:
        raise ValidationError(f"pred must be a vector, got shape {p.shape}")
    # NaN fails both comparisons; the in-range initial values reduce size 0
    if not (p.min(initial=1.0) >= 0.0 and p.max(initial=0.0) <= 1.0):
        raise ValidationError("pred entries must lie in [0, 1]")
    if target is not None and not 0 <= target < p.size:
        raise ValidationError(
            f"target index {target} outside [0, {p.size})"
        )
    log_p = np.log(np.maximum(p, _LOG_FLOOR))
    log_not_p = np.log(np.maximum(1.0 - p, _LOG_FLOOR))
    neg = -(1.0 - alpha_bal) * p**gamma * log_not_p
    total = float(neg.sum())
    if target is not None:
        pt = p[target]
        total -= float(neg[target])
        total += float(-alpha_bal * (1.0 - pt) ** gamma * np.log(max(pt, _LOG_FLOOR)))
    return total


def _dice_terms(pred, gt) -> tuple[np.ndarray, float, float]:
    """gt as float64, and the numerator and denominator of dice_loss."""
    p = np.asarray(pred, np.float64)
    g = np.asarray(gt, np.float64)
    if p.shape != g.shape:
        raise ValidationError(f"shape mismatch: pred {p.shape} vs gt {g.shape}")
    num = 2.0 * float((p * g).sum()) + _DICE_EPS
    den = float(p.sum()) + float(g.sum()) + _DICE_EPS
    return g, num, den


def dice_loss(pred: np.ndarray, gt: np.ndarray) -> float:
    """1 - (2*sum(pred*gt) + 1) / (sum(pred) + sum(gt) + 1)."""
    _, num, den = _dice_terms(pred, gt)
    return 1.0 - num / den


def dice_loss_grad(pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """Analytic d dice_loss / d pred, elementwise; provided for test use."""
    g, num, den = _dice_terms(pred, gt)
    return (num - 2.0 * g * den) / den**2


def deep_supervised_loss(
    per_layer: Sequence[tuple[float, float]],
    det_loss: Optional[float] = None,
    weights: LossWeights = LossWeights(),
) -> float:
    """Weighted sum over decoder layers of (cls, seg) losses, plus one
    detection term for the thing variant; det_loss=None is the stuff
    variant, which has no detection term."""
    if len(per_layer) != _DECODER_LAYERS:
        raise ValidationError(
            f"expected {_DECODER_LAYERS} layer pairs, got {len(per_layer)}"
        )
    total = 0.0 if det_loss is None else weights.lambda_det * det_loss
    for cls_loss, seg_loss in per_layer:
        total += weights.lambda_cls * cls_loss + weights.lambda_seg * seg_loss
    return total


def dynamic_lambda(thing_amount: float, stuff_amount: float) -> tuple[float, float]:
    """Proportional (lambda_things, lambda_stuff); the pair sums to 1."""
    check_nonnegative("thing amount", thing_amount)
    check_nonnegative("stuff amount", stuff_amount)
    total = thing_amount + stuff_amount
    if total == float("inf"):  # two finite amounts overflowed; halving is exact
        return dynamic_lambda(thing_amount / 2, stuff_amount / 2)
    if total == 0:
        raise ValidationError("cannot weight an image with no thing or stuff content")
    return thing_amount / total, stuff_amount / total


def lambda_counts(
    gt: PanopticMap, taxonomy: Sequence[CategorySpec], base: str = "pixels"
) -> tuple[int, int]:
    """Thing/stuff amounts used by dynamic_lambda.

    base="pixels" counts ground-truth pixels per super-category (the
    default); base="segments" counts segments instead.
    """
    things = thing_ids(taxonomy)
    if base == "segments":
        n_th = sum(1 for s in gt.segments if s.category_id in things)
        return n_th, len(gt.segments) - n_th
    if base != "pixels":
        raise ValidationError(f"unknown proportion base {base!r}")
    thing_px = 0
    stuff_px = 0
    cats, counts = np.unique(gt.sem, return_counts=True)
    for cat, count in zip(cats.tolist(), counts.tolist()):
        if cat == 0:
            continue
        if cat in things:
            thing_px += count
        else:
            stuff_px += count
    return thing_px, stuff_px
