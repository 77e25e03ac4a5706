"""Bipartite matching between queries and ground-truth targets.

The solver side wraps scipy's Hungarian implementation; the matching cost
combines the focal, dice, and location terms. decoupled_assign applies the
policy that thing queries compete via matching while each stuff query is
bound to one fixed category.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .losses import LossWeights, dice_loss, focal_loss
from .types import QueryProvenance, ValidationError, binarize


@dataclass(frozen=True)
class Assignment:
    """pairs of (query index, target index); unmatched queries get no target."""

    pairs: tuple[tuple[int, int], ...]
    unmatched_queries: frozenset[int]

    def __post_init__(self) -> None:
        queries = [q for q, _ in self.pairs]
        targets = [t for _, t in self.pairs]
        if len(set(queries)) != len(queries):
            raise ValidationError("a query appears in more than one pair")
        if len(set(targets)) != len(targets):
            raise ValidationError("a target appears in more than one pair")
        if set(queries) & self.unmatched_queries:
            raise ValidationError("a query is both matched and unmatched")


def hungarian(costs: np.ndarray) -> Assignment:
    """Minimum-total-cost assignment covering every target (rows >= cols)."""
    c = np.asarray(costs, np.float64)
    if c.ndim != 2:
        raise ValidationError(f"cost matrix must be 2-d, got shape {c.shape}")
    rows, cols = c.shape
    if not np.isfinite(c).all():
        raise ValidationError("cost matrix contains non-finite entries")
    if rows < cols:
        raise ValidationError(
            f"need at least as many queries as targets, got {rows}x{cols}"
        )
    if cols == 0:
        return Assignment((), frozenset(range(rows)))
    row_idx, col_idx = linear_sum_assignment(c)
    pairs = tuple(sorted((int(q), int(t)) for q, t in zip(row_idx, col_idx)))
    matched = {q for q, _ in pairs}
    return Assignment(pairs, frozenset(range(rows)) - matched)


def assignment_cost(costs: np.ndarray, assignment: Assignment) -> float:
    """Total cost of an assignment under a cost matrix."""
    c = np.asarray(costs, np.float64)
    if not assignment.pairs:
        return 0.0
    qs = np.array([q for q, _ in assignment.pairs])
    ts = np.array([t for _, t in assignment.pairs])
    return float(c[qs, ts].sum())


@dataclass(frozen=True)
class MatchQuery:
    """One query's predictions entering the matching cost.

    class_probs  (C,) probabilities in taxonomy order
    mask         (H, W) soft mask
    box          (x0, y0, x1, y1), pixel units, right/bottom exclusive
    center       (y, x) mass center, pixel units
    """

    class_probs: np.ndarray
    mask: np.ndarray
    box: Optional[np.ndarray] = None
    center: Optional[np.ndarray] = None


@dataclass(frozen=True)
class MatchTarget:
    """One ground-truth thing entering the matching cost; category_index is
    a column into class_probs."""

    category_index: int
    mask: np.ndarray
    box: Optional[np.ndarray] = None
    center: Optional[np.ndarray] = None


def mass_center(mask: np.ndarray) -> np.ndarray:
    """Probability-weighted (y, x) center of a mask."""
    m = np.asarray(mask, np.float64)
    total = m.sum()
    if total <= 0:
        raise ValidationError("mass center of an all-zero mask is undefined")
    ys = np.arange(m.shape[0], dtype=np.float64)
    xs = np.arange(m.shape[1], dtype=np.float64)
    return np.array([(m.sum(axis=1) * ys).sum() / total, (m.sum(axis=0) * xs).sum() / total])


def bbox_of(mask: np.ndarray) -> np.ndarray:
    """Tight (x0, y0, x1, y1) box of the binarized mask, exclusive right/bottom;
    all zeros when nothing exceeds 0.5."""
    ys, xs = np.nonzero(binarize(mask))
    if ys.size == 0:
        return np.zeros(4, np.float64)
    return np.array(
        [xs.min(), ys.min(), xs.max() + 1, ys.max() + 1], np.float64
    )


def giou(box_a: np.ndarray, box_b: np.ndarray) -> float:
    """Generalized IoU of two (x0, y0, x1, y1) boxes, in [-1, 1]."""
    ax0, ay0, ax1, ay1 = (float(v) for v in box_a)
    bx0, by0, bx1, by1 = (float(v) for v in box_b)
    if ax1 < ax0 or ay1 < ay0 or bx1 < bx0 or by1 < by0:
        raise ValidationError("boxes must satisfy x1 >= x0 and y1 >= y0")
    inter = max(0.0, min(ax1, bx1) - max(ax0, bx0)) * max(
        0.0, min(ay1, by1) - max(ay0, by0)
    )
    area_a = (ax1 - ax0) * (ay1 - ay0)
    area_b = (bx1 - bx0) * (by1 - by0)
    union = area_a + area_b - inter
    iou = inter / union if union > 0 else 0.0
    hull = (max(ax1, bx1) - min(ax0, bx0)) * (max(ay1, by1) - min(ay0, by0))
    if hull <= 0:
        return iou
    return iou - (hull - union) / hull


def matching_cost(
    query: MatchQuery,
    target: MatchTarget,
    weights: LossWeights = LossWeights(),
    location_mode: str = "box",
    normalize: bool = True,
) -> float:
    """lambda_cls*focal + lambda_seg*dice + lambda_det*location.

    Box mode: L1 over (cx, cy, w, h) plus (1 - GIoU). Mass-center mode: L1
    between (y, x) centers. With normalize=True coordinates are divided by
    the image extent taken from the query mask.
    """
    cls_cost = focal_loss(query.class_probs, target.category_index)
    seg_cost = dice_loss(query.mask, np.asarray(target.mask, np.float64))
    height, width = np.asarray(query.mask).shape
    if location_mode == "box":
        if query.box is None or target.box is None:
            raise ValidationError("box location mode needs boxes on both sides")
        qb = np.asarray(query.box, np.float64)
        tb = np.asarray(target.box, np.float64)
        if normalize:
            scale = np.array([width, height, width, height], np.float64)
            qb, tb = qb / scale, tb / scale
        q_cxcywh = np.array(
            [(qb[0] + qb[2]) / 2, (qb[1] + qb[3]) / 2, qb[2] - qb[0], qb[3] - qb[1]]
        )
        t_cxcywh = np.array(
            [(tb[0] + tb[2]) / 2, (tb[1] + tb[3]) / 2, tb[2] - tb[0], tb[3] - tb[1]]
        )
        loc_cost = float(np.abs(q_cxcywh - t_cxcywh).sum()) + (1.0 - giou(qb, tb))
    elif location_mode == "mass_center":
        if query.center is None or target.center is None:
            raise ValidationError("mass_center location mode needs centers on both sides")
        qc = np.asarray(query.center, np.float64)
        tc = np.asarray(target.center, np.float64)
        if normalize:
            scale = np.array([height, width], np.float64)
            qc, tc = qc / scale, tc / scale
        loc_cost = float(np.abs(qc - tc).sum())
    else:
        raise ValidationError(f"unknown location mode {location_mode!r}")
    return (
        weights.lambda_cls * cls_cost
        + weights.lambda_seg * seg_cost
        + weights.lambda_det * loc_cost
    )


def build_cost_matrix(
    queries: Sequence[MatchQuery],
    targets: Sequence[MatchTarget],
    weights: LossWeights = LossWeights(),
    location_mode: str = "box",
    normalize: bool = True,
) -> np.ndarray:
    """(len(queries), len(targets)) matrix of matching costs."""
    out = np.zeros((len(queries), len(targets)), np.float64)
    for i, query in enumerate(queries):
        for j, target in enumerate(targets):
            out[i, j] = matching_cost(query, target, weights, location_mode, normalize)
    return out


@dataclass(frozen=True)
class DecoupledAssignment:
    """Thing side solved by matching; stuff side bound by fixed category."""

    things: Assignment
    stuff_pairs: tuple[tuple[int, int], ...]  # (query index, category id)
    unmatched_stuff: frozenset[int]


def decoupled_assign(
    thing_costs: np.ndarray,
    stuff_queries: Sequence[QueryProvenance],
    gt_stuff_present: frozenset[int] | set[int],
) -> DecoupledAssignment:
    """Thing queries matched via hungarian over thing_costs; stuff query i is
    paired with its fixed category when present in the ground truth, else
    left unmatched. Duplicate stuff categories are rejected."""
    seen: set[int] = set()
    for prov in stuff_queries:
        if prov.is_thing:
            raise ValidationError(
                f"query {prov.query_index} is a thing query on the stuff side"
            )
        if prov.fixed_category is None:
            raise ValidationError(
                f"stuff query {prov.query_index} is missing its fixed_category"
            )
        if prov.fixed_category in seen:
            raise ValidationError(
                f"stuff category {prov.fixed_category} bound to more than one query"
            )
        seen.add(prov.fixed_category)
    c = np.asarray(thing_costs, np.float64)
    if c.ndim != 2:
        raise ValidationError(f"cost matrix must be 2-d, got shape {c.shape}")
    if c.shape[1] == 0:
        things = Assignment((), frozenset(range(c.shape[0])))
    else:
        things = hungarian(c)
    stuff_pairs = []
    unmatched = []
    for prov in stuff_queries:
        if prov.fixed_category in gt_stuff_present:
            stuff_pairs.append((prov.query_index, prov.fixed_category))
        else:
            unmatched.append(prov.query_index)
    return DecoupledAssignment(things, tuple(stuff_pairs), frozenset(unmatched))
