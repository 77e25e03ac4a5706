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

from .losses import (
    _DICE_EPS, _FOCAL_ALPHA, _FOCAL_GAMMA, _LOG_FLOOR, LossWeights, dice_loss, focal_loss
)
from .types import QueryProvenance, ValidationError, _extent, binarize


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
    """Probability-weighted (y, x) center of a mask.

    A bool mask is summed inside its _extent only, with absolute row and
    column indices. Every partial sum is then an integer below 2**53, exact
    in float64 in any order, and the pixels outside the window add exact
    zeros, so the center is bit-identical to that of the mask's float64
    copy. Other masks are summed as that float64 copy: a float32 total
    accumulated in another order can differ by an ulp."""
    m = np.asarray(mask)
    if m.dtype == np.bool_:
        rows, cols = _extent(m)
        m = m[rows, cols]
        y0, x0 = rows.start, cols.start
    else:
        m = np.asarray(m, np.float64)
        y0 = x0 = 0
    total = float(m.sum())
    if total <= 0:
        raise ValidationError("mass center of an all-zero mask is undefined")
    ys = np.arange(y0, y0 + m.shape[0], dtype=np.float64)
    xs = np.arange(x0, x0 + m.shape[1], dtype=np.float64)
    return np.array([(m.sum(axis=1) * ys).sum() / total, (m.sum(axis=0) * xs).sum() / total])


def bbox_of(mask: np.ndarray) -> np.ndarray:
    """Tight (x0, y0, x1, y1) box of the binarized mask, exclusive right/bottom;
    all zeros when nothing exceeds 0.5."""
    rows, cols = _extent(binarize(mask))
    return np.array([cols.start, rows.start, cols.stop, rows.stop], np.float64)


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
    """(len(queries), len(targets)) matrix of matching costs.

    Computed for all pairs at once; matching_cost is the scalar reference,
    equal up to summation order, and each input it rejects is rejected here
    with the same ValidationError. Every query must carry the same number
    of class probabilities. Entry (0, 0) is also computed by matching_cost,
    and a disagreement beyond 1e-9 raises ValidationError.
    """
    if not queries or not targets:
        return np.zeros((len(queries), len(targets)), np.float64)
    cls_cost = _class_costs(queries, targets)
    # checked in the order that names the first mismatched pair, row-major
    shape = np.shape(queries[0].mask)
    for t in targets:
        if np.shape(t.mask) != shape:
            raise ValidationError(
                f"shape mismatch: pred {shape} vs gt {np.shape(t.mask)}"
            )
    for q in queries:
        if np.shape(q.mask) != shape:
            raise ValidationError(
                f"shape mismatch: pred {np.shape(q.mask)} vs gt {shape}"
            )
    height, width = shape
    seg_cost = _dice_costs(queries, targets)
    if location_mode == "box":
        if any(x.box is None for x in (*queries, *targets)):
            raise ValidationError("box location mode needs boxes on both sides")
        qb = np.stack([np.asarray(q.box, np.float64) for q in queries])
        tb = np.stack([np.asarray(t.box, np.float64) for t in targets])
        if normalize:
            scale = np.array([width, height, width, height], np.float64)
            qb, tb = qb / scale, tb / scale
        l1 = np.abs(_cxcywh(qb)[:, None] - _cxcywh(tb)[None]).sum(axis=-1)
        loc_cost = l1 + (1.0 - _giou_matrix(qb, tb))
    elif location_mode == "mass_center":
        if any(x.center is None for x in (*queries, *targets)):
            raise ValidationError("mass_center location mode needs centers on both sides")
        qc = np.stack([np.asarray(q.center, np.float64) for q in queries])
        tc = np.stack([np.asarray(t.center, np.float64) for t in targets])
        if normalize:
            scale = np.array([height, width], np.float64)
            qc, tc = qc / scale, tc / scale
        loc_cost = np.abs(qc[:, None] - tc[None]).sum(axis=-1)
    else:
        raise ValidationError(f"unknown location mode {location_mode!r}")
    costs = (
        weights.lambda_cls * cls_cost
        + weights.lambda_seg * seg_cost
        + weights.lambda_det * loc_cost
    )
    # run-time canary: one entry recomputed by the scalar reference, at the
    # cost of one full-frame dice per matrix
    want = matching_cost(queries[0], targets[0], weights, location_mode, normalize)
    if not np.isclose(costs[0, 0], want, rtol=1e-9, atol=1e-9, equal_nan=True):
        raise ValidationError(
            f"batched cost {costs[0, 0]!r} disagrees with matching_cost {want!r}"
        )
    return costs


def _class_costs(
    queries: Sequence[MatchQuery], targets: Sequence[MatchTarget]
) -> np.ndarray:
    """(Q, T) focal_loss of each query's class probabilities at each
    target's category index: the negative terms of a row are summed once,
    then each column swaps its own class's negative term for the positive."""
    probs = [np.asarray(q.class_probs, np.float64) for q in queries]
    for p in probs:
        if p.ndim != 1:
            raise ValidationError(f"pred must be a vector, got shape {p.shape}")
    if len({p.size for p in probs}) != 1:
        raise ValidationError(
            "every query must carry the same number of class probabilities"
        )
    p = np.stack(probs)
    n_cls = p.shape[1]
    # per row, so that a NaN row does not hide a bad one, as in focal_loss
    if n_cls and ((p.min(axis=1) < 0.0) | (p.max(axis=1) > 1.0)).any():
        raise ValidationError("pred entries must lie in [0, 1]")
    for t in targets:
        if not 0 <= t.category_index < n_cls:
            raise ValidationError(
                f"target index {t.category_index} outside [0, {n_cls})"
            )
    cols = np.array([t.category_index for t in targets], np.intp)
    neg = -(1.0 - _FOCAL_ALPHA) * p**_FOCAL_GAMMA * np.log(
        np.maximum(1.0 - p, _LOG_FLOOR)
    )
    pt = p[:, cols]
    pos = -_FOCAL_ALPHA * (1.0 - pt) ** _FOCAL_GAMMA * np.log(np.maximum(pt, _LOG_FLOOR))
    return neg.sum(axis=1)[:, None] - neg[:, cols] + pos


def _dice_costs(
    queries: Sequence[MatchQuery], targets: Sequence[MatchTarget]
) -> np.ndarray:
    """(Q, T) dice_loss of each query mask against each target mask. The
    intersection with a target is summed inside the bounding window of its
    nonzero pixels only, since pixels outside it add exactly zero. The query
    masks are never stacked: each target copies only its window of each."""
    masks = [np.asarray(q.mask) for q in queries]
    q_sums = np.array([m.sum(dtype=np.float64) for m in masks])
    inter = np.zeros((len(queries), len(targets)), np.float64)
    t_sums = np.zeros(len(targets), np.float64)
    for j, target in enumerate(targets):
        gt = np.asarray(target.mask)
        rows, cols = _extent(gt)
        window = np.stack([m[rows, cols] for m in masks])
        gt = gt[rows, cols]
        if gt.dtype == np.bool_:
            inter[:, j] = window[:, gt].sum(axis=1, dtype=np.float64)
            t_sums[j] = np.count_nonzero(gt)
        else:
            gt = gt.astype(np.float64)
            inter[:, j] = (window * gt).sum(axis=(1, 2))
            t_sums[j] = gt.sum()
    dice = 1.0 - (2.0 * inter + _DICE_EPS) / (q_sums[:, None] + t_sums + _DICE_EPS)
    # dice_loss is NaN whenever the query holds a NaN or an infinity, even
    # outside every window, where this intersection never looks
    dice[~np.isfinite(q_sums)] = np.nan
    return dice


def _cxcywh(boxes: np.ndarray) -> np.ndarray:
    """(N, 4) boxes from (x0, y0, x1, y1) to (cx, cy, w, h)."""
    x0, y0, x1, y1 = boxes.T
    return np.stack([(x0 + x1) / 2, (y0 + y1) / 2, x1 - x0, y1 - y0], axis=1)


def _giou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(Q, T) giou of every pair of rows of (Q, 4) and (T, 4) boxes."""
    for boxes in (a, b):
        if ((boxes[:, 2] < boxes[:, 0]) | (boxes[:, 3] < boxes[:, 1])).any():
            raise ValidationError("boxes must satisfy x1 >= x0 and y1 >= y0")
    a, b = a[:, None], b[None]
    overlap = np.minimum(a[..., 2:], b[..., 2:]) - np.maximum(a[..., :2], b[..., :2])
    inter = np.prod(np.maximum(0.0, overlap), axis=-1)
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    union = area_a + area_b - inter
    iou = np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)
    hull = np.prod(
        np.maximum(a[..., 2:], b[..., 2:]) - np.minimum(a[..., :2], b[..., :2]), axis=-1
    )
    gap = np.divide(hull - union, hull, out=np.zeros_like(hull), where=hull > 0)
    return iou - gap


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
        if prov.fixed_category in seen:
            raise ValidationError(
                f"stuff category {prov.fixed_category} bound to more than one query"
            )
        seen.add(prov.fixed_category)
    things = hungarian(thing_costs)
    stuff_pairs = []
    unmatched = []
    for prov in stuff_queries:
        if prov.fixed_category in gt_stuff_present:
            stuff_pairs.append((prov.query_index, prov.fixed_category))
        else:
            unmatched.append(prov.query_index)
    return DecoupledAssignment(things, tuple(stuff_pairs), frozenset(unmatched))
