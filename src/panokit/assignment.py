"""Bipartite matching between queries and ground-truth targets.

The solver side wraps scipy's Hungarian implementation; the matching cost
combines the focal, dice, and location terms. decoupled_assign applies the
policy that thing queries compete via matching while each stuff query is
bound to one fixed category.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .losses import (
    _DICE_EPS, _FOCAL_ALPHA, _FOCAL_GAMMA, _LOG_FLOOR, LossWeights, dice_loss, focal_loss
)
from .types import QueryProvenance, ValidationError, _extent, _freeze, binarize


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
    from scipy.optimize import linear_sum_assignment  # loaded on first use

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


def _lock_geometry(item) -> None:
    """Require a 2-d mask; lock a given box ((4,), finite, ordered) and
    center ((2,), finite) as float64."""
    object.__setattr__(item, "mask", np.asarray(item.mask))
    if item.mask.ndim != 2:
        raise ValidationError(f"mask must be 2-d, got shape {item.mask.shape}")
    for name, size in (("box", 4), ("center", 2)):
        value = getattr(item, name)
        if value is None:
            continue
        value = _freeze(np.asarray(value, np.float64))
        if value.shape != (size,):
            raise ValidationError(f"{name} must have shape ({size},), got {value.shape}")
        coords = value.tolist()  # on 2 or 4 entries, Python floats are cheaper
        if not all(map(math.isfinite, coords)):
            raise ValidationError(f"{name} must be finite")
        if name == "box" and (coords[2] < coords[0] or coords[3] < coords[1]):
            raise ValidationError("boxes must satisfy x1 >= x0 and y1 >= y0")
        object.__setattr__(item, name, value)


@dataclass(frozen=True)
class MatchQuery:
    """One query's predictions entering the matching cost, checked and
    locked when built (class_probs, box and center as float64).

    class_probs  (C,) probabilities in taxonomy order, each in [0, 1]
    mask         (H, W) soft mask
    box          (x0, y0, x1, y1), pixel units, right/bottom exclusive
    center       (y, x) mass center, pixel units
    """

    class_probs: np.ndarray
    mask: np.ndarray
    box: Optional[np.ndarray] = None
    center: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        probs = _freeze(np.asarray(self.class_probs, np.float64))
        if probs.ndim != 1:
            raise ValidationError(f"pred must be a vector, got shape {probs.shape}")
        # NaN fails both comparisons, as in MaskStack
        if not (probs.min(initial=1.0) >= 0.0 and probs.max(initial=0.0) <= 1.0):
            raise ValidationError("pred entries must lie in [0, 1]")
        object.__setattr__(self, "class_probs", probs)
        _lock_geometry(self)


@dataclass(frozen=True)
class MatchTarget:
    """One ground-truth thing entering the matching cost; category_index is
    a column into class_probs. Mask, box and center are checked as in
    MatchQuery."""

    category_index: int
    mask: np.ndarray
    box: Optional[np.ndarray] = None
    center: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        _lock_geometry(self)


def mass_center(mask: np.ndarray) -> np.ndarray:
    """Probability-weighted (y, x) center of a mask, from its row and column
    sums accumulated in float64; the total is the sum of the row sums.

    A bool mask is summed inside its _extent only, with absolute row and
    column indices. Every partial sum is then an integer below 2**53, exact
    in float64 in any order, and the pixels outside the window add exact
    zeros, so the center is bit-identical to that of the mask's float64
    copy. A soft mask is summed in place, with no float64 copy of the
    frame: a float32 row or total accumulated in another order than the
    copy's can move the center by ulps, within 1e-12 of the copy's."""
    m = np.asarray(mask)
    y0 = x0 = 0
    if m.dtype == np.bool_:
        rows, cols = _extent(m)
        m = m[rows, cols]
        y0, x0 = rows.start, cols.start
    row_mass = m.sum(axis=1, dtype=np.float64)
    col_mass = m.sum(axis=0, dtype=np.float64)
    total = float(row_mass.sum())
    if total <= 0:
        raise ValidationError("mass center of an all-zero mask is undefined")
    ys = np.arange(y0, y0 + m.shape[0], dtype=np.float64)
    xs = np.arange(x0, x0 + m.shape[1], dtype=np.float64)
    return np.array([(row_mass * ys).sum() / total, (col_mass * xs).sum() / total])


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
    seg_cost = dice_loss(query.mask, target.mask)
    height, width = query.mask.shape
    if location_mode == "box":
        if query.box is None or target.box is None:
            raise ValidationError("box location mode needs boxes on both sides")
        qb, tb = query.box, target.box
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
        qc, tc = query.center, target.center
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
    shape = queries[0].mask.shape
    for t in targets:
        if t.mask.shape != shape:
            raise ValidationError(
                f"shape mismatch: pred {shape} vs gt {t.mask.shape}"
            )
    for q in queries:
        if q.mask.shape != shape:
            raise ValidationError(
                f"shape mismatch: pred {q.mask.shape} vs gt {shape}"
            )
    height, width = shape
    seg_cost = _dice_costs(queries, targets)
    if location_mode == "box":
        if any(x.box is None for x in (*queries, *targets)):
            raise ValidationError("box location mode needs boxes on both sides")
        qb = np.stack([q.box for q in queries])
        tb = np.stack([t.box for t in targets])
        if normalize:
            scale = np.array([width, height, width, height], np.float64)
            qb, tb = qb / scale, tb / scale
        l1 = np.abs(_cxcywh(qb)[:, None] - _cxcywh(tb)[None]).sum(axis=-1)
        loc_cost = l1 + (1.0 - _giou_matrix(qb, tb))
    elif location_mode == "mass_center":
        if any(x.center is None for x in (*queries, *targets)):
            raise ValidationError("mass_center location mode needs centers on both sides")
        qc = np.stack([q.center for q in queries])
        tc = np.stack([t.center for t in targets])
        if normalize:
            scale = np.array([height, width], np.float64)
            qc, tc = qc / scale, tc / scale
        loc_cost = np.abs(qc[:, None] - tc[None]).sum(axis=-1)
    else:
        raise ValidationError(f"unknown location mode {location_mode!r}")
    # weights large enough to overflow make inf entries, which hungarian
    # refuses by name; numpy's overflow warning would only repeat that
    with np.errstate(over="ignore"):
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
    if len({q.class_probs.size for q in queries}) != 1:
        raise ValidationError(
            "every query must carry the same number of class probabilities"
        )
    p = np.stack([q.class_probs for q in queries])
    n_cls = p.shape[1]
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
    masks are never stacked: each target copies only its window of each.
    A bool target's intersections are one float64 reduction over that
    window stack, masked by the target; it sums in another order than
    dice_loss's full-frame product, so entries agree with it to 1e-12."""
    masks = [q.mask for q in queries]
    q_sums = np.array([m.sum(dtype=np.float64) for m in masks])
    inter = np.zeros((len(queries), len(targets)), np.float64)
    t_sums = np.zeros(len(targets), np.float64)
    for j, target in enumerate(targets):
        gt = target.mask
        rows, cols = _extent(gt)
        window = np.stack([m[rows, cols] for m in masks])
        gt = gt[rows, cols]
        if gt.dtype == np.bool_:
            inter[:, j] = np.add.reduce(window, axis=(1, 2), dtype=np.float64, where=gt)
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
    """(Q, T) giou of every pair of rows of (Q, 4) and (T, 4) ordered boxes."""
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
    provenance: Sequence[QueryProvenance],
    gt_stuff_present: frozenset[int] | set[int],
) -> DecoupledAssignment:
    """Thing queries, the rows of thing_costs in stack order, matched via
    hungarian; each stuff query of provenance is paired with its fixed
    category when present in the ground truth, else left unmatched. A stuff
    category bound to two queries is refused before the matching runs."""
    seen: set[int] = set()
    stuff_pairs, unmatched = [], []
    for prov in provenance:
        if prov.is_thing:
            continue
        if prov.fixed_category in seen:
            raise ValidationError(
                f"stuff category {prov.fixed_category} bound to more than one query"
            )
        seen.add(prov.fixed_category)
        if prov.fixed_category in gt_stuff_present:
            stuff_pairs.append((prov.query_index, prov.fixed_category))
        else:
            unmatched.append(prov.query_index)
    things = hungarian(thing_costs)
    return DecoupledAssignment(things, tuple(stuff_pairs), frozenset(unmatched))
