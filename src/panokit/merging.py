"""Post-processing strategies turning a mask stack into a panoptic map.

mask_wise_merge paints masks in descending confidence order and is the
primary strategy; pixel_wise_argmax (plain and probability-weighted) and
heuristic_merge are the baselines it is compared against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .scoring import ScoreParams, predicted_labels, stack_scores
from .types import (
    CategorySpec,
    MaskStack,
    PanopticMap,
    Segment,
    ValidationError,
    binarize,
    stuff_ids,
)


@dataclass(frozen=True)
class MergeParams:
    """Thresholds shared by the merging strategies.

    t_cnf      confidence floor; masks scoring below it are dropped
    t_keep     kept-fraction floor; masks whose still-visible area falls
               below this fraction of their binarized area are dropped
    min_area   pixel floor applied by the baseline strategies
    """

    t_cnf: float = 0.25
    t_keep: float = 0.6
    score: ScoreParams = field(default_factory=ScoreParams)
    merge_same_stuff: bool = False
    min_area: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.t_cnf <= 1.0:
            raise ValidationError(f"t_cnf must lie in [0, 1], got {self.t_cnf}")
        if not 0.0 <= self.t_keep <= 1.0:
            raise ValidationError(f"t_keep must lie in [0, 1], got {self.t_keep}")
        if self.min_area < 0:
            raise ValidationError(f"min_area must be >= 0, got {self.min_area}")


def _paint(
    stack: MaskStack,
    scores: np.ndarray,
    cats: np.ndarray,
    subset: Sequence[int],
    params: MergeParams,
    sem: np.ndarray,
    ids: np.ndarray,
    void: np.ndarray,
    segments: list[Segment],
) -> None:
    """Paint subset onto (sem, ids, void) in place by mask_wise_merge's rules,
    in descending score order; ties go to (category id, query index) ascending.
    Each painted mask appends a Segment with instance id len(segments) + 1."""
    order = sorted(
        subset, key=lambda i: (-scores[i], cats[i], stack.provenance[i].query_index)
    )
    for i in order:
        if scores[i] < params.t_cnf:
            continue
        cover = binarize(stack.masks[i])
        area = int(cover.sum())
        if area == 0:
            # no paintable pixels; also keeps the kept-fraction well-defined
            continue
        visible = cover & void
        visible_area = int(visible.sum())
        if visible_area == 0 or visible_area / area < params.t_keep:
            continue
        instance_id = len(segments) + 1
        sem[visible] = cats[i]
        ids[visible] = instance_id
        void[visible] = False
        segments.append(
            Segment(
                instance_id=instance_id,
                category_id=int(cats[i]),
                source_query=stack.provenance[i].query_index,
                score=float(scores[i]),
            )
        )


def _first_max(
    masks: np.ndarray, rows: Sequence[int], weights: Optional[np.ndarray] = None
) -> np.ndarray:
    """Per pixel, the position k in rows of the largest masks[rows[k]], or of
    masks[rows[k]] * weights[rows[k]] when weights are given; ties go to the
    lowest k, as numpy's argmax over axis 0 breaks them.

    Two sweeps over the rows, never building the (len(rows), H, W) stack: the
    first takes the per-pixel maximum, the second walks the rows from last to
    first and writes k wherever row k reaches it, so the lowest k lands last.
    A weighted value is a float32 row times a float64 scalar, the same float64
    product as casting the stack first.
    """

    def value(r: int) -> np.ndarray:
        return masks[r] if weights is None else masks[r] * weights[r]

    best = value(rows[0])
    if weights is None:
        best = best.copy()  # masks[r] is a read-only view
    for r in rows[1:]:
        np.maximum(best, value(r), out=best)
    winners = np.zeros(masks.shape[1:], np.intp)
    for k in range(len(rows) - 1, -1, -1):
        np.copyto(winners, k, where=value(rows[k]) == best)
    return winners


def mask_wise_merge(
    stack: MaskStack,
    taxonomy: Sequence[CategorySpec],
    params: Optional[MergeParams] = None,
) -> PanopticMap:
    """Paint masks in descending confidence order onto a void canvas.

    For each mask the visible region is its binarized footprint intersected
    with still-void pixels. A mask is skipped when its confidence is below
    t_cnf or when the visible fraction of its binarized area is below
    t_keep; otherwise its category and a fresh 1-based instance id are
    painted. Empty output is legal.
    """
    params = params or MergeParams()
    cats, _, confs = stack_scores(stack, taxonomy, params.score)
    sem = np.zeros((stack.height, stack.width), np.int32)
    ids = np.zeros((stack.height, stack.width), np.int32)
    void = np.ones((stack.height, stack.width), bool)
    segments: list[Segment] = []
    _paint(stack, confs, cats, range(stack.n), params, sem, ids, void, segments)
    out = PanopticMap(sem, ids, tuple(segments))
    if params.merge_same_stuff:
        out = merge_same_category_stuff(out, taxonomy)
    return out


def pixel_wise_argmax(
    stack: MaskStack,
    taxonomy: Sequence[CategorySpec],
    weighted: bool = False,
    min_area: int = 0,
    merge_stuff: bool = True,
) -> PanopticMap:
    """Assign every pixel to the mask with the largest value there.

    The weighted variant ranks pixels by class probability times mask value.
    Ties go to the lowest mask index. Segments smaller than min_area are
    voided. Same-category stuff segments are merged by default, matching the
    detector-style baseline this reproduces.
    """
    if stack.n == 0:
        raise ValidationError("pixel_wise_argmax needs at least one mask")
    cats, probs = predicted_labels(stack, taxonomy)
    winners = _first_max(stack.masks, range(stack.n), probs if weighted else None)
    areas = np.bincount(winners.ravel(), minlength=stack.n)
    id_lut = np.zeros(stack.n, np.int32)
    cat_lut = np.zeros(stack.n, np.int32)
    segments: list[Segment] = []
    for i in range(stack.n):
        if areas[i] == 0 or areas[i] < min_area:
            continue
        id_lut[i] = len(segments) + 1
        cat_lut[i] = cats[i]
        segments.append(
            Segment(
                instance_id=int(id_lut[i]),
                category_id=int(cats[i]),
                source_query=stack.provenance[i].query_index,
                score=float(probs[i]),
            )
        )
    ids = id_lut[winners]
    sem = cat_lut[winners]
    out = PanopticMap(sem, ids, tuple(segments))
    if merge_stuff:
        out = merge_same_category_stuff(out, taxonomy)
    return out


def heuristic_merge(
    stack: MaskStack,
    taxonomy: Sequence[CategorySpec],
    params: Optional[MergeParams] = None,
) -> PanopticMap:
    """Two-phase baseline that always prefers things.

    Phase 1 paints thing masks in descending max-class-probability order
    (confidence floor t_cnf, kept-fraction floor t_keep, as in
    mask_wise_merge with the quality exponent disabled). Phase 2 fills the
    remaining void pixels by argmax over the stuff masks; stuff segments
    below min_area are voided.
    """
    params = params or MergeParams()
    cats, probs = predicted_labels(stack, taxonomy)
    sem = np.zeros((stack.height, stack.width), np.int32)
    ids = np.zeros((stack.height, stack.width), np.int32)
    void = np.ones((stack.height, stack.width), bool)
    segments: list[Segment] = []
    thing_idx = [i for i, p in enumerate(stack.provenance) if p.is_thing]
    _paint(stack, probs, cats, thing_idx, params, sem, ids, void, segments)
    stuff_idx = [i for i, p in enumerate(stack.provenance) if not p.is_thing]
    if stuff_idx:
        winners = _first_max(stack.masks, stuff_idx)
        for pos, i in enumerate(stuff_idx):
            claim = void & (winners == pos)
            area = int(claim.sum())
            if area == 0 or area < params.min_area:
                continue
            instance_id = len(segments) + 1
            sem[claim] = cats[i]
            ids[claim] = instance_id
            segments.append(
                Segment(
                    instance_id=instance_id,
                    category_id=int(cats[i]),
                    source_query=stack.provenance[i].query_index,
                    score=float(probs[i]),
                )
            )
    out = PanopticMap(sem, ids, tuple(segments))
    if params.merge_same_stuff:
        out = merge_same_category_stuff(out, taxonomy)
    return out


def merge_same_category_stuff(
    pmap: PanopticMap, taxonomy: Sequence[CategorySpec]
) -> PanopticMap:
    """Collapse all stuff segments of one category into a single instance.

    The lowest instance id of each group survives and keeps its segment
    record; thing segments are untouched.
    """
    stuff = stuff_ids(taxonomy)
    groups: dict[int, list[Segment]] = {}
    for seg in pmap.segments:
        if seg.category_id in stuff:
            groups.setdefault(seg.category_id, []).append(seg)
    doomed: dict[int, int] = {}
    for segs in groups.values():
        segs.sort(key=lambda s: s.instance_id)
        canon = segs[0].instance_id
        for other in segs[1:]:
            doomed[other.instance_id] = canon
    if not doomed:
        return pmap
    lut = np.arange(int(pmap.ids.max()) + 1, dtype=np.int32)
    for old, new in doomed.items():
        lut[old] = new
    ids = lut[pmap.ids]
    segments = tuple(s for s in pmap.segments if s.instance_id not in doomed)
    return PanopticMap(pmap.sem, ids, segments)
