"""Post-processing strategies turning a mask stack into a panoptic map.

mask_wise_merge paints masks in descending confidence order and is the
primary strategy; pixel_wise_argmax (plain and probability-weighted) and
heuristic_merge are the baselines it is compared against. Each builds one
_Canvas, an int32 ids raster (0 = void) with its segment records, by two
phases: paint (score order, t_cnf, t_keep) and fill (per-pixel first-max
labelling, min_area). mask_wise_merge paints, pixel_wise_argmax fills, and
heuristic_merge paints things, then fills the unpainted pixels with stuff.
The canvas's finish derives sem from ids and the records once, at the end.
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
    VOID,
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
        _check_min_area(self.min_area)


def _check_min_area(min_area: int) -> None:
    if min_area < 0:
        raise ValidationError(f"min_area must be >= 0, got {min_area}")


# Pixels per row strip of _first_max: the strip's float64 maximum and product
# (512 KiB each) stay in a core's L2 cache. A 256x256 frame is one strip.
_STRIP_PIXELS = 1 << 16


def _first_max(
    masks: np.ndarray, rows: Sequence[int], weights: Optional[np.ndarray] = None
) -> np.ndarray:
    """Per pixel, the position k in rows of the largest masks[rows[k]], or of
    masks[rows[k]] * weights[rows[k]] when weights are given; ties go to the
    lowest k, as numpy's argmax over axis 0 breaks them.

    The frame is visited in strips of whole rows, about _STRIP_PIXELS pixels
    each, and never as the (len(rows), H, W) stack. Per strip, one sweep
    takes the per-pixel maximum and a second walks the rows from last to
    first and writes k wherever row k reaches it, so the lowest k lands last.
    A weighted value is a float32 row times a float64 scalar, the same float64
    product as casting the stack first, formed per strip into one scratch
    buffer. The working set is a strip's maximum, product and tie mask,
    whatever len(rows) is.
    """
    h, w = masks.shape[1:]
    step = max(1, min(h, _STRIP_PIXELS // max(w, 1)))
    dtype = masks.dtype if weights is None else np.result_type(masks, weights)
    best = np.empty((step, w), dtype)
    scratch = None if weights is None else np.empty((step, w), dtype)
    tie = np.empty((step, w), bool)
    winners = np.zeros((h, w), np.intp)

    def value(r: int, strip: slice, n: int) -> np.ndarray:
        if scratch is None:
            return masks[r, strip]
        return np.multiply(masks[r, strip], weights[r], out=scratch[:n])

    for y0 in range(0, h, step):
        strip = slice(y0, min(y0 + step, h))
        n = strip.stop - y0
        top, eq, out = best[:n], tie[:n], winners[strip]
        np.copyto(top, value(rows[0], strip, n))
        for r in rows[1:]:
            np.maximum(top, value(r, strip, n), out=top)
        for k in range(len(rows) - 1, -1, -1):
            np.copyto(out, k, where=np.equal(value(rows[k], strip, n), top, out=eq))
    return winners


class _Canvas:
    """One stack's int32 ids raster (0 = void) and its segment records;
    instance ids are 1-based, in the order segments are made."""

    def __init__(self, stack: MaskStack, cats: np.ndarray, scores: np.ndarray) -> None:
        self.stack = stack
        self.cats = cats
        self.scores = scores
        self.ids = np.zeros((stack.height, stack.width), np.int32)
        self.segments: list[Segment] = []

    def _new_id(self, i: int) -> int:
        """Record mask i as the next Segment and return its instance id."""
        query = self.stack.provenance[i].query_index
        self.segments.append(
            Segment(len(self.segments) + 1, int(self.cats[i]), query, float(self.scores[i]))
        )
        return len(self.segments)

    def paint(self, rows: Sequence[int], params: MergeParams) -> None:
        """The paint phase: paint rows onto the unpainted pixels, in
        descending score order, ties by (category id, query index) ascending,
        skipping masks below t_cnf or whose visible fraction is below t_keep.
        Each mask is binarized, counted and painted inside its window only."""
        stack, scores, cats = self.stack, self.scores, self.cats
        order = sorted(
            rows, key=lambda i: (-scores[i], cats[i], stack.provenance[i].query_index)
        )
        for i in order:
            if scores[i] < params.t_cnf:
                continue
            window = stack.windows[i]
            cover = binarize(stack.masks[i][window])
            area = int(np.count_nonzero(cover))
            if area == 0:
                # no paintable pixels; also keeps the kept-fraction well-defined
                continue
            canvas = self.ids[window]  # a view: painting it paints ids
            visible = cover & (canvas == VOID)
            visible_area = int(np.count_nonzero(visible))
            if visible_area == 0 or visible_area / area < params.t_keep:
                continue
            canvas[visible] = self._new_id(i)

    def fill(
        self, rows: Sequence[int], weights: Optional[np.ndarray], min_area: int
    ) -> None:
        """The fill phase: label each unpainted pixel with its _first_max row.
        Rows claiming fewer than max(min_area, 1) pixels are voided; the rest
        get ids in row order. An empty rows claims nothing."""
        if not rows:
            return
        winners = _first_max(self.stack.masks, rows, weights)
        # painted pixels all have segments; with none, one gather labels every pixel
        unpainted = (self.ids == VOID) if self.segments else None
        if unpainted is not None:
            winners = winners[unpainted]
        areas = np.bincount(winners.ravel(), minlength=len(rows))
        id_of = np.zeros(len(rows), np.int32)
        for k in np.flatnonzero(areas >= max(min_area, 1)):
            id_of[k] = self._new_id(rows[k])
        if unpainted is None:
            self.ids = id_of[winners]
        else:
            self.ids[unpainted] = id_of[winners]

    def finish(
        self, taxonomy: Sequence[CategorySpec], merge_stuff: bool
    ) -> PanopticMap:
        """Derive sem from ids and the segment records, then merge
        same-category stuff when asked."""
        cat_of = np.array([VOID, *(s.category_id for s in self.segments)], np.int32)
        out = PanopticMap(cat_of[self.ids], self.ids, tuple(self.segments))
        if merge_stuff:
            out = merge_same_category_stuff(out, taxonomy)
        return out


def mask_wise_merge(
    stack: MaskStack,
    taxonomy: Sequence[CategorySpec],
    params: Optional[MergeParams] = None,
) -> PanopticMap:
    """Paint masks in descending confidence order onto a void canvas.

    For each mask the visible region is its binarized footprint intersected
    with still-void pixels. A mask is skipped when its confidence is below
    t_cnf or when the visible fraction of its binarized area is below
    t_keep; otherwise the region gets a fresh 1-based instance id. Empty
    output is legal.
    """
    params = params or MergeParams()
    cats, _, confs = stack_scores(stack, taxonomy, params.score)
    canvas = _Canvas(stack, cats, confs)
    canvas.paint(range(stack.n), params)
    return canvas.finish(taxonomy, params.merge_same_stuff)


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
    voided; a negative min_area is a ValidationError. A stack with no masks
    gives an all-void map. Same-category stuff segments are merged by
    default, matching the detector-style baseline this reproduces.
    """
    _check_min_area(min_area)
    cats, probs = predicted_labels(stack, taxonomy)
    canvas = _Canvas(stack, cats, probs)
    weights = probs if weighted else None
    canvas.fill(range(stack.n), weights, min_area)
    return canvas.finish(taxonomy, merge_stuff)


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
    canvas = _Canvas(stack, cats, probs)
    thing_idx = [i for i, p in enumerate(stack.provenance) if p.is_thing]
    canvas.paint(thing_idx, params)
    stuff_idx = [i for i, p in enumerate(stack.provenance) if not p.is_thing]
    canvas.fill(stuff_idx, None, params.min_area)
    return canvas.finish(taxonomy, params.merge_same_stuff)


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
    old = np.array(sorted(doomed), np.int32)
    new = np.array([doomed[i] for i in old.tolist()], np.int32)
    # Look up the doomed ids only, so memory follows the frame, not the ids.
    pos = np.minimum(np.searchsorted(old, pmap.ids), old.size - 1)
    ids = np.where(old[pos] == pmap.ids, new[pos], pmap.ids)
    segments = tuple(s for s in pmap.segments if s.instance_id not in doomed)
    return PanopticMap(pmap.sem, ids, segments)
