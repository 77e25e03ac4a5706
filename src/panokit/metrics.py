"""Panoptic quality (PQ/SQ/RQ) evaluation and per-query diagnostics.

Matching follows the standard benchmark semantics: segments of one category
match when their IoU exceeds 0.5 (such a match is unique), ground-truth
void pixels are excluded from IoU denominators, and unmatched predictions
mostly covering void are forgiven rather than counted as false positives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .types import CategorySpec, PanopticMap, ValidationError, thing_ids


@dataclass
class CategoryCounts:
    """Accumulated match statistics for one category."""

    iou_sum: float = 0.0
    tp: int = 0
    fp: int = 0
    fn: int = 0

    def merge(self, other: "CategoryCounts") -> "CategoryCounts":
        return CategoryCounts(
            self.iou_sum + other.iou_sum,
            self.tp + other.tp,
            self.fp + other.fp,
            self.fn + other.fn,
        )

    @property
    def present(self) -> bool:
        return self.tp + self.fp + self.fn > 0

    @property
    def sq(self) -> float:
        return self.iou_sum / self.tp if self.tp else 0.0

    @property
    def rq(self) -> float:
        den = self.tp + 0.5 * self.fp + 0.5 * self.fn
        return self.tp / den if den else 0.0

    @property
    def pq(self) -> float:
        return self.sq * self.rq


@dataclass
class PqReport:
    """Per-category counts; aggregation is an associative merge, so
    per-image reports fold safely in parallel."""

    per_category: dict[int, CategoryCounts] = field(default_factory=dict)

    def merge(self, other: "PqReport") -> "PqReport":
        out = {cat: CategoryCounts(c.iou_sum, c.tp, c.fp, c.fn)
               for cat, c in self.per_category.items()}
        for cat, counts in other.per_category.items():
            out[cat] = out.get(cat, CategoryCounts()).merge(counts)
        return PqReport(out)

    def aggregates(self, taxonomy: Sequence[CategorySpec]) -> dict:
        things = thing_ids(taxonomy)
        overall = {"pq": 0.0, "sq": 0.0, "rq": 0.0, "categories": 0}
        split = {
            True: {"pq": 0.0, "categories": 0},
            False: {"pq": 0.0, "categories": 0},
        }
        for cat, counts in self.per_category.items():
            if not counts.present:
                continue
            overall["pq"] += counts.pq
            overall["sq"] += counts.sq
            overall["rq"] += counts.rq
            overall["categories"] += 1
            bucket = split[cat in things]
            bucket["pq"] += counts.pq
            bucket["categories"] += 1
        n = overall["categories"]
        if n:
            overall["pq"] /= n
            overall["sq"] /= n
            overall["rq"] /= n
        for bucket in split.values():
            if bucket["categories"]:
                bucket["pq"] /= bucket["categories"]
        return {
            "pq": overall["pq"],
            "sq": overall["sq"],
            "rq": overall["rq"],
            "categories": n,
            "pq_things": split[True]["pq"],
            "things_categories": split[True]["categories"],
            "pq_stuff": split[False]["pq"],
            "stuff_categories": split[False]["categories"],
        }


def _areas(ids: np.ndarray) -> dict[int, int]:
    uniq, counts = np.unique(ids, return_counts=True)
    return {int(i): int(c) for i, c in zip(uniq, counts) if i != 0}


def _overlaps(
    pred: PanopticMap, gt: PanopticMap
) -> tuple[dict[int, int], dict[int, int], dict[tuple[int, int], int], dict[int, int]]:
    """(gt areas, pred areas, pairwise intersections, pred-on-gt-void counts)."""
    keys = gt.ids.astype(np.uint64) << np.uint64(32)
    keys |= pred.ids.astype(np.uint64)
    uniq, counts = np.unique(keys, return_counts=True)
    gids = (uniq >> np.uint64(32)).astype(np.int64)
    pids = (uniq & np.uint64(0xFFFFFFFF)).astype(np.int64)
    inter: dict[tuple[int, int], int] = {}
    void_overlap: dict[int, int] = {}
    for gid, pid, count in zip(gids.tolist(), pids.tolist(), counts.tolist()):
        if gid == 0:
            if pid != 0:
                void_overlap[pid] = void_overlap.get(pid, 0) + count
        elif pid != 0:
            inter[(gid, pid)] = count
    return _areas(gt.ids), _areas(pred.ids), inter, void_overlap


def _matches(
    pred: PanopticMap, gt: PanopticMap
) -> tuple[
    dict[int, int],
    dict[int, int],
    list[tuple[int, int, float]],
    dict[int, int],
]:
    """All same-category candidate pairs with their void-excluded IoU."""
    if pred.sem.shape != gt.sem.shape:
        raise ValidationError(
            f"size mismatch: pred {pred.sem.shape} vs gt {gt.sem.shape}"
        )
    gt_cat = {s.instance_id: s.category_id for s in gt.segments}
    pred_cat = {s.instance_id: s.category_id for s in pred.segments}
    gt_area, pred_area, inter, void_overlap = _overlaps(pred, gt)
    for side, areas, cats in (("gt", gt_area, gt_cat), ("pred", pred_area, pred_cat)):
        for inst in areas:
            if inst not in cats:
                raise ValidationError(
                    f"{side} instance id {inst} has no segment record"
                )
    candidates = []
    for (gid, pid), count in inter.items():
        if gt_cat[gid] != pred_cat[pid]:
            continue
        union = gt_area[gid] + pred_area[pid] - count - void_overlap.get(pid, 0)
        iou = count / union
        if iou > 0.5:
            candidates.append((gid, pid, iou))
    return gt_area, pred_area, candidates, void_overlap


def pq(
    pred: PanopticMap,
    gt: PanopticMap,
    taxonomy: Sequence[CategorySpec],
    void_forgive: bool = True,
) -> PqReport:
    """Evaluate one image pair.

    A category enters the averages when it has any tp, fp, or fn. With
    void_forgive (the default), an unmatched prediction with more than half
    of its area on ground-truth void is not counted as a false positive.
    """
    gt_cat = {s.instance_id: s.category_id for s in gt.segments}
    pred_cat = {s.instance_id: s.category_id for s in pred.segments}
    gt_area, pred_area, candidates, void_overlap = _matches(pred, gt)
    report = PqReport()
    matched_gt: set[int] = set()
    matched_pred: set[int] = set()
    for gid, pid, iou in candidates:
        # IoU > 0.5 makes the match unique; anything else is a bug
        assert gid not in matched_gt and pid not in matched_pred
        counts = report.per_category.setdefault(gt_cat[gid], CategoryCounts())
        counts.tp += 1
        counts.iou_sum += iou
        matched_gt.add(gid)
        matched_pred.add(pid)
    for gid in gt_area:
        if gid not in matched_gt:
            report.per_category.setdefault(gt_cat[gid], CategoryCounts()).fn += 1
    for pid, area in pred_area.items():
        if pid in matched_pred:
            continue
        if void_forgive and void_overlap.get(pid, 0) / area > 0.5:
            continue
        report.per_category.setdefault(pred_cat[pid], CategoryCounts()).fp += 1
    return report


@dataclass
class QueryCounts:
    """Emission and precision counters for one query."""

    n_things: int = 0
    n_stuff: int = 0
    tp_things: int = 0
    fp_things: int = 0
    tp_stuff: int = 0
    fp_stuff: int = 0

    @property
    def p_t(self) -> float:
        return self.n_things / (self.n_things + self.n_stuff)

    def merge(self, other: "QueryCounts") -> "QueryCounts":
        return QueryCounts(
            self.n_things + other.n_things,
            self.n_stuff + other.n_stuff,
            self.tp_things + other.tp_things,
            self.fp_things + other.fp_things,
            self.tp_stuff + other.tp_stuff,
            self.fp_stuff + other.fp_stuff,
        )


@dataclass
class QueryStats:
    """Per-query counters; queries that emitted nothing do not appear."""

    per_query: dict[int, QueryCounts] = field(default_factory=dict)

    def merge(self, other: "QueryStats") -> "QueryStats":
        out = {q: QueryCounts(**vars(c)) for q, c in self.per_query.items()}
        for q, counts in other.per_query.items():
            out[q] = out.get(q, QueryCounts()).merge(counts)
        return QueryStats(out)


def query_stats(
    pred: PanopticMap, gt: PanopticMap, taxonomy: Sequence[CategorySpec]
) -> QueryStats:
    """Thing-preference and precision diagnostics per source query.

    A predicted segment is a true positive when a same-category ground-truth
    segment overlaps it with IoU > 0.5; matching is one-to-one greedy by
    descending IoU, and the IoU uses the same void-excluded denominator as
    pq. Every predicted segment must carry source_query.
    """
    things = thing_ids(taxonomy)
    for seg in pred.segments:
        if seg.source_query is None:
            raise ValidationError(
                f"segment {seg.instance_id} is missing its source_query"
            )
    _, _, candidates, _ = _matches(pred, gt)
    candidates.sort(key=lambda c: (-c[2], c[0], c[1]))
    matched_gt: set[int] = set()
    matched_pred: set[int] = set()
    for gid, pid, _ in candidates:
        if gid in matched_gt or pid in matched_pred:
            continue
        matched_gt.add(gid)
        matched_pred.add(pid)
    stats = QueryStats()
    for seg in pred.segments:
        counts = stats.per_query.setdefault(seg.source_query, QueryCounts())
        hit = seg.instance_id in matched_pred
        if seg.category_id in things:
            counts.n_things += 1
            if hit:
                counts.tp_things += 1
            else:
                counts.fp_things += 1
        else:
            counts.n_stuff += 1
            if hit:
                counts.tp_stuff += 1
            else:
                counts.fp_stuff += 1
    return stats


def decile_table(stats: QueryStats) -> list[dict]:
    """Ten P_t bins ([0.0,0.1) ... [0.9,1.0]) plus a total row; each row
    reports query count and stuff/things TP, TP+FP, and precision."""
    bins = [
        {
            "bin": f"[{k / 10:.1f}, {(k + 1) / 10:.1f}{']' if k == 9 else ')'}",
            "queries": 0,
            "stuff_tp": 0,
            "stuff_pred": 0,
            "things_tp": 0,
            "things_pred": 0,
        }
        for k in range(10)
    ]
    for counts in stats.per_query.values():
        row = bins[min(9, int(counts.p_t * 10))]
        row["queries"] += 1
        row["stuff_tp"] += counts.tp_stuff
        row["stuff_pred"] += counts.tp_stuff + counts.fp_stuff
        row["things_tp"] += counts.tp_things
        row["things_pred"] += counts.tp_things + counts.fp_things
    total = {
        "bin": "total",
        "queries": sum(r["queries"] for r in bins),
        "stuff_tp": sum(r["stuff_tp"] for r in bins),
        "stuff_pred": sum(r["stuff_pred"] for r in bins),
        "things_tp": sum(r["things_tp"] for r in bins),
        "things_pred": sum(r["things_pred"] for r in bins),
    }
    rows = bins + [total]
    for row in rows:
        row["stuff_precision"] = (
            row["stuff_tp"] / row["stuff_pred"] if row["stuff_pred"] else None
        )
        row["things_precision"] = (
            row["things_tp"] / row["things_pred"] if row["things_pred"] else None
        )
    return rows


def format_decile_table(rows: list[dict]) -> str:
    """Human-readable rendering of decile_table output."""
    def fmt(value) -> str:
        return "-" if value is None else f"{value:.3f}"

    lines = [
        f"{'P_t bin':<12} {'#query':>6} {'stuff TP':>9} {'stuff TP+FP':>12} "
        f"{'stuff P':>8} {'things TP':>10} {'things TP+FP':>13} {'things P':>9}"
    ]
    for row in rows:
        lines.append(
            f"{row['bin']:<12} {row['queries']:>6} {row['stuff_tp']:>9} "
            f"{row['stuff_pred']:>12} {fmt(row['stuff_precision']):>8} "
            f"{row['things_tp']:>10} {row['things_pred']:>13} "
            f"{fmt(row['things_precision']):>9}"
        )
    return "\n".join(lines)
