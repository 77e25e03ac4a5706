"""Panoptic quality (PQ/SQ/RQ) evaluation and per-query diagnostics.

Matching follows the standard benchmark semantics: segments of one category
match when their IoU exceeds 0.5 (such a match is unique), ground-truth
void pixels are excluded from IoU denominators, and unmatched predictions
mostly covering void are forgiven rather than counted as false positives.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import reduce
from typing import Sequence

from .types import (
    CategorySpec, PanopticMap, ValidationError, _check_categories, _pair_counts, thing_ids
)

_IdMap = dict[int, int]  # instance id -> its category, area or pixel count


class _Counts:
    """A dataclass of counters: merging adds them field by field into a new
    instance of the same class."""

    def merge(self, other: "_Counts") -> "_Counts":
        return type(self)(
            *(getattr(self, f.name) + getattr(other, f.name) for f in fields(self))
        )


def _fold(left: dict, right: dict, zero: _Counts) -> dict:
    """Merge two keyed counter dicts, keys in first-seen order. Every value
    is a new counter, so the result shares none with its inputs."""
    out: dict = {}
    for counters in (left, right):
        for key, counts in counters.items():
            out[key] = out.get(key, zero).merge(counts)
    return out


def _mean(values: Sequence[float]) -> float:
    """Summed left to right (builtin sum compensates from Python 3.12 on)."""
    total = 0.0
    for value in values:
        total += value
    return total / len(values) if values else 0.0


@dataclass
class CategoryCounts(_Counts):
    """Accumulated match statistics for one category."""

    iou_sum: float = 0.0
    tp: int = 0
    fp: int = 0
    fn: int = 0

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
        return PqReport(_fold(self.per_category, other.per_category, CategoryCounts()))

    def aggregates(self, taxonomy: Sequence[CategorySpec]) -> dict:
        """Every aggregate is a mean over the present categories of one
        group (all, things, stuff), summed in per_category order."""
        things = thing_ids(taxonomy)
        present = [(cat, c) for cat, c in self.per_category.items() if c.present]
        every = [c for _, c in present]
        thing = [c for cat, c in present if cat in things]
        stuff = [c for cat, c in present if cat not in things]
        return {
            "pq": _mean([c.pq for c in every]),
            "sq": _mean([c.sq for c in every]),
            "rq": _mean([c.rq for c in every]),
            "categories": len(every),
            "pq_things": _mean([c.pq for c in thing]),
            "things_categories": len(thing),
            "pq_stuff": _mean([c.pq for c in stuff]),
            "stuff_categories": len(stuff),
        }

    def category_rows(self, taxonomy: Sequence[CategorySpec]) -> list[dict]:
        """The pq-report/1 per_category rows of the present categories in
        ascending id order: id, name, kind, PQ, SQ, RQ, then the counters."""
        spec = {c.id: c for c in taxonomy}
        return [
            {
                "category_id": cat,
                "name": spec[cat].name,
                "is_thing": spec[cat].is_thing,
                "pq": counts.pq,
                "sq": counts.sq,
                "rq": counts.rq,
                **vars(counts),
            }
            for cat, counts in sorted(self.per_category.items())
            if counts.present
        ]


def _matches(
    pred: PanopticMap, gt: PanopticMap, taxonomy: Sequence[CategorySpec]
) -> tuple[_IdMap, _IdMap, _IdMap, _IdMap, dict[int, tuple[int, float]], _IdMap]:
    """(gt categories, pred categories, gt areas, pred areas, matches,
    pred-on-gt-void counts) of two maps whose categories taxonomy lists;
    all but the categories are read off one joint (gt id, pred id)
    histogram from types._pair_counts, areas keyed in ascending id order.
    matches maps each matched pred id to (gt id, IoU) under the one rule:
    same category and void-excluded IoU > 0.5."""
    if pred.sem.shape != gt.sem.shape:
        raise ValidationError(
            f"size mismatch: pred {pred.sem.shape} vs gt {gt.sem.shape}"
        )
    for pmap in (pred, gt):
        _check_categories(pmap, taxonomy)
    gt_cat = {s.instance_id: s.category_id for s in gt.segments}
    pred_cat = {s.instance_id: s.category_id for s in pred.segments}
    gids, pids, counts = _pair_counts(gt.ids, pred.ids)
    pairs = list(zip(gids.tolist(), pids.tolist(), counts.tolist()))
    gt_area: _IdMap = {}
    pred_area: _IdMap = {}
    void_overlap: _IdMap = {}
    for gid, pid, count in pairs:
        if gid:
            gt_area[gid] = gt_area.get(gid, 0) + count
        if pid:
            pred_area[pid] = pred_area.get(pid, 0) + count
            if not gid:
                void_overlap[pid] = count
    pred_area = dict(sorted(pred_area.items()))  # pairs list pred ids by gt id
    for side, areas, cats in (("gt", gt_area, gt_cat), ("pred", pred_area, pred_cat)):
        for inst in areas:
            if inst not in cats:
                raise ValidationError(
                    f"{side} instance id {inst} has no segment record"
                )
    matches: dict[int, tuple[int, float]] = {}
    for gid, pid, count in pairs:
        if not (gid and pid) or gt_cat[gid] != pred_cat[pid]:
            continue
        union = gt_area[gid] + pred_area[pid] - count - void_overlap.get(pid, 0)
        iou = count / union
        if iou > 0.5:
            matches[pid] = (gid, iou)
    return gt_cat, pred_cat, gt_area, pred_area, matches, void_overlap


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
    A segment whose category the taxonomy does not list is refused.
    """
    gt_cat, pred_cat, gt_area, pred_area, matches, void_overlap = _matches(
        pred, gt, taxonomy
    )
    report = PqReport()
    for gid, iou in matches.values():
        counts = report.per_category.setdefault(gt_cat[gid], CategoryCounts())
        counts.tp += 1
        counts.iou_sum += iou
    matched_gt = {gid for gid, _ in matches.values()}
    for gid in gt_area:
        if gid not in matched_gt:
            report.per_category.setdefault(gt_cat[gid], CategoryCounts()).fn += 1
    for pid, area in pred_area.items():
        if pid in matches:
            continue
        if void_forgive and void_overlap.get(pid, 0) / area > 0.5:
            continue
        report.per_category.setdefault(pred_cat[pid], CategoryCounts()).fp += 1
    return report


@dataclass
class QueryCounts(_Counts):
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


@dataclass
class QueryStats:
    """Per-query counters; queries that emitted nothing do not appear."""

    per_query: dict[int, QueryCounts] = field(default_factory=dict)

    def merge(self, other: "QueryStats") -> "QueryStats":
        return QueryStats(_fold(self.per_query, other.per_query, QueryCounts()))

    def query_rows(self) -> dict[str, dict]:
        """The query-stats/1 per_query rows keyed by query index (as text) in
        ascending order: the emission counts, P_t, then the hit counters."""
        # p_t sits after n_stuff: the repeated keys keep their first position
        return {
            str(q): {"n_things": c.n_things, "n_stuff": c.n_stuff, "p_t": c.p_t, **vars(c)}
            for q, c in sorted(self.per_query.items())
        }


def query_stats(
    pred: PanopticMap, gt: PanopticMap, taxonomy: Sequence[CategorySpec]
) -> QueryStats:
    """Thing-preference and precision diagnostics per source query.

    A predicted segment is a true positive when a same-category ground-truth
    segment overlaps it with IoU > 0.5, which is pq's match: same category,
    void-excluded IoU, unique by construction. Every segment's category
    must be in taxonomy, and every predicted one must carry source_query.
    """
    things = thing_ids(taxonomy)
    for seg in pred.segments:
        if seg.source_query is None:
            raise ValidationError(
                f"segment {seg.instance_id} is missing its source_query"
            )
    *_, matches, _ = _matches(pred, gt, taxonomy)
    stats = QueryStats()
    for seg in pred.segments:
        counts = stats.per_query.setdefault(seg.source_query, QueryCounts())
        hit = seg.instance_id in matches
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


def _decile_row(label: str, group: Sequence[QueryCounts]) -> dict:
    """One decile_table row: the group's query count and its merged stuff
    and things TP, TP+FP and precision (None without predictions)."""
    c = reduce(QueryCounts.merge, group, QueryCounts())
    stuff_pred = c.tp_stuff + c.fp_stuff
    things_pred = c.tp_things + c.fp_things
    return {
        "bin": label,
        "queries": len(group),
        "stuff_tp": c.tp_stuff,
        "stuff_pred": stuff_pred,
        "things_tp": c.tp_things,
        "things_pred": things_pred,
        "stuff_precision": c.tp_stuff / stuff_pred if stuff_pred else None,
        "things_precision": c.tp_things / things_pred if things_pred else None,
    }


def decile_table(stats: QueryStats) -> list[dict]:
    """Ten P_t bins ([0.0,0.1) ... [0.9,1.0]) plus a total row; each row
    reports query count and stuff/things TP, TP+FP, and precision."""
    bins: list[list[QueryCounts]] = [[] for _ in range(10)]
    for counts in stats.per_query.values():
        bins[min(9, int(counts.p_t * 10))].append(counts)
    rows = [
        _decile_row(f"[{k / 10:.1f}, {(k + 1) / 10:.1f}{']' if k == 9 else ')'}", bin_)
        for k, bin_ in enumerate(bins)
    ]
    return rows + [_decile_row("total", list(stats.per_query.values()))]


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
