"""Output checks, run after the timed region.

Each check returns None when the output is right, or a message saying what
is wrong. A check never raises: a wrong or unreadable output is a failed
operation, not a crashed run.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

from panokit.assignment import (
    MatchQuery,
    MatchTarget,
    bbox_of,
    mass_center,
    matching_cost,
)
from panokit.losses import LossWeights
from panokit.manifest import read_panoptic_set, read_stack_manifest
from panokit.metrics import decile_table, pq, query_stats
from panokit.pst import read_pst
from panokit.synth import oracle_merge
from panokit.types import PanopticMap, PanokitError, stuff_ids

# float results recomputed along another path must agree this closely
REL_TOL = 1e-9


def guarded(check):
    """Turn any exception inside a check into a failure message."""

    def run(*args):
        try:
            return check(*args)
        except Exception as exc:  # noqa: BLE001 - a crash is a failed check
            return f"{check.__name__}: {type(exc).__name__}: {exc}"

    run.__name__ = check.__name__
    return run


def _one_map(path: Path, image: str) -> PanopticMap:
    _, items = read_panoptic_set(path)
    held = [i for i, _ in items]
    if held != [image]:
        raise PanokitError(f"{path}: holds {held}, expected [{image!r}]")
    return items[0][1]


@guarded
def panoptic_set(path: Path, image: str):
    """The merge output reads back through read_panoptic_set."""
    _one_map(path, image)


def compare_maps(got: PanopticMap, want: PanopticMap):
    """Pixel identity plus the same (instance, category, query) records."""
    if got.sem.shape != want.sem.shape:
        return f"shape {got.sem.shape} != {want.sem.shape}"
    if not np.array_equal(got.sem, want.sem):
        return f"sem differs at {int((got.sem != want.sem).sum())} pixels"
    if not np.array_equal(got.ids, want.ids):
        return f"ids differ at {int((got.ids != want.ids).sum())} pixels"
    records = [(s.instance_id, s.category_id, s.source_query) for s in got.segments]
    expected = [(s.instance_id, s.category_id, s.source_query) for s in want.segments]
    if records != expected:
        return "segment records differ"
    return None


@guarded
def oracle(stack_dir: Path, pred_dir: Path, image: str):
    """The mask-wise map equals synth.oracle_merge of the same stack."""
    taxonomy, entries = read_stack_manifest(stack_dir)
    want = oracle_merge(entries[0].load(taxonomy), taxonomy)
    problem = compare_maps(_one_map(pred_dir, image), want)
    return problem and f"mask-wise map vs oracle: {problem}"


@guarded
def eval_report(report: Path, pred_dir: Path, gt_dir: Path, image: str):
    """The eval report's PQ equals metrics.pq on the maps read back."""
    data = json.loads(report.read_text())
    if data.get("schema") != "pq-report/1" or data.get("images") != 1:
        return f"{report}: unexpected header"
    taxonomy, _ = read_panoptic_set(gt_dir)
    want = pq(_one_map(pred_dir, image), _one_map(gt_dir, image), taxonomy)
    want_pq = want.aggregates(taxonomy)["pq"]
    got_pq = data["aggregates"]["pq"]
    if not math.isclose(got_pq, want_pq, rel_tol=REL_TOL, abs_tol=REL_TOL):
        return f"{report}: PQ {got_pq} != {want_pq}"
    return None


@guarded
def stats_report(report: Path, pred_dir: Path, gt_dir: Path, image: str):
    """The stats table equals decile_table of metrics.query_stats."""
    data = json.loads(report.read_text())
    if data.get("schema") != "query-stats/1":
        return f"{report}: unexpected schema"
    taxonomy, _ = read_panoptic_set(gt_dir)
    stats = query_stats(_one_map(pred_dir, image), _one_map(gt_dir, image), taxonomy)
    want = decile_table(stats)
    if json.loads(json.dumps(want)) != data["table"]:
        return f"{report}: decile table differs from metrics.query_stats"
    return None


def scalar_total_cost(stack_dir: Path, gt_dir: Path) -> float:
    """Hungarian optimum of a cost matrix rebuilt entry by entry with the
    scalar matching_cost at the CLI defaults (box mode, normalized, 2,1,1)."""
    taxonomy, entries = read_stack_manifest(stack_dir)
    stack = entries[0].load(taxonomy)
    gt = _one_map(gt_dir, entries[0].image_id)
    queries = []
    for i, prov in enumerate(stack.provenance):
        if not prov.is_thing:
            continue
        soft = np.asarray(stack.masks[i], np.float64)
        if soft.sum() > 0:
            center = mass_center(soft)
        else:
            center = np.array([(soft.shape[0] - 1) / 2, (soft.shape[1] - 1) / 2])
        mask = stack.masks[i]
        queries.append(MatchQuery(stack.class_probs[i], mask, bbox_of(mask), center))
    columns = {c.id: pos for pos, c in enumerate(taxonomy)}
    stuff = stuff_ids(taxonomy)
    targets = []
    for seg in gt.segments:
        if seg.category_id in stuff:
            continue
        mask = gt.ids == seg.instance_id
        center = mass_center(mask.astype(np.float64))
        column = columns[seg.category_id]
        targets.append(MatchTarget(column, mask, bbox_of(mask), center))
    if not targets:
        return 0.0
    costs = np.array(
        [[matching_cost(q, t, LossWeights()) for t in targets] for q in queries]
    )
    rows, cols = linear_sum_assignment(costs)
    return float(costs[rows, cols].sum())


@guarded
def assign_report(
    report: Path, stack_dir: Path, gt_dir: Path, image: str, rebuild: bool
):
    """One image with a finite total cost; with rebuild, that cost equals the
    optimum over the scalar-rebuilt cost matrix."""
    data = json.loads(report.read_text())
    ids = [i["id"] for i in data["images"]]
    if data.get("schema") != "assignment/1" or ids != [image]:
        return f"{report}: unexpected header"
    got = data["images"][0]["total_cost"]
    if not math.isfinite(got):
        return f"{report}: total_cost {got}"
    if rebuild:
        want = scalar_total_cost(stack_dir, gt_dir)
        if not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=REL_TOL):
            return f"{report}: total_cost {got} != scalar optimum {want}"
    return None


@guarded
def fuse_output(path: Path, queries: int, height: int, width: int):
    """A (queries, H/8, W/8) float32 probability map."""
    masks = read_pst(path)
    shape = (queries, height // 8, width // 8)
    if masks.shape != shape or masks.dtype != np.float32:
        return f"{path}: {masks.dtype}{masks.shape}, expected float32{shape}"
    if not np.isfinite(masks).all() or masks.min() < 0 or masks.max() > 1:
        return f"{path}: values outside [0, 1]"
    return None


@guarded
def reference_pq(report: Path, want: float):
    """PQ of a strategy on the reference scene equals the recorded value."""
    got = json.loads(report.read_text())["aggregates"]["pq"]
    if not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=REL_TOL):
        return f"{report}: PQ {got!r}, recorded {want!r}"
    return None
