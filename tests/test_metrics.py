import numpy as np
import pytest

from panokit import (
    DEFAULT_TAXONOMY,
    PanopticMap,
    PqReport,
    QueryStats,
    Segment,
    ValidationError,
    generate_scene,
    mask_wise_merge,
    random_stack,
    SceneParams,
    pq,
    query_stats,
    decile_table,
    format_decile_table,
)

from conftest import make_map


def test_pq_self_is_one():
    gt, _ = generate_scene(SceneParams(seed=3, height=64, width=64))
    report = pq(gt, gt, DEFAULT_TAXONOMY)
    agg = report.aggregates(DEFAULT_TAXONOMY)
    assert agg["pq"] == 1.0 and agg["sq"] == 1.0 and agg["rq"] == 1.0
    for counts in report.per_category.values():
        if counts.present:
            assert counts.fp == 0 and counts.fn == 0


def test_constructed_iou_point_six():
    sem_gt = np.zeros((10, 10), np.int32)
    ids_gt = np.zeros((10, 10), np.int32)
    sem_gt[0, :] = 1
    ids_gt[0, :] = 1  # area 10
    sem_pr = np.zeros((10, 10), np.int32)
    ids_pr = np.zeros((10, 10), np.int32)
    sem_pr[0, :6] = 1
    ids_pr[0, :6] = 3  # area 6, inside the GT segment: IoU = 6/10
    report = pq(make_map(sem_pr, ids_pr), make_map(sem_gt, ids_gt), DEFAULT_TAXONOMY)
    agg = report.aggregates(DEFAULT_TAXONOMY)
    assert abs(agg["sq"] - 0.6) < 1e-9
    assert agg["rq"] == 1.0
    assert abs(agg["pq"] - 0.6) < 1e-9


def test_empty_prediction_counts_misses():
    sem = np.zeros((8, 8), np.int32)
    ids = np.zeros((8, 8), np.int32)
    sem[0], ids[0] = 1, 1
    sem[1], ids[1] = 2, 2
    gt = make_map(sem, ids)
    empty = make_map(np.zeros((8, 8), np.int32), np.zeros((8, 8), np.int32))
    report = pq(empty, gt, DEFAULT_TAXONOMY)
    tp = sum(c.tp for c in report.per_category.values())
    fn = sum(c.fn for c in report.per_category.values())
    assert tp == 0 and fn == 2
    assert report.aggregates(DEFAULT_TAXONOMY)["pq"] == 0.0


def test_relabel_invariance():
    gt, stack = generate_scene(SceneParams(seed=8, height=64, width=64))
    base = pq(gt, gt, DEFAULT_TAXONOMY).aggregates(DEFAULT_TAXONOMY)
    relabeled = make_map(gt.sem, np.where(gt.ids > 0, gt.ids + 40, 0))
    swapped = pq(relabeled, gt, DEFAULT_TAXONOMY).aggregates(DEFAULT_TAXONOMY)
    assert swapped == base


def test_size_mismatch_rejected():
    a = make_map(np.zeros((4, 4), np.int32), np.zeros((4, 4), np.int32))
    b = make_map(np.zeros((4, 8), np.int32), np.zeros((4, 8), np.int32))
    with pytest.raises(ValidationError):
        pq(a, b, DEFAULT_TAXONOMY)


def test_void_overlap_discounted_from_union():
    # GT: segment on row 0 only; pred extends two px into GT void
    sem_gt = np.zeros((1, 10), np.int32)
    ids_gt = np.zeros((1, 10), np.int32)
    sem_gt[0, :6] = 1
    ids_gt[0, :6] = 1
    sem_pr = np.zeros((1, 10), np.int32)
    ids_pr = np.zeros((1, 10), np.int32)
    sem_pr[0, 2:10] = 1
    ids_pr[0, 2:10] = 1
    report = pq(make_map(sem_pr, ids_pr), make_map(sem_gt, ids_gt), DEFAULT_TAXONOMY)
    # inter 4, gt 6, pred 8 of which 4 on void: union = 6+8-4-4 = 6
    counts = report.per_category[1]
    assert counts.tp == 1
    assert counts.iou_sum == pytest.approx(4.0 / 6.0)


def test_void_forgiveness_flag():
    sem_gt = np.zeros((8, 8), np.int32)
    ids_gt = np.zeros((8, 8), np.int32)
    sem_gt[0], ids_gt[0] = 1, 1
    gt = make_map(sem_gt, ids_gt)
    sem_pr = sem_gt.copy()
    ids_pr = ids_gt.copy()
    sem_pr[4:6], ids_pr[4:6] = 2, 9  # entirely on GT void
    pred = make_map(sem_pr, ids_pr)
    forgiving = pq(pred, gt, DEFAULT_TAXONOMY)
    assert forgiving.per_category.get(2) is None or not forgiving.per_category[2].present
    strict = pq(pred, gt, DEFAULT_TAXONOMY, void_forgive=False)
    assert strict.per_category[2].fp == 1
    assert strict.aggregates(DEFAULT_TAXONOMY)["pq"] == pytest.approx(0.5)


def test_category_absent_everywhere_not_averaged():
    sem = np.zeros((4, 4), np.int32)
    ids = np.zeros((4, 4), np.int32)
    sem[0], ids[0] = 3, 1
    pmap = make_map(sem, ids)
    agg = pq(pmap, pmap, DEFAULT_TAXONOMY).aggregates(DEFAULT_TAXONOMY)
    assert agg["categories"] == 1
    assert agg["pq"] == 1.0


def test_thing_stuff_split_aggregates():
    sem = np.zeros((4, 4), np.int32)
    ids = np.zeros((4, 4), np.int32)
    sem[0], ids[0] = 1, 1  # thing
    sem[1], ids[1] = 6, 2  # stuff
    gt = make_map(sem, ids)
    pred_ids = ids.copy()
    pred_sem = sem.copy()
    pred_sem[1], pred_ids[1] = 0, 0  # miss the stuff segment
    agg = pq(make_map(pred_sem, pred_ids), gt, DEFAULT_TAXONOMY).aggregates(
        DEFAULT_TAXONOMY
    )
    assert agg["pq_things"] == 1.0
    assert agg["pq_stuff"] == 0.0
    assert agg["things_categories"] == 1 and agg["stuff_categories"] == 1


def test_report_merge_is_associative_fold():
    reports, stats = [], []
    for seed in (1, 2, 3):
        params = SceneParams(seed=seed, height=32, width=32, noise_sigma=0.3)
        gt, stack = generate_scene(params)
        reports.append(pq(gt, gt, DEFAULT_TAXONOMY))  # IoUs of 1.0 sum exactly
        stats.append(query_stats(mask_wise_merge(stack, DEFAULT_TAXONOMY), gt, DEFAULT_TAXONOMY))
    for parts, counters in ((reports, "per_category"), (stats, "per_query")):
        left = parts[0].merge(parts[1]).merge(parts[2])
        right = parts[0].merge(parts[1].merge(parts[2]))
        assert getattr(left, counters) == getattr(right, counters)
        assert list(getattr(left, counters)) == list(getattr(right, counters))
        inputs = {id(c) for part in parts for c in getattr(part, counters).values()}
        for merged in (left, right, parts[0].merge(parts[1])):
            assert inputs.isdisjoint(id(c) for c in getattr(merged, counters).values())


def test_query_stats_thing_only_pt_one():
    sem = np.zeros((4, 4), np.int32)
    ids = np.zeros((4, 4), np.int32)
    sem[0], ids[0] = 1, 1
    gt = make_map(sem, ids)
    pred = make_map(sem, ids, sources={1: 0})
    stats = query_stats(pred, gt, DEFAULT_TAXONOMY)
    assert stats.per_query[0].p_t == 1.0
    assert stats.per_query[0].tp_things == 1


def test_query_stats_mixed_ratio():
    sem = np.zeros((8, 8), np.int32)
    ids = np.zeros((8, 8), np.int32)
    for row, (cat, sid) in enumerate([(1, 1), (2, 2), (3, 3), (6, 4)]):
        sem[row], ids[row] = cat, sid
    gt = make_map(sem, ids)
    pred = make_map(sem, ids, sources={1: 5, 2: 5, 3: 5, 4: 5})
    stats = query_stats(pred, gt, DEFAULT_TAXONOMY)
    counts = stats.per_query[5]
    assert counts.n_things == 3 and counts.n_stuff == 1
    assert counts.p_t == pytest.approx(0.75)


def test_query_stats_requires_provenance():
    sem = np.zeros((4, 4), np.int32)
    ids = np.zeros((4, 4), np.int32)
    sem[0], ids[0] = 1, 1
    pmap = make_map(sem, ids)
    with pytest.raises(ValidationError, match="source_query"):
        query_stats(pmap, pmap, DEFAULT_TAXONOMY)


def test_query_stats_fp_when_category_wrong():
    sem = np.zeros((4, 4), np.int32)
    ids = np.zeros((4, 4), np.int32)
    sem[0], ids[0] = 1, 1
    gt = make_map(sem, ids)
    wrong_sem = sem.copy()
    wrong_sem[0] = 2
    pred = make_map(wrong_sem, ids, sources={1: 0})
    stats = query_stats(pred, gt, DEFAULT_TAXONOMY)
    assert stats.per_query[0].fp_things == 1
    assert stats.per_query[0].tp_things == 0


def _map_without_records():
    sem = np.zeros((4, 4), np.int32)
    ids = np.zeros((4, 4), np.int32)
    sem[0], ids[0] = 1, 5
    return PanopticMap(sem, ids, ())


def test_pq_missing_segment_record_rejected():
    bare = _map_without_records()
    with pytest.raises(ValidationError, match="instance id 5 has no segment record"):
        pq(bare, bare, DEFAULT_TAXONOMY)


def test_query_stats_missing_segment_record_rejected():
    bare = _map_without_records()
    gt = make_map(bare.sem, bare.ids)
    with pytest.raises(ValidationError, match="pred instance id 5"):
        query_stats(bare, gt, DEFAULT_TAXONOMY)


@pytest.mark.parametrize("side", ["pred", "gt"])
def test_pq_and_query_stats_refuse_a_category_the_taxonomy_does_not_list(side):
    # DEFAULT_TAXONOMY lists no category 9: it is neither a thing nor stuff
    sem = np.zeros((4, 4), np.int32)
    ids = np.zeros((4, 4), np.int32)
    sem[0], ids[0] = 9, 1
    unlisted = PanopticMap(sem, ids, (Segment(1, 9, source_query=0),)).validate()
    listed = make_map(np.where(sem, 7, 0), ids, sources={1: 0})
    pred, gt = (unlisted, listed) if side == "pred" else (listed, unlisted)
    message = "^segment 1 has category 9, which the taxonomy does not list$"
    with pytest.raises(ValidationError, match=message):
        pq(pred, gt, DEFAULT_TAXONOMY)
    with pytest.raises(ValidationError, match=message):
        query_stats(pred, gt, DEFAULT_TAXONOMY)


def test_missing_records_name_the_lowest_id():
    # the pair histogram lists pred 55 (on gt 1) before pred 47 (on gt 2)
    sem = np.zeros((4, 4), np.int32)
    sem[:2] = 1
    gt_ids = np.zeros((4, 4), np.int32)
    gt_ids[0], gt_ids[1] = 1, 2
    pred_ids = np.zeros((4, 4), np.int32)
    pred_ids[0], pred_ids[1] = 55, 47
    gt = PanopticMap(sem, gt_ids, (Segment(2, 1), Segment(1, 1)))
    pred = PanopticMap(sem, pred_ids, ())
    with pytest.raises(ValidationError, match="pred instance id 47 has"):
        pq(pred, gt, DEFAULT_TAXONOMY)
    with pytest.raises(ValidationError, match="gt instance id 1 has"):
        pq(pred, PanopticMap(sem, gt_ids, ()), DEFAULT_TAXONOMY)


def _random_map_pair(rng, size=12):
    """A gt map and a pred map with shuffled non-contiguous ids, records in
    arbitrary order and one record without pixels. Half the preds are noisy
    relabeled copies of the gt, so many pairs match."""
    high = 60 if rng.random() < 0.5 else 2**31 - 1

    def fresh_ids(n):
        return rng.choice(high - 1, n, replace=False).astype(np.int64) + 1

    n = int(rng.integers(1, 7))
    blocks = rng.integers(0, n + 1, (size // 3, size // 3))
    label = np.kron(blocks, np.ones((3, 3), np.int64))
    noise = rng.random(label.shape) < 0.1
    label = np.where(noise, rng.integers(0, n + 1, label.shape), label)
    if rng.random() < 0.5:
        pred_label = np.where(
            rng.random(label.shape) < rng.random() * 0.4,
            rng.integers(0, n + 2, label.shape),
            label,
        )
    else:
        pred_label = rng.integers(0, n + 2, (size // 3, size // 3))
        pred_label = np.kron(pred_label, np.ones((3, 3), np.int64))
    maps = []
    for lab, k in ((label, n), (pred_label, n + 1)):
        ids = np.concatenate(([0], fresh_ids(k + 1)))  # one id never painted
        cats = np.concatenate(([0], rng.integers(1, 9, k + 1)))
        if maps:  # pred categories mostly follow the gt label they copy
            keep = rng.random(k + 1) < 0.8
            cats[1:n + 1] = np.where(keep[:n], maps[0][1][1:n + 1], cats[1:n + 1])
        segments = [
            Segment(int(i), int(c), source_query=int(rng.integers(0, 4)))
            for i, c in zip(ids[1:], cats[1:])
        ]
        rng.shuffle(segments)
        maps.append((PanopticMap(cats[lab], ids[lab], segments), cats))
    return maps[1][0], maps[0][0]


def _naive_matches(pred, gt):
    """Matched (gt id, pred id) -> IoU, from one boolean mask per pair."""
    void = gt.ids == 0
    matches = {}
    for g in gt.segments:
        g_mask = gt.ids == g.instance_id
        for p in pred.segments:
            p_mask = pred.ids == p.instance_id
            if p.category_id != g.category_id or not (g_mask & p_mask).any():
                continue
            inter = np.count_nonzero(g_mask & p_mask)
            union = np.count_nonzero(g_mask | (p_mask & ~void))
            if inter / union > 0.5:
                matches[g.instance_id, p.instance_id] = inter / union
    return matches


def _naive_pq(pred, gt, void_forgive):
    matches = _naive_matches(pred, gt)
    counts = {}

    def bump(cat, field, by=1):
        row = counts.setdefault(cat, {"tp": 0, "fp": 0, "fn": 0, "iou_sum": 0.0})
        row[field] += by

    for g in gt.segments:
        hits = [iou for (gid, _), iou in matches.items() if gid == g.instance_id]
        if hits:
            bump(g.category_id, "tp")
            bump(g.category_id, "iou_sum", hits[0])
        elif (gt.ids == g.instance_id).any():
            bump(g.category_id, "fn")
    for p in pred.segments:
        p_mask = pred.ids == p.instance_id
        if any(pid == p.instance_id for _, pid in matches) or not p_mask.any():
            continue
        on_void = np.count_nonzero(p_mask & (gt.ids == 0))
        if void_forgive and on_void / np.count_nonzero(p_mask) > 0.5:
            continue
        bump(p.category_id, "fp")
    return counts


def _naive_query_stats(pred, gt):
    matched = {pid for _, pid in _naive_matches(pred, gt)}
    things = {c.id for c in DEFAULT_TAXONOMY if c.is_thing}
    out = {}
    for p in pred.segments:
        row = out.setdefault(p.source_query, {
            "n_things": 0, "n_stuff": 0, "tp_things": 0,
            "fp_things": 0, "tp_stuff": 0, "fp_stuff": 0,
        })
        kind = "things" if p.category_id in things else "stuff"
        row[f"n_{kind}"] += 1
        row[f"{'tp' if p.instance_id in matched else 'fp'}_{kind}"] += 1
    return out


@pytest.mark.parametrize("seed", range(320))
def test_pq_and_query_stats_match_naive_reference(seed):
    pred, gt = _random_map_pair(np.random.default_rng(seed))
    for void_forgive in (True, False):
        report = pq(pred, gt, DEFAULT_TAXONOMY, void_forgive)
        expected = _naive_pq(pred, gt, void_forgive)
        assert report.per_category.keys() == expected.keys()
        for cat, counts in report.per_category.items():
            want = expected[cat]
            assert (counts.tp, counts.fp, counts.fn) == (
                want["tp"], want["fp"], want["fn"]
            )
            assert counts.iou_sum == pytest.approx(want["iou_sum"], rel=1e-12)
    stats = query_stats(pred, gt, DEFAULT_TAXONOMY)
    assert {q: vars(c) for q, c in stats.per_query.items()} == _naive_query_stats(
        pred, gt
    )


def test_decile_table_layout_and_totals():
    sem = np.zeros((8, 8), np.int32)
    ids = np.zeros((8, 8), np.int32)
    for row, (cat, sid) in enumerate([(1, 1), (2, 2), (3, 3), (6, 4)]):
        sem[row], ids[row] = cat, sid
    gt = make_map(sem, ids)
    pred = make_map(sem, ids, sources={1: 0, 2: 0, 3: 0, 4: 1})
    stats = query_stats(pred, gt, DEFAULT_TAXONOMY)
    rows = decile_table(stats)
    assert len(rows) == 11  # ten bins plus the total row
    assert rows[0]["bin"] == "[0.0, 0.1)"
    assert rows[9]["bin"] == "[0.9, 1.0]"
    total = rows[10]
    assert total["queries"] == 2
    assert total["things_pred"] == 3 and total["stuff_pred"] == 1
    assert total["things_tp"] == 3 and total["stuff_tp"] == 1
    # query 0 emits things only (bin 10), query 1 stuff only (bin 1)
    assert rows[9]["queries"] == 1 and rows[0]["queries"] == 1
    assert rows[9]["things_precision"] == pytest.approx(1.0)
    assert rows[0]["things_precision"] is None
    table = format_decile_table(rows)
    assert "P_t bin" in table and "[0.9, 1.0]" in table


def test_pq_report_empty_aggregates():
    agg = PqReport().aggregates(DEFAULT_TAXONOMY)
    assert agg["categories"] == 0
    assert agg["pq"] == 0.0


def _naive_mean(values):
    total = 0.0
    for value in values:
        total = total + value
    return total / len(values) if values else 0.0


def _naive_aggregates(report):
    """Per-category PQ, SQ and RQ from the raw counts, averaged per group in
    per_category order."""
    things = {c.id for c in DEFAULT_TAXONOMY if c.is_thing}
    groups = {"all": [], "things": [], "stuff": []}
    for cat, c in report.per_category.items():
        if c.tp == 0 and c.fp == 0 and c.fn == 0:
            continue
        sq = c.iou_sum / c.tp if c.tp else 0.0
        rq = c.tp / (c.tp + 0.5 * c.fp + 0.5 * c.fn)
        entry = (sq * rq, sq, rq)
        groups["all"].append(entry)
        groups["things" if cat in things else "stuff"].append(entry)
    return {
        "pq": _naive_mean([e[0] for e in groups["all"]]),
        "sq": _naive_mean([e[1] for e in groups["all"]]),
        "rq": _naive_mean([e[2] for e in groups["all"]]),
        "categories": len(groups["all"]),
        "pq_things": _naive_mean([e[0] for e in groups["things"]]),
        "things_categories": len(groups["things"]),
        "pq_stuff": _naive_mean([e[0] for e in groups["stuff"]]),
        "stuff_categories": len(groups["stuff"]),
    }


def _naive_decile_table(per_query):
    """Rows tallied query by query from raw counter dicts."""
    keys = ("queries", "stuff_tp", "stuff_pred", "things_tp", "things_pred")
    labels = [f"[{k / 10:.1f}, {(k + 1) / 10:.1f})" for k in range(9)]
    rows = [dict.fromkeys(keys, 0) for _ in range(11)]
    for c in per_query.values():
        k = min(9, int(c["n_things"] / (c["n_things"] + c["n_stuff"]) * 10))
        for row in (rows[k], rows[10]):
            row["queries"] += 1
            row["stuff_tp"] += c["tp_stuff"]
            row["stuff_pred"] += c["tp_stuff"] + c["fp_stuff"]
            row["things_tp"] += c["tp_things"]
            row["things_pred"] += c["tp_things"] + c["fp_things"]
    out = []
    for label, row in zip([*labels, "[0.9, 1.0]", "total"], rows):
        out.append({"bin": label, **row})
        for kind in ("stuff", "things"):
            pred = row[f"{kind}_pred"]
            out[-1][f"{kind}_precision"] = row[f"{kind}_tp"] / pred if pred else None
    return out


@pytest.mark.parametrize("seed", range(8))
def test_aggregates_and_decile_table_match_naive_reference_bit_for_bit(seed):
    # random_stack merges score against a scene of the same size; each
    # scene's own noisy stack adds matches
    images = []
    for i in range(4):
        params = SceneParams(seed=seed * 4 + i, height=32, width=64, noise_sigma=0.2)
        gt, stack = generate_scene(params)
        images.append((mask_wise_merge(stack, DEFAULT_TAXONOMY), gt))
        noise = random_stack(seed * 4 + i, 32, 64, 12)
        images.append((mask_wise_merge(noise, DEFAULT_TAXONOMY), gt))
    reports = [pq(pred, gt, DEFAULT_TAXONOMY) for pred, gt in images]
    stats = [query_stats(pred, gt, DEFAULT_TAXONOMY) for pred, gt in images]
    total, merged = PqReport(), QueryStats()
    for report, stat in zip(reports, stats):
        total, merged = total.merge(report), merged.merge(stat)
    counts, per_query = {}, {}
    for report in reports:
        for cat, c in report.per_category.items():
            acc = counts.setdefault(cat, [0.0, 0, 0, 0])
            for pos, value in enumerate((c.iou_sum, c.tp, c.fp, c.fn)):
                acc[pos] = acc[pos] + value
    for stat in stats:
        for q, c in stat.per_query.items():
            acc = per_query.setdefault(q, dict.fromkeys(vars(c), 0))
            for key, value in vars(c).items():
                acc[key] += value
    folded = {cat: [c.iou_sum, c.tp, c.fp, c.fn] for cat, c in total.per_category.items()}
    assert folded == counts and list(folded) == list(counts)
    assert {q: vars(c) for q, c in merged.per_query.items()} == per_query
    aggregates = total.aggregates(DEFAULT_TAXONOMY)
    assert aggregates == _naive_aggregates(total)  # floats compared with ==
    assert aggregates["things_categories"] and aggregates["stuff_categories"]
    rows = decile_table(merged)
    assert rows == _naive_decile_table(per_query)
    assert sum(1 for row in rows[:10] if row["queries"]) >= 2
