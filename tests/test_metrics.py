import numpy as np
import pytest

from panokit import (
    DEFAULT_TAXONOMY,
    PanopticMap,
    PqReport,
    ValidationError,
    generate_scene,
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
    maps = []
    for seed in (1, 2, 3):
        gt, _ = generate_scene(SceneParams(seed=seed, height=32, width=32))
        maps.append(gt)
    reports = [pq(m, m, DEFAULT_TAXONOMY) for m in maps]
    left = reports[0].merge(reports[1]).merge(reports[2])
    right = reports[0].merge(reports[1].merge(reports[2]))
    assert left.per_category.keys() == right.per_category.keys()
    for cat in left.per_category:
        a, b = left.per_category[cat], right.per_category[cat]
        assert (a.iou_sum, a.tp, a.fp, a.fn) == (b.iou_sum, b.tp, b.fp, b.fn)


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
