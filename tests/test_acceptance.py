"""Acceptance gate: one test per shipping criterion, tolerances as stated.

Each test prints a PASS line with its measured numbers; report-only figures
(the PQ gap, the timing ratio) are printed, not asserted, where noted.
"""

import time

import numpy as np
import pytest

from panokit import (
    DEFAULT_TAXONOMY,
    FuseHead,
    MergeParams,
    MultiScaleAttn,
    PanopticMap,
    ScoreParams,
    SceneParams,
    Segment,
    assignment_cost,
    attn_to_mask,
    bench,
    confidence,
    decile_table,
    dice_loss,
    dice_loss_grad,
    flatten_attn,
    focal_loss,
    fuse_attn,
    generate_scene,
    hungarian,
    mask_wise_merge,
    oracle_assignment,
    oracle_merge,
    pixel_wise_argmax,
    pq,
    query_stats,
    random_stack,
    split_attn,
    token_counts,
)
from panokit.cli import build_parser

from conftest import make_map


def test_criterion_01_merge_matches_oracle():
    start = time.perf_counter()
    for seed in range(200):
        stack = random_stack(seed, 8, 8, seed % 6)
        fast = mask_wise_merge(stack, DEFAULT_TAXONOMY)
        slow = oracle_merge(stack, DEFAULT_TAXONOMY)
        assert np.array_equal(fast.sem, slow.sem), f"sem differs at seed {seed}"
        assert np.array_equal(fast.ids, slow.ids), f"ids differ at seed {seed}"
        assert [
            (s.instance_id, s.category_id, s.source_query) for s in fast.segments
        ] == [(s.instance_id, s.category_id, s.source_query) for s in slow.segments]
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"200 oracle comparisons took {elapsed:.2f}s"
    print(f"PASS criterion 1: 200 stacks pixel-identical to oracle in {elapsed:.2f}s")


def test_criterion_02_hungarian_exact_on_random_matrices():
    rng = np.random.default_rng(20260814)
    start = time.perf_counter()
    for _ in range(500):
        rows = int(rng.integers(1, 8))
        cols = int(rng.integers(0, min(rows, 5) + 1))
        # thirty-seconds quantization keeps every partial sum exact in f64
        costs = rng.integers(0, 256, (rows, cols)).astype(np.float64) / 32
        fast = hungarian(costs)
        slow = oracle_assignment(costs)
        assert assignment_cost(costs, fast) == assignment_cost(costs, slow)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"500 assignments took {elapsed:.2f}s"
    print(f"PASS criterion 2: 500 matrices match brute force exactly in {elapsed:.2f}s")


def test_criterion_03_metric_sanity():
    for seed in range(50):
        gt, _ = generate_scene(SceneParams(seed=seed, height=64, width=64))
        agg = pq(gt, gt, DEFAULT_TAXONOMY).aggregates(DEFAULT_TAXONOMY)
        assert agg["pq"] == 1.0 and agg["sq"] == 1.0 and agg["rq"] == 1.0
    sem_gt = np.zeros((10, 10), np.int32)
    ids_gt = np.zeros((10, 10), np.int32)
    sem_gt[0, :], ids_gt[0, :] = 1, 1
    sem_pr = np.zeros((10, 10), np.int32)
    ids_pr = np.zeros((10, 10), np.int32)
    sem_pr[0, :6], ids_pr[0, :6] = 1, 3
    agg = pq(
        make_map(sem_pr, ids_pr), make_map(sem_gt, ids_gt), DEFAULT_TAXONOMY
    ).aggregates(DEFAULT_TAXONOMY)
    assert abs(agg["pq"] - 0.600) < 1e-9
    print(
        "PASS criterion 3: pq(gt,gt)=1.0 on 50 scenes; "
        f"constructed case PQ={agg['pq']:.12f}"
    )


def test_criterion_04_threshold_monotonicity():
    grid = (0.2, 0.25, 0.3, 0.35, 0.4)
    checked = 0
    for seed in range(50):
        stack = random_stack(seed, 16, 16, 3 + seed % 5)
        base = mask_wise_merge(
            stack, DEFAULT_TAXONOMY, MergeParams(t_cnf=grid[0])
        )
        for t in grid[1:]:
            out = mask_wise_merge(stack, DEFAULT_TAXONOMY, MergeParams(t_cnf=t))
            survivors = [s for s in base.segments if s.score >= t]
            # exact subset relation: survivors are base segments, in order
            assert [s.source_query for s in out.segments] == [
                s.source_query for s in survivors
            ]
            expected_sem = base.sem.copy()
            expected_ids = np.zeros_like(base.ids)
            for rank, seg in enumerate(survivors):
                keep = base.ids == seg.instance_id
                expected_ids[keep] = rank + 1
            expected_sem[expected_ids == 0] = 0
            assert np.array_equal(out.sem, expected_sem)
            assert np.array_equal(out.ids, expected_ids)
            checked += 1
    print(
        f"PASS criterion 4: subset relation held for {checked} "
        "(scene, threshold) pairs over t_cnf grid "
        f"{grid}"
    )


def test_criterion_05_maskwise_beats_argmax_on_noisy_scenes():
    n_scenes = 500
    totals = {"maskwise": 0.0, "argmax": 0.0}
    for seed in range(n_scenes):
        params = SceneParams(
            seed=seed,
            height=64,
            width=64,
            n_things=5,
            noise_sigma=0.15,
            overlap_bias=0.5,
        )
        gt, stack = generate_scene(params)
        mask_pred = mask_wise_merge(stack, DEFAULT_TAXONOMY)
        argmax_pred = pixel_wise_argmax(stack, DEFAULT_TAXONOMY)
        totals["maskwise"] += pq(mask_pred, gt, DEFAULT_TAXONOMY).aggregates(
            DEFAULT_TAXONOMY
        )["pq"]
        totals["argmax"] += pq(argmax_pred, gt, DEFAULT_TAXONOMY).aggregates(
            DEFAULT_TAXONOMY
        )["pq"]
    mean_mask = totals["maskwise"] / n_scenes
    mean_argmax = totals["argmax"] / n_scenes
    gap = mean_mask - mean_argmax
    assert mean_mask >= mean_argmax, (
        f"mask-wise PQ {mean_mask:.4f} fell below argmax PQ {mean_argmax:.4f}"
    )
    print(
        f"PASS criterion 5: mean PQ mask-wise {mean_mask:.4f} vs "
        f"argmax {mean_argmax:.4f} over {n_scenes} noisy scenes "
        f"(gap +{gap:.4f} PQ, reported)"
    )


def test_criterion_06_confidence_reductions_and_cli_defaults():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        p = float(rng.random())
        alpha = float(rng.uniform(0.0, 3.0))
        mask = rng.random((4, 4)).astype(np.float32)
        s = confidence(p, mask, ScoreParams(alpha=alpha, beta=0.0))
        assert s == p**alpha  # exact: beta=0 must reduce to p**alpha
    assert confidence(1.0, np.ones((4, 4), np.float32)) == 1.0
    merge_args = build_parser().parse_args(["merge", "--in", "x", "--out", "y"])
    assert merge_args.alpha == 1.0 and merge_args.beta == 2.0
    print(
        "PASS criterion 6: beta=0 reduction exact on 1000 inputs; "
        "perfect input scores 1.0; CLI defaults alpha=1 beta=2"
    )


def test_criterion_07_loss_identities():
    rng = np.random.default_rng(7)
    worst_focal = 0.0
    for _ in range(1000):
        width = int(rng.integers(1, 9))
        pred = rng.uniform(0.01, 0.99, width)
        target = int(rng.integers(0, width))
        alpha_bal = float(rng.random())
        got = focal_loss(pred, target, gamma=0.0, alpha_bal=alpha_bal)
        want = -alpha_bal * np.log(pred[target]) - (1.0 - alpha_bal) * sum(
            np.log(1.0 - pred[j]) for j in range(width) if j != target
        )
        worst_focal = max(worst_focal, abs(got - want))
    assert worst_focal < 1e-6
    step = 1e-5
    worst_grad = 0.0
    for _ in range(100):
        pred = rng.uniform(0.05, 0.95, (8, 8))
        gt = rng.random((8, 8)) > 0.5
        grad = dice_loss_grad(pred, gt)
        for _ in range(8):
            i, j = rng.integers(0, 8, 2)
            hi = pred.copy()
            hi[i, j] += step
            lo = pred.copy()
            lo[i, j] -= step
            numeric = (dice_loss(hi, gt) - dice_loss(lo, gt)) / (2 * step)
            worst_grad = max(worst_grad, abs(grad[i, j] - numeric))
    assert worst_grad < 1e-4
    print(
        f"PASS criterion 7: focal gamma=0 max |err| {worst_focal:.2e} < 1e-6; "
        f"dice grad max |err| {worst_grad:.2e} < 1e-4"
    )


def test_criterion_08_attention_fusion_pipeline():
    rng = np.random.default_rng(8)
    l1, l2, l3 = token_counts(64, 64)
    tokens = rng.random((l1 + l2 + l3, 8)).astype(np.float32)
    attn = MultiScaleAttn(tokens, 8, 64, 64)
    back = flatten_attn(*split_attn(attn))
    assert np.array_equal(back.tokens.view(np.uint32), attn.tokens.view(np.uint32))
    head = FuseHead.seeded(8, 0)
    assert head.param_count == 25
    out = attn_to_mask(attn, head)
    assert out.shape == (8, 8)
    consts = np.concatenate(
        [
            np.full((l1, 8), 0.125, np.float32),
            np.full((l2, 8), 0.25, np.float32),
            np.full((l3, 8), 0.5, np.float32),
        ]
    )
    fused = fuse_attn(*split_attn(MultiScaleAttn(consts, 8, 64, 64)))
    assert (fused[..., :8] == 0.125).all()  # bilinear must propagate constants
    assert (fused[..., 8:16] == 0.25).all()
    assert (fused[..., 16:] == 0.5).all()
    print(
        "PASS criterion 8: round-trip exact; 64x64/h=8 gives 8x8 output; "
        "head has 25 parameters; constants propagate exactly"
    )


def test_criterion_09_query_preference_diagnostics():
    size = 16
    sem = np.zeros((size, size), np.int32)
    ids = np.zeros((size, size), np.int32)
    segments = []
    thing_cats = (1, 2, 3, 4, 5)
    for q in range(10):  # ten queries emitting exactly one thing each
        sem[q], ids[q] = thing_cats[q % 5], q + 1
        segments.append(Segment(q + 1, thing_cats[q % 5], source_query=q))
    stuff_cats = (6, 7, 8, 6, 7)
    for j in range(5):  # five queries emitting exactly one stuff band each
        row = 10 + j
        sem[row], ids[row] = stuff_cats[j], 11 + j
        segments.append(Segment(11 + j, stuff_cats[j], source_query=10 + j))
    pred = PanopticMap(sem, ids, tuple(segments))
    pred.validate()
    gt = make_map(sem, ids)
    stats = query_stats(pred, gt, DEFAULT_TAXONOMY)
    assert len(stats.per_query) == 15
    for q in range(10):
        assert stats.per_query[q].p_t == 1.0  # exact
    for q in range(10, 15):
        assert stats.per_query[q].p_t == 0.0  # exact
    rows = decile_table(stats)
    total = rows[-1]
    assert total["queries"] == 15
    assert total["things_pred"] == 10  # decile totals equal segment counts
    assert total["stuff_pred"] == 5
    assert total["things_tp"] == 10 and total["stuff_tp"] == 5
    assert rows[9]["queries"] == 10 and rows[0]["queries"] == 5
    print(
        "PASS criterion 9: P_t exactly 1.0/0.0 for 10 thing-only and "
        "5 stuff-only queries; decile totals 10 things + 5 stuff"
    )


def test_criterion_10_bench_budget_and_timing_report():
    n_images = 1000

    def source():
        for i in range(n_images):
            params = SceneParams(seed=i, height=256, width=256, n_things=98)
            yield f"{i:04d}", generate_scene(params)[1]

    start = time.perf_counter()
    merges = {"maskwise": mask_wise_merge, "argmax": pixel_wise_argmax}
    report = bench(source, DEFAULT_TAXONOMY, merges)
    wall = time.perf_counter() - start
    assert wall < 120.0, f"bench wall time {wall:.1f}s exceeds the 120s budget"
    comparison = report["maskwise_vs_argmax"]
    ratio = comparison["ratio"]
    pct = comparison["percent_less_time"]
    direction = "less" if pct >= 0 else "more"
    print(
        f"PASS criterion 10: bench of {n_images} 256x256 images with 100 masks "
        f"finished in {wall:.1f}s; mask-wise used {abs(pct):.1f}% {direction} "
        f"merge time than argmax (ratio {ratio:.3f}, reported not asserted)"
    )
