import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panokit import (
    DEFAULT_TAXONOMY,
    MaskStack,
    MergeParams,
    PanopticMap,
    QueryProvenance,
    ScoreParams,
    Segment,
    ValidationError,
    heuristic_merge,
    mask_wise_merge,
    merge_same_category_stuff,
    pixel_wise_argmax,
    oracle_merge,
    random_stack,
    validate_stack,
)

from panokit import merging
from panokit.cli import main
from panokit.manifest import read_panoptic_set, write_stack_set
from panokit.merging import _first_max
from panokit.scoring import confidence, predicted_labels, stack_scores

from conftest import make_map, make_stack


def test_single_mask_paints_binarized_footprint():
    m = np.zeros((4, 4), np.float32)
    m[1:3, 1:3] = 0.9
    stack = make_stack(m[None], [1], [1.0])
    out = mask_wise_merge(stack, DEFAULT_TAXONOMY)
    out.validate()
    assert len(out.segments) == 1
    seg = out.segments[0]
    assert seg.instance_id == 1 and seg.category_id == 1 and seg.source_query == 0
    assert np.array_equal(out.ids != 0, m > 0.5)
    assert (out.sem[m > 0.5] == 1).all()


def test_fully_hidden_mask_dropped():
    ones = np.ones((4, 4), np.float32)
    stack = make_stack(np.stack([ones, ones]), [1, 2], [0.9, 0.8])
    out = mask_wise_merge(stack, DEFAULT_TAXONOMY)
    assert len(out.segments) == 1
    assert out.segments[0].category_id == 1
    assert out.segments[0].score == pytest.approx(0.9)


def test_low_confidence_mask_skipped():
    m = np.ones((4, 4), np.float32)
    stack = make_stack(m[None], [1], [0.2])
    out = mask_wise_merge(stack, DEFAULT_TAXONOMY)
    assert len(out.segments) == 0
    assert (out.ids == 0).all()


def test_t_keep_blocks_mostly_hidden_mask():
    top = np.zeros((4, 4), np.float32)
    top[:, :3] = 1.0  # covers 12 of the 16 pixels
    low = np.ones((4, 4), np.float32)
    stack = make_stack(np.stack([top, low]), [1, 2], [0.9, 0.8])
    out = mask_wise_merge(stack, DEFAULT_TAXONOMY)
    # the second mask keeps 4/16 visible, under the 0.6 floor
    assert [s.category_id for s in out.segments] == [1]
    loose = mask_wise_merge(
        stack, DEFAULT_TAXONOMY, MergeParams(t_keep=0.25)
    )
    assert [s.category_id for s in loose.segments] == [1, 2]
    assert (loose.sem[:, 3] == 2).all()


def test_ids_are_one_based_and_sequential():
    masks = np.zeros((3, 4, 4), np.float32)
    masks[0, 0] = 1.0
    masks[1, 1] = 1.0
    masks[2, 2] = 1.0
    stack = make_stack(masks, [1, 2, 6], [0.9, 0.8, 0.7])
    out = mask_wise_merge(stack, DEFAULT_TAXONOMY)
    assert [s.instance_id for s in out.segments] == [1, 2, 3]


def test_tie_break_category_then_query_index():
    ones = np.ones((2, 4, 4), np.float32)
    stack = make_stack(ones, [3, 2], [0.9, 0.9])
    out = mask_wise_merge(stack, DEFAULT_TAXONOMY)
    # equal confidence: lower category id paints first
    assert out.segments[0].category_id == 2


def test_permutation_invariance_distinct_confidences():
    rng = np.random.default_rng(5)
    masks = (rng.random((4, 8, 8)) > 0.4).astype(np.float32)
    stack = make_stack(masks, [1, 2, 3, 6], [0.9, 0.7, 0.5, 0.4])
    base = mask_wise_merge(stack, DEFAULT_TAXONOMY)
    perm = [2, 0, 3, 1]
    shuffled = make_stack(
        masks[perm],
        [[1, 2, 3, 6][i] for i in perm],
        [[0.9, 0.7, 0.5, 0.4][i] for i in perm],
    )
    # provenance query_index must follow the original queries, not row order
    prov = tuple(
        QueryProvenance(perm[i], p.is_thing, p.fixed_category)
        for i, p in enumerate(shuffled.provenance)
    )
    shuffled = MaskStack(shuffled.masks, shuffled.class_probs, prov)
    out = mask_wise_merge(shuffled, DEFAULT_TAXONOMY)
    assert np.array_equal(base.sem, out.sem)
    assert np.array_equal(base.ids, out.ids)


def test_emitted_segments_recheck_thresholds():
    for seed in range(20):
        stack = random_stack(seed, 8, 8, 5)
        params = MergeParams()
        out = mask_wise_merge(stack, DEFAULT_TAXONOMY, params)
        out.validate()
        for seg in out.segments:
            cover = stack.masks[seg.source_query] > 0.5
            visible = (out.ids == seg.instance_id).sum()
            assert seg.score >= params.t_cnf
            assert visible / cover.sum() >= params.t_keep


def test_argmax_single_mask_covers_image():
    stack = make_stack(np.full((1, 4, 4), 0.9), [1], [1.0])
    out = pixel_wise_argmax(stack, DEFAULT_TAXONOMY)
    out.validate()
    assert (out.sem == 1).all()
    assert len(out.segments) == 1


def test_argmax_low_value_false_positive_mode():
    # 0.30 beats 0.29 even though both are far below any sane cutoff
    a = np.full((4, 4), 0.30, np.float32)
    b = np.full((4, 4), 0.29, np.float32)
    stack = make_stack(np.stack([a, b]), [1, 2], [1.0, 1.0])
    out = pixel_wise_argmax(stack, DEFAULT_TAXONOMY)
    assert (out.sem == 1).all()


def test_argmax_weighted_flips_winner():
    a = np.full((4, 4), 0.6, np.float32)
    b = np.full((4, 4), 0.9, np.float32)
    stack = make_stack(np.stack([a, b]), [1, 2], [0.9, 0.4])
    plain = pixel_wise_argmax(stack, DEFAULT_TAXONOMY)
    assert (plain.sem == 2).all()  # 0.9 mask value wins unweighted
    weighted = pixel_wise_argmax(stack, DEFAULT_TAXONOMY, weighted=True)
    assert (weighted.sem == 1).all()  # 0.9*0.6=0.54 beats 0.4*0.9=0.36


def test_argmax_min_area_voids_small_segments():
    a = np.zeros((4, 4), np.float32)
    a[0, 0] = 1.0
    b = np.ones((4, 4), np.float32) * 0.6
    b[0, 0] = 0.0
    stack = make_stack(np.stack([a, b]), [1, 2], [1.0, 1.0])
    out = pixel_wise_argmax(stack, DEFAULT_TAXONOMY, min_area=2)
    assert out.sem[0, 0] == 0
    assert len(out.segments) == 1


def test_every_strategy_merges_a_stack_without_masks_to_one_void_map(
    tmp_path, capsys
):
    stack = make_stack(np.zeros((0, 4, 5), np.float32), [])
    maps = [
        mask_wise_merge(stack, DEFAULT_TAXONOMY),
        pixel_wise_argmax(stack, DEFAULT_TAXONOMY),
        pixel_wise_argmax(stack, DEFAULT_TAXONOMY, weighted=True),
        heuristic_merge(stack, DEFAULT_TAXONOMY),
    ]
    write_stack_set(tmp_path / "set", DEFAULT_TAXONOMY, [("0000", stack)])
    for strategy in ("maskwise", "argmax", "argmax-weighted", "heuristic"):
        argv = ["merge", "--in", str(tmp_path / "set"), "--out", str(tmp_path / strategy)]
        assert main([*argv, "--strategy", strategy]) == 0, capsys.readouterr().err
        [(_, pmap)] = read_panoptic_set(tmp_path / strategy)[1]
        maps.append(pmap)
    for pmap in maps:
        assert pmap.segments == ()
        assert pmap.sem.dtype == pmap.ids.dtype == np.int32
        np.testing.assert_array_equal(pmap.sem, np.zeros((4, 5), np.int32))
        np.testing.assert_array_equal(pmap.ids, np.zeros((4, 5), np.int32))


def test_argmax_merge_stuff_default_on():
    left = np.zeros((4, 4), np.float32)
    left[:, :2] = 0.9
    right = np.zeros((4, 4), np.float32)
    right[:, 2:] = 0.9
    stack = make_stack(np.stack([left, right]), [6, 6], [1.0, 1.0])
    merged = pixel_wise_argmax(stack, DEFAULT_TAXONOMY)
    assert len(merged.segments) == 1
    split = pixel_wise_argmax(stack, DEFAULT_TAXONOMY, merge_stuff=False)
    assert len(split.segments) == 2


def test_heuristic_thing_beats_stuff_everywhere_binarized():
    thing = np.zeros((4, 4), np.float32)
    thing[1:3, 1:3] = 0.8
    stuff = np.ones((4, 4), np.float32)
    stack = make_stack(np.stack([thing, stuff]), [1, 6], [0.9, 1.0])
    out = heuristic_merge(stack, DEFAULT_TAXONOMY)
    out.validate()
    assert (out.sem[1:3, 1:3] == 1).all()
    assert (out.sem[0] == 6).all()


def test_heuristic_stuff_only_matches_argmax():
    inputs = [
        np.random.default_rng(3).random((3, 8, 8)),
        np.random.default_rng(4).random((1, 8, 8)),
        np.random.default_rng(5).integers(0, 3, (3, 8, 8)) / 2,  # many ties
        np.full((3, 8, 8), 0.5),  # all tied: the first mask takes every pixel
    ]
    for masks in inputs:
        stack = make_stack(masks, [6, 7, 8][: len(masks)], [1.0] * len(masks))
        ours = heuristic_merge(stack, DEFAULT_TAXONOMY)
        ref = pixel_wise_argmax(stack, DEFAULT_TAXONOMY, merge_stuff=False)
        assert np.array_equal(ours.sem, ref.sem)
        assert np.array_equal(ours.ids, ref.ids)


def _stacked_argmax(masks, rows, weights):
    scores = np.stack([masks[r] for r in rows])
    if weights is not None:
        scores = scores.astype(np.float64) * weights[list(rows)][:, None, None]
    return np.argmax(scores, axis=0)


def _first_max_case(rng, case, n, h, w):
    """n masks of h x w, their weights and a row subset. Quantized values make
    ties common; -0.0 ties with 0.0. Every fourth case has weighted values
    within a float32 rounding of each other, so only the float64 product
    tells them apart. Every third case takes all rows, the next one row, the
    next a sorted subset."""
    if case % 4 == 3:
        weights = rng.uniform(0.5, 1.0, n)
        base = rng.uniform(0.0, 0.5, (h, w))
        masks = (base * weights[0] / weights[:, None, None]).astype(np.float32)
    else:
        levels = int(rng.choice([2, 3, 5]))
        masks = (rng.integers(0, levels, (n, h, w)) / (levels - 1)).astype(np.float32)
        masks[(masks == 0) & (rng.random(masks.shape) < 0.5)] = -0.0
        weights = rng.choice([0.0, 0.25, 0.5, 1.0, rng.random()], n)
    kind = case % 3
    if kind == 0:
        rows = range(n)
    elif kind == 1:
        rows = [int(rng.integers(n))]
    else:
        size = int(rng.integers(1, n + 1))
        rows = sorted(int(r) for r in rng.choice(n, size, replace=False))
    return masks, weights, rows


def test_first_max_matches_stacked_argmax():
    rng = np.random.default_rng(0)
    for case in range(2400):
        n = int(rng.integers(1, 7))
        h, w = (int(v) for v in rng.integers(1, 6, 2))
        masks, weights, rows = _first_max_case(rng, case, n, h, w)
        for wts in (None, weights):
            got = _first_max(masks, rows, wts)
            assert np.array_equal(got, _stacked_argmax(masks, rows, wts)), case


def _strip_budgets(h, w):
    """_STRIP_PIXELS values for an h x w frame: one-row strips (1, w - 1, w,
    w + 1), two-row strips whose last strip is ragged when h is odd
    (2w + 1), and one strip per frame (h * w)."""
    return (1, w - 1, w, w + 1, 2 * w + 1, h * w)


def test_first_max_matches_stacked_argmax_across_strips(monkeypatch):
    rng = np.random.default_rng(12)
    for case in range(600):
        n = int(rng.integers(1, 7))
        h, w = int(rng.integers(1, 10)), int(rng.integers(1, 14))
        masks, weights, rows = _first_max_case(rng, case, n, h, w)
        for budget in _strip_budgets(h, w):
            monkeypatch.setattr(merging, "_STRIP_PIXELS", budget)
            for wts in (None, weights):
                got = _first_max(masks, rows, wts)
                assert np.array_equal(got, _stacked_argmax(masks, rows, wts)), (
                    case,
                    budget,
                )


def test_argmax_never_builds_the_stack():
    n, h, w = 16, 256, 256
    masks = np.random.default_rng(1).random((n, h, w)).astype(np.float32)
    stack = make_stack(masks, [1, 2, 3, 6] * 4, np.linspace(0.2, 1.0, n))
    for weighted in (True, False):
        tracemalloc.start()
        try:
            pixel_wise_argmax(stack, DEFAULT_TAXONOMY, weighted=weighted)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * h * w * 8 / 2, weighted


def test_first_max_working_set_is_a_strip():
    # Beyond its winners, the kernel holds a strip's maximum, product and tie
    # mask, never a full-frame float64 value.
    n, h, w = 16, 512, 512
    rng = np.random.default_rng(1)
    masks = rng.random((n, h, w)).astype(np.float32)
    weights = rng.random(n)
    for wts in (weights, None):
        tracemalloc.start()
        try:
            winners = _first_max(masks, range(n), wts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - winners.nbytes < h * w * 8, wts is None


def test_argmax_rejects_negative_min_area():
    stack = make_stack(np.full((1, 4, 4), 0.9), [1], [1.0])
    for weighted in (False, True):
        with pytest.raises(ValidationError, match="min_area must be >= 0, got -5"):
            pixel_wise_argmax(stack, DEFAULT_TAXONOMY, weighted, -5)


def _things_only(stack):
    keep = [i for i, p in enumerate(stack.provenance) if p.is_thing]
    provenance = tuple(stack.provenance[i] for i in keep)
    return MaskStack(stack.masks[keep], stack.class_probs[keep], provenance)


def test_heuristic_things_match_maskwise_beta_zero():
    rng = np.random.default_rng(11)
    masks = (rng.random((3, 8, 8)) > 0.35).astype(np.float32)
    stacks = [make_stack(masks, [1, 2, 3], [0.9, 0.7, 0.5])]
    stacks += [_things_only(random_stack(seed, 8, 8, 8)) for seed in range(40)]
    beta_zero = MergeParams(score=ScoreParams(beta=0.0))
    for stack in stacks:
        ours = heuristic_merge(stack, DEFAULT_TAXONOMY)
        ref = mask_wise_merge(stack, DEFAULT_TAXONOMY, beta_zero)
        assert np.array_equal(ours.sem, ref.sem)
        assert np.array_equal(ours.ids, ref.ids)
        assert ours.segments == ref.segments


def _reference_fill(stack, rows, weights, unpainted, min_area, first_id):
    """Naive fill: np.argmax over the stacked (weighted) rows, claims counted
    on unpainted pixels only, rows below max(min_area, 1) voided, ids in row
    order from first_id. Returns the fill's ids and the rows it kept."""
    winners = _stacked_argmax(stack.masks, rows, weights)
    ids = np.zeros(winners.shape, np.int32)
    kept = []
    for k, r in enumerate(rows):
        claim = unpainted & (winners == k)
        if claim.sum() >= max(min_area, 1):
            ids[claim] = first_id + len(kept)
            kept.append(r)
    return ids, kept


def _reference_segments(stack, kept, first_id):
    cats, probs = predicted_labels(stack, DEFAULT_TAXONOMY)
    queries = [p.query_index for p in stack.provenance]
    return [
        Segment(first_id + n, int(cats[r]), queries[r], float(probs[r]))
        for n, r in enumerate(kept)
    ]


def _reference_sem(stack, ids, segments):
    sem = np.zeros(ids.shape, np.int32)
    for seg in segments:
        sem[ids == seg.instance_id] = seg.category_id
    return sem


def _check_fill_phase(stack, label, min_areas=(0, 2, 5)):
    """pixel_wise_argmax (plain and weighted) and heuristic_merge against
    _reference_fill for each min_area; returns the count of voided rows.
    label names the case in failure messages."""
    h, w = stack.height, stack.width
    beta_zero = MergeParams(score=ScoreParams(beta=0.0))
    voided = 0
    _, probs = predicted_labels(stack, DEFAULT_TAXONOMY)
    stuff = [i for i, p in enumerate(stack.provenance) if not p.is_thing]
    painted = mask_wise_merge(_things_only(stack), DEFAULT_TAXONOMY, beta_zero)
    for min_area in min_areas:
        for weights in (None, probs):
            everywhere = np.ones((h, w), bool)
            ids, kept = _reference_fill(
                stack, range(stack.n), weights, everywhere, min_area, 1
            )
            segments = _reference_segments(stack, kept, 1)
            got = pixel_wise_argmax(
                stack, DEFAULT_TAXONOMY, weights is not None, min_area, False
            )
            assert np.array_equal(got.ids, ids), (label, min_area)
            assert np.array_equal(got.sem, _reference_sem(stack, ids, segments))
            assert list(got.segments) == segments
            voided += stack.n - len(kept)
        got = heuristic_merge(stack, DEFAULT_TAXONOMY, MergeParams(min_area=min_area))
        ids = painted.ids.copy()
        segments = list(painted.segments)
        if stuff:
            first = len(segments) + 1
            fill, kept = _reference_fill(
                stack, stuff, None, painted.ids == 0, min_area, first
            )
            ids += fill
            segments += _reference_segments(stack, kept, first)
        assert np.array_equal(got.ids, ids), (label, min_area)
        assert np.array_equal(got.sem, _reference_sem(stack, ids, segments))
        assert list(got.segments) == segments
    return voided


def test_fill_phase_matches_naive_reference():
    voided = 0
    for seed in range(300):
        h, w = (5, 7) if seed % 2 else (8, 8)
        voided += _check_fill_phase(random_stack(seed, h, w, 2 + seed % 7), seed)
    assert voided > 0


def test_fill_phase_matches_naive_reference_across_strips(monkeypatch):
    for seed in range(60):
        h, w = 1 + seed % 9, 1 + (seed * 5) % 13
        stack = random_stack(seed, h, w, 2 + seed % 7)
        for budget in _strip_budgets(h, w):
            monkeypatch.setattr(merging, "_STRIP_PIXELS", budget)
            _check_fill_phase(stack, (seed, budget), (0, 2))


@pytest.mark.parametrize("bad", [1.5, np.nan])
def test_every_strategy_rejects_bad_class_probability(bad):
    # a stack holding one cannot be built, so no strategy is ever handed one
    masks = np.full((2, 4, 4), 0.9, np.float32)
    for cats in ([1, 6], [6, 1]):
        with pytest.raises(ValidationError, match="class probabilities must be finite"):
            make_stack(masks, cats, [bad, 0.8])


# case -> (the stuff query's category, class_probs columns, taxonomy, message)
_UNFIT_STACKS = {
    "unknown stuff category": (
        99, 8, DEFAULT_TAXONOMY, "stuff query 1 names unknown category 99"
    ),
    "three columns": (
        6, 3, DEFAULT_TAXONOMY, "class_probs have 3 columns, taxonomy has 8 categories"
    ),
    "empty taxonomy": (
        6, 0, (), "thing query 0 needs a category, but the taxonomy lists none"
    ),
}

_FIT_CHECKERS = {
    "validate_stack": validate_stack,
    "maskwise": mask_wise_merge,
    "heuristic": heuristic_merge,
    "argmax": pixel_wise_argmax,
    "argmax-weighted": lambda s, t: pixel_wise_argmax(s, t, weighted=True),
    "stack_scores": stack_scores,
    "predicted_labels": predicted_labels,
}


@pytest.mark.parametrize("run", _FIT_CHECKERS)
@pytest.mark.parametrize("case", _UNFIT_STACKS)
def test_every_strategy_checks_the_fit_to_the_taxonomy(case, run):
    category, columns, taxonomy, message = _UNFIT_STACKS[case]
    provenance = (QueryProvenance(0, True), QueryProvenance(1, False, category))
    masks = np.full((2, 4, 4), 0.9, np.float32)
    stack = MaskStack(masks, np.full((2, columns), 0.1), provenance)
    with pytest.raises(ValidationError, match=message):
        _FIT_CHECKERS[run](stack, taxonomy)


def test_merge_same_category_stuff_cases():
    sem = np.zeros((4, 4), np.int32)
    ids = np.zeros((4, 4), np.int32)
    sem[0], ids[0] = 7, 1  # grass
    sem[1], ids[1] = 7, 2  # grass again
    sem[2], ids[2] = 1, 3  # a thing
    pmap = make_map(sem, ids)
    out = merge_same_category_stuff(pmap, DEFAULT_TAXONOMY)
    out.validate()
    cats = sorted(s.category_id for s in out.segments)
    assert cats == [1, 7]
    assert (out.ids[0] == out.ids[1]).all()
    assert (out.ids[2] == 3).all()


def test_merge_same_category_stuff_things_untouched():
    sem = np.zeros((4, 4), np.int32)
    ids = np.zeros((4, 4), np.int32)
    sem[0], ids[0] = 1, 1
    sem[1], ids[1] = 1, 2
    pmap = make_map(sem, ids)
    out = merge_same_category_stuff(pmap, DEFAULT_TAXONOMY)
    assert len(out.segments) == 2


def test_merge_same_category_stuff_memory_follows_the_frame_not_the_ids():
    sem = np.full((64, 64), 7, np.int32)  # grass
    ids = np.ones((64, 64), np.int32)
    ids[32:] = 20_000_000  # grass again: merged into id 1
    sem[:8, :8], ids[:8, :8] = 1, 19_999_999  # a thing, untouched
    pmap = make_map(sem, ids)
    tracemalloc.start()
    try:
        out = merge_same_category_stuff(pmap, DEFAULT_TAXONOMY)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    out.validate()
    np.testing.assert_array_equal(out.ids, np.where(ids == 20_000_000, 1, ids))
    assert [s.instance_id for s in out.segments] == [1, 19_999_999]


def test_merge_same_category_stuff_same_for_ids_wider_than_the_frame():
    scale = 1_000_003  # every id but void then exceeds the 64 pixels
    merged = 0
    for seed in range(30):
        stack = random_stack(seed, 8, 8, 6)
        narrow = pixel_wise_argmax(stack, DEFAULT_TAXONOMY, merge_stuff=False)
        wide = PanopticMap(
            narrow.sem,
            narrow.ids * scale,
            [
                dataclasses.replace(s, instance_id=s.instance_id * scale)
                for s in narrow.segments
            ],
        )
        want = merge_same_category_stuff(narrow, DEFAULT_TAXONOMY)
        stuff = {c.id for c in DEFAULT_TAXONOMY if not c.is_thing}
        ref = narrow.ids.copy()  # per-pixel reference: each id to its group's lowest
        for s in narrow.segments:
            if s.category_id in stuff:
                ref[narrow.ids == s.instance_id] = min(
                    t.instance_id
                    for t in narrow.segments
                    if t.category_id == s.category_id
                )
        np.testing.assert_array_equal(want.ids, ref)
        got = merge_same_category_stuff(wide, DEFAULT_TAXONOMY)
        np.testing.assert_array_equal(got.ids, want.ids * scale)
        assert got.segments == tuple(
            dataclasses.replace(s, instance_id=s.instance_id * scale)
            for s in want.segments
        )
        merged += len(want.segments) < len(narrow.segments)
    assert merged > 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_merge_same_category_stuff_matches_a_per_pixel_reference(seed):
    # 2-4 segments per stuff category plus a few things, ids wider than the
    # 6x6 frame, records listed out of id order
    rng = np.random.default_rng(seed)
    stuff = [c.id for c in DEFAULT_TAXONOMY if not c.is_thing]
    cats = [cat for cat in stuff for _ in range(rng.integers(2, 5))]
    cats += rng.choice([1, 2, 3], size=rng.integers(0, 3)).tolist()
    inst = rng.choice(np.arange(1, 10**9, 1_000_003), size=len(cats), replace=False)
    segments = [Segment(int(i), int(c)) for i, c in zip(inst, cats)]
    rng.shuffle(segments)
    if segments == sorted(segments, key=lambda s: s.instance_id):
        segments.reverse()
    pick = rng.integers(-1, len(segments), size=(6, 6))  # -1 is void
    ids = np.where(pick < 0, 0, np.array([s.instance_id for s in segments])[pick])
    sem = np.where(pick < 0, 0, np.array([s.category_id for s in segments])[pick])
    pmap = PanopticMap(sem, ids, segments).validate()
    lowest = {
        cat: min(s.instance_id for s in segments if s.category_id == cat)
        for cat in stuff
    }
    ref = ids.copy()
    for y in range(6):
        for x in range(6):
            if sem[y, x] in lowest:
                ref[y, x] = lowest[sem[y, x]]
    out = merge_same_category_stuff(pmap, DEFAULT_TAXONOMY)
    out.validate()
    np.testing.assert_array_equal(out.ids, ref)
    np.testing.assert_array_equal(out.sem, sem)
    kept = set(lowest.values())
    assert out.segments == tuple(
        s for s in segments if s.category_id not in lowest or s.instance_id in kept
    )


def test_all_strategies_output_valid_maps():
    for seed in range(10):
        stack = random_stack(seed, 8, 8, 4)
        mask_wise_merge(stack, DEFAULT_TAXONOMY).validate()
        pixel_wise_argmax(stack, DEFAULT_TAXONOMY).validate()
        pixel_wise_argmax(stack, DEFAULT_TAXONOMY, weighted=True).validate()
        heuristic_merge(stack, DEFAULT_TAXONOMY).validate()


def test_merge_params_range_checked():
    with pytest.raises(ValidationError):
        MergeParams(t_cnf=1.5)
    with pytest.raises(ValidationError):
        MergeParams(t_keep=-0.1)


def _window_edge_stacks():
    """random_stack cases plus the edges of the windowed path: a lone kept
    pixel far from its mask's body (the window spans the frame), values of
    exactly 0.5 (not kept), all-zero and all-0.5 masks (empty windows),
    1-row and 1-column frames, and empty stacks."""
    h, w = 9, 11
    body = np.zeros((h, w), np.float32)
    body[1:4, 1:4] = 0.875
    lone = body.copy()
    lone[h - 1, w - 1] = 0.625
    half = np.zeros((h, w), np.float32)
    half[2:7, 3:9] = 0.5
    half[4, 5] = 0.75
    flat_half = np.full((h, w), 0.5, np.float32)
    zero = np.zeros((h, w), np.float32)
    full = np.full((h, w), 0.75, np.float32)
    masks = [lone, body, half, flat_half, zero, full]
    stacks = [
        make_stack(masks, [1, 2, 3, 6, 4, 7], [1.0, 0.875, 0.75, 1.0, 1.0, 0.5]),
        make_stack(masks[::-1], [7, 4, 6, 3, 2, 1], [1.0, 0.25, 0.5, 1.0, 0.875, 1.0]),
    ]
    for seed in range(60):
        size = 1 + seed % 12
        stacks.append(random_stack(seed, 1, size, 1 + seed % 6))
        stacks.append(random_stack(seed, size, 1, 1 + seed % 6))
        stacks.append(random_stack(seed, 2 + seed % 9, 3 + seed % 7, seed % 9))
    stacks.append(random_stack(0, 4, 5, 0))
    return stacks


_WINDOW_PARAMS = (
    MergeParams(),
    MergeParams(t_cnf=0.0, t_keep=0.0),
    MergeParams(t_keep=0.3, min_area=2),
)


def test_windows_are_the_nonzero_bounds_of_the_binarized_masks():
    for stack in _window_edge_stacks():
        assert len(stack.windows) == stack.n
        for mask, window in zip(stack.masks, stack.windows):
            ys, xs = np.nonzero(mask > 0.5)
            if ys.size == 0:
                assert window == (slice(0, 0), slice(0, 0))
            else:
                rows = slice(int(ys.min()), int(ys.max()) + 1)
                cols = slice(int(xs.min()), int(xs.max()) + 1)
                assert window == (rows, cols)


def test_windowed_scores_equal_full_frame_confidences():
    score = ScoreParams(alpha=0.5, beta=3.0)
    for stack in _window_edge_stacks():
        _, probs, confs = stack_scores(stack, DEFAULT_TAXONOMY, score)
        full = [confidence(float(p), m, score) for p, m in zip(probs, stack.masks)]
        assert confs.tobytes() == np.array(full, np.float64).tobytes()


def test_windowed_mask_wise_merge_matches_oracle():
    for stack in _window_edge_stacks():
        _, probs = predicted_labels(stack, DEFAULT_TAXONOMY)
        row_of = {p.query_index: i for i, p in enumerate(stack.provenance)}
        for params in _WINDOW_PARAMS:
            got = mask_wise_merge(stack, DEFAULT_TAXONOMY, params)
            ref = oracle_merge(stack, DEFAULT_TAXONOMY, params)
            assert np.array_equal(got.ids, ref.ids)
            assert np.array_equal(got.sem, ref.sem)
            # the oracle sums q in its own order; scores are the reference's
            segments = [
                Segment(
                    s.instance_id,
                    s.category_id,
                    s.source_query,
                    confidence(
                        float(probs[row_of[s.source_query]]),
                        stack.masks[row_of[s.source_query]],
                        params.score,
                    ),
                )
                for s in ref.segments
            ]
            assert list(got.segments) == segments


def test_windowed_heuristic_merge_matches_oracle_then_fill():
    for stack in _window_edge_stacks():
        stuff = [i for i, p in enumerate(stack.provenance) if not p.is_thing]
        for params in _WINDOW_PARAMS:
            beta_zero = MergeParams(
                params.t_cnf, params.t_keep, score=ScoreParams(beta=0.0)
            )
            painted = oracle_merge(_things_only(stack), DEFAULT_TAXONOMY, beta_zero)
            ids = painted.ids.copy()
            segments = list(painted.segments)
            if stuff:
                first = len(segments) + 1
                fill, kept = _reference_fill(
                    stack, stuff, None, painted.ids == 0, params.min_area, first
                )
                ids += fill
                segments += _reference_segments(stack, kept, first)
            got = heuristic_merge(stack, DEFAULT_TAXONOMY, params)
            assert np.array_equal(got.ids, ids)
            assert np.array_equal(got.sem, _reference_sem(stack, ids, segments))
            assert list(got.segments) == segments
