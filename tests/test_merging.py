import numpy as np
import pytest

from panokit import (
    DEFAULT_TAXONOMY,
    MaskStack,
    MergeParams,
    ScoreParams,
    ValidationError,
    heuristic_merge,
    mask_wise_merge,
    merge_same_category_stuff,
    pixel_wise_argmax,
    random_stack,
)

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
    from panokit import MaskStack, QueryProvenance

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


def test_argmax_empty_stack_rejected():
    stack = make_stack(np.zeros((0, 4, 4), np.float32), [])
    with pytest.raises(ValidationError):
        pixel_wise_argmax(stack, DEFAULT_TAXONOMY)


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
    rng = np.random.default_rng(3)
    masks = rng.random((3, 8, 8)).astype(np.float32)
    stack = make_stack(masks, [6, 7, 8], [1.0, 1.0, 1.0])
    ours = heuristic_merge(stack, DEFAULT_TAXONOMY)
    ref = pixel_wise_argmax(stack, DEFAULT_TAXONOMY, merge_stuff=False)
    assert np.array_equal(ours.sem, ref.sem)


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


@pytest.mark.parametrize("bad", [1.5, np.nan])
def test_every_strategy_rejects_bad_class_probability(bad):
    masks = np.full((2, 4, 4), 0.9, np.float32)
    for cats in ([1, 6], [6, 1]):
        stack = make_stack(masks, cats, [bad, 0.8])
        for run in (
            mask_wise_merge,
            heuristic_merge,
            pixel_wise_argmax,
            lambda s, t: pixel_wise_argmax(s, t, weighted=True),
        ):
            with pytest.raises(ValidationError):
                run(stack, DEFAULT_TAXONOMY)


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
