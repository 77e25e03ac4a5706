import hashlib
import itertools
import math

import numpy as np
import pytest

from panokit import (
    DEFAULT_TAXONOMY,
    CategorySpec,
    MergeParams,
    Rng,
    SceneParams,
    ValidationError,
    generate_scene,
    mask_wise_merge,
    oracle_assignment,
    oracle_merge,
    pq,
    random_stack,
    validate_stack,
)
from panokit.synth import _CHUNK
from panokit.types import stuff_ids, thing_ids


def test_rng_reference_stream():
    # splitmix64 reference outputs (counter form: out_j = mix(seed+(j+1)*golden))
    assert list(Rng(0).u64(4)) == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
        17909611376780542444,
    ]
    assert list(Rng(1234567).u64(3)) == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]


def test_rng_uniforms_are_53_bit():
    u = Rng(0).uniforms(2)
    assert u[0] == pytest.approx(0.8833108082136426, abs=0)
    assert u[1] == pytest.approx(0.43152799704850997, abs=0)
    big = Rng(9).uniforms(10_000)
    assert ((big >= 0.0) & (big < 1.0)).all()
    assert abs(big.mean() - 0.5) < 0.02


def test_rng_streams_do_not_overlap_after_split():
    a = Rng(5)
    first = a.uniforms(3)
    second = a.uniforms(3)
    assert not np.array_equal(first, second)
    fresh = Rng(5).uniforms(6)
    assert np.array_equal(np.concatenate([first, second]), fresh)


def test_rng_normals_shape_and_moments():
    z = Rng(2).normals(50_001)  # odd length exercises the Box-Muller tail
    assert z.shape == (50_001,)
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02


def test_rng_scalar_word_equals_the_vector_mix():
    for seed in (0, 1, 7919, 2**64 - 1):
        scalar, vector = Rng(seed), Rng(seed)
        for _ in range(1000):
            assert scalar._word() == int(vector.u64(1)[0])
        assert scalar._drawn == vector._drawn == 1000


def _whole_array_normals(rng, n):
    """Box-Muller on whole blocks, the layout normals must keep in chunks."""
    m = (n + 1) // 2
    u1 = rng.uniforms(m) + 2.0**-53
    u2 = rng.uniforms(m)
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * math.pi * u2
    return np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]


@pytest.mark.parametrize(
    "n", [0, 1, 2, 3, 2 * _CHUNK - 1, 2 * _CHUNK, 2 * _CHUNK + 1, 4 * _CHUNK + 3]
)
def test_rng_normals_equal_one_block_draw_at_chunk_edges(n):
    for seed in (0, 7919):
        chunked, whole = Rng(seed), Rng(seed)
        got = chunked.normals(n)
        want = _whole_array_normals(whole, n)
        assert got.shape == want.shape == (n,)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(chunked.u64(3), whole.u64(3))


def test_rng_randint_and_permutation():
    r = Rng(3)
    draws = {r.randint(2, 7) for _ in range(1000)}
    assert draws == set(range(2, 7))
    perm = Rng(4).permutation(10)
    assert sorted(perm) == list(range(10))


def test_scene_deterministic():
    params = SceneParams(seed=11, height=64, width=64, noise_sigma=0.1)
    gt_a, stack_a = generate_scene(params)
    gt_b, stack_b = generate_scene(params)
    assert np.array_equal(gt_a.sem, gt_b.sem)
    assert np.array_equal(gt_a.ids, gt_b.ids)
    assert np.array_equal(
        stack_a.masks.view(np.uint32), stack_b.masks.view(np.uint32)
    )
    assert np.array_equal(stack_a.class_probs, stack_b.class_probs)


def test_scene_stack_is_valid():
    _, stack = generate_scene(SceneParams(seed=0, height=64, width=96, noise_sigma=0.2))
    validate_stack(stack, DEFAULT_TAXONOMY)


def test_noise_free_scene_recovers_gt():
    for seed in range(5):
        gt, stack = generate_scene(SceneParams(seed=seed, height=64, width=64))
        pred = mask_wise_merge(stack, DEFAULT_TAXONOMY)
        agg = pq(pred, gt, DEFAULT_TAXONOMY).aggregates(DEFAULT_TAXONOMY)
        assert agg["pq"] == 1.0


def test_gt_has_bottom_void_strip():
    params = SceneParams(seed=1, height=64, width=64)
    gt, _ = generate_scene(params)
    strip = 64 // 8
    assert (gt.sem[-strip:] == 0).all()
    assert (gt.sem[: 64 - strip] != 0).any()


def test_noise_changes_masks_not_gt():
    clean_gt, clean_stack = generate_scene(SceneParams(seed=6, height=64, width=64))
    noisy_gt, noisy_stack = generate_scene(
        SceneParams(seed=6, height=64, width=64, noise_sigma=0.3)
    )
    assert np.array_equal(clean_gt.sem, noisy_gt.sem)
    assert np.array_equal(clean_gt.ids, noisy_gt.ids)
    assert not np.array_equal(clean_stack.masks, noisy_stack.masks)


def test_provenance_layout_things_then_stuff():
    params = SceneParams(seed=2, n_things=3, stuff_bands=2)
    _, stack = generate_scene(params)
    assert stack.n == 5
    things = thing_ids(DEFAULT_TAXONOMY)
    for i, prov in enumerate(stack.provenance):
        assert prov.query_index == i
        assert prov.is_thing == (i < 3)
        if not prov.is_thing:
            assert prov.fixed_category in stuff_ids(DEFAULT_TAXONOMY)


def test_thing_probs_strictly_decreasing_above_stuff():
    _, stack = generate_scene(SceneParams(seed=4, n_things=5, stuff_bands=2))
    own = []
    for i in range(5):
        own.append(float(stack.class_probs[i].max()))
    assert all(a > b for a, b in zip(own, own[1:]))
    stuff_own = [float(stack.class_probs[i].max()) for i in (5, 6)]
    assert max(stuff_own) < min(own)


def test_overlap_bias_one_makes_all_things_collide():
    for seed in range(5):
        params = SceneParams(seed=seed, n_things=4, overlap_bias=1.0)
        _, stack = generate_scene(params)
        binarized = stack.masks[:4] > 0.5
        for i in range(4):
            for j in range(i + 1, 4):
                assert (binarized[i] & binarized[j]).any(), (seed, i, j)


def test_amodal_masks_extend_under_occluders():
    params = SceneParams(seed=3, n_things=4, overlap_bias=1.0)
    gt, stack = generate_scene(params)
    hidden = 0
    for i in range(4):
        amodal = int((stack.masks[i] > 0.5).sum())
        visible = int((gt.ids == i + 1).sum())
        assert amodal >= visible
        hidden += amodal - visible
    assert hidden > 0  # overlapping layout must hide some pixels


def test_scene_dims_must_be_multiple_of_32():
    with pytest.raises(ValidationError):
        SceneParams(seed=0, height=48, width=64)


def test_scene_rejects_a_taxonomy_with_a_duplicate_id():
    taxonomy = (*DEFAULT_TAXONOMY, CategorySpec(1, "box again", True))
    with pytest.raises(ValidationError, match="duplicate category id 1"):
        generate_scene(SceneParams(seed=1), taxonomy)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_nonfinite_noise_rejected(bad):
    with pytest.raises(ValidationError, match=f"noise_sigma must be finite.*got {bad}"):
        SceneParams(seed=0, noise_sigma=bad)


def test_oracle_empty_stack():
    stack = random_stack(0, 8, 8, 0)
    out = oracle_merge(stack, DEFAULT_TAXONOMY)
    assert (out.ids == 0).all() and len(out.segments) == 0


def test_oracle_single_mask_footprint():
    stack = random_stack(1, 8, 8, 1)
    out = oracle_merge(stack, DEFAULT_TAXONOMY)
    fast = mask_wise_merge(stack, DEFAULT_TAXONOMY)
    assert np.array_equal(out.sem, fast.sem)
    assert np.array_equal(out.ids, fast.ids)


def test_oracle_matches_maskwise_on_small_stacks():
    for seed in range(25):
        stack = random_stack(seed, 8, 8, seed % 6)
        slow = oracle_merge(stack, DEFAULT_TAXONOMY)
        fast = mask_wise_merge(stack, DEFAULT_TAXONOMY)
        assert np.array_equal(slow.sem, fast.sem), seed
        assert np.array_equal(slow.ids, fast.ids), seed
        assert [
            (s.instance_id, s.category_id, s.source_query) for s in slow.segments
        ] == [(s.instance_id, s.category_id, s.source_query) for s in fast.segments]


def test_oracle_respects_params():
    stack = random_stack(7, 8, 8, 4)
    params = MergeParams(t_cnf=0.4, t_keep=0.8)
    slow = oracle_merge(stack, DEFAULT_TAXONOMY, params)
    fast = mask_wise_merge(stack, DEFAULT_TAXONOMY, params)
    assert np.array_equal(slow.sem, fast.sem)
    assert np.array_equal(slow.ids, fast.ids)


def test_random_stack_deterministic_and_valid():
    a = random_stack(9, 8, 8, 5)
    b = random_stack(9, 8, 8, 5)
    assert np.array_equal(a.masks, b.masks)
    assert np.array_equal(a.class_probs, b.class_probs)
    validate_stack(a, DEFAULT_TAXONOMY)


def test_oracle_assignment_diagonal():
    costs = np.ones((3, 3)) - np.eye(3)
    out = oracle_assignment(costs)
    assert sorted(out.pairs) == [(0, 0), (1, 1), (2, 2)]


def test_oracle_assignment_empty_cols():
    out = oracle_assignment(np.zeros((3, 0)))
    assert out.pairs == () and out.unmatched_queries == frozenset({0, 1, 2})


def test_oracle_assignment_size_guard():
    with pytest.raises(ValidationError):
        oracle_assignment(np.zeros((8, 8)))


def _scene_parts(params):
    try:
        gt, stack = generate_scene(params)
    except ValidationError as exc:
        return [repr(params), str(exc)]
    return [
        repr(params),
        gt.sem,
        gt.ids,
        stack.masks,
        stack.class_probs,
        repr(gt.segments),
        repr(stack.provenance),
    ]


def _pinned_parts():
    """Noise-free scenes over a grid of seeds, shapes, counts, bands and
    biases (refusals by their message), one crowded 256x256 scene, the Rng
    streams and random_stack cases. Noise is left out: numpy's float64
    log/sin/cos may take CPU-specific paths."""
    grid = itertools.product(
        (0, 1, 7919, 2**64 - 1),
        ((64, 64), (96, 128)),
        (0, 1, 5, 12),
        (1, 3),
        (0.0, 0.5, 1.0),
    )
    for seed, (height, width), n, bands, bias in grid:
        yield from _scene_parts(SceneParams(seed, height, width, n, bands, 0.0, bias))
    yield from _scene_parts(SceneParams(7919, 256, 256, 30))
    for seed in (0, 1, 7919, 2**64 - 1):
        rng = Rng(seed)
        yield rng.u64(33)
        yield rng.uniforms(33)
        yield repr([rng.uniform(-2.5, 7.0) for _ in range(9)])
        yield repr([rng.randint(-5, 1000) for _ in range(9)])
        yield repr(rng.permutation(17))
    for case in range(20):
        stack = random_stack(case, 8 + case % 3, 5 + case % 4, case % 7)
        yield from (stack.masks, stack.class_probs, repr(stack.provenance))


_SCENE_PIN = "b1e0a539aa50753d60b8821f0cabc0769c0175e30651d3a985d259e4deefbf20"


def test_scene_bytes_are_pinned():
    # any change to a scene, a draw or a refusal message changes this digest
    digest = hashlib.sha256()
    for part in _pinned_parts():
        if isinstance(part, str):
            digest.update(part.encode())
        else:
            digest.update(repr((part.dtype.str, part.shape)).encode())
            digest.update(np.ascontiguousarray(part).tobytes())
    assert digest.hexdigest() == _SCENE_PIN
