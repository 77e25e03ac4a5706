import tracemalloc

import numpy as np
import pytest

from panokit import (
    FuseHead,
    MultiScaleAttn,
    ValidationError,
    attn_to_mask,
    bilinear_upsample,
    flatten_attn,
    fuse_attn,
    predict_mask,
    split_attn,
    token_counts,
)


def _attn(height, width, heads, seed=0):
    l1, l2, l3 = token_counts(height, width)
    rng = np.random.default_rng(seed)
    tokens = rng.random((l1 + l2 + l3, heads)).astype(np.float32)
    return MultiScaleAttn(tokens, heads, height, width)


def test_token_shapes_32():
    attn = _attn(32, 32, 1)
    a3, a4, a5 = split_attn(attn)
    assert a3.shape == (4, 4, 1)
    assert a4.shape == (2, 2, 1)
    assert a5.shape == (1, 1, 1)
    assert attn.tokens.shape[0] == 21


def test_split_constant_tokens():
    l1, l2, l3 = token_counts(32, 32)
    tokens = np.full((l1 + l2 + l3, 2), 0.25, np.float32)
    a3, a4, a5 = split_attn(MultiScaleAttn(tokens, 2, 32, 32))
    for a in (a3, a4, a5):
        assert (a == np.float32(0.25)).all()


def test_round_trip_exact():
    attn = _attn(64, 64, 8, seed=3)
    back = flatten_attn(*split_attn(attn))
    assert np.array_equal(back.tokens, attn.tokens)
    assert back.heads == attn.heads


def test_token_count_mismatch_rejected():
    with pytest.raises(ValidationError):
        MultiScaleAttn(np.zeros((20, 1), np.float32), 1, 32, 32)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_token_rejected(bad):
    tokens = _attn(32, 32, 2).tokens.copy()
    tokens[3, 1] = bad
    with pytest.raises(ValidationError, match="^tokens must be finite$"):
        MultiScaleAttn(tokens, 2, 32, 32)


@pytest.mark.parametrize("field", ["weight", "bias"])
def test_nonfinite_head_rejected(field):
    weights, bias = np.full(6, 0.5), 0.5
    if field == "weight":
        weights[4] = np.nan
    else:
        bias = np.inf
    with pytest.raises(ValidationError, match="^head weights must be finite$"):
        FuseHead(weights, bias)


def test_bilinear_constant_preserved():
    arr = np.full((3, 5, 2), 1.5, np.float64)
    up = bilinear_upsample(arr, 2)
    assert up.shape == (6, 10, 2)
    assert up == pytest.approx(1.5)


def test_bilinear_2x2_hand_values():
    arr = np.array([[[0.0], [1.0]], [[2.0], [3.0]]], np.float64)
    up = bilinear_upsample(arr, 2)
    # half-pixel sampling: interior weights 0.75/0.25, edges clamp
    assert up[0, :, 0] == pytest.approx([0.0, 0.25, 0.75, 1.0])
    assert up[:, 0, 0] == pytest.approx([0.0, 0.5, 1.5, 2.0])
    assert up[3, :, 0] == pytest.approx([2.0, 2.25, 2.75, 3.0])


def test_fuse_constant_channels_in_order():
    l1, l2, l3 = token_counts(32, 32)
    tokens = np.concatenate(
        [
            np.full((l1, 1), 1.0, np.float32),
            np.full((l2, 1), 2.0, np.float32),
            np.full((l3, 1), 3.0, np.float32),
        ]
    )
    fused = fuse_attn(*split_attn(MultiScaleAttn(tokens, 1, 32, 32)))
    assert fused.shape == (4, 4, 3)
    assert fused[..., 0] == pytest.approx(1.0)  # finest map first
    assert fused[..., 1] == pytest.approx(2.0)
    assert fused[..., 2] == pytest.approx(3.0)


def test_zero_head_gives_half():
    head = FuseHead(np.zeros(3, np.float64), 0.0)
    fused = np.random.default_rng(0).random((4, 4, 3))
    out = predict_mask(fused, head)
    assert out == pytest.approx(0.5)


def test_one_hot_head_is_logistic_of_channel():
    v = 0.7
    head = FuseHead(np.array([0.0, 1.0, 0.0]), 0.0)
    fused = np.zeros((4, 4, 3))
    fused[..., 1] = v
    out = predict_mask(fused, head)
    assert out == pytest.approx(1.0 / (1.0 + np.exp(-v)))


def test_output_shape_is_eighth_of_input():
    attn = _attn(64, 32, 8, seed=1)
    head = FuseHead.seeded(8, 0)
    out = attn_to_mask(attn, head)
    assert out.shape == (8, 4)
    assert ((out > 0.0) & (out < 1.0)).all()


def test_head_parameter_count():
    head = FuseHead.seeded(8, 0)
    assert head.param_count == 25
    assert head.heads == 8


def test_head_heads_must_match_tokens():
    attn = _attn(32, 32, 4)
    head = FuseHead.seeded(8, 0)
    with pytest.raises(ValidationError):
        attn_to_mask(attn, head)


def test_head_save_load_round_trip(tmp_path):
    head = FuseHead.seeded(8, 42)
    path = tmp_path / "head.pst"
    head.save(path)
    back = FuseHead.load(path)
    assert back.heads == 8
    # storage is f32, so compare at f32 resolution
    assert back.weights == pytest.approx(head.weights, abs=1e-6)
    assert back.bias == pytest.approx(head.bias, abs=1e-6)


def test_seeded_head_deterministic():
    a = FuseHead.seeded(8, 7)
    b = FuseHead.seeded(8, 7)
    assert np.array_equal(a.weights, b.weights) and a.bias == b.bias
    c = FuseHead.seeded(8, 8)
    assert not np.array_equal(a.weights, c.weights)


def test_attn_to_mask_matches_staged_reference():
    rng = np.random.default_rng(5)
    sides = range(32, 257, 32)
    for case in range(60):
        height, width = int(rng.choice(sides)), int(rng.choice(sides))
        heads = (1, 3, 8)[case % 3]
        length = sum(token_counts(height, width))
        fill = case % 5
        if fill == 0:
            tokens = np.full((length, heads), rng.random(), np.float32)
        elif fill in (1, 2):
            tokens = np.full((length, heads), fill - 1, np.float32)
        else:
            tokens = rng.random((length, heads), dtype=np.float32)
        if case % 2:
            head = FuseHead.seeded(heads, case)
        else:
            head = FuseHead(rng.normal(0.0, 40.0, 3 * heads), rng.normal(0.0, 40.0))
        attn = MultiScaleAttn(tokens, heads, height, width)
        got = attn_to_mask(attn, head)
        want = predict_mask(fuse_attn(*split_attn(attn)), head)
        assert got.shape == want.shape == (height // 8, width // 8), case
        assert got.dtype == np.float64, case
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=str(case))


def test_attn_to_mask_never_builds_the_fused_tensor():
    height = width = 512
    heads = 8
    attn = _attn(height, width, heads, seed=2)
    head = FuseHead.seeded(heads, 0)
    tracemalloc.start()
    try:
        attn_to_mask(attn, head)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (height // 8) * (width // 8) * 3 * heads * 8 / 2
