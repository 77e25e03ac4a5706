import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from panokit import (
    DEFAULT_TAXONOMY,
    CategorySpec,
    MaskStack,
    PanopticMap,
    QueryProvenance,
    Segment,
    ValidationError,
    binarize,
    stuff_ids,
    thing_ids,
    token_counts,
    validate_stack,
)
from panokit.types import taxonomy_columns

from conftest import make_stack


def test_wellformed_stack_passes():
    stack = make_stack(np.full((2, 4, 4), 0.7), [1, 6], [0.9, 0.8])
    validate_stack(stack, DEFAULT_TAXONOMY)
    assert stack.n == 2 and stack.height == 4 and stack.width == 4


def test_mask_value_above_one_rejected():
    stack = make_stack(np.full((1, 4, 4), 0.5), [1])
    bad = stack.masks.copy()
    bad[0, 0, 0] = 1.2
    stack = MaskStack(bad, stack.class_probs, stack.provenance)
    with pytest.raises(ValidationError, match="\\[0, 1\\]"):
        validate_stack(stack, DEFAULT_TAXONOMY)


def test_all_nan_masks_rejected():
    stack = make_stack(np.full((2, 4, 4), np.nan), [1, 6], [0.9, 0.8])
    with pytest.raises(ValidationError, match="finite"):
        validate_stack(stack, DEFAULT_TAXONOMY)


def test_nan_class_probability_rejected():
    stack = make_stack(np.full((2, 4, 4), 0.7), [1, 6], [0.9, np.nan])
    with pytest.raises(ValidationError, match="finite"):
        validate_stack(stack, DEFAULT_TAXONOMY)


def test_stuff_without_fixed_category_rejected():
    stack = make_stack(np.full((1, 4, 4), 0.5), [1])
    prov = (QueryProvenance(0, False, None),)
    with pytest.raises(ValidationError, match="fixed_category"):
        validate_stack(
            MaskStack(stack.masks, stack.class_probs, prov), DEFAULT_TAXONOMY
        )


def test_thing_with_fixed_category_rejected():
    stack = make_stack(np.full((1, 4, 4), 0.5), [1])
    prov = (QueryProvenance(0, True, 1),)
    with pytest.raises(ValidationError, match="fixed_category"):
        validate_stack(
            MaskStack(stack.masks, stack.class_probs, prov), DEFAULT_TAXONOMY
        )


def test_provenance_length_mismatch_rejected():
    masks = np.full((2, 4, 4), 0.5, np.float32)
    probs = np.zeros((2, len(DEFAULT_TAXONOMY)), np.float32)
    with pytest.raises(ValidationError):
        validate_stack(
            MaskStack(masks, probs, (QueryProvenance(0, True),)), DEFAULT_TAXONOMY
        )


def test_stack_arrays_are_frozen():
    stack = make_stack(np.full((1, 4, 4), 0.5), [1])
    with pytest.raises(ValueError):
        stack.masks[0, 0, 0] = 0.0


def test_binarize_all_zeros_false():
    assert not binarize(np.zeros((3, 3), np.float32)).any()


def test_binarize_exact_half_is_false():
    m = np.full((2, 2), 0.5, np.float32)
    assert not binarize(m).any()


def test_binarize_center_only():
    m = np.full((3, 3), 0.4, np.float32)
    m[1, 1] = 0.6
    out = binarize(m)
    assert out[1, 1] and out.sum() == 1


@given(st.floats(0.0, 1.0, allow_nan=False))
def test_binarize_matches_strict_compare(value):
    for dtype in (np.float16, np.float32, np.float64):
        m = np.full((2, 2), value, dtype)
        assert bool(binarize(m)[0, 0]) == (float(dtype(value)) > 0.5)


def test_taxonomy_columns_positional():
    cols = taxonomy_columns(DEFAULT_TAXONOMY)
    assert cols == {c.id: i for i, c in enumerate(DEFAULT_TAXONOMY)}


def test_taxonomy_duplicate_id_rejected():
    tax = (CategorySpec(1, "a", True), CategorySpec(1, "b", False))
    with pytest.raises(ValidationError):
        taxonomy_columns(tax)


def test_thing_stuff_split():
    assert thing_ids(DEFAULT_TAXONOMY) == frozenset({1, 2, 3, 4, 5})
    assert stuff_ids(DEFAULT_TAXONOMY) == frozenset({6, 7, 8})


def test_category_id_must_be_positive():
    with pytest.raises(ValidationError):
        CategorySpec(0, "void", False)


def test_panoptic_map_void_coupling_enforced():
    sem = np.zeros((4, 4), np.int32)
    ids = np.zeros((4, 4), np.int32)
    sem[0, 0] = 1  # category painted without an instance id
    with pytest.raises(ValidationError):
        PanopticMap(sem, ids, ()).validate()


def test_panoptic_map_segment_bookkeeping():
    sem = np.zeros((4, 4), np.int32)
    ids = np.zeros((4, 4), np.int32)
    sem[:2] = 1
    ids[:2] = 1
    pmap = PanopticMap(sem, ids, (Segment(1, 1),))
    pmap.validate()
    with pytest.raises(ValidationError):
        PanopticMap(sem, ids, ()).validate()  # painted id without a segment
    with pytest.raises(ValidationError):
        PanopticMap(sem, ids, (Segment(1, 1), Segment(1, 2))).validate()


def test_panoptic_map_one_category_per_id():
    sem = np.zeros((4, 4), np.int32)
    ids = np.zeros((4, 4), np.int32)
    sem[0] = 1
    sem[1] = 2
    ids[:2] = 1
    with pytest.raises(ValidationError):
        PanopticMap(sem, ids, (Segment(1, 1),)).validate()


def test_token_counts_32():
    assert token_counts(32, 32) == (16, 4, 1)
    assert token_counts(64, 64) == (64, 16, 4)


def test_token_counts_requires_multiple_of_32():
    with pytest.raises(ValidationError):
        token_counts(48, 64)
