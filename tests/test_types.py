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
from panokit.types import _pair_counts, taxonomy_columns

from conftest import make_stack


def test_wellformed_stack_passes():
    stack = make_stack(np.full((2, 4, 4), 0.7), [1, 6], [0.9, 0.8])
    validate_stack(stack, DEFAULT_TAXONOMY)
    assert stack.n == 2 and stack.height == 4 and stack.width == 4


def test_mask_value_above_one_rejected():
    stack = make_stack(np.full((1, 4, 4), 0.5), [1])
    bad = stack.masks.copy()
    bad[0, 0, 0] = 1.2
    with pytest.raises(ValidationError, match="\\[0, 1\\]"):
        MaskStack(bad, stack.class_probs, stack.provenance)


def test_all_nan_masks_rejected():
    with pytest.raises(ValidationError, match="finite"):
        make_stack(np.full((2, 4, 4), np.nan), [1, 6], [0.9, 0.8])


def test_nan_class_probability_rejected():
    with pytest.raises(ValidationError, match="finite"):
        make_stack(np.full((2, 4, 4), 0.7), [1, 6], [0.9, np.nan])


@pytest.mark.parametrize("shape", [(2, 0, 4), (2, 4, 0)])
def test_zero_size_frames_validate_and_nan_probabilities_still_fail(shape):
    stack = make_stack(np.zeros(shape), [1, 6], [0.9, 0.8])
    assert validate_stack(stack, DEFAULT_TAXONOMY) is stack
    with pytest.raises(ValidationError, match="class probabilities must be finite"):
        make_stack(np.zeros(shape), [1, 6], [0.9, np.nan])


def test_stuff_without_fixed_category_rejected():
    with pytest.raises(ValidationError, match="fixed_category"):
        QueryProvenance(0, False, None)


def test_thing_with_fixed_category_rejected():
    with pytest.raises(ValidationError, match="fixed_category"):
        QueryProvenance(0, True, 1)


def test_provenance_length_mismatch_rejected():
    masks = np.full((2, 4, 4), 0.5, np.float32)
    probs = np.zeros((2, len(DEFAULT_TAXONOMY)), np.float32)
    with pytest.raises(ValidationError, match="provenance carries 1"):
        MaskStack(masks, probs, (QueryProvenance(0, True),))


@pytest.mark.parametrize(
    "masks, probs, message",
    [
        ((2, 4), (2, 8), r"masks must be \(N, H, W\), got shape \(2, 4\)"),
        ((2, 4, 4), (2,), r"class_probs must be \(N, C\), got shape \(2,\)"),
        ((2, 4, 4), (3, 8), "masks carry 2 entries but class_probs carry 3"),
    ],
)
def test_stack_shapes_checked_when_built(masks, probs, message):
    provenance = (QueryProvenance(0, True), QueryProvenance(1, False, 6))
    with pytest.raises(ValidationError, match=message):
        MaskStack(np.zeros(masks), np.zeros(probs), provenance)


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
    m = np.full((2, 2), value > 0.5)
    assert binarize(m) is m  # a bool mask is its own binarization, uncopied


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


@pytest.mark.parametrize("big", [2**16, 2**31, 2**63])
def test_category_id_must_fit_the_stored_uint16(big):
    assert CategorySpec(2**16 - 1, "last", True).id == 2**16 - 1
    message = rf"^category id must be < 2\*\*16, got {big}$"
    with pytest.raises(ValidationError, match=message):
        CategorySpec(big, "too big", True)


def test_panoptic_map_void_coupling_enforced():
    message = "^sem and ids disagree on which pixels are void$"

    def rasters():  # PanopticMap locks its arrays, so each map gets new ones
        sem = np.zeros((4, 4), np.int32)
        ids = np.zeros((4, 4), np.int32)
        sem[:2] = 1
        ids[:2] = 1
        return sem, ids

    segments = (Segment(1, 1),)
    PanopticMap(*rasters(), segments).validate()
    sem, ids = rasters()
    sem[3, 3] = 1  # a category without an instance id
    with pytest.raises(ValidationError, match=message):
        PanopticMap(sem, ids, segments).validate()
    sem, ids = rasters()
    ids[3, 3] = 1  # an instance id without a category
    with pytest.raises(ValidationError, match=message):
        PanopticMap(sem, ids, segments).validate()
    # coupling is checked before the segment records: id 2 has no record,
    # id 1 is listed twice, and a listed id is not 1-based
    for records in ((), (Segment(1, 1), Segment(1, 1)), (Segment(0, 1),)):
        sem, ids = rasters()
        sem[3, 3] = 2
        ids[2:3] = 2
        sem[2:3] = 2
        with pytest.raises(ValidationError, match=message):
            PanopticMap(sem, ids, records).validate()


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
    message = r"instance id 1 spans categories \[1, 2\], segment record says 1"
    with pytest.raises(ValidationError, match=message):
        PanopticMap(sem, ids, (Segment(1, 1),)).validate()


def test_panoptic_map_lists_spanned_categories_in_signed_order():
    # _pair_counts orders categories as unsigned, so -1 comes after 2 there
    sem = np.zeros((4, 4), np.int32)
    ids = np.zeros((4, 4), np.int32)
    sem[0], ids[0] = 2, 1
    sem[1], ids[1] = -1, 1
    message = r"^instance id 1 spans categories \[-1, 2\], segment record says 2$"
    with pytest.raises(ValidationError, match=message):
        PanopticMap(sem, ids, (Segment(1, 2),)).validate()


def test_panoptic_map_reports_lowest_failing_id():
    # id 5 spans two categories and id 2 has no record: the lower id is named
    sem = np.zeros((4, 4), np.int32)
    ids = np.zeros((4, 4), np.int32)
    sem[0], ids[0] = 3, 5
    sem[1], ids[1] = 1, 5
    sem[2], ids[2] = 2, 2
    with pytest.raises(ValidationError, match="instance id 2 has no segment record"):
        PanopticMap(sem, ids, (Segment(5, 1),)).validate()
    with pytest.raises(ValidationError, match=r"instance id 5 spans categories \[1, 3\]"):
        PanopticMap(sem, ids, (Segment(2, 2), Segment(5, 1))).validate()


@pytest.mark.parametrize("score", [float("nan"), float("inf"), float("-inf")])
def test_segment_refuses_a_non_finite_score(score):
    # a writer would store it as a bare NaN/Infinity token its reader refuses
    message = f"^segment 3 score must be finite, got {score}$"
    with pytest.raises(ValidationError, match=message):
        Segment(3, 1, 0, score)
    assert Segment(3, 1, 0, None).score is None
    assert Segment(3, 1, 0, 0.0).score == 0.0


@pytest.mark.parametrize(
    "sem, ids", [((4, 4), (4, 5)), ((4, 4), (4, 4, 1)), ((16,), (16,))]
)
def test_panoptic_map_shapes_checked_when_built(sem, ids):
    with pytest.raises(ValidationError, match="must be equal 2-d shapes"):
        PanopticMap(np.zeros(sem), np.zeros(ids), ())


@pytest.mark.parametrize("shape", [(0, 4), (0, 0)], ids=["0x4", "0x0"])
def test_empty_panoptic_map_validates(shape):
    # every check is vacuous on a map without pixels
    empty = PanopticMap(np.zeros(shape), np.zeros(shape), ())
    assert empty.validate() is empty


@pytest.mark.parametrize(
    "shape, transpose",
    [
        ((7, 9), False),
        ((9, 7), True),
        ((1, 1), False),
        ((0, 0), False),
        ((0, 5), False),
    ],
    ids=["7x9", "9x7-transposed", "1x1", "0x0", "0x5"],
)
@pytest.mark.parametrize("seed", range(4))
def test_pair_counts_matches_unique_pairs(shape, transpose, seed):
    rng = np.random.default_rng(seed)
    a = rng.choice(np.array([-2**31, -7, -1, 0, 1, 3, 2**31 - 1], np.int32), shape)
    # negative b values sort after positive ones in the kernel's unsigned order
    b = rng.choice(np.array([-2**31, -5, -1, 0, 2, 2**31 - 1], np.int32), shape)
    if transpose:
        a, b = a.T, b.T
    got_a, got_b, got_counts = _pair_counts(a, b)
    pairs, counts = np.unique(
        np.stack([a.ravel(), b.ravel()], axis=1), axis=0, return_counts=True
    )
    pairs = pairs.reshape(-1, 2)
    order = np.lexsort((pairs[:, 1].view(np.uint32), pairs[:, 0]))
    assert got_a.dtype == got_b.dtype == np.int32
    np.testing.assert_array_equal(got_a, pairs[order, 0])
    np.testing.assert_array_equal(got_b, pairs[order, 1])
    np.testing.assert_array_equal(got_counts, counts[order])
    assert got_counts.sum() == a.size


def test_token_counts_32():
    assert token_counts(32, 32) == (16, 4, 1)
    assert token_counts(64, 64) == (64, 16, 4)


def test_token_counts_requires_multiple_of_32():
    with pytest.raises(ValidationError):
        token_counts(48, 64)


@pytest.mark.parametrize(
    "raster, values, message",
    [
        ("ids", np.array([[1, 2**32 + 1]], np.int64), "instance ids exceed int32 range"),
        ("ids", np.array([[1, -(2**31) - 1]], np.int64), "instance ids exceed int32 range"),
        ("ids", np.array([[1, 2**31]], np.uint32), "instance ids exceed int32 range"),
        ("sem", np.array([[3.7, 1.9]]), "category ids must be whole numbers"),
        ("ids", np.array([[1.0, np.nan]]), "instance ids exceed int32 range"),
        ("sem", np.array([[1.0, np.inf]]), "category ids exceed int32 range"),
    ],
)
def test_panoptic_map_refuses_values_its_int32_cast_would_change(raster, values, message):
    rasters = {"sem": np.ones((1, 2), np.int32), "ids": np.ones((1, 2), np.int32)}
    rasters[raster] = values
    with pytest.raises(ValidationError, match=f"^{message}$"):
        PanopticMap(rasters["sem"], rasters["ids"])


def test_panoptic_map_takes_rasters_int32_holds_exactly():
    ids = np.array([[-1, 0, 2**31 - 1]], np.int64)  # negative ids stay constructible
    sem = np.array([[1.0, 0.0, 2.0]])
    pmap = PanopticMap(sem, ids)
    assert pmap.ids.dtype == pmap.sem.dtype == np.int32
    np.testing.assert_array_equal(pmap.ids, ids)
    np.testing.assert_array_equal(pmap.sem, [[1, 0, 2]])
