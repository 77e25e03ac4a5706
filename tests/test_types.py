import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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


def test_panoptic_map_refuses_a_given_sem_that_disagrees():
    message = "^sem disagrees with ids and the segment records$"

    def rasters():  # PanopticMap locks its arrays, so each map gets new ones
        sem = np.zeros((4, 4), np.int32)
        ids = np.zeros((4, 4), np.int32)
        sem[:2] = 1
        ids[:2] = 1
        return sem, ids

    segments = (Segment(1, 1),)
    PanopticMap(*rasters(), segments).validate()
    sem, ids = rasters()
    sem[3, 3] = 1  # a category on a void pixel
    with pytest.raises(ValidationError, match=message):
        PanopticMap(sem, ids, segments)
    sem, ids = rasters()
    ids[3, 3] = 1  # an instance id without a category
    with pytest.raises(ValidationError, match=message):
        PanopticMap(sem, ids, segments)
    sem, ids = rasters()
    sem[1] = 2  # instance 1 spans two categories
    with pytest.raises(ValidationError, match=message):
        PanopticMap(sem, ids, segments)
    # the segment records are checked first, since sem is derived from them
    for records, rule in (
        ((), "instance id 1 has no segment record"),
        ((Segment(1, 1), Segment(1, 1)), "instance id 1 listed twice"),
        ((Segment(0, 1),), "instance id 0 is not 1-based"),
    ):
        sem, ids = rasters()
        sem[3, 3] = 2
        ids[2:3] = 2
        sem[2:3] = 2
        with pytest.raises(ValidationError, match=f"^{rule}$"):
            PanopticMap(sem, ids, records)


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


def test_panoptic_map_reports_lowest_unrecorded_id():
    ids = np.zeros((4, 4), np.int32)
    ids[0], ids[1], ids[2] = 5, 2, 7
    with pytest.raises(ValidationError, match="^instance id 2 has no segment record$"):
        PanopticMap(None, ids, (Segment(7, 1),)).validate()
    with pytest.raises(ValidationError, match="^instance id 5 has no segment record$"):
        PanopticMap(None, ids, (Segment(2, 2), Segment(7, 1))).validate()


def _naive_sem(ids, records):
    """Each pixel's category by a dict lookup, 0 where the id is void."""
    category = {s.instance_id: s.category_id for s in records}
    return np.array(
        [[category[i] if i else 0 for i in row] for row in ids.tolist()], np.int32
    ).reshape(ids.shape)


def _draw_map(data):
    """ids over a palette of wide ids (up to 2**31 - 1, some never painted)
    and one record per palette id, drawn in arbitrary id order."""
    palette = data.draw(st.lists(st.integers(1, 2**31 - 1), max_size=8, unique=True))
    shape = data.draw(st.tuples(st.integers(0, 6), st.integers(0, 6)))
    ids = data.draw(arrays(np.int32, shape, elements=st.sampled_from([0, *palette])))
    records = [Segment(i, data.draw(st.integers(-(2**31), 2**31 - 1))) for i in palette]
    return ids, data.draw(st.permutations(records))


_PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)


@_PROPERTY
@given(st.data())
def test_derived_sem_is_a_per_pixel_record_lookup(data):
    ids, records = _draw_map(data)
    pmap = PanopticMap(None, ids, records)
    want = _naive_sem(ids, records)
    assert pmap.sem.dtype == np.int32
    np.testing.assert_array_equal(pmap.sem, want)
    assert np.array_equal(PanopticMap(want, ids, records).sem, want)
    if ids.size:  # a given sem that disagrees anywhere is refused when built
        wrong = want.copy()
        wrong.flat[data.draw(st.integers(0, ids.size - 1))] ^= 1
        with pytest.raises(ValidationError, match="^sem disagrees with ids"):
            PanopticMap(wrong, ids, records)


@_PROPERTY
@given(st.data())
def test_unrecorded_ids_name_the_lowest(data):
    ids, records = _draw_map(data)
    listed = [s.instance_id for s in records]
    dropped = data.draw(st.sets(st.sampled_from(listed))) if listed else set()
    kept = [s for s in records if s.instance_id not in dropped]
    missing = sorted(dropped & set(ids.ravel().tolist()))
    pmap = PanopticMap(None, ids, kept)
    if not missing:
        np.testing.assert_array_equal(pmap.validate().sem, _naive_sem(ids, records))
        return
    message = f"^instance id {missing[0]} has no segment record$"
    with pytest.raises(ValidationError, match=message):
        pmap.validate()
    with pytest.raises(ValidationError, match=message):
        pmap.sem
    with pytest.raises(ValidationError, match=message):
        PanopticMap(_naive_sem(ids, records), ids, kept)


@_PROPERTY
@given(st.data())
def test_a_category_outside_int32_is_refused_when_sem_is_read(data):
    ids, records = _draw_map(data)
    if not records:
        return
    k = data.draw(st.integers(0, len(records) - 1))
    big = data.draw(st.integers(2**31, 2**70) | st.integers(-(2**70), -(2**31) - 1))
    wide = [*records[:k], Segment(records[k].instance_id, big), *records[k + 1:]]
    pmap = PanopticMap(None, ids, wide).validate()  # validate reads no category
    with pytest.raises(ValidationError, match="^category ids exceed int32 range$"):
        pmap.sem


def test_sem_is_derived_once_and_locked():
    ids = np.array([[0, 3], [3, 2**31 - 1]], np.int32)
    # a record id beyond int32 labels no pixel, whatever its category
    records = (Segment(2**40, 2**70), Segment(2**31 - 1, 6), Segment(3, 1))
    pmap = PanopticMap(None, ids, records)
    assert pmap.sem is pmap.sem
    assert not pmap.sem.flags.writeable
    np.testing.assert_array_equal(pmap.sem, [[0, 1], [1, 6]])


@pytest.mark.parametrize("score", [float("nan"), float("inf"), float("-inf")])
def test_segment_refuses_a_non_finite_score(score):
    # a writer would store it as a bare NaN/Infinity token its reader refuses
    message = f"^segment 3 score must be finite, got {score}$"
    with pytest.raises(ValidationError, match=message):
        Segment(3, 1, 0, score)
    assert Segment(3, 1, 0, None).score is None
    assert Segment(3, 1, 0, 0.0).score == 0.0


@pytest.mark.parametrize(
    "sem, ids",
    [
        ((4, 4), (4, 5)),
        ((4, 4), (4, 4, 1)),
        ((16,), (16,)),
        (None, (16,)),
        (None, (4, 4, 1)),
    ],
)
def test_panoptic_map_shapes_checked_when_built(sem, ids):
    # ids must be 2-d; a given sem of another shape disagrees with them
    message = "^sem disagrees" if len(ids) == 2 else "^ids must be 2-d"
    with pytest.raises(ValidationError, match=message):
        PanopticMap(None if sem is None else np.zeros(sem), np.zeros(ids), ())


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
    np.testing.assert_array_equal(PanopticMap(None, ids).ids, ids)
    ids = np.array([[1, 0, 2**31 - 1]], np.int64)
    sem = np.array([[1.0, 0.0, 2.0]])
    pmap = PanopticMap(sem, ids, (Segment(2**31 - 1, 2), Segment(1, 1)))
    assert pmap.ids.dtype == pmap.sem.dtype == np.int32
    np.testing.assert_array_equal(pmap.ids, ids)
    np.testing.assert_array_equal(pmap.sem, [[1, 0, 2]])
