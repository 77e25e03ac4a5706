import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panokit import assignment
from panokit import (
    Assignment,
    LossWeights,
    MatchQuery,
    MatchTarget,
    QueryProvenance,
    ValidationError,
    assignment_cost,
    bbox_of,
    build_cost_matrix,
    decoupled_assign,
    dice_loss,
    focal_loss,
    giou,
    hungarian,
    mass_center,
    matching_cost,
    oracle_assignment,
)


def test_diagonal_costs_pick_diagonal():
    costs = np.ones((3, 3)) - np.eye(3)
    out = hungarian(costs)
    assert sorted(out.pairs) == [(0, 0), (1, 1), (2, 2)]
    assert assignment_cost(costs, out) == 0.0
    assert out.unmatched_queries == frozenset()


def test_two_by_two_hand_case():
    costs = np.array([[1.0, 2.0], [2.0, 1.0]])
    out = hungarian(costs)
    assert sorted(out.pairs) == [(0, 0), (1, 1)]
    assert assignment_cost(costs, out) == 2.0


def test_rectangular_leaves_queries_unmatched():
    costs = np.array([[5.0], [1.0], [3.0]])
    out = hungarian(costs)
    assert out.pairs == ((1, 0),)
    assert out.unmatched_queries == frozenset({0, 2})


def test_rows_fewer_than_cols_rejected():
    with pytest.raises(ValidationError):
        hungarian(np.zeros((2, 3)))


def test_nonfinite_cost_rejected():
    with pytest.raises(ValidationError):
        hungarian(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_zero_targets_fast_path():
    out = hungarian(np.zeros((4, 0)))
    assert out.pairs == () and out.unmatched_queries == frozenset(range(4))


def test_column_offset_invariance():
    rng = np.random.default_rng(0)
    costs = rng.random((5, 4))
    base = hungarian(costs)
    shifted = hungarian(costs + np.array([10.0, -3.0, 0.5, 2.0]))
    assert sorted(base.pairs) == sorted(shifted.pairs)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_hungarian_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(1, 8))
    cols = int(rng.integers(0, min(rows, 5) + 1))
    costs = rng.integers(0, 64, (rows, cols)).astype(np.float64) / 8
    fast = hungarian(costs)
    slow = oracle_assignment(costs)
    assert assignment_cost(costs, fast) == assignment_cost(costs, slow)


def test_assignment_duplicate_target_rejected():
    with pytest.raises(ValidationError):
        Assignment(((0, 0), (1, 0)), frozenset())


def test_mass_center_and_bbox():
    m = np.zeros((6, 8), np.float64)
    m[2, 3] = 1.0
    m[2, 5] = 1.0
    cy, cx = mass_center(m)
    assert (cy, cx) == (2.0, 4.0)
    box = bbox_of(m)
    assert tuple(box) == (3.0, 2.0, 6.0, 3.0)


def test_mass_center_empty_rejected():
    with pytest.raises(ValidationError):
        mass_center(np.zeros((4, 4)))


def test_mass_center_of_bool_mask_is_exact():
    rng = np.random.default_rng(11)
    single = np.zeros((7, 12), bool)
    single[3, 9] = True
    blobs = np.zeros((40, 30), bool)
    blobs[2:6, 3:9] = True
    blobs[31:38, 20:29] = True
    cases = [single, blobs, np.ones((5, 11), bool), np.ones((1, 1), bool)]
    for edge in (np.s_[0, 4:9], np.s_[-1, 2:6], np.s_[3:7, 0], np.s_[1:4, -1]):
        touching = np.zeros((9, 14), bool)
        touching[4:6, 5:8] = True
        touching[edge] = True
        cases.append(touching)
    wide = np.zeros((600, 1024), bool)
    wide[37:590, 500:1020] = rng.random((553, 520)) < 0.3
    cases.append(wide)
    for _ in range(200):
        shape = tuple(int(v) for v in rng.integers(1, 64, 2))
        mask = rng.random(shape) < rng.uniform(0.0, 0.5)
        if mask.any():
            cases.append(mask)
    for mask in cases:
        assert np.array_equal(mass_center(mask), mass_center(mask.astype(np.float64)))
    with pytest.raises(ValidationError) as got:
        mass_center(np.zeros((6, 5), bool))
    with pytest.raises(ValidationError) as want:
        mass_center(np.zeros((6, 5)))
    assert str(got.value) == str(want.value)


def test_mass_center_of_soft_mask_is_within_1e12_of_its_float64_copy():
    def copy_center(mask):
        m = mask.astype(np.float64)
        total = m.sum()
        ys = np.arange(m.shape[0], dtype=np.float64)
        xs = np.arange(m.shape[1], dtype=np.float64)
        return np.array([(m.sum(axis=1) * ys).sum() / total, (m.sum(axis=0) * xs).sum() / total])

    rng = np.random.default_rng(23)
    cases = [rng.random((1024, 1024)).astype(np.float32)]
    sparse = np.zeros((300, 700), np.float32)
    sparse[250:, 640:] = rng.random((50, 60))
    cases.append(sparse)
    for _ in range(100):
        shape = tuple(int(v) for v in rng.integers(1, 200, 2))
        dtype = (np.float32, np.float64)[int(rng.integers(2))]
        mask = (rng.random(shape) * (rng.random(shape) < rng.uniform(0.05, 1.0))).astype(dtype)
        if mask.any():
            cases.append(mask)
    for mask in cases:
        np.testing.assert_allclose(mass_center(mask), copy_center(mask), rtol=0, atol=1e-12)


def test_giou_identity_and_disjoint():
    a = np.array([0.0, 0.0, 2.0, 2.0])
    assert giou(a, a) == pytest.approx(1.0)
    b = np.array([4.0, 0.0, 6.0, 2.0])
    # IoU 0, hull 6x2=12, union 8: GIoU = 0 - (12-8)/12
    assert giou(a, b) == pytest.approx(-4.0 / 12.0)


def test_mass_center_mode_hand_value():
    m_q = np.zeros((8, 8), np.float64)
    m_q[2, 2] = 1.0
    m_t = np.zeros((8, 8), np.float64)
    m_t[5, 6] = 1.0
    probs = np.zeros(8, np.float32)
    probs[0] = 1.0
    query = MatchQuery(probs, m_t.astype(np.float32), center=np.array([2.0, 2.0]))
    target = MatchTarget(0, m_t > 0, center=np.array([5.0, 6.0]))
    full = matching_cost(
        query, target, LossWeights(), "mass_center", normalize=False
    )
    no_loc = matching_cost(
        query, target, LossWeights(lambda_det=0.0), "mass_center", normalize=False
    )
    assert full - no_loc == pytest.approx(7.0)  # L1((2,2),(5,6)) = 3+4


def test_matching_cost_floor_at_exact_reproduction():
    mask = np.zeros((8, 8), np.float32)
    mask[2:5, 2:5] = 1.0
    probs = np.zeros(8, np.float32)
    probs[3] = 1.0
    box = bbox_of(mask)
    query = MatchQuery(probs, mask, box=box, center=mass_center(mask.astype(np.float64)))
    target = MatchTarget(
        3, mask > 0.5, box=box, center=mass_center(mask.astype(np.float64))
    )
    cost = matching_cost(query, target, LossWeights(), "box")
    # focal is 0 at p=1 with clamped logs, dice hits 1-(2A+eps)/(2A+eps)=0,
    # location is L1(identical boxes) + (1 - GIoU(identical boxes)) = 0
    assert cost == pytest.approx(0.0, abs=1e-9)


def _match_inputs():
    """A valid (probs, mask, box, center) for one query or target."""
    mask = np.zeros((8, 8), np.float32)
    mask[2:5, 3:6] = 0.9
    return np.full(4, 0.25), mask, bbox_of(mask), mass_center(mask)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("probs", np.array([0.25, np.nan, 0.25, 0.25]), r"pred entries must lie in \[0, 1\]"),
        ("probs", np.full((2, 2), 0.25), r"pred must be a vector, got shape \(2, 2\)"),
        ("mask", np.zeros((1, 8, 8)), r"mask must be 2-d, got shape \(1, 8, 8\)"),
        ("box", np.array([1.0, 2.0]), r"box must have shape \(4,\), got \(2,\)"),
        ("box", np.array([1.0, 2.0, np.inf, 5.0]), "box must be finite"),
        ("box", np.array([5.0, 2.0, 3.0, 5.0]), "boxes must satisfy x1 >= x0"),
        ("center", np.array([np.nan, 2.0]), "center must be finite"),
        ("center", np.array([1.0, 2.0, 3.0]), r"center must have shape \(2,\), got \(3,\)"),
    ],
)
def test_match_inputs_are_checked_when_built(field, value, message):
    inputs = dict(zip(("probs", "mask", "box", "center"), _match_inputs()))
    inputs[field] = value
    probs, mask, box, center = inputs.values()
    with pytest.raises(ValidationError, match=message):
        MatchQuery(probs, mask, box, center)
    if field != "probs":
        with pytest.raises(ValidationError, match=message):
            MatchTarget(0, mask, box, center)


def test_match_inputs_are_locked_as_float64():
    probs, mask, box, center = _match_inputs()
    query = MatchQuery(probs.astype(np.float32), mask, box.astype(np.int64), center)
    target = MatchTarget(0, mask > 0.5, box, center)
    for item in (query, target):
        for values in (item.box, item.center):
            assert values.dtype == np.float64 and not values.flags.writeable
    assert query.class_probs.dtype == np.float64 and not query.class_probs.flags.writeable


def _scalar_matrix(queries, targets, weights, mode, normalize=True):
    """The cost matrix rebuilt entry by entry from the scalar reference."""
    out = np.zeros((len(queries), len(targets)))
    for i, query in enumerate(queries):
        for j, target in enumerate(targets):
            out[i, j] = matching_cost(query, target, weights, mode, normalize)
    return out


def test_build_cost_matrix_agrees_with_hungarian_oracle():
    cases = [
        (9, 3, 2, "box", True),
        (10, 5, 3, "box", False),
        (11, 4, 4, "mass_center", True),
        (12, 6, 3, "mass_center", False),
    ]
    for seed, n_queries, n_targets, mode, normalize in cases:
        rng = np.random.default_rng(seed)
        queries = []
        targets = []
        for i in range(n_queries):
            m = (rng.random((8, 8)) > 0.5).astype(np.float32)
            probs = rng.random(8).astype(np.float32)
            queries.append(
                MatchQuery(probs, m, box=bbox_of(m), center=mass_center(m.astype(np.float64)))
            )
        for i in range(n_targets):
            m = rng.random((8, 8)) > 0.5
            targets.append(
                MatchTarget(i, m, box=bbox_of(m), center=mass_center(m.astype(np.float64)))
            )
        costs = build_cost_matrix(queries, targets, LossWeights(), mode, normalize)
        assert costs.shape == (n_queries, n_targets)
        np.testing.assert_allclose(
            costs,
            _scalar_matrix(queries, targets, LossWeights(), mode, normalize),
            rtol=0,
            atol=1e-12,
        )
        fast = hungarian(costs)
        slow = oracle_assignment(costs)
        assert assignment_cost(costs, fast) == pytest.approx(
            assignment_cost(costs, slow)
        )


def _random_match_case(seed):
    """Queries and targets of random size; every 10th case has no targets,
    every 3rd an all-zero query mask, odd seeds soft float64 target masks,
    and every 4th an empty target mask."""
    rng = np.random.default_rng(seed)
    h, w = (int(v) for v in rng.integers(3, 24, 2))
    n_cls = int(rng.integers(1, 9))
    n_q = int(rng.integers(1, 8))
    n_t = 0 if seed % 10 == 0 else int(rng.integers(1, n_q + 1))
    queries = []
    for i in range(n_q):
        keep = rng.random((h, w)) < rng.uniform(0.1, 0.9)
        mask = (rng.random((h, w)) * keep).astype(np.float32)
        if i == 0 and seed % 3 == 0:
            mask[:] = 0.0
        center = mass_center(mask) if mask.any() else np.array([(h - 1) / 2, (w - 1) / 2])
        probs = rng.random(n_cls).astype(np.float32)
        queries.append(MatchQuery(probs, mask, bbox_of(mask), center))
    targets = []
    for j in range(n_t):
        mask = rng.random((h, w)) < rng.uniform(0.05, 0.5)
        if seed % 2:
            mask = mask * rng.random((h, w))
        if j == 0 and seed % 4 == 1:
            mask = np.zeros_like(mask)
        center = mass_center(mask) if mask.any() else np.zeros(2)
        category = int(rng.integers(0, n_cls))
        targets.append(MatchTarget(category, mask, bbox_of(mask), center))
    return queries, targets, LossWeights(*rng.uniform(0.0, 3.0, 3))


def test_build_cost_matrix_matches_scalar_matching_cost():
    for seed in range(240):
        queries, targets, weights = _random_match_case(seed)
        for mode in ("box", "mass_center"):
            for normalize in (True, False):
                got = build_cost_matrix(queries, targets, weights, mode, normalize)
                want = _scalar_matrix(queries, targets, weights, mode, normalize)
                assert got.shape == want.shape
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert build_cost_matrix([], targets).shape == (0, len(targets))


def test_dice_costs_agree_with_dice_loss_to_1e12():
    rng = np.random.default_rng(29)
    for h, w in ((37, 53), (256, 300)):
        blob = np.zeros((h, w), bool)
        blob[10:30, 15:40] = rng.random((20, 25)) < 0.7
        gts = []
        for edge in (np.s_[0, 5:20], np.s_[-1, 3:30], np.s_[4:30, 0], np.s_[2:11, -1]):
            touching = blob.copy()
            touching[edge] = True
            gts.append(touching)
        column = np.zeros((h, w), bool)
        column[3:30, 17] = True
        row = np.zeros((h, w), bool)
        row[21, 2:50] = True
        pixel = np.zeros((h, w), bool)
        pixel[h - 1, w - 1] = True
        gts += [column, row, pixel, np.ones((h, w), bool), rng.random((h, w)) < 0.5]
        soft = rng.random((h, w)) * blob
        gts += [soft, soft.astype(np.float32)]
        targets = [MatchTarget(0, gt) for gt in gts]
        for n_queries in (1, 2, 7):
            masks = rng.random((n_queries, h, w)).astype(np.float32)
            queries = [MatchQuery(np.full(3, 0.5), m) for m in masks]
            got = assignment._dice_costs(queries, targets)
            want = [[dice_loss(q.mask, t.mask) for t in targets] for q in queries]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_dice_costs_never_stack_the_query_frames():
    n, h, w = 8, 512, 512
    rng = np.random.default_rng(2)
    masks = rng.random((n, h, w)).astype(np.float32)  # MaskStack rows
    queries = [MatchQuery(np.full(3, 0.5), m) for m in masks]
    targets = []
    for j in range(4):
        gt = np.zeros((h, w), bool)
        y, x = rng.integers(0, h - 64, 2)
        gt[y : y + 64, x : x + 48] = True
        targets.append(MatchTarget(j % 3, gt if j else gt.astype(np.float32)))
    tracemalloc.start()
    try:
        assignment._dice_costs(queries, targets)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * h * w * 4 / 2


def _defect(kind):
    """One good query and target, plus one of each carrying the defect."""
    mask = np.zeros((8, 8), np.float32)
    mask[2:5, 3:6] = 0.9
    box = bbox_of(mask)
    center = mass_center(mask)
    probs = np.full(4, 0.25, np.float32)
    query = MatchQuery(probs, mask, box, center)
    target = MatchTarget(1, mask > 0.5, box, center)
    bad_query, bad_target = query, target
    if kind == "probs_not_vector":
        bad_query = MatchQuery(probs.reshape(2, 2), mask, box, center)
    elif kind == "probs_out_of_range":
        bad_query = MatchQuery(np.array([0.1, 1.5, 0.0, 0.2]), mask, box, center)
    elif kind == "category_out_of_range":
        bad_target = MatchTarget(4, mask > 0.5, box, center)
    elif kind == "mask_shape":
        bad_target = MatchTarget(1, np.ones((8, 9), bool), box, center)
    elif kind in ("missing_box", "missing_center"):
        bad_target = MatchTarget(1, mask > 0.5)
    elif kind == "reversed_box":
        bad_query = MatchQuery(probs, mask, np.array([5.0, 2.0, 3.0, 5.0]), center)
    return [query, bad_query], [target, bad_target]


# kind -> the scalar function that matching_cost would call on the defect
_CONSTRUCTION_DEFECTS = {
    "probs_not_vector": lambda: focal_loss(np.full((2, 2), 0.25), 1),
    "probs_out_of_range": lambda: focal_loss(np.array([0.1, 1.5, 0.0, 0.2]), 1),
    "reversed_box": lambda: giou(np.array([5.0, 2.0, 3.0, 5.0]), np.zeros(4)),
}


@pytest.mark.parametrize(
    "kind, mode",
    [
        ("probs_not_vector", "box"),
        ("probs_out_of_range", "box"),
        ("category_out_of_range", "box"),
        ("mask_shape", "box"),
        ("missing_box", "box"),
        ("missing_center", "mass_center"),
        ("reversed_box", "box"),
        ("none", "corners"),
    ],
)
def test_build_cost_matrix_rejects_what_matching_cost_rejects(kind, mode):
    if kind in _CONSTRUCTION_DEFECTS:
        # MatchQuery refuses these when built, with the message of the
        # raw-array function that matching_cost would call on them
        with pytest.raises(ValidationError) as scalar:
            _CONSTRUCTION_DEFECTS[kind]()
        with pytest.raises(ValidationError) as built:
            _defect(kind)
        assert str(built.value) == str(scalar.value)
        return
    queries, targets = _defect(kind)
    with pytest.raises(ValidationError) as scalar:
        _scalar_matrix(queries, targets, LossWeights(), mode)
    with pytest.raises(ValidationError) as batched:
        build_cost_matrix(queries, targets, LossWeights(), mode)
    assert str(batched.value) == str(scalar.value)


def _bbox_by_nonzero(mask):
    ys, xs = np.nonzero(np.asarray(mask) > 0.5)
    if ys.size == 0:
        return np.zeros(4)
    return np.array([xs.min(), ys.min(), xs.max() + 1, ys.max() + 1], np.float64)


@pytest.mark.parametrize("dtype", [np.bool_, np.float16, np.float32, np.float64])
def test_bbox_of_matches_nonzero_form(dtype):
    rng = np.random.default_rng(5)
    single = np.zeros((9, 13))
    single[4, 7] = 0.75
    half = np.zeros((9, 13))
    half[1:3, 2:9] = 0.5
    half[2, 4] = 0.625
    lone = np.zeros((9, 13))
    lone[1:3, 1:4] = 0.875
    lone[8, 12] = 0.75  # far from the body: the box spans the frame
    row = np.zeros((1, 13))
    row[0, 5:9] = 0.75
    column = np.zeros((9, 1))
    column[8, 0] = 1.0
    cases = [np.zeros((9, 13)), single, half, lone, row, column]
    for _ in range(60):
        shape = tuple(int(v) for v in rng.integers(1, 20, 2))
        cases.append(rng.random(shape) * (rng.random(shape) < rng.uniform(0.0, 0.3)))
    for mask in cases:
        mask = mask > 0.5 if dtype is np.bool_ else mask.astype(dtype)
        box = bbox_of(mask)
        assert box.dtype == np.float64
        np.testing.assert_array_equal(box, _bbox_by_nonzero(mask))


def test_unknown_location_mode_rejected():
    probs = np.ones(3, np.float32)
    m = np.ones((4, 4), np.float32)
    query = MatchQuery(probs, m, box=bbox_of(m))
    target = MatchTarget(0, m > 0.5, box=bbox_of(m))
    with pytest.raises(ValidationError):
        matching_cost(query, target, LossWeights(), "corners")


def test_decoupled_layout_300_53():
    # 300 thing queries, 53 class-fixed stuff queries, 2 GT things,
    # one stuff category present
    rng = np.random.default_rng(1)
    costs = rng.random((300, 2))
    stuff_queries = tuple(
        QueryProvenance(300 + j, False, 100 + j) for j in range(53)
    )
    out = decoupled_assign(costs, stuff_queries, frozenset({100}))
    assert len(out.things.pairs) == 2
    assert len(out.things.unmatched_queries) == 298
    assert out.stuff_pairs == ((300, 100),)
    assert out.unmatched_stuff == frozenset(range(301, 353))


def test_decoupled_no_ground_truth():
    stuff_queries = (QueryProvenance(5, False, 7),)
    out = decoupled_assign(np.zeros((4, 0)), stuff_queries, frozenset())
    assert out.things.pairs == ()
    assert out.things.unmatched_queries == frozenset(range(4))
    assert out.stuff_pairs == ()
    assert out.unmatched_stuff == frozenset({5})


def test_decoupled_takes_the_stack_provenance():
    # thing queries 0 and 2 are the cost rows, in stack order; they are
    # skipped on the stuff side, and stuff queries bind by fixed category
    provenance = (
        QueryProvenance(0, True),
        QueryProvenance(1, False, 7),
        QueryProvenance(2, True),
        QueryProvenance(3, False, 6),
    )
    out = decoupled_assign(np.array([[0.5], [0.25]]), provenance, frozenset({7}))
    assert out.things.pairs == ((1, 0),)
    assert out.things.unmatched_queries == frozenset({0})
    assert out.stuff_pairs == ((1, 7),)
    assert out.unmatched_stuff == frozenset({3})
    repeated = provenance + (QueryProvenance(4, False, 7),)
    with pytest.raises(ValidationError, match="^stuff category 7 bound to more than one query$"):
        decoupled_assign(np.zeros((2, 1)), repeated, frozenset({7}))
    # a 1x2 matrix is a solver fault too; the stuff fault is reported first
    with pytest.raises(ValidationError, match="need at least as many queries"):
        decoupled_assign(np.zeros((1, 2)), provenance, frozenset())
    with pytest.raises(ValidationError, match="^stuff category 7 bound"):
        decoupled_assign(np.zeros((1, 2)), repeated, frozenset())


def test_build_cost_matrix_checks_one_entry_against_scalar(monkeypatch):
    queries, targets, weights = _random_match_case(3)
    monkeypatch.setattr(
        assignment, "_dice_costs", lambda qs, ts: np.zeros((len(qs), len(ts)))
    )
    with pytest.raises(ValidationError, match="disagrees with matching_cost"):
        build_cost_matrix(queries, targets, weights)
