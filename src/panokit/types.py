"""Shared data model: categories, mask stacks, panoptic maps, attention tokens.

All container types are immutable value objects that check their own rules
when built: numpy payloads are locked (writeable=False) at construction, so
instances are safe to share across threads. Arrays are locked in place, not
copied; pass a copy if the caller needs to keep mutating its buffer.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence

import numpy as np

VOID = 0  # reserved category id and instance id for unassigned pixels


class PanokitError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(PanokitError, ValueError):
    """A value violates a documented invariant or precondition."""


class FormatError(PanokitError, ValueError):
    """A file or byte stream does not conform to its declared format."""


@contextmanager
def _naming(prefix: str) -> Iterator[None]:
    """Prefix a PanokitError raised inside with its source; keep its class."""
    try:
        yield
    except PanokitError as exc:
        raise type(exc)(f"{prefix}: {exc}") from exc


def check_nonnegative(name: str, value: float) -> None:
    """Raise a ValidationError naming the field unless value is finite and
    >= 0; NaN fails every comparison, so a bare `value < 0` would pass it."""
    if not (math.isfinite(value) and value >= 0):
        raise ValidationError(f"{name} must be finite and >= 0, got {value}")


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class CategorySpec:
    """One category of the label space; id 0 is reserved for void."""

    id: int
    name: str
    is_thing: bool

    def __post_init__(self) -> None:
        if self.id < 1:
            raise ValidationError(f"category id must be >= 1, got {self.id}")
        # the derived int32 sem needs category ids below 2**31; this tighter
        # bound keeps every taxonomy that loads today loading the same
        if self.id >= 1 << 16:
            raise ValidationError(f"category id must be < 2**16, got {self.id}")


DEFAULT_TAXONOMY: tuple[CategorySpec, ...] = (
    CategorySpec(1, "box", True),
    CategorySpec(2, "disc", True),
    CategorySpec(3, "blob", True),
    CategorySpec(4, "chip", True),
    CategorySpec(5, "knob", True),
    CategorySpec(6, "sky", False),
    CategorySpec(7, "grass", False),
    CategorySpec(8, "water", False),
)


def taxonomy_columns(taxonomy: Sequence[CategorySpec]) -> dict[int, int]:
    """Map category id -> class_probs column, validating id uniqueness."""
    columns: dict[int, int] = {}
    for pos, cat in enumerate(taxonomy):
        if cat.id in columns:
            raise ValidationError(f"duplicate category id {cat.id} in taxonomy")
        columns[cat.id] = pos
    return columns


def thing_ids(taxonomy: Sequence[CategorySpec]) -> frozenset[int]:
    return frozenset(c.id for c in taxonomy if c.is_thing)


def stuff_ids(taxonomy: Sequence[CategorySpec]) -> frozenset[int]:
    return frozenset(c.id for c in taxonomy if not c.is_thing)


@dataclass(frozen=True)
class QueryProvenance:
    """Which query produced a mask: thing queries are free, stuff queries
    are bound to exactly one category."""

    query_index: int
    is_thing: bool
    fixed_category: Optional[int] = None

    def __post_init__(self) -> None:
        if self.is_thing and self.fixed_category is not None:
            raise ValidationError(
                f"thing query {self.query_index} must not carry a fixed_category"
            )
        if not self.is_thing and self.fixed_category is None:
            raise ValidationError(
                f"stuff query {self.query_index} is missing its fixed_category"
            )


@dataclass(frozen=True)
class MaskStack:
    """Per-query soft masks plus class probabilities.

    masks        (N, H, W) float32, each value a probability in [0, 1]
    class_probs  (N, C) float32, C columns in taxonomy order (validate_stack)
    provenance   N records aligned with the leading axis
    """

    masks: np.ndarray
    class_probs: np.ndarray
    provenance: tuple[QueryProvenance, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "masks", _freeze(np.asarray(self.masks, np.float32)))
        object.__setattr__(
            self, "class_probs", _freeze(np.asarray(self.class_probs, np.float32))
        )
        object.__setattr__(self, "provenance", tuple(self.provenance))
        if self.masks.ndim != 3:
            raise ValidationError(f"masks must be (N, H, W), got shape {self.masks.shape}")
        if self.class_probs.ndim != 2:
            raise ValidationError(
                f"class_probs must be (N, C), got shape {self.class_probs.shape}"
            )
        n = self.n
        if self.class_probs.shape[0] != n:
            raise ValidationError(
                f"masks carry {n} entries but class_probs carry "
                f"{self.class_probs.shape[0]}"
            )
        if len(self.provenance) != n:
            raise ValidationError(
                f"masks carry {n} entries but provenance carries {len(self.provenance)}"
            )
        # min() and max() propagate NaN, and a NaN bound fails both comparisons;
        # the in-range initial values let them reduce zero-size arrays
        ranged = ((self.masks, "mask values"), (self.class_probs, "class probabilities"))
        for values, what in ranged:
            if not (values.min(initial=1.0) >= 0.0 and values.max(initial=0.0) <= 1.0):
                raise ValidationError(f"{what} must be finite and lie in [0, 1]")

    @property
    def n(self) -> int:
        return self.masks.shape[0]

    @property
    def height(self) -> int:
        return self.masks.shape[1]

    @property
    def width(self) -> int:
        return self.masks.shape[2]

    @cached_property
    def windows(self) -> tuple[Window, ...]:
        """Per mask, the _extent of its binarized pixels: scoring and painting
        read only this window, since every pixel outside it is at most 0.5.
        Found once per stack; the masks are locked, so it cannot go stale."""
        return tuple(_extent(binarize(m)) for m in self.masks)


def validate_stack(
    stack: MaskStack, taxonomy: Sequence[CategorySpec]
) -> MaskStack:
    """Check that a stack fits a taxonomy; return the stack unchanged.

    Raises ValidationError unless class_probs has one column per category,
    every stuff query's fixed_category is in the taxonomy, and a thing
    query has a category to take.
    """
    columns = taxonomy_columns(taxonomy)
    if stack.class_probs.shape[1] != len(taxonomy):
        raise ValidationError(
            f"class_probs have {stack.class_probs.shape[1]} columns, "
            f"taxonomy has {len(taxonomy)} categories"
        )
    for prov in stack.provenance:
        if prov.is_thing and not columns:
            raise ValidationError(
                f"thing query {prov.query_index} needs a category, "
                "but the taxonomy lists none"
            )
        if not prov.is_thing and prov.fixed_category not in columns:
            raise ValidationError(
                f"stuff query {prov.query_index} names unknown category "
                f"{prov.fixed_category}"
            )
    return stack


def _check_categories(pmap: PanopticMap, taxonomy: Sequence[CategorySpec]) -> None:
    """Raise a ValidationError unless every segment's category is in the taxonomy."""
    known = taxonomy_columns(taxonomy)
    for seg in pmap.segments:
        if seg.category_id not in known:
            raise ValidationError(
                f"segment {seg.instance_id} has category "
                f"{seg.category_id}, which the taxonomy does not list"
            )


def binarize(mask: np.ndarray) -> np.ndarray:
    """The one binarization rule: a pixel is true iff its value exceeds 0.5.
    Compared in the mask's own dtype, exact since 0.5 is representable.

    A bool mask already is its own binarization, so it is returned as it
    is, not copied: callers must not write to the result."""
    m = np.asarray(mask)
    return m if m.dtype == np.bool_ else m > 0.5


# (rows, columns) slices of a 2-d raster
Window = tuple[slice, slice]


def _extent(mask: np.ndarray) -> Window:
    """The bounding window of the nonzero pixels of a 2-d mask, as (rows,
    columns) slices; empty slices when every pixel is zero."""
    rows = np.flatnonzero(mask.any(axis=1))
    if rows.size == 0:
        return slice(0, 0), slice(0, 0)
    y0, y1 = int(rows[0]), int(rows[-1]) + 1
    cols = np.flatnonzero(mask[y0:y1].any(axis=0))
    return slice(y0, y1), slice(int(cols[0]), int(cols[-1]) + 1)


@dataclass(frozen=True)
class Segment:
    """One emitted segment of a panoptic map."""

    instance_id: int
    category_id: int
    source_query: Optional[int] = None
    score: Optional[float] = None

    def __post_init__(self) -> None:
        if self.score is not None and not math.isfinite(self.score):
            raise ValidationError(
                f"segment {self.instance_id} score must be finite, got {self.score}"
            )


@dataclass(frozen=True, init=False)
class PanopticMap:
    """Per-pixel instance ids plus one segment record per instance.

    ids       (H, W) int32 instance ids, 0 = void, 1-based otherwise
    segments  the records, each giving its instance's category

    ids may be given in any dtype whose values int32 holds exactly; a value
    outside int32 or with a fraction is refused, not cast. sem is derived,
    not stored: sem=None derives it on first use, and a given sem must equal
    that derivation.
    """

    ids: np.ndarray
    segments: tuple[Segment, ...]

    def __init__(self, sem, ids, segments: Sequence[Segment] = ()) -> None:
        object.__setattr__(self, "ids", _freeze(_int32_raster(ids, "instance")))
        object.__setattr__(self, "segments", tuple(segments))
        if self.ids.ndim != 2:
            raise ValidationError(f"ids must be 2-d, got shape {self.ids.shape}")
        given = None if sem is None else _int32_raster(sem, "category")
        # a given sem of another shape or other values is one disagreement
        if given is not None and not np.array_equal(given, self.sem):
            raise ValidationError("sem disagrees with ids and the segment records")

    @property
    def height(self) -> int:
        return self.ids.shape[0]

    @property
    def width(self) -> int:
        return self.ids.shape[1]

    def validate(self) -> "PanopticMap":
        """Check the one rule: the records are 1-based and listed once, and
        every nonzero id has a record, the lowest id without one named. The
        distinct ids come from one sort of ids."""
        listed: set[int] = set()
        for seg in self.segments:
            if seg.instance_id < 1:
                raise ValidationError(f"instance id {seg.instance_id} is not 1-based")
            if seg.instance_id in listed:
                raise ValidationError(f"instance id {seg.instance_id} listed twice")
            listed.add(seg.instance_id)
        flat = np.sort(self.ids, axis=None)
        for inst in flat[_run_starts(flat)].tolist():
            if inst != VOID and inst not in listed:
                raise ValidationError(f"instance id {inst} has no segment record")
        return self

    @cached_property
    def sem(self) -> np.ndarray:
        """(H, W) int32 category ids, 0 = void, looked up by searchsorted in
        the records sorted by id, so memory follows the frame, not the ids.
        The map must validate, and a category outside int32 is refused."""
        cat_of = {s.instance_id: s.category_id for s in self.validate().segments}
        keys = sorted(i for i in cat_of if i < 2**31)  # a larger id labels no pixel
        cats = _int32_raster(np.array([VOID, *map(cat_of.get, keys)]), "category")
        pos = np.searchsorted(np.array([VOID, *keys], np.int32), self.ids)
        return _freeze(cats[pos])


def _int32_raster(values, what: str) -> np.ndarray:
    """values as int32, refusing a value the cast would change: one outside
    int32 (NaN and inf included) or one with a fraction. A dtype that int32
    holds (int32, uint16, bool) is not read; uint32 costs one max pass."""
    arr = np.asarray(values)
    if np.can_cast(arr.dtype, np.int32):
        return arr.astype(np.int32, copy=False)
    low = arr.dtype.kind == "u" or arr.min(initial=0) >= -(2**31)
    if not (low and arr.max(initial=0) < 2**31):
        raise ValidationError(f"{what} ids exceed int32 range")
    out = arr.astype(np.int32)
    if arr.dtype.kind not in "iu" and not np.array_equal(out, arr):
        raise ValidationError(f"{what} ids must be whole numbers")
    return out


def _pair_counts(
    a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct (a, b) pixel pairs of two equal-shape int32 rasters and
    their pixel counts, as three 1-d arrays ordered by a, then by b read as
    unsigned. One sort of int64 keys plus a boundary mask, since np.unique's
    hash path is ~2x slower on these keys."""
    keys = ((a.astype(np.int64) << 32) | b.view(np.uint32)).ravel()
    keys.sort()
    starts = _run_starts(keys)
    counts = np.diff(starts, append=keys.size)
    keys = keys[starts]
    return (
        (keys >> 32).astype(np.int32),
        (keys & 0xFFFFFFFF).astype(np.uint32).view(np.int32),
        counts,
    )


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """The index of each run's first element in a sorted 1-d array."""
    starts = np.empty(keys.size, bool)
    starts[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    return np.flatnonzero(starts)


def token_counts(height: int, width: int) -> tuple[int, int, int]:
    """Token counts of the three attention scales (1/8, 1/16, 1/32); height
    and width must be positive multiples of 32, so every scale exists."""
    if height < 32 or width < 32 or height % 32 or width % 32:
        raise ValidationError(
            f"height and width must be positive multiples of 32, got {height}x{width}"
        )
    return (
        (height // 8) * (width // 8),
        (height // 16) * (width // 16),
        (height // 32) * (width // 32),
    )


@dataclass(frozen=True)
class MultiScaleAttn:
    """Flattened multi-scale attention tokens for one query.

    tokens  (L1+L2+L3, h) float32, scales concatenated coarse-to-fine
            (1/8 first), each scale flattened row-major
    """

    tokens: np.ndarray
    heads: int
    base_height: int
    base_width: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", _freeze(np.asarray(self.tokens, np.float32)))
        if self.heads < 1:
            raise ValidationError(f"heads must be >= 1, got {self.heads}")
        expected = sum(token_counts(self.base_height, self.base_width))
        if self.tokens.ndim != 2 or self.tokens.shape != (expected, self.heads):
            raise ValidationError(
                f"tokens must have shape ({expected}, {self.heads}) for a "
                f"{self.base_height}x{self.base_width} base, got {self.tokens.shape}"
            )
        if not np.isfinite(self.tokens).all():
            raise ValidationError("tokens must be finite")
