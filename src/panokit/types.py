"""Shared data model: categories, mask stacks, panoptic maps, attention tokens.

All container types are immutable value objects: numpy payloads are locked
(writeable=False) at construction, so instances are safe to share across
threads. Arrays are locked in place, not copied; pass a copy if the caller
needs to keep mutating its buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

VOID = 0  # reserved category id and instance id for unassigned pixels


class PanokitError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(PanokitError, ValueError):
    """A value violates a documented invariant or precondition."""


class FormatError(PanokitError, ValueError):
    """A file or byte stream does not conform to its declared format."""


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


@dataclass(frozen=True)
class MaskStack:
    """Per-query soft masks plus class probabilities.

    masks        (N, H, W) float32, each value a probability in [0, 1]
    class_probs  (N, C) float32, C columns in taxonomy order
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

    @property
    def n(self) -> int:
        return self.masks.shape[0]

    @property
    def height(self) -> int:
        return self.masks.shape[1]

    @property
    def width(self) -> int:
        return self.masks.shape[2]


def validate_stack(
    stack: MaskStack, taxonomy: Sequence[CategorySpec]
) -> MaskStack:
    """Check every MaskStack invariant; return the stack unchanged.

    Raises ValidationError on dimension mismatch, mask values or
    probabilities that are NaN or outside [0, 1], unknown category ids, or
    stuff entries without a fixed_category.
    """
    columns = taxonomy_columns(taxonomy)
    if stack.masks.ndim != 3:
        raise ValidationError(f"masks must be (N, H, W), got shape {stack.masks.shape}")
    if stack.class_probs.ndim != 2:
        raise ValidationError(
            f"class_probs must be (N, C), got shape {stack.class_probs.shape}"
        )
    n = stack.masks.shape[0]
    if stack.class_probs.shape[0] != n:
        raise ValidationError(
            f"masks carry {n} entries but class_probs carry "
            f"{stack.class_probs.shape[0]}"
        )
    if len(stack.provenance) != n:
        raise ValidationError(
            f"masks carry {n} entries but provenance carries {len(stack.provenance)}"
        )
    if stack.class_probs.shape[1] != len(taxonomy):
        raise ValidationError(
            f"class_probs have {stack.class_probs.shape[1]} columns, "
            f"taxonomy has {len(taxonomy)} categories"
        )
    # min() and max() propagate NaN, and a NaN bound fails both comparisons
    if n and not (stack.masks.min() >= 0.0 and stack.masks.max() <= 1.0):
        raise ValidationError("mask values must be finite and lie in [0, 1]")
    if n and not (stack.class_probs.min() >= 0.0 and stack.class_probs.max() <= 1.0):
        raise ValidationError("class probabilities must be finite and lie in [0, 1]")
    for prov in stack.provenance:
        if prov.is_thing:
            if prov.fixed_category is not None:
                raise ValidationError(
                    f"thing query {prov.query_index} must not carry a fixed_category"
                )
        else:
            if prov.fixed_category is None:
                raise ValidationError(
                    f"stuff query {prov.query_index} is missing its fixed_category"
                )
            if prov.fixed_category not in columns:
                raise ValidationError(
                    f"stuff query {prov.query_index} names unknown category "
                    f"{prov.fixed_category}"
                )
    return stack


def binarize(mask: np.ndarray) -> np.ndarray:
    """The one binarization rule: a pixel is true iff its value exceeds 0.5.
    Compared in the mask's own dtype, exact since 0.5 is representable."""
    return np.asarray(mask) > 0.5


@dataclass(frozen=True)
class Segment:
    """One emitted segment of a panoptic map."""

    instance_id: int
    category_id: int
    source_query: Optional[int] = None
    score: Optional[float] = None


@dataclass(frozen=True)
class PanopticMap:
    """Per-pixel category labels plus per-pixel instance ids.

    sem  (H, W) int32 category ids, 0 = void
    ids  (H, W) int32 instance ids, 0 = void, 1-based otherwise
    """

    sem: np.ndarray
    ids: np.ndarray
    segments: tuple[Segment, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "sem", _freeze(np.asarray(self.sem, np.int32)))
        object.__setattr__(self, "ids", _freeze(np.asarray(self.ids, np.int32)))
        object.__setattr__(self, "segments", tuple(self.segments))

    @property
    def height(self) -> int:
        return self.sem.shape[0]

    @property
    def width(self) -> int:
        return self.sem.shape[1]

    def validate(self) -> "PanopticMap":
        """Check void coupling, ids covered by segments, and one category per
        id; the last check makes one full-frame pass per instance id."""
        if self.sem.ndim != 2 or self.sem.shape != self.ids.shape:
            raise ValidationError(
                f"sem {self.sem.shape} and ids {self.ids.shape} must be equal 2-d shapes"
            )
        if not np.array_equal(self.sem == VOID, self.ids == VOID):
            raise ValidationError("sem and ids disagree on which pixels are void")
        by_id: dict[int, int] = {}
        for seg in self.segments:
            if seg.instance_id < 1:
                raise ValidationError(f"instance id {seg.instance_id} is not 1-based")
            if seg.instance_id in by_id:
                raise ValidationError(f"instance id {seg.instance_id} listed twice")
            by_id[seg.instance_id] = seg.category_id
        present = np.unique(self.ids)
        for inst in present[present != VOID]:
            cat = by_id.get(int(inst))
            if cat is None:
                raise ValidationError(f"instance id {int(inst)} has no segment record")
            pix = self.ids == inst
            cats = np.unique(self.sem[pix])
            if cats.size != 1 or int(cats[0]) != cat:
                raise ValidationError(
                    f"instance id {int(inst)} spans categories {cats.tolist()}, "
                    f"segment record says {cat}"
                )
        return self


def token_counts(height: int, width: int) -> tuple[int, int, int]:
    """Token counts of the three attention scales (1/8, 1/16, 1/32)."""
    if height % 32 or width % 32:
        raise ValidationError(
            f"height and width must be divisible by 32, got {height}x{width}"
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
