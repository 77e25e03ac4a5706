"""Confidence scoring: classification probability times mask quality.

The score of a mask is s = p^alpha * q^beta, where p is the emitted class
probability and q is the mean of the mask values strictly above 0.5 (0 when
no pixel qualifies). 0^0 evaluates to 1, so a zero exponent cleanly disables
its term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .types import (
    CategorySpec,
    MaskStack,
    ValidationError,
    binarize,
    check_nonnegative,
    taxonomy_columns,
    validate_stack,
)


@dataclass(frozen=True)
class ScoreParams:
    """Exponents balancing classification probability vs mask quality."""

    alpha: float = 1.0
    beta: float = 2.0

    def __post_init__(self) -> None:
        check_nonnegative("score exponent alpha", self.alpha)
        check_nonnegative("score exponent beta", self.beta)


def segmentation_quality(mask: np.ndarray) -> float:
    """Mean of the mask values kept by binarize; 0.0 when none qualify."""
    m = np.asarray(mask)
    above = m[binarize(m)]
    if above.size == 0:
        return 0.0
    return float(above.astype(np.float64).mean())


def confidence(p: float, mask: np.ndarray, params: ScoreParams = ScoreParams()) -> float:
    """s = p^alpha * q^beta with q = segmentation_quality(mask)."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"class probability must lie in [0, 1], got {p}")
    q = segmentation_quality(mask)
    # float ** in Python defines 0.0 ** 0.0 == 1.0, the convention we document
    return float(p) ** params.alpha * q ** params.beta


def predicted_labels(
    stack: MaskStack, taxonomy: Sequence[CategorySpec]
) -> tuple[np.ndarray, np.ndarray]:
    """Resolve each query to (category id, class probability).

    Thing queries take their argmax column (lowest column on ties); stuff
    queries read the probability of their fixed category. Raises
    ValidationError unless the stack fits the taxonomy (validate_stack).
    """
    validate_stack(stack, taxonomy)
    columns = taxonomy_columns(taxonomy)
    # a thing has no fixed category: -1 marks its column until the argmax
    cols = np.array([columns.get(p.fixed_category, -1) for p in stack.provenance], np.intp)
    things = cols < 0
    if things.any():
        cols[things] = stack.class_probs[things].argmax(axis=1)
    cat_of = np.fromiter(columns, np.int64, len(columns))  # keys in column order
    return cat_of[cols], stack.class_probs[np.arange(stack.n), cols].astype(np.float64)


def stack_scores(
    stack: MaskStack,
    taxonomy: Sequence[CategorySpec],
    params: ScoreParams = ScoreParams(),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-query (category ids, class probabilities, confidences). Each
    confidence reads the mask inside its binarized window only: the window
    holds every kept value, in the same row-major order, so q is unchanged
    to the bit."""
    cats, probs = predicted_labels(stack, taxonomy)
    confs = np.array(
        [
            confidence(float(probs[i]), stack.masks[i][window], params)
            for i, window in enumerate(stack.windows)
        ],
        np.float64,
    )
    return cats, probs, confs
