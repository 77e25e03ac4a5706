"""Mask head as a deterministic tensor pipeline: split flattened multi-scale
attention tokens into spatial maps, bilinear-upsample the coarse scales,
concatenate, and squash a per-pixel linear head into a soft mask.
``attn_to_mask`` applies the head per scale before upsampling; the staged
``fuse_attn`` and ``predict_mask`` are its reference.

Bilinear convention: half-pixel centers without corner alignment, computed
in lerp form so constant inputs propagate bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from . import pst
from .merging import _STRIP_PIXELS
from .types import MultiScaleAttn, ValidationError, _naming, token_counts


@dataclass(frozen=True)
class FuseHead:
    """Per-pixel linear head over 3h fused channels: 3h weights + 1 bias, all finite."""

    weights: np.ndarray
    bias: float

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, np.float64)
        if w.ndim != 1 or w.size < 3 or w.size % 3:
            raise ValidationError(
                f"weights must be a vector of 3h entries, got shape {w.shape}"
            )
        if not np.isfinite(np.append(w, self.bias)).all():
            raise ValidationError("head weights must be finite")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", float(self.bias))

    @property
    def heads(self) -> int:
        return self.weights.size // 3

    @property
    def param_count(self) -> int:
        return self.weights.size + 1

    @classmethod
    def seeded(cls, heads: int, seed: int) -> "FuseHead":
        """Deterministic gaussian init for tests and demos."""
        from .synth import Rng

        draw = Rng(seed).normals(3 * heads + 1) * 0.5
        return cls(draw[:-1], float(draw[-1]))

    def save(self, path: Union[str, Path]) -> None:
        """Serialize as a PST1 float32 vector of 3h+1 entries (bias last)."""
        pst.write_pst(
            path, np.append(self.weights, self.bias).astype(np.float32)
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FuseHead":
        vec = pst.read_pst(path, np.float32)
        with _naming(str(path)):
            if vec.ndim != 1 or vec.size < 4 or vec.size % 3 != 1:
                raise ValidationError(
                    f"head file must be a vector of 3h+1 entries, got shape {vec.shape}"
                )
            return cls(vec[:-1].astype(np.float64), float(vec[-1]))


def split_attn(attn: MultiScaleAttn) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """De-flatten tokens into three row-major spatial maps, finest first:
    (H/8, W/8, h), (H/16, W/16, h), (H/32, W/32, h), each behind the
    batch's leading query axis when the tokens carry one."""
    h, w = attn.base_height, attn.base_width
    l1, l2, _ = token_counts(h, w)
    lead = attn.tokens.shape[:-2]
    scales = zip(np.split(attn.tokens, [l1, l1 + l2], axis=-2), (8, 16, 32))
    return tuple(t.reshape(*lead, h // s, w // s, attn.heads) for t, s in scales)


def flatten_attn(a3: np.ndarray, a4: np.ndarray, a5: np.ndarray) -> MultiScaleAttn:
    """Inverse of split_attn."""
    heads = a3.shape[2]
    height, width = a3.shape[0] * 8, a3.shape[1] * 8
    if a4.shape != (height // 16, width // 16, heads) or a5.shape != (
        height // 32,
        width // 32,
        heads,
    ):
        raise ValidationError(
            f"scale shapes disagree: {a3.shape}, {a4.shape}, {a5.shape}"
        )
    tokens = np.concatenate(
        [a.reshape(-1, heads) for a in (a3, a4, a5)], axis=0
    )
    return MultiScaleAttn(tokens, heads, height, width)


def _lerp_axis(arr: np.ndarray, factor: int, axis: int) -> np.ndarray:
    size = arr.shape[axis]
    coords = (np.arange(size * factor, dtype=np.float64) + 0.5) / factor - 0.5
    lower = np.floor(coords)
    frac = coords - lower
    i0 = np.clip(lower, 0, size - 1).astype(np.int64)
    i1 = np.clip(lower + 1, 0, size - 1).astype(np.int64)
    lo = np.take(arr, i0, axis=axis)
    hi = np.take(arr, i1, axis=axis)
    shape = [1] * arr.ndim
    shape[axis] = frac.size
    # lerp form lo + f*(hi - lo): constants propagate exactly
    return lo + frac.reshape(shape) * (hi - lo)


def bilinear_upsample(arr: np.ndarray, factor: int) -> np.ndarray:
    """Upsample (H, W, C) by an integer factor with half-pixel centers."""
    a = np.asarray(arr, np.float64)
    if a.ndim != 3:
        raise ValidationError(f"expected (H, W, C), got shape {a.shape}")
    if factor < 1:
        raise ValidationError(f"factor must be >= 1, got {factor}")
    if factor == 1:
        return a.copy()
    return _lerp_axis(_lerp_axis(a, factor, 0), factor, 1)


def fuse_attn(a3: np.ndarray, a4: np.ndarray, a5: np.ndarray) -> np.ndarray:
    """Channel concat of (a3, up2(a4), up4(a5)) at the 1/8 scale: (H/8, W/8, 3h)."""
    a3 = np.asarray(a3, np.float64)
    a4 = np.asarray(a4, np.float64)
    a5 = np.asarray(a5, np.float64)
    if a3.ndim != 3 or a4.ndim != 3 or a5.ndim != 3:
        raise ValidationError("fuse_attn expects three (H, W, h) maps")
    h8, w8, heads = a3.shape
    if h8 % 4 or w8 % 4:
        raise ValidationError(
            f"finest map must have sides divisible by 4, got {h8}x{w8}"
        )
    if a4.shape != (h8 // 2, w8 // 2, heads) or a5.shape != (h8 // 4, w8 // 4, heads):
        raise ValidationError(
            f"scale shapes disagree: {a3.shape}, {a4.shape}, {a5.shape}"
        )
    return np.concatenate(
        [a3, bilinear_upsample(a4, 2), bilinear_upsample(a5, 4)], axis=2
    )


def predict_mask(fused: np.ndarray, head: FuseHead) -> np.ndarray:
    """Per-pixel dot product with the head weights plus bias, then logistic
    squash; output is an (H/8, W/8) probability map."""
    f = np.asarray(fused, np.float64)
    if f.ndim != 3 or f.shape[2] != head.weights.size:
        raise ValidationError(
            f"fused map has shape {f.shape}, head expects {head.weights.size} channels"
        )
    from scipy.special import expit  # loaded on first use

    return expit(f @ head.weights + head.bias)


def _contract(maps: np.ndarray, weights: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Each query's (rows, cols, h) map @ weights into its row of out: one
    matmul per query, in a one-query call's shape, so that a batch rounds
    as its queries do alone."""
    for query, row in zip(maps, out):
        np.matmul(query, weights, out=row)
    return out


def attn_to_mask(attn: MultiScaleAttn, head: FuseHead) -> np.ndarray:
    """Full pipeline: split, then the head per scale, upsample, squash.

    Takes one query's tokens and returns its (H/8, W/8) map, or a batch's
    and returns (N, H/8, W/8); each map of a batch equals the one-query
    call bit for bit. Bilinear upsampling and the head are both linear per
    channel, so each scale is contracted with its own slice of the weights
    first and only two single-channel maps are upsampled. Equals
    ``predict_mask(fuse_attn(*split_attn(attn)), head)``, the reference,
    up to float64 rounding; the (H/8, W/8, 3h) fused tensor is never built.
    Queries are upsampled and squashed in chunks of at most _STRIP_PIXELS
    output pixels, so the temporaries do not grow with the batch.
    """
    if head.heads != attn.heads:
        raise ValidationError(
            f"head built for {head.heads} heads, attention carries {attn.heads}"
        )
    from scipy.special import expit  # loaded on first use

    a3, a4, a5 = split_attn(attn)
    single = a3.ndim == 3
    if single:
        a3, a4, a5 = a3[None], a4[None], a5[None]
    h = attn.heads
    w = head.weights
    logit = np.empty(a3.shape[:-1])
    step = max(1, _STRIP_PIXELS // (a3.shape[1] * a3.shape[2]))
    for start in range(0, len(logit), step):
        chunk = slice(start, start + step)
        part = _contract(a3[chunk], w[:h], logit[chunk])
        for coarse, factor, weights in ((a4, 2, w[h : 2 * h]), (a5, 4, w[2 * h :])):
            maps = coarse[chunk]
            small = _contract(maps, weights, np.empty(maps.shape[:-1]))
            part += _lerp_axis(_lerp_axis(small, factor, -2), factor, -1)
        part += head.bias
        expit(part, out=part)
    return logit[0] if single else logit
