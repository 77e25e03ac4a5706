"""Deterministic synthetic scenes plus brute-force reference implementations.

The PRNG is a counter-mode xorshift-multiply mixer (the splitmix64
finalizer), fully specified in the README so streams can be reproduced in
any language. The oracles here re-derive merging and assignment decisions
naively and share no decision logic with the modules they check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .assignment import Assignment
from .merging import MergeParams
from .types import (
    CategorySpec,
    DEFAULT_TAXONOMY,
    MaskStack,
    PanopticMap,
    QueryProvenance,
    Segment,
    VOID,
    ValidationError,
    check_nonnegative,
    taxonomy_columns,
    token_counts,
)

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_U64_MASK = 0xFFFFFFFFFFFFFFFF
_ULP = 2.0**-53  # spacing of the 53-bit uniforms
_CHUNK = 2**14  # Box-Muller pairs per chunk: its five buffers stay cache-sized


def _unit(words):
    """Word (Python int) or words (uint64 array) to float64 in [0, 1)."""
    return (words >> 11) * _ULP


def _mix(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The xorshift-multiply finalizer, in place on uint64 words z; tmp is a
    work buffer of z's size."""
    np.right_shift(z, 30, out=tmp)
    z ^= tmp
    z *= _MIX1
    np.right_shift(z, 27, out=tmp)
    z ^= tmp
    z *= _MIX2
    np.right_shift(z, 31, out=tmp)
    z ^= tmp
    return z


class Rng:
    """Counter-mode PRNG: word j of stream `seed` is mix64(seed + j*GOLDEN).

    Counter mode keeps draws vectorizable and position-addressable, so long
    draws run in fixed chunks without changing the stream; the mixer is the
    xorshift-multiply finalizer with constants documented in the README.
    Not cryptographic.
    """

    def __init__(self, seed: int) -> None:
        self._seed = int(seed) & _U64_MASK
        self._drawn = 0

    def _words(
        self, first: int, steps: np.ndarray, out: np.ndarray, tmp: np.ndarray
    ) -> np.ndarray:
        """Words first, first + 1, ... mixed into out; steps[j] = j*GOLDEN."""
        np.add(steps[: out.size], (self._seed + first * _GOLDEN) & _U64_MASK, out=out)
        return _mix(out, tmp[: out.size])

    def _word(self) -> int:
        """The next word, mixed in Python integers: scalar draws skip numpy."""
        self._drawn += 1
        z = (self._seed + self._drawn * _GOLDEN) & _U64_MASK
        z = ((z ^ (z >> 30)) * _MIX1) & _U64_MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _U64_MASK
        return z ^ (z >> 31)

    def u64(self, n: int) -> np.ndarray:
        first = self._drawn + 1
        self._drawn += n
        steps = np.arange(n, dtype=np.uint64) * _GOLDEN
        return self._words(first, steps, np.empty_like(steps), np.empty_like(steps))

    def uniforms(self, n: int) -> np.ndarray:
        """n float64 values in [0, 1) with 53-bit resolution."""
        return _unit(self.u64(n))

    def _gaussians(self, n: int) -> Iterator[tuple[int, np.ndarray]]:
        """The draw of normals(n) as (offset, values) chunks, each valid
        until the next is taken.

        Box-Muller on two blocks of m = ceil(n/2) words, u1 then u2: pair i
        gives value i = r*cos(theta) and value m + i = r*sin(theta), the
        last sine dropped when n is odd. Chunks of _CHUNK pairs reuse
        buffers of min(_CHUNK, m) entries.
        """
        m = (n + 1) // 2
        first = self._drawn + 1
        self._drawn += 2 * m
        size = min(_CHUNK, m)
        steps = np.arange(size, dtype=np.uint64) * _GOLDEN
        words, tmp = np.empty((2, size), np.uint64)
        r_buf, theta_buf, out_buf = np.empty((3, size))
        for a in range(0, m, _CHUNK):
            k = min(_CHUNK, m - a)
            r, theta, out = r_buf[:k], theta_buf[:k], out_buf[:k]
            u1 = _unit(self._words(first + a, steps, words[:k], tmp))
            np.add(u1, _ULP, out=r)  # exact: (0, 1], so log is finite
            np.sqrt(np.multiply(np.log(r, out=r), -2.0, out=r), out=r)
            u2 = _unit(self._words(first + m + a, steps, words[:k], tmp))
            np.multiply(u2, 2.0 * math.pi, out=theta)
            yield a, np.multiply(r, np.cos(theta, out=out), out=out)
            yield m + a, np.multiply(r, np.sin(theta, out=out), out=out)[: n - m - a]

    def normals(self, n: int) -> np.ndarray:
        """n float64 standard gaussians via Box-Muller on two uniform blocks."""
        values = np.empty(n)
        for a, chunk in self._gaussians(n):
            values[a : a + chunk.size] = chunk
        return values

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return float(lo + (hi - lo) * _unit(self._word()))

    def randint(self, lo: int, hi: int) -> int:
        """One integer in [lo, hi); modulo-reduced, slight bias is acceptable."""
        if hi <= lo:
            raise ValidationError(f"empty integer range [{lo}, {hi})")
        return lo + self._word() % (hi - lo)

    def permutation(self, n: int) -> list[int]:
        out = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self.randint(0, i + 1)
            out[i], out[j] = out[j], out[i]
        return out


@dataclass(frozen=True)
class SceneParams:
    """Knobs of the synthetic scene generator."""

    seed: int
    height: int = 64
    width: int = 64
    n_things: int = 4
    stuff_bands: int = 2
    noise_sigma: float = 0.0
    overlap_bias: float = 0.0

    def __post_init__(self) -> None:
        token_counts(self.height, self.width)  # positive multiples of 32
        if self.n_things < 0:
            raise ValidationError(f"n_things must be >= 0, got {self.n_things}")
        if self.stuff_bands < 1:
            raise ValidationError(f"stuff_bands must be >= 1, got {self.stuff_bands}")
        check_nonnegative("noise_sigma", self.noise_sigma)
        if not 0.0 <= self.overlap_bias <= 1.0:
            raise ValidationError(
                f"overlap_bias must lie in [0, 1], got {self.overlap_bias}"
            )


def _floors(bias: float) -> tuple[float, float]:
    """Minimum visible fraction per thing, minimum uncovered fraction per band.

    Both stay strictly above the 0.6 keep threshold of mask-wise merging, so
    a noise-free stack always survives the merge and reproduces the ground
    truth. The slack narrows as overlap_bias rises: crowded layouts cannot
    keep 70% of every shape clear, but 63% still clears the threshold.
    """
    return 0.70 - 0.07 * bias, 0.65 - 0.03 * bias


@dataclass(frozen=True)
class _Shape:
    cy: int
    cx: int
    ry: int
    rx: int
    ellipse: bool

    def bounds(self, height: int, width: int) -> tuple[int, int, int, int]:
        """Clipped half-open bounding box (y0, y1, x0, x1)."""
        return (
            max(self.cy - self.ry, 0),
            min(self.cy + self.ry + 1, height),
            max(self.cx - self.rx, 0),
            min(self.cx + self.rx + 1, width),
        )

    def window(self, height: int, width: int) -> np.ndarray:
        """Boolean footprint inside bounds(); tiny compared to the image."""
        y0, y1, x0, x1 = self.bounds(height, width)
        if self.ellipse:
            yy = np.arange(y0, y1)[:, None] - self.cy
            xx = np.arange(x0, x1)[None, :] - self.cx
            return (yy / self.ry) ** 2 + (xx / self.rx) ** 2 <= 1.0
        return np.ones((y1 - y0, x1 - x0), bool)


def _draw_shapes(
    rng: Rng,
    params: SceneParams,
    usable: int,
    ext_lo: float,
    ext_hi: float,
    cell_h: float,
    cell_w: float,
    grid: int,
    hard: bool,
    gains: list[float],
) -> list[_Shape]:
    """One placement attempt: amodal shape parameters, index 0 topmost.

    overlap_bias blends a scattered grid layout toward a shared-anchor
    layout in which each shape holds one corner on the anchor pixel while
    extending into its own quadrant. When `hard` (full bias) the corner
    placement is exact: every pair of shapes meets at the anchor (so all
    pairs overlap), yet each shape hides only one-pixel edge strips of the
    shapes beneath it, keeping everything mostly visible.
    """
    n = params.n_things
    bias = params.overlap_bias
    height, width = params.height, params.width
    jitter = 0.1 * (1.0 - 0.7 * bias)  # high bias pins the anchor centrally
    anchor_y = round(usable * 0.5 + rng.uniform(-jitter, jitter) * usable)
    anchor_x = round(width * 0.5 + rng.uniform(-jitter, jitter) * width)
    quad_phase = rng.randint(0, 4)
    shapes = []
    for t in range(n):
        coin = rng.randint(0, 2)
        # corner anchoring needs the full bounding-box corner, so exact
        # placement draws rectangles only
        ellipse = coin == 1 and not hard
        ry = max(3, round(rng.uniform(ext_lo, ext_hi) * gains[t]))
        rx = max(3, round(rng.uniform(ext_lo, ext_hi) * gains[t]))
        quad = (t + quad_phase) % 4
        sign_y = 1 if quad in (0, 1) else -1
        sign_x = 1 if quad in (0, 3) else -1
        kernel_y = anchor_y + sign_y * ry
        kernel_x = anchor_x + sign_x * rx
        if hard:
            cy, cx = kernel_y, kernel_x
        else:
            spread_y = (t // grid + 0.5) * cell_h + rng.uniform(-0.2, 0.2) * cell_h
            spread_x = (t % grid + 0.5) * cell_w + rng.uniform(-0.2, 0.2) * cell_w
            cy = round((1.0 - bias) * spread_y + bias * kernel_y)
            cx = round((1.0 - bias) * spread_x + bias * kernel_x)
        cy = min(max(cy, ry), usable - 1 - ry)
        cx = min(max(cx, rx), width - 1 - rx)
        shapes.append(_Shape(cy, cx, ry, rx, ellipse))
    return shapes


def _all_pairs_overlap(shapes: list[_Shape], height: int, width: int) -> bool:
    """Exact pairwise-intersection check; exact placement uses rectangles
    only, so clipped bounding boxes are the rasters. Non-empty intervals
    that meet pairwise share a point (Helly), so one test per axis does."""
    y0s, y1s, x0s, x1s = zip(*(s.bounds(height, width) for s in shapes))
    return max(y0s) < min(y1s) and max(x0s) < min(x1s)


def _visible_ids(
    shapes: list[_Shape],
    band_rows: list[tuple[int, int]],
    height: int,
    width: int,
    thing_floor: float,
    band_floor: float,
) -> Optional[np.ndarray]:
    """Paint thing t as id t + 1, topmost first, onto the pixels no
    shallower thing holds, as mask_wise_merge paints a noise-free stack.
    Return that raster, or None when a thing or band misses its floor."""
    ids = np.zeros((height, width), np.int32)
    for t, s in enumerate(shapes):
        y0, y1, x0, x1 = s.bounds(height, width)
        win = s.window(height, width)
        area = int(win.sum())
        if area < 9:
            return None
        free = win & (ids[y0:y1, x0:x1] == VOID)
        if int(free.sum()) / area < thing_floor:
            return None
        ids[y0:y1, x0:x1][free] = t + 1
    for y0, y1 in band_rows:
        band_area = (y1 - y0) * width
        covered = int(np.count_nonzero(ids[y0:y1]))
        if 1.0 - covered / band_area < band_floor:
            return None
    return ids


def generate_scene(
    params: SceneParams, taxonomy: Sequence[CategorySpec] = DEFAULT_TAXONOMY
) -> tuple[PanopticMap, MaskStack]:
    """Build (ground truth, prediction stack) for one reproducible scene.

    Ground truth: axis-aligned rectangles/ellipses (things, topmost first)
    over horizontal stuff bands, with a void strip at the bottom. The stack
    holds one amodal soft mask per ground-truth segment (full footprint plus
    clamped gaussian noise) and class probabilities peaked on the true
    class, ordered so that confidence order equals depth order.
    """
    columns = taxonomy_columns(taxonomy)
    thing_cats = [c.id for c in taxonomy if c.is_thing]
    stuff_cats = [c.id for c in taxonomy if not c.is_thing]
    if params.n_things > 0 and not thing_cats:
        raise ValidationError("taxonomy has no thing categories")
    if params.stuff_bands > len(stuff_cats):
        raise ValidationError(
            f"{params.stuff_bands} bands requested but taxonomy has only "
            f"{len(stuff_cats)} stuff categories"
        )
    rng = Rng(params.seed)
    height, width = params.height, params.width
    void_h = max(height // 8, 1)
    usable = height - void_h

    k = params.stuff_bands
    base = usable // k
    edges = [0]
    for j in range(1, k):
        jitter = rng.randint(-(base // 4), base // 4 + 1) if base >= 4 else 0
        edges.append(j * base + jitter)
    edges.append(usable)
    band_rows = [(edges[j], edges[j + 1]) for j in range(k)]
    order = rng.permutation(len(stuff_cats))
    band_cats = [stuff_cats[order[j]] for j in range(k)]

    n = params.n_things
    cats = [thing_cats[rng.randint(0, len(thing_cats))] for _ in range(n)]
    shapes: list[_Shape] = []
    # instance ids: thing t is t + 1, band j is n + 1 + j
    ids = np.zeros((height, width), np.int32)
    if n > 0:
        grid = math.ceil(math.sqrt(n))
        cell_h = usable / grid
        cell_w = width / grid
        thing_floor, band_floor = _floors(params.overlap_bias)
        hard = params.overlap_bias >= 0.999  # exact corner placement
        # quadrant reuse under exact placement: deeper things are bigger
        gains = [1.0 + 0.9 * (t // 4) if hard else 1.0 for t in range(n)]
        # total amodal area must respect the per-band uncovered floor, so
        # extents are capped by an even share of the coverable area; exact
        # corner placement additionally reserves headroom for its gains
        gain_sq = sum(g**2 for g in gains) / n
        cap = 0.5 * (math.sqrt(0.30 * usable * width / (n * gain_sq)) - 1.0)
        for attempt in range(24):
            scale = 0.85 ** max(0, attempt - 5)  # shrink sizes, not positions
            ext_base = min(cell_h, cell_w) * scale
            ext_lo = max(3.0, 0.28 * ext_base)
            ext_hi = max(ext_lo, 0.48 * ext_base)
            ext_hi = max(3.0, min(ext_hi, cap))
            ext_lo = min(ext_lo, ext_hi)
            if 2 * ext_hi + 2 > min(usable, width):
                raise ValidationError(
                    f"things of extent {ext_hi:.0f} do not fit a "
                    f"{params.height}x{params.width} scene"
                )
            shapes = _draw_shapes(
                rng, params, usable, ext_lo, ext_hi, cell_h, cell_w, grid, hard, gains
            )
            painted = _visible_ids(
                shapes, band_rows, height, width, thing_floor, band_floor
            )
            # full bias promises the conflict-heavy layout: certify it
            if painted is None or hard and not _all_pairs_overlap(shapes, height, width):
                continue
            ids = painted
            break
        else:
            raise ValidationError(
                f"seed {params.seed}: no placement met the visibility floors "
                f"after 24 attempts"
            )

    for j, (y0, y1) in enumerate(band_rows):  # bands take their unclaimed rows
        rows = ids[y0:y1]
        rows[rows == VOID] = n + 1 + j
    segments = tuple(Segment(i + 1, c) for i, c in enumerate((*cats, *band_cats)))
    gt = PanopticMap(None, ids, segments)

    n_masks = n + k
    masks = np.zeros((n_masks, height, width), np.float32)
    for t, s in enumerate(shapes):
        y0, y1, x0, x1 = s.bounds(height, width)
        masks[t, y0:y1, x0:x1][s.window(height, width)] = 1.0
    for j, (y0, y1) in enumerate(band_rows):
        masks[n + j, y0:y1, :] = 1.0
    if params.noise_sigma > 0:
        flat = masks.reshape(-1)
        for a, chunk in rng._gaussians(flat.size):
            flat[a : a + chunk.size] += params.noise_sigma * chunk.astype(np.float32)
        np.clip(masks, 0.0, 1.0, out=masks)

    n_classes = len(taxonomy)
    probs = (
        rng.uniforms(n_masks * n_classes).reshape(n_masks, n_classes) * 0.15 + 0.02
    )
    provenance = []
    for t in range(n):
        probs[t, columns[cats[t]]] = 0.5 + 0.45 * 0.9**t
        provenance.append(QueryProvenance(t, True))
    for j in range(k):
        probs[n + j, columns[band_cats[j]]] = 0.45 - 0.03 * j
        provenance.append(QueryProvenance(n + j, False, band_cats[j]))
    stack = MaskStack(masks, probs.astype(np.float32), tuple(provenance))
    return gt, stack


def random_stack(
    seed: int,
    height: int,
    width: int,
    n_masks: int,
    taxonomy: Sequence[CategorySpec] = DEFAULT_TAXONOMY,
) -> MaskStack:
    """Adversarial stack for oracle suites: arbitrary dims, values quantized
    to k/16 and probabilities to k/8 so confidence ties are float-exact."""
    rng = Rng(seed)
    stuff_cats = [c.id for c in taxonomy if not c.is_thing]
    n_classes = len(taxonomy)
    masks = np.zeros((n_masks, height, width), np.float32)
    provenance = []
    for i in range(n_masks):
        mode = rng.randint(0, 4)
        if mode == 0:
            m = rng.uniforms(height * width).reshape(height, width)
        elif mode == 1:
            m = np.zeros((height, width))
            y0 = rng.randint(0, height)
            x0 = rng.randint(0, width)
            y1 = rng.randint(y0, height) + 1
            x1 = rng.randint(x0, width) + 1
            m[y0:y1, x0:x1] = rng.uniform(0.4, 1.0)
        elif mode == 2:
            m = np.full((height, width), rng.uniform(0.0, 1.0))
        else:
            m = np.zeros((height, width))
            for _ in range(rng.randint(0, 4)):
                m[rng.randint(0, height), rng.randint(0, width)] = rng.uniform(
                    0.4, 1.0
                )
        masks[i] = np.round(m * 16.0) / 16.0
        is_thing = rng.randint(0, 2) == 0 or not stuff_cats
        if is_thing:
            provenance.append(QueryProvenance(i, True))
        else:
            provenance.append(
                QueryProvenance(i, False, stuff_cats[rng.randint(0, len(stuff_cats))])
            )
    probs = np.round(rng.uniforms(n_masks * n_classes) * 8.0) / 8.0
    return MaskStack(
        masks, probs.reshape(n_masks, n_classes).astype(np.float32), tuple(provenance)
    )


def oracle_merge(
    stack: MaskStack,
    taxonomy: Sequence[CategorySpec],
    params: Optional[MergeParams] = None,
) -> PanopticMap:
    """Naive replay of confidence-ordered painting, for checking
    mask_wise_merge.

    Survival is recomputed by literal sequential replay over pixel sets;
    each pixel is then assigned to the highest-confidence surviving mask
    covering it. Scores, labels, ordering, and painting are re-derived here
    without calling the scoring or merging modules.
    """
    params = params or MergeParams()
    if params.merge_same_stuff:
        raise ValidationError("oracle_merge replays the plain strategy only")
    columns = {c.id: pos for pos, c in enumerate(taxonomy)}
    cat_by_column = [c.id for c in taxonomy]
    n = stack.n
    confs: list[float] = []
    cats: list[int] = []
    covers: list[set[tuple[int, int]]] = []
    for i in range(n):
        row = [float(v) for v in stack.class_probs[i]]
        prov = stack.provenance[i]
        if prov.is_thing:
            p = max(row)
            cat = cat_by_column[row.index(p)]
        else:
            cat = prov.fixed_category
            p = row[columns[cat]]
        above = [float(v) for v in stack.masks[i].ravel() if float(v) > 0.5]
        q = sum(above) / len(above) if above else 0.0
        confs.append(p ** params.score.alpha * q ** params.score.beta)
        cats.append(int(cat))
        cover = {
            (y, x)
            for y in range(stack.height)
            for x in range(stack.width)
            if float(stack.masks[i][y, x]) > 0.5
        }
        covers.append(cover)
    order = sorted(
        range(n),
        key=lambda i: (-confs[i], cats[i], stack.provenance[i].query_index),
    )
    claimed: set[tuple[int, int]] = set()
    survivors: list[int] = []
    for i in order:
        if not covers[i]:
            continue
        if confs[i] < params.t_cnf:
            continue
        visible = covers[i] - claimed
        if not visible or len(visible) / len(covers[i]) < params.t_keep:
            continue
        survivors.append(i)
        claimed |= visible
    sem = np.zeros((stack.height, stack.width), np.int32)
    ids = np.zeros((stack.height, stack.width), np.int32)
    for y in range(stack.height):
        for x in range(stack.width):
            for rank, i in enumerate(survivors):
                if (y, x) in covers[i]:
                    sem[y, x] = cats[i]
                    ids[y, x] = rank + 1
                    break
    segments = tuple(
        Segment(rank + 1, cats[i], stack.provenance[i].query_index, confs[i])
        for rank, i in enumerate(survivors)
    )
    return PanopticMap(sem, ids, segments)


def oracle_assignment(costs: np.ndarray) -> Assignment:
    """Exhaustive minimum-cost assignment; intended for small matrices.

    Enumerates every injection of targets into queries (factorial cost,
    cols <= 7 enforced) and returns the first minimum in lexicographic
    order.
    """
    c = np.asarray(costs, np.float64)
    if c.ndim != 2:
        raise ValidationError(f"cost matrix must be 2-d, got shape {c.shape}")
    rows, cols = c.shape
    if cols > 7:
        raise ValidationError(f"oracle_assignment handles at most 7 targets, got {cols}")
    if rows < cols:
        raise ValidationError(f"need rows >= cols, got {rows}x{cols}")
    if cols == 0:
        return Assignment((), frozenset(range(rows)))
    perms = np.array(
        list(itertools.permutations(range(rows), cols)), dtype=np.int64
    )
    totals = c[perms, np.arange(cols)].sum(axis=1)
    best = perms[int(np.argmin(totals))]
    pairs = tuple(sorted((int(q), j) for j, q in enumerate(best)))
    return Assignment(pairs, frozenset(range(rows)) - {q for q, _ in pairs})
