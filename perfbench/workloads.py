"""Workload definitions and input generation for the panokit benchmark.

Every input comes from the benchmark seed: scenes from
``panokit.synth.generate_scene`` and attention tokens from numpy's seeded
generator. The program under test only ever sees the files written here.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"

STUFF_BANDS = 2
TOKEN_QUERIES = 32
TOKEN_HEADS = 8
FUSE_HEAD_SEED = 0

# Seed of the fixed reference scene whose per-strategy PQ is recorded below.
REFERENCE_SEED = 20210907
# Held out: never used while the benchmark was tuned. A later change that
# claims a gain repeats its measurement on this seed (choosing-metrics 6.3).
HELD_OUT_SEED = 7919


@dataclass(frozen=True)
class Workload:
    """One input family: scene shape, image count and recorded reference PQ.

    reference_pq   PQ of each strategy on the REFERENCE_SEED scene, recorded
                   when the benchmark was defined
    """

    name: str
    why: str
    height: int
    width: int
    n_things: int
    noise: float
    images: int
    reference_pq: dict = field(default_factory=dict)

    def scene_params(self, scene_seed: int):
        from panokit.synth import SceneParams

        return SceneParams(
            seed=scene_seed,
            height=self.height,
            width=self.width,
            n_things=self.n_things,
            stuff_bands=STUFF_BANDS,
            noise_sigma=self.noise,
        )

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self))

    @classmethod
    def from_json(cls, text: str) -> "Workload":
        return cls(**json.loads(text))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="match",
            why=(
                "Roadmap CLI config, 30 things + 2 bands at 256x256: many small "
                "masks (per-mask scoring and painting) and ~900 scalar "
                "matching_cost calls per image (~97% of assign)"
            ),
            height=256,
            width=256,
            n_things=30,
            noise=0.1,
            images=6,
            reference_pq={
                "maskwise": 0.999907483769625,
                "argmax": 0.7063992387895383,
                "argmax-weighted": 0.9958204388353727,
                "heuristic": 0.999907483769625,
            },
        ),
        Workload(
            name="large",
            why=(
                "1024x1024 with 6 things + 2 bands: paint windows span the "
                "frame, so per-pixel layers (map validation, PQ overlap "
                "counting, megapixel dice) dominate"
            ),
            height=1024,
            width=1024,
            n_things=6,
            noise=0.1,
            images=2,
            reference_pq={
                "maskwise": 0.999997181505043,
                "argmax": 0.7207478320278812,
                "argmax-weighted": 0.9999171076965361,
                "heuristic": 0.999997181505043,
            },
        ),
    )
}


def scene_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def image_id(index: int) -> str:
    return f"{index:04d}"


def write_image(image_dir: Path, image: str, gt, stack, tokens) -> None:
    """One single-image stack set with its ground truth (gt/) and attention
    tokens (tokens.pst), so each CLI call works on exactly one image."""
    from panokit import manifest, pst
    from panokit.types import DEFAULT_TAXONOMY

    manifest.write_stack_set(image_dir, DEFAULT_TAXONOMY, [(image, stack)])
    manifest.write_panoptic_set(image_dir / "gt", DEFAULT_TAXONOMY, [(image, gt)])
    if tokens is not None:
        pst.write_pst(image_dir / "tokens.pst", tokens)


def make_tokens(workload: Workload, seed: int, index: int):
    import numpy as np
    from panokit.types import token_counts

    length = sum(token_counts(workload.height, workload.width))
    rng = np.random.default_rng([seed, index])
    return rng.random((TOKEN_QUERIES, length, TOKEN_HEADS), dtype=np.float32)


def write_inputs(workload: Workload, seed: int, in_dir: Path) -> None:
    """Generate and write every image of the workload for this seed."""
    from panokit import synth

    for index in range(workload.images):
        gt, stack = synth.generate_scene(
            workload.scene_params(scene_seed(seed, index))
        )
        write_image(
            in_dir / image_id(index),
            image_id(index),
            gt,
            stack,
            make_tokens(workload, seed, index),
        )


def require_panokit() -> None:
    """Put the checkout's src/ first on sys.path, or exit with code 2 when
    the checkout has no panokit sources."""
    if not (SRC / "panokit" / "__init__.py").is_file():
        print(f"error: panokit sources not found under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
