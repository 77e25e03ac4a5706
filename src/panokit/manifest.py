"""File-level plumbing: taxonomy JSON, stack manifests, panoptic directories.

Tensors live in PST1 files; everything human-facing is JSON with a versioned
"schema" field. A stack manifest lists per-image mask and class-probability
tensors plus inline provenance; a panoptic directory holds per-image sem
(uint16) and ids (uint32) tensors plus segment records.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .pst import read_pst, write_pst
from .types import (
    CategorySpec,
    FormatError,
    MaskStack,
    PanopticMap,
    QueryProvenance,
    Segment,
    ValidationError,
    taxonomy_columns,
    validate_stack,
)

TAXONOMY_SCHEMA = "taxonomy/1"
STACK_SCHEMA = "stack-manifest/1"
PANOPTIC_SCHEMA = "panoptic-dir/1"

PathLike = Union[str, Path]


def _load_json(path: Path, schema: str) -> dict:
    if not path.exists():
        raise FormatError(f"{path}: file does not exist")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict) or data.get("schema") != schema:
        raise FormatError(
            f"{path}: expected schema {schema!r}, got {data.get('schema')!r}"
        )
    return data


def _dump_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _publish_index(path: Path, payload: dict) -> None:
    """Write a set's index to a temp file beside it, then rename it into
    place, so no reader ever sees a partly written index."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        _dump_json(tmp, payload)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _duplicate_id(image_ids: Sequence[str]) -> Optional[str]:
    """The first image id that repeats an earlier one, or None."""
    seen: set[str] = set()
    for image_id in image_ids:
        if image_id in seen:
            return image_id
        seen.add(image_id)
    return None


def save_taxonomy(path: PathLike, taxonomy: Sequence[CategorySpec]) -> None:
    taxonomy_columns(taxonomy)  # id uniqueness
    _dump_json(
        Path(path),
        {
            "schema": TAXONOMY_SCHEMA,
            "categories": [
                {"id": c.id, "name": c.name, "is_thing": c.is_thing}
                for c in taxonomy
            ],
        },
    )


def load_taxonomy(path: PathLike) -> tuple[CategorySpec, ...]:
    data = _load_json(Path(path), TAXONOMY_SCHEMA)
    try:
        taxonomy = tuple(
            CategorySpec(int(c["id"]), str(c["name"]), bool(c["is_thing"]))
            for c in data["categories"]
        )
    except (KeyError, TypeError) as exc:
        raise FormatError(f"{path}: malformed category entry ({exc})") from exc
    taxonomy_columns(taxonomy)
    return taxonomy


@dataclass(frozen=True)
class StackEntry:
    """One image row of a stack manifest; tensor paths are manifest-relative."""

    image_id: str
    masks_path: Path
    probs_path: Path
    provenance: tuple[QueryProvenance, ...]

    def load(self, taxonomy: Sequence[CategorySpec]) -> MaskStack:
        for path in (self.masks_path, self.probs_path):
            if not path.exists():
                raise FormatError(f"{path}: referenced file missing")
        masks = read_pst(self.masks_path)
        probs = read_pst(self.probs_path)
        if masks.ndim != 3:
            raise FormatError(f"{self.masks_path}: expected a (N, H, W) tensor")
        try:
            if probs.ndim != 2 or probs.shape[0] != masks.shape[0]:
                raise ValidationError(
                    f"masks carry {masks.shape[0]} entries, "
                    f"class_probs file has shape {probs.shape}"
                )
            return validate_stack(MaskStack(masks, probs, self.provenance), taxonomy)
        except ValidationError as exc:
            raise ValidationError(
                f"{self.masks_path}, {self.probs_path.name}: "
                f"image {self.image_id}: {exc}"
            ) from exc


def write_stack_set(
    out_dir: PathLike,
    taxonomy: Sequence[CategorySpec],
    items: Sequence[tuple[str, MaskStack]],
) -> Path:
    """Write taxonomy, per-image tensors, and manifest.json last; returns the
    manifest path. An interrupted rewrite leaves no manifest."""
    duplicate = _duplicate_id([image_id for image_id, _ in items])
    if duplicate is not None:  # its tensors would overwrite the first's
        raise ValidationError(f"image id {duplicate!r} appears twice in the set")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = out / "manifest.json"
    manifest.unlink(missing_ok=True)
    save_taxonomy(out / "taxonomy.json", taxonomy)
    images = []
    for image_id, stack in items:
        masks_name = f"{image_id}_masks.pst"
        probs_name = f"{image_id}_probs.pst"
        write_pst(out / masks_name, stack.masks.astype(np.float32))
        write_pst(out / probs_name, stack.class_probs.astype(np.float32))
        images.append(
            {
                "id": image_id,
                "masks": masks_name,
                "class_probs": probs_name,
                "provenance": [
                    {
                        "query_index": p.query_index,
                        "is_thing": p.is_thing,
                        "fixed_category": p.fixed_category,
                    }
                    for p in stack.provenance
                ],
            }
        )
    _publish_index(
        manifest,
        {"schema": STACK_SCHEMA, "taxonomy": "taxonomy.json", "images": images},
    )
    return manifest


def read_stack_manifest(
    manifest_path: PathLike,
) -> tuple[tuple[CategorySpec, ...], list[StackEntry]]:
    """Read a stack directory (or its manifest.json directly); tensors load
    lazily via StackEntry.load."""
    path = Path(manifest_path)
    if path.is_dir():
        path = path / "manifest.json"
    data = _load_json(path, STACK_SCHEMA)
    base = path.parent
    taxonomy = load_taxonomy(base / data["taxonomy"])
    entries = []
    try:
        for image in data["images"]:
            provenance = tuple(
                QueryProvenance(
                    int(p["query_index"]),
                    bool(p["is_thing"]),
                    None if p["fixed_category"] is None else int(p["fixed_category"]),
                )
                for p in image["provenance"]
            )
            entries.append(
                StackEntry(
                    str(image["id"]),
                    base / image["masks"],
                    base / image["class_probs"],
                    provenance,
                )
            )
    except (KeyError, TypeError) as exc:
        raise FormatError(f"{path}: malformed image entry ({exc})") from exc
    duplicate = _duplicate_id([e.image_id for e in entries])
    if duplicate is not None:
        raise FormatError(f"{path}: image id {duplicate!r} listed twice")
    return taxonomy, entries


def write_panoptic_set(
    out_dir: PathLike,
    taxonomy: Sequence[CategorySpec],
    items: Sequence[tuple[str, PanopticMap]],
) -> Path:
    """Write per-image sem/ids tensors plus panoptic.json last; returns the
    index path. An interrupted rewrite leaves no index."""
    duplicate = _duplicate_id([image_id for image_id, _ in items])
    if duplicate is not None:  # its tensors would overwrite the first's
        raise ValidationError(f"image id {duplicate!r} appears twice in the set")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    index = out / "panoptic.json"
    index.unlink(missing_ok=True)
    save_taxonomy(out / "taxonomy.json", taxonomy)
    images = []
    for image_id, pmap in items:
        if pmap.sem.max(initial=0) >= 2**16:
            raise ValidationError(
                f"image {image_id}: category ids do not fit uint16"
            )
        sem_name = f"{image_id}_sem.pst"
        ids_name = f"{image_id}_ids.pst"
        write_pst(out / sem_name, pmap.sem.astype(np.uint16))
        write_pst(out / ids_name, pmap.ids.astype(np.uint32))
        images.append(
            {
                "id": image_id,
                "sem": sem_name,
                "ids": ids_name,
                "segments": [
                    {
                        "instance_id": s.instance_id,
                        "category_id": s.category_id,
                        "source_query": s.source_query,
                        "score": s.score,
                    }
                    for s in pmap.segments
                ],
            }
        )
    _publish_index(
        index,
        {"schema": PANOPTIC_SCHEMA, "taxonomy": "taxonomy.json", "images": images},
    )
    return index


def read_panoptic_set(
    path: PathLike,
) -> tuple[tuple[CategorySpec, ...], list[tuple[str, PanopticMap]]]:
    """Read a panoptic directory (or its panoptic.json directly); maps are
    validated on load."""
    root = Path(path)
    index = root / "panoptic.json" if root.is_dir() else root
    data = _load_json(index, PANOPTIC_SCHEMA)
    base = index.parent
    taxonomy = load_taxonomy(base / data["taxonomy"])
    items = []
    try:
        duplicate = _duplicate_id([str(image["id"]) for image in data["images"]])
        if duplicate is not None:
            raise FormatError(f"{index}: image id {duplicate!r} listed twice")
        for image in data["images"]:
            for name in (image["sem"], image["ids"]):
                if not (base / name).exists():
                    raise FormatError(f"{base / name}: referenced file missing")
            sem = read_pst(base / image["sem"])
            ids = read_pst(base / image["ids"])
            if ids.max(initial=0) >= 2**31:
                raise FormatError(
                    f"{base / image['ids']}: instance ids exceed int32 range"
                )
            segments = tuple(
                Segment(
                    int(s["instance_id"]),
                    int(s["category_id"]),
                    None if s["source_query"] is None else int(s["source_query"]),
                    None if s["score"] is None else float(s["score"]),
                )
                for s in image["segments"]
            )
            pmap = PanopticMap(sem.astype(np.int32), ids.astype(np.int32), segments)
            try:
                pmap.validate()
            except ValidationError as exc:
                raise ValidationError(
                    f"{base / image['ids']}: image {image['id']}: {exc}"
                ) from exc
            items.append((str(image["id"]), pmap))
    except (KeyError, TypeError) as exc:
        raise FormatError(f"{index}: malformed image entry ({exc})") from exc
    return taxonomy, items
