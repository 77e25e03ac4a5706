"""File-level plumbing: taxonomy JSON, stack manifests, panoptic directories.

Tensors live in PST1 files; everything human-facing is JSON with a versioned
"schema" field. Both set kinds share one layout, a JSON index with one record
per image plus tensor files and taxonomy.json beside it: a stack manifest
lists mask and class-probability tensors plus inline provenance, a panoptic
directory sem (uint16) and ids (uint32) tensors plus segment records.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence, TypeVar, Union

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
T = TypeVar("T")

# what parsing a record with a missing key, a wrong type or a bad value raises
_MALFORMED = (KeyError, TypeError, ValueError, OverflowError)


def _load_json(path: Path, schema: str) -> dict:
    try:
        data = json.loads(path.read_bytes())
    except FileNotFoundError as exc:
        raise FormatError(f"{path}: file does not exist") from exc
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise FormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise FormatError(f"{path}: expected a JSON object, got {type(data).__name__}")
    if data.get("schema") != schema:
        raise FormatError(
            f"{path}: expected schema {schema!r}, got {data.get('schema')!r}"
        )
    return data


def _int(value) -> int:
    """A JSON integer, or a float with an integral value, as int; a bool, a
    string, a fraction or a non-finite number is malformed."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _bool(value) -> bool:
    """A JSON true or false; anything else is malformed, not truthy."""
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _float(value) -> float:
    """A finite JSON number as float; a bool, a string or a non-finite
    number is malformed."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def _str(value) -> str:
    """A JSON string; a number or anything else is malformed, not converted."""
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _dump_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")


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
            CategorySpec(_int(c["id"]), _str(c["name"]), _bool(c["is_thing"]))
            for c in data["categories"]
        )
        taxonomy_columns(taxonomy)
    except _MALFORMED as exc:
        raise FormatError(
            f"{path}: malformed taxonomy ({type(exc).__name__}: {exc})"
        ) from exc
    return taxonomy


def _write_set(
    out_dir: PathLike,
    taxonomy: Sequence[CategorySpec],
    items: Sequence[tuple[str, T]],
    index_name: str,
    schema: str,
    entry: Callable[[Path, str, T], dict],
) -> Path:
    """Remove the old index, write taxonomy.json, let entry(out, image_id,
    item) write each image's tensors and return its record, then rename the
    new index into place from a temp file; returns the index path."""
    duplicate = _duplicate_id([image_id for image_id, _ in items])
    if duplicate is not None:  # its tensors would overwrite the first's
        raise ValidationError(f"image id {duplicate!r} appears twice in the set")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    index = out / index_name
    index.unlink(missing_ok=True)
    save_taxonomy(out / "taxonomy.json", taxonomy)
    images = [
        {"id": image_id, **entry(out, image_id, item)} for image_id, item in items
    ]
    tmp = index.with_name(f".{index_name}.tmp")
    try:
        _dump_json(
            tmp, {"schema": schema, "taxonomy": "taxonomy.json", "images": images}
        )
        os.replace(tmp, index)
    finally:
        tmp.unlink(missing_ok=True)
    return index


def _read_set(
    path: PathLike,
    index_name: str,
    schema: str,
    parse: Callable[[Path, str, dict], T],
) -> tuple[tuple[CategorySpec, ...], list[tuple[str, T]]]:
    """Read a set directory (or its index) as its taxonomy and a list of
    (image id, parse(base, image_id, record)). parse only converts fields:
    callers load tensors after this guard, so their errors keep their type."""
    index = Path(path)
    if index.is_dir():
        index = index / index_name
    data = _load_json(index, schema)
    base = index.parent
    try:
        taxonomy_path = base / data["taxonomy"]
        records = []
        for image in data["images"]:
            image_id = _str(image["id"])
            records.append((image_id, parse(base, image_id, image)))
    except _MALFORMED as exc:
        raise FormatError(
            f"{index}: malformed index ({type(exc).__name__}: {exc})"
        ) from exc
    duplicate = _duplicate_id([image_id for image_id, _ in records])
    if duplicate is not None:
        raise FormatError(f"{index}: image id {duplicate!r} listed twice")
    return load_taxonomy(taxonomy_path), records


@dataclass(frozen=True)
class StackEntry:
    """One image row of a stack manifest; tensor paths are manifest-relative."""

    image_id: str
    masks_path: Path
    probs_path: Path
    provenance: tuple[QueryProvenance, ...]

    def load(self, taxonomy: Sequence[CategorySpec]) -> MaskStack:
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

    def entry(out: Path, image_id: str, stack: MaskStack) -> dict:
        masks_name = f"{image_id}_masks.pst"
        probs_name = f"{image_id}_probs.pst"
        write_pst(out / masks_name, stack.masks.astype(np.float32))
        write_pst(out / probs_name, stack.class_probs.astype(np.float32))
        return {
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

    return _write_set(out_dir, taxonomy, items, "manifest.json", STACK_SCHEMA, entry)


def read_stack_manifest(
    manifest_path: PathLike,
) -> tuple[tuple[CategorySpec, ...], list[StackEntry]]:
    """Read a stack directory (or its manifest.json directly); tensors load
    lazily via StackEntry.load."""

    def parse(base: Path, image_id: str, image: dict) -> StackEntry:
        provenance = tuple(
            QueryProvenance(
                _int(p["query_index"]),
                _bool(p["is_thing"]),
                None if p["fixed_category"] is None else _int(p["fixed_category"]),
            )
            for p in image["provenance"]
        )
        return StackEntry(
            image_id, base / image["masks"], base / image["class_probs"], provenance
        )

    taxonomy, records = _read_set(manifest_path, "manifest.json", STACK_SCHEMA, parse)
    return taxonomy, [entry for _, entry in records]


def write_panoptic_set(
    out_dir: PathLike,
    taxonomy: Sequence[CategorySpec],
    items: Sequence[tuple[str, PanopticMap]],
) -> Path:
    """Write per-image sem/ids tensors plus panoptic.json last; returns the
    index path. An interrupted rewrite leaves no index."""

    def entry(out: Path, image_id: str, pmap: PanopticMap) -> dict:
        bounds = (("category", pmap.sem, 16), ("instance", pmap.ids, 31))
        for name, values, bits in bounds:  # the uint16/uint32 casts would wrap
            if values.min(initial=0) < 0 or values.max(initial=0) >= 1 << bits:
                raise ValidationError(
                    f"image {image_id}: {name} ids must lie in [0, 2**{bits})"
                )
        sem_name = f"{image_id}_sem.pst"
        ids_name = f"{image_id}_ids.pst"
        write_pst(out / sem_name, pmap.sem.astype(np.uint16))
        write_pst(out / ids_name, pmap.ids.astype(np.uint32))
        return {
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

    return _write_set(out_dir, taxonomy, items, "panoptic.json", PANOPTIC_SCHEMA, entry)


def read_panoptic_set(
    path: PathLike,
) -> tuple[tuple[CategorySpec, ...], list[tuple[str, PanopticMap]]]:
    """Read a panoptic directory (or its panoptic.json directly); maps are
    validated on load."""

    def parse(base: Path, image_id: str, image: dict):
        segments = tuple(
            Segment(
                _int(s["instance_id"]),
                _int(s["category_id"]),
                None if s["source_query"] is None else _int(s["source_query"]),
                None if s["score"] is None else _float(s["score"]),
            )
            for s in image["segments"]
        )
        return base / image["sem"], base / image["ids"], segments

    taxonomy, records = _read_set(path, "panoptic.json", PANOPTIC_SCHEMA, parse)
    items = []
    for image_id, (sem_path, ids_path, segments) in records:
        sem = read_pst(sem_path)
        ids = read_pst(ids_path)
        if ids.max(initial=0) >= 2**31:
            raise FormatError(f"{ids_path}: instance ids exceed int32 range")
        pmap = PanopticMap(sem.astype(np.int32), ids.astype(np.int32), segments)
        try:
            pmap.validate()
        except ValidationError as exc:
            raise ValidationError(f"{ids_path}: image {image_id}: {exc}") from exc
        items.append((image_id, pmap))
    return taxonomy, items
