"""File-level plumbing: taxonomy JSON, stack manifests, panoptic directories.

Tensors live in PST1 files; everything human-facing is JSON with a versioned
"schema" field. Both set kinds share one layout, a JSON index with one record
per image plus tensor files and taxonomy.json beside it: a stack manifest
lists mask and class-probability tensors plus inline provenance, a panoptic
directory an instance-id tensor plus segment records.

Each JSON record's fields, each tensor's stored dtype and each set kind's
fit check are spelled once, in the tables below; readers and writers walk them.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence, Union

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
    _check_categories,
    _naming,
    taxonomy_columns,
    validate_stack,
)

TAXONOMY_SCHEMA = "taxonomy/1"
STACK_SCHEMA = "stack-manifest/1"
PANOPTIC_SCHEMA = "panoptic-dir/2"

PathLike = Union[str, Path]

# what parsing a record with a missing key, a wrong type or a bad value raises
_MALFORMED = (KeyError, TypeError, ValueError, OverflowError)


def _load_json(path: Path, schema: str) -> dict:
    try:
        data = json.loads(path.read_bytes())
    except FileNotFoundError as exc:
        raise FormatError(f"{path}: file does not exist") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, too deep
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


def _list(value) -> list:
    """A JSON array; an object or anything else is malformed, not iterated."""
    if not isinstance(value, list):
        raise TypeError(f"expected an array, got {type(value).__name__}")
    return value


def _plain_name(value, what: str) -> str:
    """A JSON string naming a file in the set's own directory: not empty,
    not . or .., and free of path separators and NUL."""
    name = _str(value)
    if name in ("", ".", "..") or not set(name).isdisjoint("/\\\0"):
        raise ValidationError(f"{what} {name!r} is not a plain file name")
    return name


def _image_id(value) -> str:
    """An image id; it prefixes the image's tensor file names."""
    return _plain_name(value, "image id")


def _file_name(value) -> str:
    return _plain_name(value, "file name")


class _Field(NamedTuple):
    """One field of a JSON record: its key, which is also the attribute it is
    written from, the converter its value is read through, and whether null
    is a valid value."""

    name: str
    convert: Callable[[object], object]
    nullable: bool = False

    def read(self, record: dict):
        value = record[self.name]
        return None if value is None and self.nullable else self.convert(value)


@dataclass(frozen=True)
class _Table:
    """One JSON record kind: the class it builds and its fields in file order."""

    kind: type
    fields: tuple[_Field, ...]

    def read(self, records) -> tuple:
        """A JSON array of records as a tuple of kind instances."""
        return tuple(
            self.kind(**{f.name: f.read(record) for f in self.fields})
            for record in _list(records)
        )

    def dump(self, items: Sequence) -> list[dict]:
        return [{f.name: getattr(item, f.name) for f in self.fields} for item in items]


_CATEGORY = _Table(
    CategorySpec,
    (_Field("id", _int), _Field("name", _str), _Field("is_thing", _bool)),
)
_PROVENANCE = _Table(
    QueryProvenance,
    (
        _Field("query_index", _int),
        _Field("is_thing", _bool),
        _Field("fixed_category", _int, nullable=True),
    ),
)
_SEGMENT = _Table(
    Segment,
    (
        _Field("instance_id", _int),
        _Field("category_id", _int),
        _Field("source_query", _int, nullable=True),
        _Field("score", _float, nullable=True),
    ),
)


class _Tensor(NamedTuple):
    """One tensor of an image record: its key (also the item attribute it is
    written from), its file name suffix and the dtype it is stored as."""

    name: str
    suffix: str
    dtype: np.dtype


_MASKS = _Tensor("masks", "masks", np.dtype(np.float32))
_CLASS_PROBS = _Tensor("class_probs", "probs", np.dtype(np.float32))
_IDS = _Tensor("ids", "ids", np.dtype(np.uint32))


@dataclass(frozen=True)
class _Layout:
    """One set kind: its index file and schema, each image's tensors and the key
    (also the item attribute) and table of its records, how they build the
    image's item, and the fit check that readers and writers both run."""

    index_name: str
    schema: str
    tensors: tuple[_Tensor, ...]
    records: str
    table: _Table
    build: Callable[..., object]
    fit: Callable[[object, Sequence[CategorySpec]], None]

    @property
    def image_fields(self) -> tuple[_Field, ...]:
        """The fields of an image record, in file order."""
        return (
            _Field("id", _image_id),
            *(_Field(tensor.name, _file_name) for tensor in self.tensors),
            _Field(self.records, self.table.read),
        )

    def load(self, image_id: str, paths: Sequence[Path], records: tuple, taxonomy):
        """Read an image's tensors in their stored dtypes, then build and fit its
        item; an error in either names every tensor path and the image."""
        arrays = [read_pst(p, t.dtype) for p, t in zip(paths, self.tensors)]
        with _naming(f"{', '.join(map(str, paths))}: image {image_id}"):
            item = self.build(*arrays, records)
            self.fit(item, taxonomy)
        return item


_STACK_SET = _Layout(
    "manifest.json", STACK_SCHEMA, (_MASKS, _CLASS_PROBS), "provenance", _PROVENANCE,
    # looked up at call time, so perfbench's wrapper on manifest.validate_stack sees it
    build=MaskStack, fit=lambda stack, taxonomy: validate_stack(stack, taxonomy),
)
_PANOPTIC_SET = _Layout(
    "panoptic.json", PANOPTIC_SCHEMA, (_IDS,), "segments", _SEGMENT,
    build=lambda ids, segments: PanopticMap(None, ids, segments),
    fit=lambda pmap, taxonomy: _check_categories(pmap.validate(), taxonomy),
)


def _dump_json(path: PathLike, payload: dict) -> None:
    """Write payload as indented JSON, making the parent directory if needed."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
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
        path,
        {"schema": TAXONOMY_SCHEMA, "categories": _CATEGORY.dump(taxonomy)},
    )


def load_taxonomy(path: PathLike) -> tuple[CategorySpec, ...]:
    data = _load_json(Path(path), TAXONOMY_SCHEMA)
    try:
        taxonomy = _CATEGORY.read(data["categories"])
        taxonomy_columns(taxonomy)
    except _MALFORMED as exc:
        raise FormatError(
            f"{path}: malformed taxonomy ({type(exc).__name__}: {exc})"
        ) from exc
    return taxonomy


def _write_set(
    out_dir: PathLike,
    taxonomy: Sequence[CategorySpec],
    items: Sequence[tuple[str, object]],
    layout: _Layout,
) -> Path:
    """Check the image ids and fit each item to the taxonomy, remove the old
    index, write taxonomy.json and each image's tensors, then rename the new
    index into place from a temp file; returns the index path."""
    try:
        image_ids = [_image_id(image_id) for image_id, _ in items]
    except TypeError as exc:  # not a string
        raise ValidationError(f"image id: {exc}") from exc
    duplicate = _duplicate_id(image_ids)
    if duplicate is not None:  # its tensors would overwrite the first's
        raise ValidationError(f"image id {duplicate!r} appears twice in the set")
    taxonomy_columns(taxonomy)  # id uniqueness, before items are fit to it
    for image_id, item in items:
        with _naming(f"image {image_id}"):
            layout.fit(item, taxonomy)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    index = out / layout.index_name
    index.unlink(missing_ok=True)
    save_taxonomy(out / "taxonomy.json", taxonomy)
    images = []
    for image_id, item in items:
        image = {"id": image_id}
        for tensor in layout.tensors:
            image[tensor.name] = name = f"{image_id}_{tensor.suffix}.pst"
            values = getattr(item, tensor.name)
            write_pst(out / name, values.astype(tensor.dtype, copy=False))
        image[layout.records] = layout.table.dump(getattr(item, layout.records))
        images.append(image)
    tmp = index.with_name(f".{layout.index_name}.tmp")
    try:
        _dump_json(
            tmp,
            {"schema": layout.schema, "taxonomy": "taxonomy.json", "images": images},
        )
        os.replace(tmp, index)
    finally:
        tmp.unlink(missing_ok=True)
    return index


def _read_set(
    path: PathLike, layout: _Layout
) -> tuple[tuple[CategorySpec, ...], list[tuple[str, tuple[Path, ...], tuple]]]:
    """Read a set directory (or its index) as its taxonomy and a list of
    (image id, tensor paths in layout order, records). Only fields are
    converted and file paths resolved here: callers load tensors after this
    guard, so their errors keep their type."""
    index = Path(path)
    if index.is_dir():
        index = index / layout.index_name
    data = _load_json(index, layout.schema)
    base = index.parent
    real_base = os.path.realpath(base)

    def inside(name: str) -> Path:
        """base / name, unless it resolves out of the set's directory."""
        path = base / name
        if os.path.dirname(os.path.realpath(path)) != real_base:
            raise ValidationError(f"file {name!r} links outside the set's directory")
        return path

    try:
        taxonomy_path = inside(_file_name(data["taxonomy"]))
        images = []
        for image in _list(data["images"]):
            image_id, *names, records = (f.read(image) for f in layout.image_fields)
            images.append((image_id, tuple(map(inside, names)), records))
    except _MALFORMED as exc:
        raise FormatError(
            f"{index}: malformed index ({type(exc).__name__}: {exc})"
        ) from exc
    duplicate = _duplicate_id([image_id for image_id, _, _ in images])
    if duplicate is not None:
        raise FormatError(f"{index}: image id {duplicate!r} listed twice")
    return load_taxonomy(taxonomy_path), images


@dataclass(frozen=True)
class StackEntry:
    """One image row of a stack manifest; its tensor paths are
    manifest-relative, in _STACK_SET.tensors order (masks, class_probs)."""

    image_id: str
    paths: tuple[Path, ...]
    provenance: tuple[QueryProvenance, ...]

    def load(self, taxonomy: Sequence[CategorySpec]) -> MaskStack:
        return _STACK_SET.load(self.image_id, self.paths, self.provenance, taxonomy)


def write_stack_set(
    out_dir: PathLike,
    taxonomy: Sequence[CategorySpec],
    items: Sequence[tuple[str, MaskStack]],
) -> Path:
    """Write taxonomy, per-image tensors, and manifest.json last; returns the
    manifest path. An interrupted rewrite leaves no manifest."""
    return _write_set(out_dir, taxonomy, items, _STACK_SET)


def read_stack_manifest(
    manifest_path: PathLike,
) -> tuple[tuple[CategorySpec, ...], list[StackEntry]]:
    """Read a stack directory (or its manifest.json directly); tensors load
    lazily via StackEntry.load."""
    taxonomy, images = _read_set(manifest_path, _STACK_SET)
    return taxonomy, [StackEntry(*image) for image in images]


def write_panoptic_set(
    out_dir: PathLike,
    taxonomy: Sequence[CategorySpec],
    items: Sequence[tuple[str, PanopticMap]],
) -> Path:
    """Validate every map, then write per-image ids tensors plus panoptic.json
    last; returns the index path. An interrupted rewrite leaves no index."""
    return _write_set(out_dir, taxonomy, items, _PANOPTIC_SET)


def read_panoptic_set(
    path: PathLike,
) -> tuple[tuple[CategorySpec, ...], list[tuple[str, PanopticMap]]]:
    """Read a panoptic directory (or its panoptic.json directly); maps are
    validated on load."""
    taxonomy, images = _read_set(path, _PANOPTIC_SET)
    return taxonomy, [
        (image[0], _PANOPTIC_SET.load(*image, taxonomy)) for image in images
    ]
