import dataclasses
import json
import os
import re

import numpy as np
import pytest

from panokit import (
    DEFAULT_TAXONOMY,
    CategorySpec,
    FormatError,
    PanopticMap,
    SceneParams,
    ValidationError,
    generate_scene,
)
from panokit import manifest
from panokit.pst import read_pst, write_pst
from panokit.manifest import (
    load_taxonomy,
    read_panoptic_set,
    read_stack_manifest,
    save_taxonomy,
    write_panoptic_set,
    write_stack_set,
)


def _scene(seed=0):
    return generate_scene(SceneParams(seed=seed, height=32, width=32, n_things=2))


def test_taxonomy_round_trip(tmp_path):
    path = tmp_path / "taxonomy.json"
    save_taxonomy(path, DEFAULT_TAXONOMY)
    assert load_taxonomy(path) == DEFAULT_TAXONOMY


def test_taxonomy_field_types_are_strict(tmp_path):
    path = tmp_path / "taxonomy.json"
    entry = {"id": 6.9, "name": "sky", "is_thing": "false"}
    path.write_text(json.dumps({"schema": "taxonomy/1", "categories": [entry]}))
    with pytest.raises(FormatError) as excinfo:
        load_taxonomy(path)
    assert str(excinfo.value).startswith(f"{path}: ")
    entry = {"id": 6.0, "name": "sky", "is_thing": False}  # integral: kept
    path.write_text(json.dumps({"schema": "taxonomy/1", "categories": [entry]}))
    (cat,) = load_taxonomy(path)
    assert (cat.id, type(cat.id), cat.is_thing) == (6, int, False)


def test_taxonomy_rejects_wrong_schema(tmp_path):
    path = tmp_path / "taxonomy.json"
    path.write_text(json.dumps({"schema": "other/9", "categories": []}))
    with pytest.raises(FormatError, match="taxonomy.json"):
        load_taxonomy(path)


def test_stack_set_round_trip(tmp_path):
    _, stack_a = _scene(0)
    _, stack_b = _scene(1)
    manifest = write_stack_set(
        tmp_path / "set", DEFAULT_TAXONOMY, [("a", stack_a), ("b", stack_b)]
    )
    taxonomy, entries = read_stack_manifest(manifest)
    assert taxonomy == DEFAULT_TAXONOMY
    assert [e.image_id for e in entries] == ["a", "b"]
    back = entries[0].load(taxonomy)
    assert np.array_equal(back.masks, stack_a.masks)
    assert np.array_equal(back.class_probs, stack_a.class_probs)
    assert back.provenance == stack_a.provenance
    # the set directory itself is as good as the manifest path
    _, via_dir = read_stack_manifest(tmp_path / "set")
    assert [e.image_id for e in via_dir] == ["a", "b"]


def test_stack_manifest_missing_file_diagnostic(tmp_path):
    _, stack = _scene(0)
    manifest = write_stack_set(tmp_path / "set", DEFAULT_TAXONOMY, [("a", stack)])
    (tmp_path / "set" / "a_masks.pst").unlink()
    _, entries = read_stack_manifest(manifest)
    with pytest.raises(FormatError, match="a_masks.pst"):
        entries[0].load(DEFAULT_TAXONOMY)


def test_stack_manifest_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(FormatError, match="broken.json"):
        read_stack_manifest(path)


def test_panoptic_set_round_trip(tmp_path):
    gt_a, _ = _scene(0)
    gt_b, _ = _scene(1)
    index = write_panoptic_set(
        tmp_path / "maps", DEFAULT_TAXONOMY, [("a", gt_a), ("b", gt_b)]
    )
    taxonomy, items = read_panoptic_set(index)
    assert taxonomy == DEFAULT_TAXONOMY
    assert [i for i, _ in items] == ["a", "b"]
    back = dict(items)["a"]
    assert np.array_equal(back.sem, gt_a.sem)
    assert np.array_equal(back.ids, gt_a.ids)
    assert back.segments == gt_a.segments


def test_panoptic_set_accepts_directory_path(tmp_path):
    gt, _ = _scene(2)
    write_panoptic_set(tmp_path / "maps", DEFAULT_TAXONOMY, [("a", gt)])
    _, items = read_panoptic_set(tmp_path / "maps")
    assert [i for i, _ in items] == ["a"]


def test_panoptic_set_missing_tensor_diagnostic(tmp_path):
    gt, _ = _scene(0)
    write_panoptic_set(tmp_path / "maps", DEFAULT_TAXONOMY, [("a", gt)])
    (tmp_path / "maps" / "a_ids.pst").unlink()
    with pytest.raises(FormatError, match=r"a_ids\.pst: no such file"):
        read_panoptic_set(tmp_path / "maps")


def test_panoptic_set_rewrites_identically(tmp_path):
    gt, _ = _scene(3)
    index = write_panoptic_set(tmp_path / "m1", DEFAULT_TAXONOMY, [("a", gt)])
    again = write_panoptic_set(tmp_path / "m2", DEFAULT_TAXONOMY, [("a", gt)])
    assert index.read_bytes() == again.read_bytes()
    for name in ("a_sem.pst", "a_ids.pst"):
        assert (tmp_path / "m1" / name).read_bytes() == (
            tmp_path / "m2" / name
        ).read_bytes()


def test_panoptic_set_validates_maps_on_read(tmp_path):
    gt, _ = _scene(4)
    index = write_panoptic_set(tmp_path / "maps", DEFAULT_TAXONOMY, [("a", gt)])
    payload = json.loads(index.read_text())
    payload["images"][0]["segments"] = []
    index.write_text(json.dumps(payload))
    with pytest.raises(ValidationError, match=r"a_ids\.pst: image a: instance id"):
        read_panoptic_set(index)


def test_panoptic_set_ids_at_another_shape_name_the_file(tmp_path):
    gt, _ = _scene(0)
    write_panoptic_set(tmp_path / "maps", DEFAULT_TAXONOMY, [("a", gt)])
    write_pst(tmp_path / "maps" / "a_ids.pst", np.zeros((32, 33), np.uint32))
    message = r"sem \(32, 32\) and ids \(32, 33\) must be equal 2-d shapes"
    with pytest.raises(ValidationError, match=rf"a_ids\.pst: image a: {message}"):
        read_panoptic_set(tmp_path / "maps")


@pytest.mark.parametrize(
    "raster, value, message",
    [
        ("sem", -1, r"category ids must lie in \[0, 2\*\*16\)"),
        ("sem", 2**16, r"category ids must lie in \[0, 2\*\*16\)"),
        ("ids", -1, r"instance ids must lie in \[0, 2\*\*31\)"),
    ],
)
def test_panoptic_writer_rejects_ids_outside_the_stored_range(
    tmp_path, raster, value, message
):
    gt, _ = _scene(0)
    rasters = {"sem": gt.sem.copy(), "ids": gt.ids.copy()}
    rasters[raster][3, 5] = value  # uint16/uint32 casts would wrap it
    bad = PanopticMap(rasters["sem"], rasters["ids"], gt.segments)
    with pytest.raises(ValidationError, match=rf"image a: {message}"):
        write_panoptic_set(tmp_path / "maps", DEFAULT_TAXONOMY, [("a", bad)])
    assert not (tmp_path / "maps" / "panoptic.json").exists()


def test_panoptic_sets_reject_categories_outside_their_taxonomy(tmp_path):
    gt, _ = _scene(0)
    stuff = gt.segments[-1]
    relabeled = PanopticMap(
        np.where(gt.ids == stuff.instance_id, 42, gt.sem),
        gt.ids,
        (*gt.segments[:-1], dataclasses.replace(stuff, category_id=42)),
    )
    message = rf"segment {stuff.instance_id} has category 42, which the taxonomy"
    with pytest.raises(ValidationError, match=rf"^image a: {message}"):
        write_panoptic_set(tmp_path / "maps", DEFAULT_TAXONOMY, [("a", relabeled)])
    assert not (tmp_path / "maps").exists()
    extended = (*DEFAULT_TAXONOMY, CategorySpec(42, "extra", False))
    write_panoptic_set(tmp_path / "maps", extended, [("a", relabeled)])
    save_taxonomy(tmp_path / "maps" / "taxonomy.json", DEFAULT_TAXONOMY)
    with pytest.raises(ValidationError, match=rf"a_ids\.pst: image a: {message}"):
        read_panoptic_set(tmp_path / "maps")


def test_stack_validation_on_load_names_the_file(tmp_path):
    _, stack = _scene(4)
    write_stack_set(tmp_path / "set", DEFAULT_TAXONOMY, [("a", stack)])
    masks = stack.masks.copy()
    masks[0, 3, 5] = np.nan  # a stack holding it cannot be built, so write it raw
    write_pst(tmp_path / "set" / "a_masks.pst", masks)
    taxonomy, [entry] = read_stack_manifest(tmp_path / "set")
    with pytest.raises(ValidationError, match=r"a_masks\.pst.*image a: mask values"):
        entry.load(taxonomy)


@pytest.mark.parametrize("kind", ["stack", "panoptic"])
def test_set_writers_reject_duplicate_image_ids(tmp_path, kind):
    gt, stack = _scene(0)
    out = tmp_path / "set"
    with pytest.raises(ValidationError, match="image id '0000' appears twice"):
        if kind == "stack":
            write_stack_set(out, DEFAULT_TAXONOMY, [("0000", stack), ("0000", stack)])
        else:
            write_panoptic_set(out, DEFAULT_TAXONOMY, [("0000", gt), ("0000", gt)])
    assert not out.exists()  # refused before any tensor was written


@pytest.mark.parametrize("kind", ["stack", "panoptic"])
def test_set_readers_reject_duplicate_image_ids(tmp_path, kind):
    out = tmp_path / "set"
    index = _write_set(kind, out, seed=0)
    payload = json.loads(index.read_text())
    payload["images"][1]["id"] = payload["images"][0]["id"]
    index.write_text(json.dumps(payload))
    with pytest.raises(FormatError, match=rf"{index.name}: image id 'a' listed twice"):
        _read_set(kind, out)


def _write_set(kind, out, seed):
    gt, stack = _scene(seed)
    if kind == "stack":
        return write_stack_set(out, DEFAULT_TAXONOMY, [("a", stack), ("b", stack)])
    return write_panoptic_set(out, DEFAULT_TAXONOMY, [("a", gt), ("b", gt)])


def _read_set(kind, out):
    if kind == "stack":
        return read_stack_manifest(out)
    return read_panoptic_set(out)


@pytest.mark.parametrize("kind", ["stack", "panoptic"])
def test_interrupted_rewrite_leaves_no_index(tmp_path, monkeypatch, kind):
    out = tmp_path / "set"
    index = _write_set(kind, out, seed=0)
    real_write = manifest.write_pst
    written = []

    def fail_second(path, array):
        written.append(path)
        if len(written) == 2:
            raise OSError(f"{path}: no space left on device")
        real_write(path, array)

    monkeypatch.setattr(manifest, "write_pst", fail_second)
    with pytest.raises(OSError):
        _write_set(kind, out, seed=1)
    with pytest.raises(FormatError, match=index.name):
        _read_set(kind, out)


@pytest.mark.parametrize("kind", ["stack", "panoptic"])
def test_set_writes_leave_no_temp_file(tmp_path, monkeypatch, kind):
    out = tmp_path / "set"
    index = _write_set(kind, out, seed=0)
    tensors = ("masks", "probs") if kind == "stack" else ("sem", "ids")
    names = {"taxonomy.json", index.name}
    names |= {f"{image}_{t}.pst" for image in "ab" for t in tensors}
    assert {p.name for p in out.iterdir()} == names
    _write_set(kind, out, seed=1)
    assert {p.name for p in out.iterdir()} == names

    def refuse(src, dst):
        raise OSError(f"{dst}: read-only file system")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError):
        _write_set(kind, out, seed=2)
    assert {p.name for p in out.iterdir()} == names - {index.name}


_NOT_PLAIN_IDS = {
    "climbs out": "../outside",
    "slash": "a/b",
    "backslash": "a\\b",
    "empty": "",
    "dot": ".",
    "dotdot": "..",
    "NUL": "a\0b",
    "number": 7,
}


@pytest.mark.parametrize("kind", ["stack", "panoptic"])
@pytest.mark.parametrize("case", _NOT_PLAIN_IDS)
def test_set_writers_reject_ids_that_are_not_plain_names(tmp_path, kind, case):
    gt, stack = _scene(0)
    item = stack if kind == "stack" else gt
    writer = write_stack_set if kind == "stack" else write_panoptic_set
    items = [("a", item), (_NOT_PLAIN_IDS[case], item)]
    with pytest.raises(ValidationError, match="image id"):
        writer(tmp_path / "set", DEFAULT_TAXONOMY, items)
    assert list(tmp_path.iterdir()) == []  # nothing written, in the set or beside it


# case -> (index field, value); "tensor" is the image's first tensor, and
# {other} a second set beside the one read
_ESCAPING_NAMES = {
    "image id climbs out": ("id", "../a"),
    "empty image id": ("id", ""),
    "NUL in image id": ("id", "a\0"),
    "absolute tensor path": ("tensor", "{other}/a_{tensor}.pst"),
    "tensor climbs out": ("tensor", "../other/a_{tensor}.pst"),
    "NUL in tensor name": ("tensor", "a_{tensor}.pst\0"),
    "absolute taxonomy path": ("taxonomy", "{other}/taxonomy.json"),
}


@pytest.mark.parametrize("kind", ["stack", "panoptic"])
@pytest.mark.parametrize("case", _ESCAPING_NAMES)
def test_set_readers_reject_names_that_leave_the_directory(tmp_path, kind, case):
    index = _write_set(kind, tmp_path / "set", seed=0)
    _write_set(kind, tmp_path / "other", seed=1)
    tensor = "masks" if kind == "stack" else "sem"
    field, value = _ESCAPING_NAMES[case]
    value = value.format(other=tmp_path / "other", tensor=tensor)
    payload = json.loads(index.read_text())
    if field == "taxonomy":
        payload["taxonomy"] = value
    else:
        payload["images"][0][tensor if field == "tensor" else field] = value
    index.write_text(json.dumps(payload))
    with pytest.raises(FormatError, match=rf"^{re.escape(str(index))}: malformed"):
        _read_set(kind, tmp_path / "set")


# tensor file -> its values in another storable dtype, which a cast to the
# in-memory dtype would take silently (float sem values would truncate)
_RECASTS = {
    "masks": lambda a: (a > 0.5).astype(np.uint16),
    "probs": lambda a: (a > 0.5).astype(np.uint16),
    "sem": lambda a: a.astype(np.float32) + np.float32(0.7),
    "ids": lambda a: a.astype(np.uint16),
}


@pytest.mark.parametrize("tensor", _RECASTS)
def test_set_readers_reject_tensors_in_another_dtype(tmp_path, tensor):
    kind = "stack" if tensor in ("masks", "probs") else "panoptic"
    out = tmp_path / "set"
    _write_set(kind, out, seed=0)
    path = out / f"a_{tensor}.pst"
    stored = _RECASTS[tensor](read_pst(path))
    write_pst(path, stored)
    with pytest.raises(FormatError, match=rf"a_{tensor}\.pst: .* as {stored.dtype}"):
        taxonomy, loaded = _read_set(kind, out)
        if kind == "stack":
            loaded[0].load(taxonomy)


def _load_set(kind, path):
    """Every image of a set, its tensors loaded, as (id, arrays) pairs."""
    taxonomy, items = _read_set(kind, path)
    if kind == "stack":
        items = [(e.image_id, e.load(taxonomy)) for e in items]
        return [(i, (s.masks, s.class_probs)) for i, s in items]
    return [(i, (m.sem, m.ids)) for i, m in items]


# set kind -> the file names of image a, taxonomy.json among them
_SET_FILES = {
    "stack": ("a_masks.pst", "a_probs.pst", "taxonomy.json"),
    "panoptic": ("a_sem.pst", "a_ids.pst", "taxonomy.json"),
}


@pytest.mark.parametrize("kind", ["stack", "panoptic"])
def test_set_readers_refuse_symlinks_that_leave_the_set(tmp_path, kind):
    index = _write_set(kind, tmp_path / "set", seed=0)
    _write_set(kind, tmp_path / "other", seed=1)
    for name in _SET_FILES[kind]:
        link = tmp_path / "set" / name
        target = link.with_name(f"{name}.kept")
        link.rename(target)
        link.symlink_to(tmp_path / "other" / name)
        message = f"file '{name}' links outside the set's directory"
        with pytest.raises(FormatError, match=rf"^{re.escape(str(index))}: .*{message}"):
            _read_set(kind, tmp_path / "set")
        link.unlink()
        target.rename(link)
    assert _load_set(kind, tmp_path / "set")


@pytest.mark.parametrize("kind", ["stack", "panoptic"])
def test_set_readers_follow_symlinks_within_the_set(tmp_path, kind):
    _write_set(kind, tmp_path / "set", seed=0)  # images a and b are equal
    want = _load_set(kind, tmp_path / "set")
    for name in _SET_FILES[kind]:
        link = tmp_path / "set" / name.replace("a_", "b_")
        if name == "taxonomy.json":
            link.rename(tmp_path / "set" / "categories.json")
            link.symlink_to("categories.json")
        else:
            link.unlink()
            link.symlink_to(name)  # relative, so it stays inside the set
    got = _load_set(kind, tmp_path / "set")
    assert [i for i, _ in got] == [i for i, _ in want] == ["a", "b"]
    for (_, arrays), (_, expected) in zip(got, want):
        for array, same in zip(arrays, expected):
            np.testing.assert_array_equal(array, same)


@pytest.mark.parametrize("kind", ["stack", "panoptic"])
def test_set_readers_accept_a_set_under_a_symlinked_directory(tmp_path, kind):
    _write_set(kind, tmp_path / "real" / "set", seed=0)
    (tmp_path / "link").symlink_to(tmp_path / "real")
    got = _load_set(kind, tmp_path / "link" / "set")
    want = _load_set(kind, tmp_path / "real" / "set")
    assert [i for i, _ in got] == [i for i, _ in want] == ["a", "b"]
