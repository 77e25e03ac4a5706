import json
from dataclasses import fields, replace
from functools import reduce

import numpy as np
import pytest

from scipy.optimize import linear_sum_assignment

from panokit import cli, manifest
from panokit.cli import build_parser, main
from panokit.manifest import (
    read_panoptic_set,
    read_stack_manifest,
    write_panoptic_set,
    write_stack_set,
)
from panokit.merging import (
    MergeParams,
    heuristic_merge,
    mask_wise_merge,
    pixel_wise_argmax,
)
from panokit.metrics import PqReport, QueryStats, pq, query_stats
from panokit.pst import read_pst, write_pst
from panokit.scoring import ScoreParams
from panokit import (
    DEFAULT_TAXONOMY,
    CategorySpec,
    LossWeights,
    MaskStack,
    MatchQuery,
    MatchTarget,
    PanopticMap,
    QueryProvenance,
    SceneParams,
    Segment,
    ValidationError,
    generate_scene,
    bbox_of,
    mass_center,
    matching_cost,
    stuff_ids,
    token_counts,
)


def test_pipeline_smoke(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["synth", "--seed", "7", "--images", "2", "--out", str(data)]) == 0
    assert main(
        ["merge", "--in", str(data / "manifest.json"), "--out", str(tmp_path / "pred")]
    ) == 0
    assert main(
        [
            "eval",
            "--pred", str(tmp_path / "pred"),
            "--gt", str(data / "gt"),
            "--out", str(tmp_path / "report.json"),
        ]
    ) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["schema"] == "pq-report/1"
    assert report["aggregates"]["pq"] == 1.0
    assert report["images"] == 2
    out = capsys.readouterr().out
    assert "PQ 1.0000" in out


def test_noisy_maskwise_beats_argmax(tmp_path):
    data = tmp_path / "data"
    main(
        [
            "synth", "--seed", "3", "--images", "4", "--noise", "0.15",
            "--overlap-bias", "0.6", "--n", "5", "--out", str(data),
        ]
    )
    manifest = str(data / "manifest.json")
    for strategy in ("maskwise", "argmax"):
        assert main(
            [
                "merge", "--strategy", strategy, "--in", manifest,
                "--out", str(tmp_path / strategy),
            ]
        ) == 0
        assert main(
            [
                "eval", "--pred", str(tmp_path / strategy),
                "--gt", str(data / "gt"),
                "--out", str(tmp_path / f"{strategy}.json"),
            ]
        ) == 0
    pq_of = {
        s: json.loads((tmp_path / f"{s}.json").read_text())["aggregates"]["pq"]
        for s in ("maskwise", "argmax")
    }
    assert pq_of["maskwise"] >= pq_of["argmax"]


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["merge", "--in", "x.json"]) == 1


def test_bad_lambda_string_is_usage_error(capsys):
    code = main(
        ["assign", "--pred", "p", "--gt", "g", "--out", "o", "--lambdas", "1,2"]
    )
    assert code == 1


def test_missing_input_is_data_error(tmp_path, capsys):
    code = main(
        ["merge", "--in", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]
    )
    assert code == 2
    assert "nope.json" in capsys.readouterr().err


def test_merge_nonfinite_exponent_is_data_error(tmp_path, capsys):
    data = tmp_path / "data"
    main(["synth", "--images", "1", "--out", str(data)])
    capsys.readouterr()
    code = main(
        ["merge", "--in", str(data), "--alpha", "nan", "--out", str(tmp_path / "o")]
    )
    assert code == 2
    assert "alpha must be finite and >= 0, got nan" in capsys.readouterr().err
    assert not (tmp_path / "o" / "panoptic.json").exists()


def test_merge_of_duplicate_image_ids_is_data_error(tmp_path, capsys):
    data = tmp_path / "data"
    main(["synth", "--images", "2", "--out", str(data)])
    manifest_path = data / "manifest.json"
    payload = json.loads(manifest_path.read_text())
    payload["images"][1]["id"] = "0000"
    manifest_path.write_text(json.dumps(payload))
    capsys.readouterr()
    code = main(["merge", "--in", str(data), "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"{manifest_path}: image id '0000' listed twice" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "is_thing, category, message",
    [
        (False, None, "stuff query {} is missing its fixed_category"),
        (True, 6, "thing query {} must not carry a fixed_category"),
    ],
    ids=["null stuff category", "thing with category"],
)
def test_merge_of_wrong_provenance_kind_names_the_index(
    tmp_path, capsys, is_thing, category, message
):
    data = tmp_path / "data"
    main(["synth", "--images", "1", "--out", str(data)])
    manifest_path = data / "manifest.json"
    payload = json.loads(manifest_path.read_text())
    provenance = payload["images"][0]["provenance"]
    query = next(p for p in provenance if p["is_thing"] == is_thing)
    query["fixed_category"] = category
    manifest_path.write_text(json.dumps(payload))
    capsys.readouterr()
    code = main(["merge", "--in", str(data), "--out", str(tmp_path / "o")])
    assert code == 2
    message = message.format(query["query_index"])
    assert capsys.readouterr().err == (
        f"error: {manifest_path}: malformed index (ValidationError: {message})\n"
    )
    assert not (tmp_path / "o").exists()


def test_malformed_pst_magic_is_data_error(tmp_path, capsys):
    data = tmp_path / "data"
    main(["synth", "--seed", "1", "--out", str(data)])
    victim = data / "0000_masks.pst"
    raw = bytearray(victim.read_bytes())
    raw[:4] = b"JUNK"
    victim.write_bytes(bytes(raw))
    code = main(
        ["merge", "--in", str(data / "manifest.json"), "--out", str(tmp_path / "o")]
    )
    assert code == 2
    assert "0000_masks.pst" in capsys.readouterr().err


def _with(payload, keys, value):
    """payload with the item at the nested keys replaced by value."""
    *parents, last = keys
    inner = payload
    for key in parents:
        inner = inner[key]
    inner[last] = value
    return payload


# case -> (file to corrupt, edit of its JSON value returning the new value
# or raw bytes); "index" stands for manifest.json or panoptic.json
_MALFORMED_ANY_SET = {
    "no taxonomy key": (
        "index",
        lambda p: {"schema": p["schema"], "images": p["images"]},
    ),
    "non-string taxonomy": ("index", lambda p: {**p, "taxonomy": 5}),
    "list index": ("index", lambda p: [p]),
    "index not utf-8": ("index", lambda p: b'{"schema": "\xff"}'),
    "non-numeric category id": (
        "taxonomy.json",
        lambda p: _with(p, ["categories", 0, "id"], "one"),
    ),
    "duplicate category id": (
        "taxonomy.json",
        lambda p: _with(p, ["categories", 1, "id"], 1),
    ),
    "fractional category id": (
        "taxonomy.json",
        lambda p: _with(p, ["categories", 5, "id"], 6.9),
    ),
    "boolean category id": (
        "taxonomy.json",
        lambda p: _with(p, ["categories", 0, "id"], True),
    ),
    "string is_thing": (
        "taxonomy.json",
        lambda p: _with(p, ["categories", 5, "is_thing"], "false"),
    ),
    "numeric category name": (
        "taxonomy.json",
        lambda p: _with(p, ["categories", 0, "name"], 5),
    ),
    "numeric image id": ("index", lambda p: _with(p, ["images", 0, "id"], 7)),
    "image id climbing out": (
        "index",
        lambda p: _with(p, ["images", 0, "id"], "../0000"),
    ),
    "absolute taxonomy path": (
        "index",
        lambda p: {**p, "taxonomy": "/nonexistent/taxonomy.json"},
    ),
}


def _stuff_query(payload):
    """Position of the first stuff query in image 0's provenance."""
    provenance = payload["images"][0]["provenance"]
    return next(k for k, p in enumerate(provenance) if not p["is_thing"])


_MALFORMED_SETS = {
    "stack": {
        **_MALFORMED_ANY_SET,
        "non-numeric query_index": (
            "index",
            lambda p: _with(p, ["images", 0, "provenance", 0, "query_index"], "x"),
        ),
        "infinite query_index": (
            "index",
            lambda p: _with(
                p, ["images", 0, "provenance", 0, "query_index"], float("inf")
            ),
        ),
        "fractional query_index": (
            "index",
            lambda p: _with(p, ["images", 0, "provenance", 0, "query_index"], 0.5),
        ),
        "boolean query_index": (
            "index",
            lambda p: _with(p, ["images", 0, "provenance", 0, "query_index"], False),
        ),
        "string provenance is_thing": (
            "index",
            lambda p: _with(p, ["images", 0, "provenance", 0, "is_thing"], "false"),
        ),
        "fractional fixed_category": (
            "index",
            lambda p: _with(
                p, ["images", 0, "provenance", _stuff_query(p), "fixed_category"], 6.5
            ),
        ),
        "NUL in tensor name": (
            "index",
            lambda p: _with(p, ["images", 0, "masks"], "0000_masks.pst\0"),
        ),
        "absolute tensor path": (
            "index",
            lambda p: _with(
                p, ["images", 0, "class_probs"], "/nonexistent/0000_probs.pst"
            ),
        ),
    },
    "panoptic": {
        **_MALFORMED_ANY_SET,
        "non-numeric instance_id": (
            "index",
            lambda p: _with(p, ["images", 0, "segments", 0, "instance_id"], "x"),
        ),
        "non-numeric score": (
            "index",
            lambda p: _with(p, ["images", 0, "segments", 0, "score"], "x"),
        ),
        "string score": (
            "index",
            lambda p: _with(p, ["images", 0, "segments", 0, "score"], "0.5"),
        ),
        "infinite score": (
            "index",
            lambda p: _with(p, ["images", 0, "segments", 0, "score"], float("inf")),
        ),
        "fractional instance_id": (
            "index",
            lambda p: _with(p, ["images", 0, "segments", 0, "instance_id"], 1.5),
        ),
        "boolean category_id": (
            "index",
            lambda p: _with(p, ["images", 0, "segments", 0, "category_id"], True),
        ),
        "fractional source_query": (
            "index",
            lambda p: _with(p, ["images", 0, "segments", 0, "source_query"], 0.25),
        ),
        "NUL in tensor name": (
            "index",
            lambda p: _with(p, ["images", 0, "ids"], "0000_ids.pst\0"),
        ),
        "absolute tensor path": (
            "index",
            lambda p: _with(p, ["images", 0, "ids"], "/nonexistent/0000_ids.pst"),
        ),
    },
}


@pytest.mark.parametrize(
    "kind, case", [(k, c) for k, cases in _MALFORMED_SETS.items() for c in cases]
)
def test_malformed_set_is_data_error_naming_the_file(tmp_path, capsys, kind, case):
    _assert_data_error_naming(tmp_path, capsys, kind, *_MALFORMED_SETS[kind][case])


def _assert_data_error_naming(tmp_path, capsys, kind, name, edit, named=None):
    """Corrupt one file of a fresh one-image set with edit, as in
    _MALFORMED_SETS, then check that reading the set is a data error whose
    message starts with that file, or with named(set root) when given."""
    data = tmp_path / "data"
    main(["synth", "--h", "32", "--w", "32", "--n", "1", "--out", str(data)])
    if kind == "stack":
        root, index = data, "manifest.json"
        argv = ["merge", "--in", str(root), "--out", str(tmp_path / "o")]
    else:
        root, index = data / "gt", "panoptic.json"
        argv = ["eval", "--pred", str(root), "--gt", str(root)]
        argv += ["--out", str(tmp_path / "o.json")]
    culprit = root / (index if name == "index" else name)
    edited = edit(json.loads(culprit.read_text()))
    if not isinstance(edited, bytes):
        edited = json.dumps(edited).encode()
    culprit.write_bytes(edited)
    capsys.readouterr()
    assert main(argv) == 2  # an exception escaping main would be a traceback
    err = capsys.readouterr().err
    assert err.startswith(f"error: {culprit}: " if named is None else named(root))
    assert "Traceback" not in err


# JSON nested deeper than Python's recursion limit, which json.loads
# reports as a RecursionError rather than a ValueError
_DEEP = b"[" * 100_000 + b"]" * 100_000
_DEEP_TAXONOMY = b'{"schema": "taxonomy/1", "categories": ' + _DEEP + b"}"

# JSON file kind -> (set kind, file name, its bytes)
_TOO_DEEP_JSON = {
    "stack manifest": ("stack", "manifest.json", _DEEP),
    "panoptic index": ("panoptic", "panoptic.json", _DEEP),
    "taxonomy": ("panoptic", "taxonomy.json", _DEEP_TAXONOMY),
    "stack taxonomy": ("stack", "taxonomy.json", _DEEP_TAXONOMY),
}


@pytest.mark.parametrize("case", _TOO_DEEP_JSON)
def test_json_nested_too_deep_is_data_error_naming_the_file(tmp_path, capsys, case):
    kind, name, payload = _TOO_DEEP_JSON[case]
    data = tmp_path / "data"
    main(["synth", "--h", "32", "--w", "32", "--n", "1", "--out", str(data)])
    if kind == "stack":
        root = data
        argv = ["merge", "--in", str(root), "--out", str(tmp_path / "o")]
    else:
        root = data / "gt"
        argv = ["eval", "--pred", str(root), "--gt", str(root)]
        argv += ["--out", str(tmp_path / "o.json")]
    (root / name).write_bytes(payload)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {root / name}: invalid JSON (")
    assert err.endswith("\n") and err.count("\n") == 1  # one line, no traceback


@pytest.mark.parametrize("command", ["eval", "stats", "assign"])
def test_panoptic_set_of_the_old_schema_is_refused_naming_the_index(
    tmp_path, capsys, command
):
    data = tmp_path / "data"
    main(["synth", "--h", "32", "--w", "32", "--n", "1", "--out", str(data)])
    index = data / "gt" / "panoptic.json"
    index.write_text(index.read_text().replace("panoptic-dir/2", "panoptic-dir/1"))
    capsys.readouterr()
    pred = data if command == "assign" else data / "gt"
    argv = [command, "--pred", str(pred), "--gt", str(data / "gt")]
    assert main([*argv, "--out", str(tmp_path / "o.json")]) == 2
    assert capsys.readouterr().err == (
        f"error: {index}: expected schema 'panoptic-dir/2', got 'panoptic-dir/1'\n"
    )
    assert not (tmp_path / "o.json").exists()


# every field of every record table in manifest.py gets each of these values,
# or loses its key, unless the value is valid for the field
_FIELD_MUTATIONS = {
    "null": None,
    "true": True,
    "string": "x",
    "fraction": 0.5,
    "Infinity": float("inf"),
    "NaN": float("nan"),
    "list": [],
    "object": {},
    "-1": -1,
    "2**16": 2**16,
    "2**31": 2**31,
    "2**63": 2**63,
}
_INTEGERS = {"-1", "2**16", "2**31", "2**63"}

# the mutations each field converter accepts, null aside
_VALID_MUTATIONS = {
    manifest._int: set(),
    manifest._bool: {"true"},
    manifest._float: {"fraction"} | _INTEGERS,
    manifest._str: {"string"},
    manifest._image_id: {"string"},
    manifest._file_name: {"string"},
    manifest._PROVENANCE.read: {"list"},
    manifest._SEGMENT.read: {"list"},
}

# record -> (its fields, set kind, file holding it, keys of the first one)
_RECORDS = {
    "category": (
        manifest._CATEGORY.fields, "panoptic", "taxonomy.json", ["categories", 0]
    ),
    "provenance": (
        manifest._PROVENANCE.fields, "stack", "index", ["images", 0, "provenance", 0]
    ),
    "segment": (
        manifest._SEGMENT.fields, "panoptic", "index", ["images", 0, "segments", 0]
    ),
    "stack image": (manifest._STACK_SET.image_fields, "stack", "index", ["images", 0]),
    "panoptic image": (
        manifest._PANOPTIC_SET.image_fields, "panoptic", "index", ["images", 0]
    ),
}


# integer fields that take every integer mutation: query indices are labels
# with no range, and these cases pin that they are accepted
_UNBOUNDED_INTEGERS = {("provenance", "query_index"), ("segment", "source_query")}

# integer fields that are checked against the image's rasters, so their
# refusal names the image's tensors, not the index
_CHECKED_AGAINST_RASTERS = {("segment", "instance_id"), ("segment", "category_id")}


def _image_0_rasters(root):
    return f"error: {root / '0000_ids.pst'}: image 0000: "


def _field_mutations():
    for record, (fields, *_) in _RECORDS.items():
        for field in fields:
            valid = _VALID_MUTATIONS[field.convert]
            if field.nullable:
                valid = valid | {"null"}
            if (record, field.name) in _UNBOUNDED_INTEGERS:
                valid = valid | _INTEGERS
            yield record, field.name, "missing"
            yield from (
                (record, field.name, mutation)
                for mutation in _FIELD_MUTATIONS
                if mutation not in valid
            )


def test_every_record_table_is_mutated():
    owned = vars(manifest).values()
    tables = [t.fields for t in owned if isinstance(t, manifest._Table)]
    tables += [s.image_fields for s in owned if isinstance(s, manifest._Layout)]
    covered = [fields for fields, *_ in _RECORDS.values()]
    assert len(tables) == len(covered) and all(t in covered for t in tables)


@pytest.mark.parametrize("record, field, mutation", list(_field_mutations()))
def test_malformed_record_field_is_data_error_naming_the_file(
    tmp_path, capsys, record, field, mutation
):
    _assert_field_refused(tmp_path, capsys, record, _RECORDS[record][1], field, mutation)


# a stack set's taxonomy is read through the same record, and its category
# ids feed the merge's label tables, so it gets the same mutations
@pytest.mark.parametrize(
    "field, mutation", [(f, m) for r, f, m in _field_mutations() if r == "category"]
)
def test_malformed_category_field_of_a_stack_set_is_data_error_naming_the_file(
    tmp_path, capsys, field, mutation
):
    _assert_field_refused(tmp_path, capsys, "category", "stack", field, mutation)


def _assert_field_refused(tmp_path, capsys, record, kind, field, mutation):
    """Apply one mutation to one field of the first record of its kind in a
    fresh set of the given kind, and check that reading it is a data error."""
    _, _, name, keys = _RECORDS[record]
    checked = mutation in _INTEGERS and (record, field) in _CHECKED_AGAINST_RASTERS

    def edit(payload):
        inner = payload
        for key in keys:
            inner = inner[key]
        if mutation == "missing":
            del inner[field]
        else:
            inner[field] = _FIELD_MUTATIONS[mutation]
        return payload

    named = _image_0_rasters if checked else None
    _assert_data_error_naming(tmp_path, capsys, kind, name, edit, named)


def test_synth_rerun_is_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        main(["synth", "--seed", "5", "--images", "2", "--noise", "0.2", "--out", str(out)])
    for name in ("manifest.json", "0001_masks.pst", "0001_probs.pst"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    assert (a / "gt" / "panoptic.json").read_bytes() == (
        b / "gt" / "panoptic.json"
    ).read_bytes()


def _assert_threads_match_sequential(tmp_path, synth_args, merge_args):
    """merge, and eval of its maps against the set's gt, write the same
    files with --threads 3 as with --threads 1."""
    data = tmp_path / "data"
    main(["synth", *synth_args, "--images", "3", "--noise", "0.1", "--out", str(data)])
    manifest = str(data / "manifest.json")
    for threads, out in (("1", "seq"), ("3", "par")):
        argv = ["merge", "--in", manifest, *merge_args, "--threads", threads]
        assert main(argv + ["--out", str(tmp_path / out)]) == 0
        report = str(tmp_path / out / "pq.json")
        argv = ["eval", "--pred", str(tmp_path / out), "--gt", str(data / "gt")]
        assert main(argv + ["--threads", threads, "--out", report]) == 0
    for name in ("0000", "0001", "0002"):
        assert (tmp_path / "seq" / f"{name}_ids.pst").read_bytes() == (
            tmp_path / "par" / f"{name}_ids.pst"
        ).read_bytes()
    for name in ("panoptic.json", "pq.json"):
        assert (tmp_path / "seq" / name).read_bytes() == (
            tmp_path / "par" / name
        ).read_bytes()


def test_merge_threads_match_sequential(tmp_path):
    _assert_threads_match_sequential(tmp_path, ["--seed", "2"], [])


def test_argmax_weighted_threads_match_sequential_on_multi_strip_frames(tmp_path):
    # 384 x 320 frames are 2 row strips of the fill kernel, the last one
    # ragged (204 + 180 rows).
    _assert_threads_match_sequential(
        tmp_path,
        ["--seed", "4", "--h", "384", "--w", "320"],
        ["--strategy", "argmax-weighted"],
    )


def test_assign_writes_expected_layout(tmp_path):
    data = tmp_path / "data"
    main(["synth", "--seed", "9", "--images", "1", "--out", str(data)])
    out = tmp_path / "assign.json"
    code = main(
        [
            "assign", "--pred", str(data / "manifest.json"),
            "--gt", str(data / "gt"), "--location-mode", "center",
            "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == "assignment/1"
    image = payload["images"][0]
    # the noise-free stack reproduces GT, so matching is the identity layout
    assert image["pairs"] == [[i, i + 1] for i in range(4)]
    assert image["unmatched_things"] == []
    assert len(image["stuff_pairs"]) == 2


@pytest.mark.parametrize("normalize", [True, False])
@pytest.mark.parametrize("location_mode", ["box", "center"])
def test_assign_matches_scalar_rebuilt_optimum(tmp_path, location_mode, normalize):
    data = tmp_path / "data"
    main(
        [
            "synth", "--seed", "11", "--images", "2", "--n", "12", "--h", "256",
            "--w", "256", "--noise", "0.1", "--out", str(data),
        ]
    )
    out = tmp_path / "assign.json"
    code = main(
        [
            "assign", "--pred", str(data / "manifest.json"),
            "--gt", str(data / "gt"), "--out", str(out),
            "--location-mode", location_mode,
            "--normalize" if normalize else "--no-normalize",
        ]
    )
    assert code == 0
    images = json.loads(out.read_text())["images"]
    taxonomy, entries = read_stack_manifest(data / "manifest.json")
    _, gt_items = read_panoptic_set(data / "gt")
    columns = {c.id: pos for pos, c in enumerate(taxonomy)}
    stuff = stuff_ids(taxonomy)
    assert len(images) == len(entries) == 2
    for image, entry, (_, gt) in zip(images, entries, gt_items):
        stack = entry.load(taxonomy)
        rows = [i for i, p in enumerate(stack.provenance) if p.is_thing]
        queries = []
        for i in rows:
            mask = stack.masks[i]
            soft = mask.astype(np.float64)
            center = mass_center(soft) if soft.sum() > 0 else np.full(2, 127.5)
            queries.append(MatchQuery(stack.class_probs[i], mask, bbox_of(mask), center))
        segs = [s for s in gt.segments if s.category_id not in stuff]
        targets = []
        for seg in segs:
            mask = gt.ids == seg.instance_id
            center = mass_center(mask.astype(np.float64))
            targets.append(MatchTarget(columns[seg.category_id], mask, bbox_of(mask), center))
        mode = "box" if location_mode == "box" else "mass_center"
        costs = np.array(
            [
                [matching_cost(q, t, LossWeights(), mode, normalize) for t in targets]
                for q in queries
            ]
        )
        r, c = linear_sum_assignment(costs)
        want = sorted(
            [stack.provenance[rows[q]].query_index, segs[t].instance_id]
            for q, t in zip(r, c)
        )
        assert len(targets) == 12
        assert image["pairs"] == want
        assert image["total_cost"] == pytest.approx(costs[r, c].sum(), rel=1e-9)


def test_assign_gt_thing_without_pixels_names_the_file(tmp_path, capsys):
    data = tmp_path / "data"
    main(["synth", "--seed", "9", "--images", "1", "--out", str(data)])
    taxonomy, [(image_id, gt)] = read_panoptic_set(data / "gt")
    bare = PanopticMap(gt.sem, gt.ids, (*gt.segments, Segment(99, 1)))
    write_panoptic_set(tmp_path / "gt", taxonomy, [(image_id, bare)])
    capsys.readouterr()
    code = main(
        [
            "assign", "--pred", str(data / "manifest.json"),
            "--gt", str(tmp_path / "gt"), "--out", str(tmp_path / "a.json"),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert str(tmp_path / "gt") in err
    assert "image 0000 thing instance id 99 has no pixels" in err


def test_assign_gt_image_without_prediction_is_data_error(tmp_path, capsys):
    data = tmp_path / "data"
    main(["synth", "--seed", "9", "--images", "2", "--out", str(data)])
    taxonomy, items = read_panoptic_set(data / "gt")
    write_panoptic_set(tmp_path / "gt", taxonomy, [*items, ("0009", items[0][1])])
    capsys.readouterr()
    code = main(
        [
            "assign", "--pred", str(data / "manifest.json"),
            "--gt", str(tmp_path / "gt"), "--out", str(tmp_path / "a.json"),
        ]
    )
    assert code == 2
    assert "(missing from pred: ['0009'], extra in pred: [])" in capsys.readouterr().err
    assert not (tmp_path / "a.json").exists()


def test_eval_of_zero_pixel_maps_reports_no_categories(tmp_path, capsys):
    empty = PanopticMap(np.zeros((0, 4)), np.zeros((0, 4)), ())
    write_panoptic_set(tmp_path / "set", DEFAULT_TAXONOMY, [("0000", empty)])
    out = tmp_path / "report.json"
    code = main(
        [
            "eval", "--pred", str(tmp_path / "set"),
            "--gt", str(tmp_path / "set"), "--out", str(out),
        ]
    )
    assert code == 0, capsys.readouterr().err
    report = json.loads(out.read_text())
    assert report["images"] == 1
    assert report["aggregates"]["categories"] == 0
    assert report["per_category"] == []


def test_report_rows_keep_their_keys_and_equal_the_library_counts(tmp_path):
    data, pred = tmp_path / "data", tmp_path / "pred"
    synth = ["synth", "--seed", "3", "--images", "3", "--n", "8", "--noise", "0.3"]
    assert main([*synth, "--overlap-bias", "0.6", "--out", str(data)]) == 0
    argv = ["merge", "--strategy", "argmax", "--in", str(data / "manifest.json")]
    assert main([*argv, "--out", str(pred)]) == 0
    pair = ["--pred", str(pred), "--gt", str(data / "gt")]
    assert main(["eval", *pair, "--out", str(tmp_path / "pq.json")]) == 0
    assert main(["stats", *pair, "--out", str(tmp_path / "stats.json")]) == 0
    taxonomy, gts = read_panoptic_set(data / "gt")
    preds = dict(read_panoptic_set(pred)[1])
    pairs = [(preds[image_id], gt) for image_id, gt in gts]
    total = reduce(PqReport.merge, (pq(p, g, taxonomy) for p, g in pairs), PqReport())
    spec = {c.id: c for c in taxonomy}
    rows = json.loads((tmp_path / "pq.json").read_text())["per_category"]
    assert any(r["fp"] for r in rows) and any(r["fn"] for r in rows)
    assert [r["category_id"] for r in rows] == sorted(
        cat for cat, c in total.per_category.items() if c.present
    )
    for row in rows:
        c = total.per_category[row["category_id"]]
        assert list(row.items()) == [
            ("category_id", row["category_id"]),
            ("name", spec[row["category_id"]].name),
            ("is_thing", spec[row["category_id"]].is_thing),
            ("pq", c.pq), ("sq", c.sq), ("rq", c.rq),
            ("iou_sum", c.iou_sum), ("tp", c.tp), ("fp", c.fp), ("fn", c.fn),
        ]
    merged = reduce(
        QueryStats.merge, (query_stats(p, g, taxonomy) for p, g in pairs), QueryStats()
    )
    per_query = json.loads((tmp_path / "stats.json").read_text())["per_query"]
    assert list(per_query) == [str(q) for q in sorted(merged.per_query)]
    for query, row in per_query.items():
        c = merged.per_query[int(query)]
        assert list(row.items()) == [
            ("n_things", c.n_things), ("n_stuff", c.n_stuff), ("p_t", c.p_t),
            ("tp_things", c.tp_things), ("fp_things", c.fp_things),
            ("tp_stuff", c.tp_stuff), ("fp_stuff", c.fp_stuff),
        ]


def test_fuse_round_trip(tmp_path):
    l1, l2, l3 = token_counts(32, 32)
    tokens = np.linspace(0.0, 1.0, (l1 + l2 + l3) * 2, dtype=np.float32).reshape(-1, 2)
    attn_path = tmp_path / "attn.pst"
    write_pst(attn_path, tokens)
    out = tmp_path / "mask.pst"
    code = main(
        [
            "fuse", "--attn", str(attn_path), "--height", "32", "--width", "32",
            "--seed-head", "4", "--out", str(out),
        ]
    )
    assert code == 0
    mask = read_pst(out)
    assert mask.shape == (4, 4)
    assert mask.dtype == np.float32
    assert ((mask > 0.0) & (mask < 1.0)).all()


def test_fuse_empty_batch_writes_empty_stack(tmp_path):
    l1, l2, l3 = token_counts(32, 64)
    write_pst(tmp_path / "attn.pst", np.zeros((0, l1 + l2 + l3, 2), np.float32))
    out = tmp_path / "mask.pst"
    code = main(
        [
            "fuse", "--attn", str(tmp_path / "attn.pst"), "--height", "32",
            "--width", "64", "--seed-head", "4", "--out", str(out),
        ]
    )
    assert code == 0
    mask = read_pst(out)
    assert mask.shape == (0, 4, 8) and mask.dtype == np.float32


def test_stats_cli_writes_report(tmp_path, capsys):
    data = tmp_path / "data"
    main(["synth", "--seed", "4", "--images", "2", "--out", str(data)])
    main(["merge", "--in", str(data / "manifest.json"), "--out", str(tmp_path / "pred")])
    out = tmp_path / "stats.json"
    code = main(
        [
            "stats", "--pred", str(tmp_path / "pred"),
            "--gt", str(data / "gt"), "--out", str(out),
        ]
    )
    assert code == 0
    assert "P_t bin" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["schema"] == "query-stats/1"
    assert payload["table"][-1]["bin"] == "total"


def test_stats_extra_pred_image_is_data_error(tmp_path, capsys):
    data = tmp_path / "data"
    main(["synth", "--seed", "4", "--images", "2", "--out", str(data)])
    main(["merge", "--in", str(data / "manifest.json"), "--out", str(tmp_path / "pred")])
    main(["synth", "--seed", "4", "--images", "1", "--out", str(tmp_path / "one")])
    capsys.readouterr()
    code = main(
        ["stats", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "one" / "gt")]
    )
    assert code == 2
    assert "extra in pred: ['0001']" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-2", "two"])
def test_nonpositive_threads_is_usage_error(tmp_path, capsys, value):
    merge = ["merge", "--in", "x", "--out", str(tmp_path / "pred")]
    evaluate = ["eval", "--pred", "x", "--gt", "y", "--out", str(tmp_path / "r.json")]
    for argv in (merge, evaluate):
        assert main(argv + ["--threads", value]) == 1
        assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1"])
def test_nonpositive_reps_is_usage_error(capsys, value):
    bench = ["bench", "--images", "1", "--h", "32", "--w", "32", "--masks", "3"]
    assert main([*bench, "--reps", value]) == 1
    assert "--reps" in capsys.readouterr().err


@pytest.mark.parametrize("defect", ["2-d masks", "probs count"])
def test_malformed_stack_tensors_are_data_errors(tmp_path, capsys, defect):
    _, stack = generate_scene(SceneParams(seed=4, n_things=4))
    write_stack_set(tmp_path / "set", DEFAULT_TAXONOMY, [("0000", stack)])
    if defect == "2-d masks":
        write_pst(tmp_path / "set" / "0000_masks.pst", stack.masks[0])
    else:
        write_pst(tmp_path / "set" / "0000_probs.pst", stack.class_probs[:3])
    argv = ["merge", "--in", str(tmp_path / "set"), "--out", str(tmp_path / "pred")]
    assert main(argv) == 2
    assert str(tmp_path / "set" / "0000_masks.pst") in capsys.readouterr().err


def test_bench_cli_runs_small(tmp_path, capsys):
    code = main(
        [
            "bench", "--images", "2", "--h", "32", "--w", "32", "--masks", "5",
            "--strategies", "maskwise,argmax", "--reps", "1",
            "--out", str(tmp_path / "bench.json"),
        ]
    )
    assert code == 0
    payload = json.loads((tmp_path / "bench.json").read_text())
    assert payload["schema"] == "bench-report/1"
    assert len(payload["rows"]) == 2
    assert "maskwise takes" in capsys.readouterr().out


_STRATEGIES = ("maskwise", "argmax", "argmax-weighted", "heuristic")


def _two_sky_halves_set(root):
    """A one-image 16x16 stack set: a thing square over two stuff queries of
    one category (sky) that split the frame, so merging same-category stuff
    changes the map."""
    masks = np.zeros((3, 16, 16), np.float32)
    masks[0, 4:9, 4:9] = 0.9
    masks[1, :, :8] = 0.8
    masks[2, :, 8:] = 0.7
    columns = {c.id: pos for pos, c in enumerate(DEFAULT_TAXONOMY)}
    probs = np.zeros((3, len(DEFAULT_TAXONOMY)), np.float32)
    probs[0, columns[1]] = probs[1, columns[6]] = probs[2, columns[6]] = 0.9
    provenance = (
        QueryProvenance(0, True),
        QueryProvenance(1, False, 6),
        QueryProvenance(2, False, 6),
    )
    stack = MaskStack(masks, probs, provenance)
    write_stack_set(root, DEFAULT_TAXONOMY, [("0000", stack)])
    return stack


def _library_merge(strategy, stack, merge_same_stuff):
    if strategy in ("argmax", "argmax-weighted"):
        weighted = strategy == "argmax-weighted"
        return pixel_wise_argmax(stack, DEFAULT_TAXONOMY, weighted, 0, merge_same_stuff)
    merge = mask_wise_merge if strategy == "maskwise" else heuristic_merge
    return merge(stack, DEFAULT_TAXONOMY, MergeParams(merge_same_stuff=merge_same_stuff))


def _set_bytes(root):
    return {path.name: path.read_bytes() for path in sorted(root.iterdir())}


@pytest.mark.parametrize("merge_stuff", ["auto", "on", "off"])
@pytest.mark.parametrize("strategy", _STRATEGIES)
def test_merge_stuff_flag_gives_the_library_map(tmp_path, strategy, merge_stuff):
    stack = _two_sky_halves_set(tmp_path / "set")
    argmax = strategy in ("argmax", "argmax-weighted")
    merged = {"on": True, "off": False, "auto": argmax}[merge_stuff]
    argv = ["merge", "--in", str(tmp_path / "set"), "--out", str(tmp_path / "cli")]
    assert main([*argv, "--strategy", strategy, "--merge-stuff", merge_stuff]) == 0
    want = _library_merge(strategy, stack, merged)
    other = _library_merge(strategy, stack, not merged)
    assert len(want.segments) != len(other.segments)
    write_panoptic_set(tmp_path / "lib", DEFAULT_TAXONOMY, [("0000", want)])
    assert _set_bytes(tmp_path / "cli") == _set_bytes(tmp_path / "lib")


def test_bench_makes_the_calls_merge_makes_at_default_flags(tmp_path, monkeypatch):
    data = tmp_path / "data"
    assert main(["synth", "--seed", "5", "--noise", "0.1", "--out", str(data)]) == 0
    seen = []

    _spy(monkeypatch, seen, "pixel_wise_argmax", lambda stack, tax, *options: options)
    _spy(monkeypatch, seen, "mask_wise_merge", lambda stack, tax, params: params)
    _spy(monkeypatch, seen, "heuristic_merge", lambda stack, tax, params: params)
    manifest = str(data / "manifest.json")
    argv = ["bench", "--in", manifest, "--strategies", ",".join(_STRATEGIES)]
    assert main([*argv, "--reps", "1"]) == 0
    benched, seen[:] = list(seen), []
    for strategy in _STRATEGIES:
        argv = ["merge", "--in", manifest, "--out", str(tmp_path / strategy)]
        assert main([*argv, "--strategy", strategy]) == 0
    assert benched == seen == [
        ("mask_wise_merge", MergeParams()),
        ("pixel_wise_argmax", (False, 0, True)),
        ("pixel_wise_argmax", (True, 0, True)),
        ("heuristic_merge", MergeParams()),
    ]


_BENCH = ["bench", "--images", "1", "--h", "32", "--w", "32", "--masks", "5"]


@pytest.mark.parametrize(
    "names, message",
    [
        ("maskwise,quantum", "unknown strategy 'quantum'"),
        ("", "empty strategy list"),
        (" , ", "empty strategy list"),
        ("argmax,maskwise,argmax", "strategy 'argmax' is listed twice"),
    ],
)
def test_bench_refuses_a_bad_strategy_list(capsys, names, message):
    assert main([*_BENCH, "--strategies", names]) == 1
    err = capsys.readouterr().err
    assert "--strategies" in err and message in err


def test_bench_rows_follow_the_given_strategy_order(tmp_path):
    names = ["heuristic", "argmax-weighted", "maskwise", "argmax"]
    out = tmp_path / "bench.json"
    argv = [*_BENCH, "--strategies", ",".join(names), "--reps", "2"]
    assert main([*argv, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert [(r["strategy"], r["repetition"]) for r in report["rows"]] == [
        (name, rep) for name in names for rep in (0, 1)
    ]
    assert list(report["summary"]) == names


def test_default_flag_values_match_reference_operating_point():
    parser = build_parser()
    merge = parser.parse_args(["merge", "--in", "x", "--out", "y"])
    assert merge.alpha == 1.0
    assert merge.beta == 2.0
    assert merge.t_cnf == 0.25
    assert merge.t_keep == 0.6
    assert merge.strategy == "maskwise"
    assign = parser.parse_args(["assign", "--pred", "p", "--gt", "g", "--out", "o"])
    assert assign.lambdas == (2.0, 1.0, 1.0)
    assert assign.location_mode == "box"


def _spy(monkeypatch, seen, name, pick):
    """Rebind cli's name to a wrapper that appends (name, pick(*args)) to seen
    before it calls the library function."""
    library = getattr(cli, name)

    def wrapped(*args):
        seen.append((name, pick(*args)))
        return library(*args)

    monkeypatch.setattr(cli, name, wrapped)


def test_successive_main_calls_see_only_their_own_options(tmp_path, monkeypatch):
    data = tmp_path / "data"
    assert main(["synth", "--seed", "2", "--out", str(data)]) == 0
    builds, seen = [], []

    def counted_build():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted_build)
    cli._parser.cache_clear()

    _spy(monkeypatch, seen, "pixel_wise_argmax", lambda stack, tax, *options: options)
    _spy(monkeypatch, seen, "mask_wise_merge", lambda stack, tax, params: params)
    _spy(monkeypatch, seen, "pq", lambda pred, gt, tax, void_forgive: void_forgive)
    merge = ["merge", "--in", str(data / "manifest.json"), "--out"]
    evaluate = ["eval", "--pred", str(tmp_path / "b"), "--gt", str(data / "gt")]
    evaluate += ["--out", str(tmp_path / "r.json")]
    try:
        argmax = ["--strategy", "argmax", "--min-area", "5"]
        assert main([*merge, str(tmp_path / "a"), *argmax]) == 0
        assert main([*merge, str(tmp_path / "b")]) == 0
        bad = ["--strategy", "heuristic", "--t-cnf", "x"]
        assert main([*merge, str(tmp_path / "c"), *bad]) == 1
        assert main([*evaluate, "--no-void-forgive"]) == 0
        assert main(evaluate) == 0
    finally:
        cli._parser.cache_clear()
    assert builds == [1]
    assert seen == [
        ("pixel_wise_argmax", (False, 5, True)),
        ("mask_wise_merge", MergeParams()),
        ("pq", False),
        ("pq", True),
    ]
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("bad", ["tokens", "head"])
def test_fuse_rejects_nonfinite_input(tmp_path, capsys, bad):
    l1, l2, l3 = token_counts(32, 32)
    tokens = np.full((l1 + l2 + l3, 2), 0.5, np.float32)
    head = np.full(3 * 2 + 1, 0.5, np.float32)
    if bad == "tokens":
        tokens[0, 0] = np.nan
        tokens[5, 1] = np.inf
    else:
        head[2] = np.nan
    write_pst(tmp_path / "tokens.pst", tokens)
    write_pst(tmp_path / "head.pst", head)
    out = tmp_path / "mask.pst"
    code = main(
        [
            "fuse", "--attn", str(tmp_path / "tokens.pst"), "--height", "32",
            "--width", "32", "--head", str(tmp_path / "head.pst"), "--out", str(out),
        ]
    )
    assert code == 2
    assert f"{bad}.pst" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad", ["tokens", "head"])
def test_fuse_shape_errors_name_the_file(tmp_path, capsys, bad):
    l1, l2, l3 = token_counts(64, 32)
    tokens = np.full((3, l1 + l2 + l3, 2), 0.5, np.float32)
    head = np.full(3 * 2 + 1, 0.5, np.float32)
    if bad == "tokens":
        tokens = tokens[:, : l1 // 2]
    else:
        head = np.full(3 * 4 + 1, 0.5, np.float32)
    write_pst(tmp_path / "tokens.pst", tokens)
    write_pst(tmp_path / "head.pst", head)
    out = tmp_path / "mask.pst"
    code = main(
        [
            "fuse", "--attn", str(tmp_path / "tokens.pst"), "--height", "64",
            "--width", "32", "--head", str(tmp_path / "head.pst"), "--out", str(out),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / (bad + '.pst')}: ")
    assert not out.exists()


def _fuse(tmp_path, tokens, head):
    """Exit code of fuse on a 32x32 base, tokens and head written as given;
    asserts that a failed run writes no mask."""
    write_pst(tmp_path / "tokens.pst", tokens)
    write_pst(tmp_path / "head.pst", head)
    out = tmp_path / "mask.pst"
    out.unlink(missing_ok=True)
    code = main(
        [
            "fuse", "--attn", str(tmp_path / "tokens.pst"), "--height", "32",
            "--width", "32", "--head", str(tmp_path / "head.pst"), "--out", str(out),
        ]
    )
    assert code == 0 or not out.exists()
    return code


# file -> a value of it stored in a dtype other than float32, which a cast
# would take silently
_FUSE_RECASTS = {
    "tokens": lambda tokens, head: (tokens.astype(np.uint16), head),
    "head": lambda tokens, head: (tokens, head.astype(np.uint32)),
}


@pytest.mark.parametrize("bad", _FUSE_RECASTS)
def test_fuse_refuses_files_not_stored_as_float32(tmp_path, capsys, bad):
    l1, l2, l3 = token_counts(32, 32)
    tokens = np.ones((l1 + l2 + l3, 2), np.float32)
    head = np.ones(3 * 2 + 1, np.float32)
    assert _fuse(tmp_path, tokens, head) == 0
    capsys.readouterr()
    assert _fuse(tmp_path, *_FUSE_RECASTS[bad](tokens, head)) == 2
    stored = "uint16" if bad == "tokens" else "uint32"
    assert capsys.readouterr().err == (
        f"error: {tmp_path / (bad + '.pst')}: stored as {stored}, expected float32\n"
    )


@pytest.mark.parametrize("entries", [2, 5, 8])
def test_fuse_head_of_a_length_other_than_3h_plus_1_names_the_file(
    tmp_path, capsys, entries
):
    l1, l2, l3 = token_counts(32, 32)
    tokens = np.ones((l1 + l2 + l3, 2), np.float32)
    assert _fuse(tmp_path, tokens, np.ones(entries, np.float32)) == 2
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'head.pst'}: head file must be a vector of 3h+1 "
        f"entries, got shape ({entries},)\n"
    )


# case -> (tokens shape, --height, message). A 64x32 base needs 42 tokens
# per query; an empty batch still builds one MultiScaleAttn, but fuse checks
# the shape first, naming the file.
_EMPTY_BATCH_ERRORS = {
    "token length": (
        (0, 21, 2), "64", "{attn}: a 64x32 base needs 42 tokens per query, got shape (0, 21, 2)"
    ),
    "no heads": ((0, 42, 0), "64", "{attn}: tokens carry no heads: (0, 42, 0)"),
    "height 33": (
        (0, 42, 2), "33", "height and width must be positive multiples of 32, got 33x32"
    ),
}


@pytest.mark.parametrize("case", _EMPTY_BATCH_ERRORS)
def test_fuse_empty_batch_shape_errors(tmp_path, capsys, case):
    shape, height, message = _EMPTY_BATCH_ERRORS[case]
    attn = tmp_path / "tokens.pst"
    write_pst(attn, np.zeros(shape, np.float32))
    out = tmp_path / "mask.pst"
    argv = ["fuse", "--attn", str(attn), "--height", height, "--width", "32"]
    assert main([*argv, "--seed-head", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message.format(attn=attn)}\n"
    assert not out.exists()


def _shifted_gt(data, out):
    """Write data's ground truth under a taxonomy whose ids are 10 higher."""
    taxonomy, items = read_panoptic_set(data / "gt")
    shifted = tuple(CategorySpec(c.id + 10, c.name, c.is_thing) for c in taxonomy)
    maps = [
        (
            image_id,
            PanopticMap(
                np.where(gt.sem > 0, gt.sem + 10, 0),
                gt.ids,
                tuple(replace(s, category_id=s.category_id + 10) for s in gt.segments),
            ),
        )
        for image_id, gt in items
    ]
    write_panoptic_set(out, shifted, maps)


@pytest.mark.parametrize("command", ["eval", "stats", "assign"])
def test_pred_and_gt_under_different_taxonomies_is_data_error(
    tmp_path, capsys, command
):
    data = tmp_path / "data"
    main(["synth", "--seed", "4", "--images", "2", "--out", str(data)])
    main(["merge", "--in", str(data), "--out", str(tmp_path / "pred")])
    _shifted_gt(data, tmp_path / "gt")
    pred = data if command == "assign" else tmp_path / "pred"
    capsys.readouterr()
    code = main(
        [
            command, "--pred", str(pred), "--gt", str(tmp_path / "gt"),
            "--out", str(tmp_path / "out.json"),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert f"taxonomies disagree between {pred} and {tmp_path / 'gt'}" in err
    assert "on category ids [1, 2, 3, 4, 5, 6, 7, 8, 11," in err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("command", ["eval", "stats"])
def test_segment_category_outside_the_taxonomy_is_data_error(
    tmp_path, capsys, command
):
    data = tmp_path / "data"
    main(["synth", "--seed", "4", "--images", "1", "--out", str(data)])
    taxonomy, [(image_id, gt)] = read_panoptic_set(data / "gt")
    stuff = gt.segments[-1]
    relabeled = PanopticMap(
        np.where(gt.ids == stuff.instance_id, 42, gt.sem),
        gt.ids,
        (*gt.segments[:-1], replace(stuff, category_id=42)),
    )
    extended = (*taxonomy, CategorySpec(42, "extra", False))
    write_panoptic_set(tmp_path / "set", extended, [(image_id, relabeled)])
    manifest.save_taxonomy(tmp_path / "set" / "taxonomy.json", taxonomy)
    capsys.readouterr()
    code = main(
        [
            command, "--pred", str(tmp_path / "set"), "--gt", str(data / "gt"),
            "--out", str(tmp_path / "out.json"),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert str(tmp_path / "set" / f"{image_id}_ids.pst") in err
    assert f"segment {stuff.instance_id} has category 42" in err


@pytest.mark.parametrize("shape", [(3, 0, 32), (3, 32, 0)])
def test_zero_size_frames_merge_to_empty_maps(tmp_path, capsys, shape):
    _, stack = generate_scene(SceneParams(seed=2, n_things=1))
    empty = MaskStack(np.zeros(shape), stack.class_probs[:3], stack.provenance[:3])
    write_stack_set(tmp_path / "set", DEFAULT_TAXONOMY, [("0000", empty)])
    void = PanopticMap(np.zeros(shape[1:]), np.zeros(shape[1:]), ())
    write_panoptic_set(tmp_path / "gt", DEFAULT_TAXONOMY, [("0000", void)])
    for strategy in ("maskwise", "argmax", "argmax-weighted", "heuristic"):
        pred = tmp_path / strategy
        argv = ["merge", "--in", str(tmp_path / "set"), "--out", str(pred)]
        assert main([*argv, "--strategy", strategy]) == 0, capsys.readouterr().err
        [(_, pmap)] = read_panoptic_set(pred)[1]
        assert pmap.ids.shape == shape[1:] and pmap.segments == ()
        report = tmp_path / f"{strategy}.json"
        argv = ["eval", "--pred", str(pred), "--gt", str(tmp_path / "gt")]
        assert main([*argv, "--out", str(report)]) == 0
        assert json.loads(report.read_text())["aggregates"]["categories"] == 0


@pytest.mark.parametrize("size", ["0", "-32"])
def test_image_sizes_must_be_positive_multiples_of_32(tmp_path, capsys, size):
    message = f"height and width must be positive multiples of 32, got {size}x64"
    with pytest.raises(ValidationError, match=message):
        SceneParams(seed=0, height=int(size))
    with pytest.raises(ValidationError, match=message):
        token_counts(int(size), 64)
    with pytest.raises(ValidationError, match="got 64x"):
        token_counts(64, int(size))
    l1, l2, l3 = token_counts(32, 64)
    write_pst(tmp_path / "attn.pst", np.zeros((l1 + l2 + l3, 2), np.float32))
    fuse = [
        "fuse", "--attn", str(tmp_path / "attn.pst"), "--height", size,
        "--width", "64", "--seed-head", "1", "--out", str(tmp_path / "m.pst"),
    ]
    synth = ["synth", "--h", size, "--out", str(tmp_path / "data")]
    bench = ["bench", "--images", "1", "--h", size, "--w", "64", "--masks", "3"]
    for argv in (synth, bench, fuse):
        capsys.readouterr()
        assert main(argv) == 2
        assert message in capsys.readouterr().err
    assert not (tmp_path / "data").exists() and not (tmp_path / "m.pst").exists()


@pytest.mark.parametrize("value", ["0", "-2"])
def test_nonpositive_image_count_is_usage_error(tmp_path, capsys, value):
    synth = ["synth", "--out", str(tmp_path / "data")]
    bench = ["bench", "--h", "32", "--w", "32", "--masks", "3"]
    for argv in (synth, bench):
        assert main([*argv, "--images", value]) == 1
        assert "--images" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


# case -> (subcommand, --pred, --gt, the library's message). "tall" is a
# 96x64 set and "set" a 64x64 one, both with image 0000; "bound.json" is
# set's stack manifest with its two stuff queries bound to category 8.
_PER_IMAGE_ERRORS = {
    "eval size": (
        "eval", "tall_maps", "set/gt", "size mismatch: pred (96, 64) vs gt (64, 64)"
    ),
    "stats of gt": (
        "stats", "set/gt", "set/gt", "segment 1 is missing its source_query"
    ),
    "assign size": (
        "assign", "tall", "set/gt", "shape mismatch: pred (96, 64) vs gt (64, 64)"
    ),
    "assign stuff bound twice": (
        "assign", "set/bound.json", "set/gt", "stuff category 8 bound to more than one query"
    ),
}


@pytest.mark.parametrize("case", _PER_IMAGE_ERRORS)
def test_per_image_data_errors_name_both_sources_and_the_image(tmp_path, capsys, case):
    command, pred, gt, message = _PER_IMAGE_ERRORS[case]
    main(["synth", "--seed", "5", "--out", str(tmp_path / "set")])
    main(["synth", "--seed", "5", "--h", "96", "--out", str(tmp_path / "tall")])
    main(["merge", "--in", str(tmp_path / "tall"), "--out", str(tmp_path / "tall_maps")])
    payload = json.loads((tmp_path / "set" / "manifest.json").read_text())
    stuff = [p for p in payload["images"][0]["provenance"] if not p["is_thing"]]
    assert len(stuff) == 2
    for prov in stuff:
        prov["fixed_category"] = 8
    (tmp_path / "set" / "bound.json").write_text(json.dumps(payload))
    capsys.readouterr()
    argv = [command, "--pred", str(tmp_path / pred), "--gt", str(tmp_path / gt)]
    assert main([*argv, "--out", str(tmp_path / "out.json")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {tmp_path / pred}, {tmp_path / gt}: image 0000: {message}\n"
    assert not (tmp_path / "out.json").exists()


def test_fuse_tokens_without_heads_name_the_file(tmp_path, capsys):
    l1, l2, l3 = token_counts(32, 32)
    write_pst(tmp_path / "tokens.pst", np.zeros((2, l1 + l2 + l3, 0), np.float32))
    out = tmp_path / "mask.pst"
    code = main(
        [
            "fuse", "--attn", str(tmp_path / "tokens.pst"), "--height", "32",
            "--width", "32", "--seed-head", "1", "--out", str(out),
        ]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {tmp_path / 'tokens.pst'}: ")
    assert not out.exists()


# (subcommand, parsed attribute, parameter type, the fields its default restates)
_FLAG_DEFAULTS = [
    ("synth", "n", SceneParams, ("n_things",)),
    ("synth", "h", SceneParams, ("height",)),
    ("synth", "w", SceneParams, ("width",)),
    ("synth", "noise", SceneParams, ("noise_sigma",)),
    ("synth", "bands", SceneParams, ("stuff_bands",)),
    ("synth", "overlap_bias", SceneParams, ("overlap_bias",)),
    ("merge", "alpha", ScoreParams, ("alpha",)),
    ("merge", "beta", ScoreParams, ("beta",)),
    ("merge", "t_cnf", MergeParams, ("t_cnf",)),
    ("merge", "t_keep", MergeParams, ("t_keep",)),
    ("merge", "min_area", MergeParams, ("min_area",)),
    ("assign", "lambdas", LossWeights, ("lambda_cls", "lambda_seg", "lambda_det")),
]
_REQUIRED_FLAGS = {
    "synth": ["--out", "o"],
    "merge": ["--in", "i", "--out", "o"],
    "assign": ["--pred", "p", "--gt", "g", "--out", "o"],
}


@pytest.mark.parametrize("command, dest, params, names", _FLAG_DEFAULTS)
def test_flag_defaults_are_the_parameter_types_field_defaults(command, dest, params, names):
    args = build_parser().parse_args([command, *_REQUIRED_FLAGS[command]])
    defaults = {f.name: f.default for f in fields(params)}
    parsed = getattr(args, dest)
    assert (parsed if len(names) > 1 else (parsed,)) == tuple(defaults[n] for n in names)


def test_eval_refuses_a_stored_instance_id_beyond_int32(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["synth", "--seed", "3", "--out", str(data)]) == 0
    ids = read_pst(data / "gt" / "0000_ids.pst")
    ids[0, 0] = 2**31
    write_pst(data / "gt" / "0000_ids.pst", ids)
    capsys.readouterr()
    argv = ["eval", "--pred", str(data / "gt"), "--gt", str(data / "gt")]
    assert main([*argv, "--out", str(tmp_path / "report.json")]) == 2
    gt = data / "gt"
    assert capsys.readouterr().err == (
        f"error: {gt / '0000_ids.pst'}: image 0000: instance ids exceed int32 range\n"
    )


@pytest.mark.parametrize(
    "argv",
    [["merge"], ["merge", "--strategy", "argmax"], ["bench", "--reps", "1"]],
    ids=["maskwise", "argmax", "bench"],
)
def test_thing_query_under_an_empty_taxonomy_is_data_error(tmp_path, capsys, argv):
    data = tmp_path / "data"
    main(["synth", "--h", "32", "--w", "32", "--n", "1", "--bands", "1", "--out", str(data)])
    payload = json.loads((data / "manifest.json").read_text())
    image = payload["images"][0]
    assert image["provenance"][0]["is_thing"]
    image["provenance"] = image["provenance"][:1]
    (data / "manifest.json").write_text(json.dumps(payload))
    write_pst(data / "0000_masks.pst", read_pst(data / "0000_masks.pst")[:1])
    write_pst(data / "0000_probs.pst", np.zeros((1, 0), np.float32))
    manifest.save_taxonomy(data / "taxonomy.json", ())
    capsys.readouterr()
    out = tmp_path / "out"
    assert main([*argv, "--in", str(data), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {data / '0000_masks.pst'}, {data / '0000_probs.pst'}: image 0000: "
        "thing query 0 needs a category, but the taxonomy lists none\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("big", [2**16, 2**31, 2**40, 2**63])
def test_thing_category_id_beyond_uint16_names_the_taxonomy(tmp_path, capsys, big):
    data = tmp_path / "data"
    main(["synth", "--h", "32", "--w", "32", "--n", "2", "--out", str(data)])
    payload = json.loads((data / "taxonomy.json").read_text())
    for k, category in enumerate(payload["categories"]):
        if category["is_thing"]:  # every thing query's label is then big or more
            category["id"] = big + k
    (data / "taxonomy.json").write_text(json.dumps(payload))
    for strategy in ("maskwise", "argmax"):
        capsys.readouterr()
        out = tmp_path / strategy
        argv = ["merge", "--in", str(data), "--strategy", strategy, "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {data / 'taxonomy.json'}: malformed taxonomy "
            f"(ValidationError: category id must be < 2**16, got {big})\n"
        )
        assert not out.exists()
