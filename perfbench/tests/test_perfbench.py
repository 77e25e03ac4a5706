"""Tests of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

workloads.require_panokit()

import panokit.cli  # noqa: E402
from panokit import synth  # noqa: E402
from panokit.merging import (  # noqa: E402
    MergeParams,
    heuristic_merge,
    mask_wise_merge,
    pixel_wise_argmax,
)
from panokit.metrics import pq  # noqa: E402
from panokit.types import DEFAULT_TAXONOMY, PanopticMap  # noqa: E402

import checks  # noqa: E402
import harness  # noqa: E402

BENCHMARK = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def tiny(name: str) -> workloads.Workload:
    """The named workload at 64x64 with 4 things and 2 images, its reference
    PQ recomputed through the library for that scene."""
    w = dataclasses.replace(
        workloads.WORKLOADS[name], name=f"tiny-{name}", height=64, width=64,
        n_things=4, images=2,
    )
    gt, stack = synth.generate_scene(w.scene_params(workloads.REFERENCE_SEED))
    maps = {
        "maskwise": mask_wise_merge(stack, DEFAULT_TAXONOMY, MergeParams()),
        "argmax": pixel_wise_argmax(stack, DEFAULT_TAXONOMY, False, 0, True),
        "argmax-weighted": pixel_wise_argmax(stack, DEFAULT_TAXONOMY, True, 0, True),
        "heuristic": heuristic_merge(stack, DEFAULT_TAXONOMY, MergeParams()),
    }
    recorded = {
        s: pq(m, gt, DEFAULT_TAXONOMY).aggregates(DEFAULT_TAXONOMY)["pq"]
        for s, m in maps.items()
    }
    return dataclasses.replace(w, reference_pq=recorded)


def run_tiny(name: str, trace: bool) -> dict:
    return harness.run_workload(tiny(name), seed=3, seconds=0.2, trace=trace)["result"]


def test_benchmark_json_matches_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == harness.END_TO_END
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared == harness.PER_LAYER


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_is_emitted(name, trace):
    result = run_tiny(name, trace)
    section = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert result["failed"] == 0 and result["correct"]
    assert result["attempted"] > 0
    assert list(result["metrics"]) == [m["name"] for m in section]
    for metric in section:
        value = result["metrics"][metric["name"]]["value"]
        assert math.isfinite(value)
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        if not metric["name"].startswith(("trace.", "failed_frac")):
            # every layer runs on every workload, so none reads zero
            assert value > 0, metric["name"]


def drop_last_segment(stack, taxonomy, params=None):
    """mask_wise_merge with its last painted segment voided: a wrong map
    that is still a valid one."""
    pmap = mask_wise_merge(stack, taxonomy, params)
    last = pmap.segments[-1].instance_id
    gone = pmap.ids == last
    return PanopticMap(
        np.where(gone, 0, pmap.sem), np.where(gone, 0, pmap.ids), pmap.segments[:-1]
    )


def test_checker_flags_perturbed_map():
    gt, stack = synth.generate_scene(synth.SceneParams(seed=5))
    want = synth.oracle_merge(stack, DEFAULT_TAXONOMY)
    assert checks.compare_maps(want, want) is None
    wrong = drop_last_segment(stack, DEFAULT_TAXONOMY)
    assert "pixels" in checks.compare_maps(wrong, want)


def test_wrong_output_counts_as_failed(monkeypatch):
    monkeypatch.setattr(panokit.cli, "mask_wise_merge", drop_last_segment)
    result = run_tiny("match", trace=False)
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]
    assert list(result["metrics"]) == list(harness.END_TO_END)


def test_crashing_call_counts_as_failed(monkeypatch):
    def broken_pq(*args, **kwargs):
        raise KeyError("boom")

    monkeypatch.setattr(panokit.cli, "pq", broken_pq)
    result = run_tiny("large", trace=True)
    assert not result["correct"]
    assert result["failed"] > 0
    failed_frac = result["metrics"]["failed_frac"]["value"]
    assert failed_frac == result["failed"] / result["attempted"]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    skip = shutil.ignore_patterns(".work", "__pycache__")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=skip)
    args = ["--workload", "match", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], *args],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
