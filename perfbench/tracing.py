"""Spans and counts recorded around panokit's public functions.

Each function is wrapped at the name its caller resolves (for example
``panokit.cli.mask_wise_merge`` or ``panokit.merging.stack_scores``), so the
program itself is unchanged. Spans stay in memory until the run ends. A
span's self time is its duration minus the durations of its child spans;
calls are single-threaded (``--threads 1``), so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np


def _read_bytes(args, kwargs, result):
    return {"pst.read_pst.bytes": result.nbytes}


def _write_bytes(args, kwargs, result):
    array = args[1] if len(args) > 1 else kwargs["array"]
    return {"pst.write_pst.bytes": np.asarray(array).nbytes}


def _painted(args, kwargs, result):
    return {
        "merging.masks_offered": args[0].n,
        "merging.segments_painted": len(result.segments),
    }


def _cost_entries(args, kwargs, result):
    return {"assignment.cost_entries": result.size}


def _pairs(args, kwargs, result):
    return {"assignment.pairs": len(result.pairs)}


# span name -> (call sites as (module, attribute path), observer of each call)
SPANS = {
    "pst.read_pst": (
        (("panokit.manifest", "read_pst"), ("panokit.cli", "read_pst")),
        _read_bytes,
    ),
    "pst.write_pst": (
        (
            ("panokit.manifest", "write_pst"),
            ("panokit.cli", "write_pst"),
            ("panokit.pst", "write_pst"),
        ),
        _write_bytes,
    ),
    "manifest.StackEntry.load": ((("panokit.manifest", "StackEntry.load"),), None),
    "manifest.read_panoptic_set": ((("panokit.cli", "read_panoptic_set"),), None),
    "manifest.write_panoptic_set": (
        (
            ("panokit.cli", "write_panoptic_set"),
            ("panokit.manifest", "write_panoptic_set"),
        ),
        None,
    ),
    "types.validate_stack": ((("panokit.manifest", "validate_stack"),), None),
    "types.PanopticMap.validate": ((("panokit.types", "PanopticMap.validate"),), None),
    "scoring.stack_scores": ((("panokit.merging", "stack_scores"),), None),
    "merging.mask_wise_merge": ((("panokit.cli", "mask_wise_merge"),), _painted),
    "merging.heuristic_merge": ((("panokit.cli", "heuristic_merge"),), None),
    "merging.pixel_wise_argmax": ((("panokit.cli", "pixel_wise_argmax"),), None),
    "merging.merge_same_category_stuff": (
        (("panokit.merging", "merge_same_category_stuff"),),
        None,
    ),
    "metrics.pq": ((("panokit.cli", "pq"),), None),
    "metrics.query_stats": ((("panokit.cli", "query_stats"),), None),
    "assignment.build_cost_matrix": (
        (("panokit.cli", "build_cost_matrix"),),
        _cost_entries,
    ),
    "assignment.hungarian": ((("panokit.assignment", "hungarian"),), _pairs),
    "assignment.bbox_of": ((("panokit.cli", "bbox_of"),), None),
    "assignment.mass_center": ((("panokit.cli", "mass_center"),), None),
    "losses.dice_loss": ((("panokit.assignment", "dice_loss"),), None),
    "losses.focal_loss": ((("panokit.assignment", "focal_loss"),), None),
    "attnfuse.attn_to_mask": ((("panokit.cli", "attn_to_mask"),), None),
    "synth.generate_scene": ((("panokit.synth", "generate_scene"),), None),
}

# counted, not timed: they run hundreds of times per image inside spans above
COUNTED = {
    "scoring.confidence.calls": ("panokit.scoring", "confidence"),
    "assignment.matching_cost.calls": ("panokit.assignment", "matching_cost"),
}


def _owner(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Records spans and counts under a label (the operation being run)
    while its wrappers are installed."""

    def __init__(self) -> None:
        self.names: dict[str, int] = {}
        self.labels: dict[str, int] = {}
        self.spans: list = []  # (name, label, start, end, parent span index)
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.label = ""
        self._label = self._index(self.labels, "")
        self._stack: list[int] = [-1]
        self._saved: list = []

    @staticmethod
    def _index(table: dict[str, int], key: str) -> int:
        return table.setdefault(key, len(table))

    def set_label(self, label: str) -> None:
        self.label = label
        self._label = self._index(self.labels, label)

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (
                self._index(self.names, name), self._label, start, end, parent
            )

    def _timed(self, name, original, observe):
        spans, stack, counts = self.spans, self._stack, self.counts
        name_index = self._index(self.names, name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name_index, self._label, start, end, parent)
            if observe is not None:
                for key, amount in observe(args, kwargs, result).items():
                    counts[(self.label, key)] += amount
            return result

        return traced

    def _counted(self, name, original):
        @functools.wraps(original)
        def counted(*args, **kwargs):
            self.counts[(self.label, name)] += 1
            return original(*args, **kwargs)

        return counted

    def _patch(self, module: str, path: str, wrapper) -> None:
        owner, attr = _owner(module, path)
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def install(self) -> None:
        if self._saved:
            return
        for name, (sites, observe) in SPANS.items():
            for module, path in sites:
                self._patch(
                    module, path, lambda f, n=name, o=observe: self._timed(n, f, o)
                )
        for name, (module, path) in COUNTED.items():
            self._patch(module, path, lambda f, n=name: self._counted(n, f))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def self_times(self) -> dict[tuple[str, str], float]:
        """Seconds of self time per (label, span name)."""
        covered = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        names = list(self.names)
        labels = list(self.labels)
        out: dict[tuple[str, str], float] = defaultdict(float)
        for (name, label, start, end, _), child in zip(self.spans, covered):
            out[(labels[label], names[name])] += end - start - child
        return dict(out)

    def write(self, path: Path) -> None:
        path.write_text(
            json.dumps(
                {
                    "names": list(self.names),
                    "labels": list(self.labels),
                    "fields": ["name", "label", "start", "end", "parent"],
                    "spans": self.spans,
                },
                separators=(",", ":"),
            )
        )
