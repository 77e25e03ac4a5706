"""Benchmark harness comparing merging strategies over an image set.

Only the merge call itself is timed; stack generation or file loading
happens outside the timed region so strategies can be compared on equal
footing. Each image is produced once per repetition and every strategy runs
on it before the next image is drawn, so a generating source is traversed
as few times as possible. Rows are emitted in (strategy order given,
repetition) order, which makes reports deterministic apart from the timings
themselves.
"""

from __future__ import annotations

from functools import partial
from time import perf_counter
from typing import Callable, Iterable, Sequence

from .merging import heuristic_merge, mask_wise_merge, pixel_wise_argmax
from .types import CategorySpec, MaskStack, ValidationError

BENCH_SCHEMA = "bench-report/1"

# each strategy's library call, at its default parameters
_MERGES = {
    "maskwise": mask_wise_merge,
    "argmax": pixel_wise_argmax,
    "argmax-weighted": partial(pixel_wise_argmax, weighted=True),
    "heuristic": heuristic_merge,
}

STRATEGIES = tuple(_MERGES)


def _ms_per_image(seconds: float, images: int) -> float:
    return 1000.0 * seconds / images if images else 0.0


def bench(
    source: Callable[[], Iterable[tuple[str, MaskStack]]],
    taxonomy: Sequence[CategorySpec],
    strategies: Sequence[str],
    repetitions: int = 1,
) -> dict:
    """Time each strategy, at the default MergeParams, over every image the
    source yields.

    source is a zero-argument callable returning a fresh iterable per pass,
    so stacks never have to be held in memory all at once.
    """
    if repetitions < 1:
        raise ValidationError(f"repetitions must be >= 1, got {repetitions}")
    if not strategies:
        raise ValidationError("no strategies given")
    for strategy in strategies:
        if strategy not in _MERGES:
            raise ValidationError(f"unknown strategy {strategy!r}")
    merges = [_MERGES[s] for s in strategies]
    totals = [[0.0] * repetitions for _ in strategies]
    counts = [0] * repetitions
    for rep in range(repetitions):
        for _, stack in source():
            for si, merge in enumerate(merges):
                start = perf_counter()
                merge(stack, taxonomy)
                totals[si][rep] += perf_counter() - start
            counts[rep] += 1
    rows = [
        {
            "strategy": strategy,
            "repetition": rep,
            "images": counts[rep],
            "seconds": seconds,
            "ms_per_image": _ms_per_image(seconds, counts[rep]),
        }
        for strategy, seconds_by_rep in zip(strategies, totals)
        for rep, seconds in enumerate(seconds_by_rep)
    ]
    summary = {}
    for strategy in dict.fromkeys(strategies):  # a repeated name: all its rows
        seconds = [t for s, row in zip(strategies, totals) if s == strategy for t in row]
        mean = sum(seconds) / len(seconds)
        summary[strategy] = {
            "seconds_mean": mean,
            "ms_per_image": _ms_per_image(mean, counts[0]),
        }
    report = {
        "schema": BENCH_SCHEMA,
        "repetitions": repetitions,
        "rows": rows,
        "summary": summary,
    }
    if "maskwise" in summary and "argmax" in summary:
        mask_t = summary["maskwise"]["seconds_mean"]
        argmax_t = summary["argmax"]["seconds_mean"]
        if argmax_t > 0:
            report["maskwise_vs_argmax"] = {
                "ratio": mask_t / argmax_t,
                "percent_less_time": 100.0 * (1.0 - mask_t / argmax_t),
            }
    return report


def format_bench_table(report: dict) -> str:
    """Human-readable rendering of a bench report."""
    lines = [
        f"{'strategy':<16} {'rep':>4} {'images':>7} {'seconds':>9} {'ms/image':>9}"
    ]
    for row in report["rows"]:
        lines.append(
            f"{row['strategy']:<16} {row['repetition']:>4} {row['images']:>7} "
            f"{row['seconds']:>9.3f} {row['ms_per_image']:>9.3f}"
        )
    comparison = report.get("maskwise_vs_argmax")
    if comparison:
        pct = comparison["percent_less_time"]
        direction = "less" if pct >= 0 else "more"
        lines.append(
            f"maskwise takes {comparison['ratio']:.3f}x the argmax time "
            f"({abs(pct):.1f}% {direction})"
        )
    return "\n".join(lines)
