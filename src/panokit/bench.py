"""Benchmark harness comparing merging strategies over an image set.

It times the merge calls it is given, a mapping from each strategy's name
to its call; the CLI builds that mapping from its strategy table. Only the
merge call itself is timed; stack generation or file loading happens
outside the timed region so strategies can be compared on equal footing.
Each image is produced once per repetition and every merge runs on it
before the next image is drawn, so a generating source is traversed as few
times as possible. Rows are emitted in (mapping order, repetition) order,
which makes reports deterministic apart from the timings themselves.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Iterable, Mapping, Sequence

from .types import CategorySpec, MaskStack, PanopticMap, ValidationError

BENCH_SCHEMA = "bench-report/1"

def _ms_per_image(seconds: float, images: int) -> float:
    return 1000.0 * seconds / images if images else 0.0


def bench(
    source: Callable[[], Iterable[tuple[str, MaskStack]]],
    taxonomy: Sequence[CategorySpec],
    merges: Mapping[str, Callable[[MaskStack, Sequence[CategorySpec]], PanopticMap]],
    repetitions: int = 1,
) -> dict:
    """Time each named merge call over every image the source yields.

    source is a zero-argument callable returning a fresh iterable per pass,
    so stacks never have to be held in memory all at once. A report that
    times both "maskwise" and "argmax" also compares the two.
    """
    if repetitions < 1:
        raise ValidationError(f"repetitions must be >= 1, got {repetitions}")
    if not merges:
        raise ValidationError("no merges given")
    totals = [[0.0] * repetitions for _ in merges]
    counts = [0] * repetitions
    for rep in range(repetitions):
        for _, stack in source():
            for times, merge in zip(totals, merges.values()):
                start = perf_counter()
                merge(stack, taxonomy)
                times[rep] += perf_counter() - start
            counts[rep] += 1
    rows = [
        {
            "strategy": name,
            "repetition": rep,
            "images": counts[rep],
            "seconds": seconds,
            "ms_per_image": _ms_per_image(seconds, counts[rep]),
        }
        for name, seconds_by_rep in zip(merges, totals)
        for rep, seconds in enumerate(seconds_by_rep)
    ]
    summary = {}
    for name, seconds in zip(merges, totals):
        mean = sum(seconds) / len(seconds)
        summary[name] = {
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
