import pytest

from panokit import (
    DEFAULT_TAXONOMY,
    ValidationError,
    bench,
    format_bench_table,
    heuristic_merge,
    mask_wise_merge,
    pixel_wise_argmax,
)
from panokit.synth import random_stack

MASKWISE, ARGMAX, HEURISTIC = (
    {"maskwise": mask_wise_merge},
    {"argmax": pixel_wise_argmax},
    {"heuristic": heuristic_merge},
)


def _source():
    return [(f"{i}", random_stack(i, 8, 8, 4)) for i in range(3)]


def test_two_strategies_three_reps_give_six_rows():
    report = bench(_source, DEFAULT_TAXONOMY, {**MASKWISE, **ARGMAX}, repetitions=3)
    rows = report["rows"]
    assert len(rows) == 6
    assert [r["strategy"] for r in rows] == ["maskwise"] * 3 + ["argmax"] * 3
    assert [r["repetition"] for r in rows] == [0, 1, 2, 0, 1, 2]


def test_timings_positive_and_consistent():
    report = bench(_source, DEFAULT_TAXONOMY, MASKWISE, repetitions=2)
    for row in report["rows"]:
        assert row["seconds"] > 0.0
        assert row["images"] == 3
        assert row["ms_per_image"] == pytest.approx(
            row["seconds"] / 3 * 1000.0
        )


def test_summary_and_comparison_blocks():
    report = bench(_source, DEFAULT_TAXONOMY, {**MASKWISE, **ARGMAX})
    assert set(report["summary"]) == {"maskwise", "argmax"}
    comparison = report["maskwise_vs_argmax"]
    assert comparison["ratio"] > 0.0
    table = format_bench_table(report)
    assert "maskwise takes" in table
    assert "ms/image" in table


def test_comparison_absent_without_argmax():
    report = bench(_source, DEFAULT_TAXONOMY, {**MASKWISE, **HEURISTIC})
    assert "maskwise_vs_argmax" not in report


def test_summary_is_the_mean_of_each_merges_rows():
    report = bench(_source, DEFAULT_TAXONOMY, {**ARGMAX, **MASKWISE}, repetitions=2)
    rows = report["rows"]
    assert list(report["summary"]) == ["argmax", "maskwise"]
    for name, summary in report["summary"].items():
        seconds = [r["seconds"] for r in rows if r["strategy"] == name]
        assert len(seconds) == 2
        assert summary["seconds_mean"] == sum(seconds) / 2
        assert summary["ms_per_image"] == pytest.approx(
            summary["seconds_mean"] / 3 * 1000.0
        )


def test_bench_times_the_calls_it_is_given():
    calls = []

    def counted(stack, taxonomy):
        calls.append(stack.n)
        return mask_wise_merge(stack, taxonomy)

    report = bench(_source, DEFAULT_TAXONOMY, {"mine": counted}, repetitions=2)
    assert calls == [4] * 6
    assert [r["strategy"] for r in report["rows"]] == ["mine", "mine"]


@pytest.mark.parametrize("merges, reps", [({}, 1), (MASKWISE, 0)])
def test_no_merges_or_no_repetitions_rejected(merges, reps):
    with pytest.raises(ValidationError):
        bench(_source, DEFAULT_TAXONOMY, merges, repetitions=reps)
