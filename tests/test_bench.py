import pytest

from panokit import DEFAULT_TAXONOMY, ValidationError, bench, format_bench_table
from panokit.synth import random_stack


def _source():
    return [(f"{i}", random_stack(i, 8, 8, 4)) for i in range(3)]


def test_two_strategies_three_reps_give_six_rows():
    report = bench(_source, DEFAULT_TAXONOMY, ("maskwise", "argmax"), repetitions=3)
    rows = report["rows"]
    assert len(rows) == 6
    assert [r["strategy"] for r in rows] == ["maskwise"] * 3 + ["argmax"] * 3
    assert [r["repetition"] for r in rows] == [0, 1, 2, 0, 1, 2]


def test_timings_positive_and_consistent():
    report = bench(_source, DEFAULT_TAXONOMY, ("maskwise",), repetitions=2)
    for row in report["rows"]:
        assert row["seconds"] > 0.0
        assert row["images"] == 3
        assert row["ms_per_image"] == pytest.approx(
            row["seconds"] / 3 * 1000.0
        )


def test_summary_and_comparison_blocks():
    report = bench(_source, DEFAULT_TAXONOMY, ("maskwise", "argmax"))
    assert set(report["summary"]) == {"maskwise", "argmax"}
    comparison = report["maskwise_vs_argmax"]
    assert comparison["ratio"] > 0.0
    table = format_bench_table(report)
    assert "maskwise takes" in table
    assert "ms/image" in table


def test_comparison_absent_without_argmax():
    report = bench(_source, DEFAULT_TAXONOMY, ("maskwise", "heuristic"))
    assert "maskwise_vs_argmax" not in report


def test_unknown_strategy_rejected():
    with pytest.raises(ValidationError):
        bench(_source, DEFAULT_TAXONOMY, ("quantum",))


def test_repeated_strategy_is_summarized_over_all_of_its_rows():
    strategies = ("maskwise", "argmax", "maskwise")
    report = bench(_source, DEFAULT_TAXONOMY, strategies, repetitions=2)
    rows = report["rows"]
    assert [(r["strategy"], r["repetition"]) for r in rows] == [
        (s, rep) for s in strategies for rep in (0, 1)
    ]
    assert list(report["summary"]) == ["maskwise", "argmax"]
    for name, summary in report["summary"].items():
        seconds = [r["seconds"] for r in rows if r["strategy"] == name]
        assert len(seconds) == 2 * strategies.count(name)
        assert summary["seconds_mean"] == sum(seconds) / len(seconds)
        assert summary["ms_per_image"] == pytest.approx(
            summary["seconds_mean"] / 3 * 1000.0
        )
