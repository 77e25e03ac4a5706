import json

import numpy as np
import pytest

from panokit.cli import build_parser, main
from panokit.pst import read_pst, write_pst
from panokit import token_counts


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


def test_merge_threads_match_sequential(tmp_path):
    data = tmp_path / "data"
    main(["synth", "--seed", "2", "--images", "3", "--noise", "0.1", "--out", str(data)])
    manifest = str(data / "manifest.json")
    main(["merge", "--in", manifest, "--out", str(tmp_path / "seq")])
    main(["merge", "--in", manifest, "--threads", "3", "--out", str(tmp_path / "par")])
    for name in ("0000", "0001", "0002"):
        assert (tmp_path / "seq" / f"{name}_ids.pst").read_bytes() == (
            tmp_path / "par" / f"{name}_ids.pst"
        ).read_bytes()


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
