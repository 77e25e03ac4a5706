"""Command-line surface: synth, merge, eval, assign, fuse, stats, bench.

Exit codes: 0 success, 1 usage error, 2 data error. All numeric flags
default to the reference operating point (alpha=1, beta=2, t_cnf=0.25,
t_keep=0.6, lambdas 2,1,1). No environment variables affect results.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .assignment import (
    LossWeights,
    MatchQuery,
    MatchTarget,
    assignment_cost,
    bbox_of,
    build_cost_matrix,
    decoupled_assign,
    mass_center,
)
from .attnfuse import FuseHead, attn_to_mask
from .bench import STRATEGIES, bench, format_bench_table
from .manifest import (
    read_panoptic_set,
    read_stack_manifest,
    write_panoptic_set,
    write_stack_set,
)
from .merging import (
    MergeParams,
    heuristic_merge,
    mask_wise_merge,
    pixel_wise_argmax,
)
from .metrics import PqReport, QueryStats, decile_table, format_decile_table, pq, query_stats
from .pst import read_pst, write_pst
from .scoring import ScoreParams
from .synth import SceneParams, generate_scene
from .types import (
    DEFAULT_TAXONOMY,
    MaskStack,
    MultiScaleAttn,
    PanopticMap,
    PanokitError,
    ValidationError,
    stuff_ids,
)


class _UsageError(Exception):
    """Raised for bad flags/subcommands; mapped to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit(2); 2 is for data errors
        raise _UsageError(message)


def _lambda_triple(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected three comma-separated weights like 2,1,1, got {text!r}"
        )
    try:
        cls_w, seg_w, det_w = (float(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"non-numeric weight in {text!r}") from exc
    return cls_w, seg_w, det_w


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _strategy_list(text: str) -> tuple[str, ...]:
    names = tuple(s.strip() for s in text.split(",") if s.strip())
    for name in names:
        if name not in STRATEGIES:
            raise argparse.ArgumentTypeError(
                f"unknown strategy {name!r}; choose from {', '.join(STRATEGIES)}"
            )
    if not names:
        raise argparse.ArgumentTypeError("empty strategy list")
    return names


def build_parser() -> _Parser:
    parser = _Parser(
        prog="panokit",
        description="Panoptic post-processing, matching, and evaluation toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic image set")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--images", type=int, default=1)
    p_synth.add_argument("--n", type=int, default=4, help="things per image")
    p_synth.add_argument("--h", type=int, default=64)
    p_synth.add_argument("--w", type=int, default=64)
    p_synth.add_argument("--noise", type=float, default=0.0)
    p_synth.add_argument("--bands", type=int, default=2, help="stuff bands per image")
    p_synth.add_argument("--overlap-bias", type=float, default=0.0)
    p_synth.add_argument("--out", required=True)
    p_synth.set_defaults(func=_cmd_synth)

    p_merge = sub.add_parser("merge", help="turn mask stacks into panoptic maps")
    p_merge.add_argument("--in", dest="input", required=True, help="stack manifest")
    p_merge.add_argument("--out", required=True, help="output panoptic directory")
    p_merge.add_argument(
        "--strategy", choices=STRATEGIES, default="maskwise"
    )
    p_merge.add_argument("--alpha", type=float, default=1.0)
    p_merge.add_argument("--beta", type=float, default=2.0)
    p_merge.add_argument("--t-cnf", type=float, default=0.25)
    p_merge.add_argument("--t-keep", type=float, default=0.6)
    p_merge.add_argument("--min-area", type=int, default=0)
    p_merge.add_argument(
        "--merge-stuff",
        choices=("auto", "on", "off"),
        default="auto",
        help="merge same-category stuff segments (auto: on for argmax variants)",
    )
    p_merge.add_argument("--threads", type=_positive_int, default=1)
    p_merge.set_defaults(func=_cmd_merge)

    p_eval = sub.add_parser("eval", help="panoptic quality of pred vs gt")
    p_eval.add_argument("--pred", required=True, help="predicted panoptic directory")
    p_eval.add_argument("--gt", required=True, help="ground-truth panoptic directory")
    p_eval.add_argument("--out", required=True, help="report JSON path")
    p_eval.add_argument(
        "--void-forgive",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="do not count mostly-on-void unmatched predictions as FPs",
    )
    p_eval.add_argument("--threads", type=_positive_int, default=1)
    p_eval.set_defaults(func=_cmd_eval)

    p_assign = sub.add_parser("assign", help="match queries to ground truth")
    p_assign.add_argument("--pred", required=True, help="stack manifest")
    p_assign.add_argument("--gt", required=True, help="ground-truth panoptic directory")
    p_assign.add_argument(
        "--location-mode", choices=("box", "center"), default="box"
    )
    p_assign.add_argument("--lambdas", type=_lambda_triple, default=(2.0, 1.0, 1.0))
    p_assign.add_argument(
        "--normalize",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="normalize locations by image size",
    )
    p_assign.add_argument("--out", required=True, help="assignment JSON path")
    p_assign.set_defaults(func=_cmd_assign)

    p_fuse = sub.add_parser("fuse", help="attention tokens to soft masks")
    p_fuse.add_argument("--attn", required=True, help="PST1 tokens, (L, h) or (N, L, h)")
    p_fuse.add_argument("--height", type=int, required=True)
    p_fuse.add_argument("--width", type=int, required=True)
    head_src = p_fuse.add_mutually_exclusive_group(required=True)
    head_src.add_argument("--head", help="PST1 head weights, 3h+1 entries")
    head_src.add_argument("--seed-head", type=int, help="deterministic head init")
    p_fuse.add_argument("--out", required=True, help="output PST1 mask path")
    p_fuse.set_defaults(func=_cmd_fuse)

    p_stats = sub.add_parser("stats", help="per-query thing-preference table")
    p_stats.add_argument("--pred", required=True, help="predicted panoptic directory")
    p_stats.add_argument("--gt", required=True, help="ground-truth panoptic directory")
    p_stats.add_argument("--out", help="stats JSON path")
    p_stats.set_defaults(func=_cmd_stats)

    p_bench = sub.add_parser("bench", help="time merging strategies")
    p_bench.add_argument("--in", dest="input", help="stack manifest (default: synthetic)")
    p_bench.add_argument("--images", type=int, default=100)
    p_bench.add_argument("--h", type=int, default=256)
    p_bench.add_argument("--w", type=int, default=256)
    p_bench.add_argument("--masks", type=int, default=100, help="masks per synthetic image")
    p_bench.add_argument("--noise", type=float, default=0.0)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument(
        "--strategies", type=_strategy_list, default=("maskwise", "argmax")
    )
    p_bench.add_argument("--reps", type=int, default=1)
    p_bench.add_argument("--out", help="report JSON path")
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _map_images(threads: int, fn, items: Sequence):
    if threads <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _cmd_synth(args) -> int:
    taxonomy = DEFAULT_TAXONOMY
    gts = []
    stacks = []
    for i in range(args.images):
        params = SceneParams(
            seed=args.seed + i,
            height=args.h,
            width=args.w,
            n_things=args.n,
            stuff_bands=args.bands,
            noise_sigma=args.noise,
            overlap_bias=args.overlap_bias,
        )
        gt, stack = generate_scene(params, taxonomy)
        image_id = f"{i:04d}"
        gts.append((image_id, gt))
        stacks.append((image_id, stack))
    out = Path(args.out)
    manifest = write_stack_set(out, taxonomy, stacks)
    write_panoptic_set(out / "gt", taxonomy, gts)
    print(f"wrote {args.images} images to {manifest} (ground truth in {out / 'gt'})")
    return 0


def _merge_runner(args):
    score = ScoreParams(alpha=args.alpha, beta=args.beta)
    merge_stuff = args.merge_stuff
    params = MergeParams(
        t_cnf=args.t_cnf,
        t_keep=args.t_keep,
        score=score,
        merge_same_stuff=merge_stuff == "on",
        min_area=args.min_area,
    )
    strategy = args.strategy
    if strategy == "maskwise":
        return lambda stack, tax: mask_wise_merge(stack, tax, params)
    if strategy == "heuristic":
        return lambda stack, tax: heuristic_merge(stack, tax, params)
    weighted = strategy == "argmax-weighted"
    argmax_merge = merge_stuff != "off"  # the detector-style baseline default
    return lambda stack, tax: pixel_wise_argmax(
        stack, tax, weighted, args.min_area, argmax_merge
    )


def _cmd_merge(args) -> int:
    taxonomy, entries = read_stack_manifest(args.input)
    run = _merge_runner(args)
    results = _map_images(
        args.threads,
        lambda entry: (entry.image_id, run(entry.load(taxonomy), taxonomy)),
        entries,
    )
    index = write_panoptic_set(args.out, taxonomy, results)
    print(f"wrote {len(results)} panoptic maps to {index}")
    return 0


def _read_pairs(pred_dir: str, gt_dir: str):
    """Read a pred and a gt panoptic set whose image ids must agree."""
    taxonomy, gt_items = read_panoptic_set(gt_dir)
    _, pred_items = read_panoptic_set(pred_dir)
    preds = dict(pred_items)
    gt_ids = {g for g, _ in gt_items}
    missing = [i for i, _ in gt_items if i not in preds]
    extra = [i for i in preds if i not in gt_ids]
    if missing or extra:
        raise ValidationError(
            f"image ids disagree between {pred_dir} and {gt_dir} "
            f"(missing from pred: {missing}, extra in pred: {extra})"
        )
    return taxonomy, [(preds[i], gt) for i, gt in gt_items]


def _cmd_eval(args) -> int:
    taxonomy, pairs = _read_pairs(args.pred, args.gt)
    reports = _map_images(
        args.threads,
        lambda pair: pq(pair[0], pair[1], taxonomy, args.void_forgive),
        pairs,
    )
    total = PqReport()
    for report in reports:
        total = total.merge(report)
    aggregates = total.aggregates(taxonomy)
    by_name = {c.id: c for c in taxonomy}
    per_category = [
        {
            "category_id": cat,
            "name": by_name[cat].name,
            "is_thing": by_name[cat].is_thing,
            "pq": counts.pq,
            "sq": counts.sq,
            "rq": counts.rq,
            "iou_sum": counts.iou_sum,
            "tp": counts.tp,
            "fp": counts.fp,
            "fn": counts.fn,
        }
        for cat, counts in sorted(total.per_category.items())
        if counts.present
    ]
    _write_json(
        Path(args.out),
        {
            "schema": "pq-report/1",
            "images": len(pairs),
            "aggregates": aggregates,
            "per_category": per_category,
        },
    )
    print(
        f"PQ {aggregates['pq']:.4f} SQ {aggregates['sq']:.4f} "
        f"RQ {aggregates['rq']:.4f} over {len(pairs)} images "
        f"({aggregates['categories']} categories)"
    )
    return 0


def _thing_queries(stack: MaskStack) -> list[tuple[int, MatchQuery]]:
    queries = []
    for i, prov in enumerate(stack.provenance):
        if not prov.is_thing:
            continue
        mask = stack.masks[i]
        soft = np.asarray(mask, np.float64)
        if soft.sum() > 0:
            center = mass_center(soft)
        else:
            # an all-zero mask has no mass center; image center keeps costs finite
            center = np.array([(soft.shape[0] - 1) / 2, (soft.shape[1] - 1) / 2])
        queries.append(
            (
                prov.query_index,
                MatchQuery(
                    class_probs=stack.class_probs[i],
                    mask=mask,
                    box=bbox_of(mask),
                    center=center,
                ),
            )
        )
    return queries


def _cmd_assign(args) -> int:
    taxonomy, entries = read_stack_manifest(args.pred)
    _, gt_items = read_panoptic_set(args.gt)
    gt_by_id = dict(gt_items)
    columns = {c.id: pos for pos, c in enumerate(taxonomy)}
    stuff = stuff_ids(taxonomy)
    weights = LossWeights(*args.lambdas)
    mode = "box" if args.location_mode == "box" else "mass_center"
    images_out = []
    for entry in entries:
        if entry.image_id not in gt_by_id:
            raise ValidationError(f"image {entry.image_id} missing from ground truth")
        stack = entry.load(taxonomy)
        gt = gt_by_id[entry.image_id]
        queries = _thing_queries(stack)
        targets = []
        target_ids = []
        for seg in gt.segments:
            if seg.category_id in stuff:
                continue
            mask = gt.ids == seg.instance_id
            targets.append(
                MatchTarget(
                    category_index=columns[seg.category_id],
                    mask=mask,
                    box=bbox_of(mask),
                    center=mass_center(mask.astype(np.float64)),
                )
            )
            target_ids.append(seg.instance_id)
        costs = build_cost_matrix(
            [q for _, q in queries], targets, weights, mode, args.normalize
        )
        stuff_queries = [p for p in stack.provenance if not p.is_thing]
        present = frozenset(
            seg.category_id for seg in gt.segments if seg.category_id in stuff
        )
        result = decoupled_assign(costs, stuff_queries, present)
        row_to_query = [q for q, _ in queries]
        images_out.append(
            {
                "id": entry.image_id,
                "targets": target_ids,
                "pairs": [
                    [row_to_query[r], target_ids[t]] for r, t in result.things.pairs
                ],
                "unmatched_things": sorted(
                    row_to_query[r] for r in result.things.unmatched_queries
                ),
                "stuff_pairs": [list(p) for p in result.stuff_pairs],
                "unmatched_stuff": sorted(result.unmatched_stuff),
                "total_cost": assignment_cost(costs, result.things),
            }
        )
    _write_json(
        Path(args.out), {"schema": "assignment/1", "images": images_out}
    )
    print(f"assigned {len(images_out)} images -> {args.out}")
    return 0


def _cmd_fuse(args) -> int:
    tokens = read_pst(args.attn)
    if args.head is not None:
        head = FuseHead.load(args.head)
    else:
        if tokens.ndim < 2:
            raise ValidationError(f"{args.attn}: expected (L, h) or (N, L, h) tokens")
        head = FuseHead.seeded(int(tokens.shape[-1]), args.seed_head)
    if tokens.ndim == 2:
        batch = tokens[None]
        squeeze = True
    elif tokens.ndim == 3:
        batch = tokens
        squeeze = False
    else:
        raise ValidationError(f"{args.attn}: expected (L, h) or (N, L, h) tokens")
    masks = np.stack(
        [
            attn_to_mask(
                MultiScaleAttn(t, t.shape[1], args.height, args.width), head
            )
            for t in batch
        ]
    ).astype(np.float32)
    out_arr = masks[0] if squeeze else masks
    write_pst(args.out, out_arr)
    print(f"wrote {out_arr.shape} soft masks to {args.out}")
    return 0


def _cmd_stats(args) -> int:
    taxonomy, pairs = _read_pairs(args.pred, args.gt)
    merged = QueryStats()
    for pred, gt in pairs:
        merged = merged.merge(query_stats(pred, gt, taxonomy))
    rows = decile_table(merged)
    print(format_decile_table(rows))
    if args.out:
        per_query = {
            str(q): {
                "n_things": c.n_things,
                "n_stuff": c.n_stuff,
                "p_t": c.p_t,
                "tp_things": c.tp_things,
                "fp_things": c.fp_things,
                "tp_stuff": c.tp_stuff,
                "fp_stuff": c.fp_stuff,
            }
            for q, c in sorted(merged.per_query.items())
        }
        _write_json(
            Path(args.out),
            {"schema": "query-stats/1", "per_query": per_query, "table": rows},
        )
    return 0


def _cmd_bench(args) -> int:
    if args.input is not None:
        taxonomy, entries = read_stack_manifest(args.input)

        def source() -> Iterable[tuple[str, MaskStack]]:
            return ((e.image_id, e.load(taxonomy)) for e in entries)

    else:
        taxonomy = DEFAULT_TAXONOMY
        bands = min(2, len(stuff_ids(taxonomy)))
        n_things = args.masks - bands
        if n_things < 0:
            raise ValidationError(
                f"--masks {args.masks} is smaller than the {bands} stuff bands"
            )

        def source() -> Iterable[tuple[str, MaskStack]]:
            for i in range(args.images):
                params = SceneParams(
                    seed=args.seed + i,
                    height=args.h,
                    width=args.w,
                    n_things=n_things,
                    stuff_bands=bands,
                    noise_sigma=args.noise,
                )
                yield f"{i:04d}", generate_scene(params, taxonomy)[1]

    report = bench(source, taxonomy, args.strategies, args.reps)
    print(format_bench_table(report))
    if args.out:
        _write_json(Path(args.out), report)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except PanokitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
