"""Command-line surface: synth, merge, eval, assign, fuse, stats, bench.

Exit codes: 0 success, 1 usage error, 2 data error. The merge, assign and
synth flags default to the field defaults of the parameter types they fill
(ScoreParams, MergeParams, LossWeights, SceneParams); bench keeps its own.
No environment variables affect results.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import cache, reduce
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

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
from .bench import bench, format_bench_table
from .manifest import (
    _dump_json,
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
    CategorySpec,
    MaskStack,
    MultiScaleAttn,
    PanopticMap,
    PanokitError,
    ValidationError,
    _naming,
    stuff_ids,
    taxonomy_columns,
    token_counts,
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


# Each strategy's library call at a given MergeParams. The library names are
# looked up in this module when a call runs, so a rebinding of them here (a
# tracer's span, a test's spy) sees every call that merge and bench make.
_MERGES = {
    "maskwise": lambda stack, tax, params: mask_wise_merge(stack, tax, params),
    "argmax": lambda stack, tax, params: pixel_wise_argmax(
        stack, tax, False, params.min_area, params.merge_same_stuff
    ),
    "argmax-weighted": lambda stack, tax, params: pixel_wise_argmax(
        stack, tax, True, params.min_area, params.merge_same_stuff
    ),
    "heuristic": lambda stack, tax, params: heuristic_merge(stack, tax, params),
}


def _merge_call(strategy: str, merge_stuff: str = "auto", **fields):
    """strategy's call, as (stack, taxonomy) -> PanopticMap, at the MergeParams
    of fields, with merge_same_stuff set by merge_stuff (on, off or auto)."""
    # auto merges for the argmax strategies, the detector-style baselines
    argmax = strategy in ("argmax", "argmax-weighted")
    same_stuff = {"on": True, "off": False, "auto": argmax}[merge_stuff]
    params = MergeParams(merge_same_stuff=same_stuff, **fields)
    merge = _MERGES[strategy]
    return lambda stack, taxonomy: merge(stack, taxonomy, params)


def _strategy_list(text: str) -> tuple[str, ...]:
    names = tuple(s.strip() for s in text.split(",") if s.strip())
    for i, name in enumerate(names):
        if name not in _MERGES:
            raise argparse.ArgumentTypeError(
                f"unknown strategy {name!r}; choose from {', '.join(_MERGES)}"
            )
        if name in names[:i]:
            raise argparse.ArgumentTypeError(f"strategy {name!r} is listed twice")
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
    p_synth.add_argument("--images", type=_positive_int, default=1)
    p_synth.add_argument(
        "--n", type=int, default=SceneParams.n_things, help="things per image"
    )
    p_synth.add_argument("--h", type=int, default=SceneParams.height)
    p_synth.add_argument("--w", type=int, default=SceneParams.width)
    p_synth.add_argument("--noise", type=float, default=SceneParams.noise_sigma)
    p_synth.add_argument(
        "--bands", type=int, default=SceneParams.stuff_bands, help="stuff bands per image"
    )
    p_synth.add_argument("--overlap-bias", type=float, default=SceneParams.overlap_bias)
    p_synth.add_argument("--out", required=True)
    p_synth.set_defaults(func=_cmd_synth)

    p_merge = sub.add_parser("merge", help="turn mask stacks into panoptic maps")
    p_merge.add_argument("--in", dest="input", required=True, help="stack manifest")
    p_merge.add_argument("--out", required=True, help="output panoptic directory")
    p_merge.add_argument("--strategy", choices=_MERGES, default="maskwise")
    p_merge.add_argument("--alpha", type=float, default=ScoreParams.alpha)
    p_merge.add_argument("--beta", type=float, default=ScoreParams.beta)
    p_merge.add_argument("--t-cnf", type=float, default=MergeParams.t_cnf)
    p_merge.add_argument("--t-keep", type=float, default=MergeParams.t_keep)
    p_merge.add_argument("--min-area", type=int, default=MergeParams.min_area)
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
    lambdas = (LossWeights.lambda_cls, LossWeights.lambda_seg, LossWeights.lambda_det)
    p_assign.add_argument("--lambdas", type=_lambda_triple, default=lambdas)
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
    p_bench.add_argument("--images", type=_positive_int, default=100)
    p_bench.add_argument("--h", type=int, default=256)
    p_bench.add_argument("--w", type=int, default=256)
    p_bench.add_argument("--masks", type=int, default=100, help="masks per synthetic image")
    p_bench.add_argument("--noise", type=float, default=0.0)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument(
        "--strategies", type=_strategy_list, default=("maskwise", "argmax")
    )
    p_bench.add_argument("--reps", type=_positive_int, default=1)
    p_bench.add_argument("--out", help="report JSON path")
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def _map_images(threads: int, fn, items: Sequence):
    if threads <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _scenes(args, **scene) -> Iterator[tuple[str, PanopticMap, MaskStack]]:
    """(image id, ground truth, stack) of args.images synthetic scenes of
    args.h x args.w, seeded args.seed, args.seed + 1, ..., drawn one at a
    time; scene holds the remaining SceneParams fields."""
    for i in range(args.images):
        params = SceneParams(
            seed=args.seed + i,
            height=args.h,
            width=args.w,
            noise_sigma=args.noise,
            **scene,
        )
        yield (f"{i:04d}", *generate_scene(params, DEFAULT_TAXONOMY))


def _cmd_synth(args) -> int:
    scene = dict(n_things=args.n, stuff_bands=args.bands, overlap_bias=args.overlap_bias)
    image_ids, gts, stacks = zip(*_scenes(args, **scene))
    out = Path(args.out)
    manifest = write_stack_set(out, DEFAULT_TAXONOMY, list(zip(image_ids, stacks)))
    write_panoptic_set(out / "gt", DEFAULT_TAXONOMY, list(zip(image_ids, gts)))
    print(f"wrote {args.images} images to {manifest} (ground truth in {out / 'gt'})")
    return 0


def _cmd_merge(args) -> int:
    taxonomy, entries = read_stack_manifest(args.input)
    run = _merge_call(
        args.strategy,
        args.merge_stuff,
        t_cnf=args.t_cnf,
        t_keep=args.t_keep,
        score=ScoreParams(alpha=args.alpha, beta=args.beta),
        min_area=args.min_area,
    )
    results = _map_images(
        args.threads,
        lambda entry: (entry.image_id, run(entry.load(taxonomy), taxonomy)),
        entries,
    )
    index = write_panoptic_set(args.out, taxonomy, results)
    print(f"wrote {len(results)} panoptic maps to {index}")
    return 0


def _check_pair(
    args,
    pred_taxonomy: Sequence[CategorySpec],
    gt_taxonomy: Sequence[CategorySpec],
    pred_ids: Sequence[str],
    gt_ids: Sequence[str],
) -> None:
    """Raise a ValidationError naming --pred and --gt unless their taxonomies
    list the same categories and their image ids agree, listing the
    categories that differ or the ids missing from pred and extra in pred."""
    differ = sorted({c.id for c in set(pred_taxonomy) ^ set(gt_taxonomy)})
    if differ:
        raise ValidationError(
            f"taxonomies disagree between {args.pred} and {args.gt} "
            f"on category ids {differ}"
        )
    pred_set, gt_set = set(pred_ids), set(gt_ids)
    missing = [i for i in gt_ids if i not in pred_set]
    extra = [i for i in pred_ids if i not in gt_set]
    if missing or extra:
        raise ValidationError(
            f"image ids disagree between {args.pred} and {args.gt} "
            f"(missing from pred: {missing}, extra in pred: {extra})"
        )


def _each_pair(args, call, threads: int = 1):
    """(taxonomy, [call(pred, gt, taxonomy) for each image in gt order]) over
    the --pred and --gt panoptic sets, whose taxonomies and image ids must
    agree; an error raised by call names both sets and the image."""
    taxonomy, gt_items = read_panoptic_set(args.gt)
    pred_taxonomy, pred_items = read_panoptic_set(args.pred)
    preds = dict(pred_items)
    _check_pair(args, pred_taxonomy, taxonomy, list(preds), [i for i, _ in gt_items])

    def image(item):
        image_id, gt = item
        with _naming(f"{args.pred}, {args.gt}: image {image_id}"):
            return call(preds[image_id], gt, taxonomy)

    return taxonomy, _map_images(threads, image, gt_items)


def _cmd_eval(args) -> int:
    taxonomy, reports = _each_pair(
        args, lambda pred, gt, tax: pq(pred, gt, tax, args.void_forgive), args.threads
    )
    total = reduce(PqReport.merge, reports, PqReport())
    aggregates = total.aggregates(taxonomy)
    _dump_json(
        args.out,
        {
            "schema": "pq-report/1",
            "images": len(reports),
            "aggregates": aggregates,
            "per_category": total.category_rows(taxonomy),
        },
    )
    print(
        f"PQ {aggregates['pq']:.4f} SQ {aggregates['sq']:.4f} "
        f"RQ {aggregates['rq']:.4f} over {len(reports)} images "
        f"({aggregates['categories']} categories)"
    )
    return 0


def _geometry(mask: np.ndarray) -> tuple[bool, np.ndarray, np.ndarray]:
    """(whether mask has any mass, its box, its mass center) for a query or a
    target; masks are >= 0, so any nonzero value is a positive mass."""
    filled = bool(mask.any())
    if filled:
        center = mass_center(mask)
    else:
        # an all-zero mask has no mass center; image center keeps costs finite
        center = np.array([(mask.shape[0] - 1) / 2, (mask.shape[1] - 1) / 2])
    return filled, bbox_of(mask), center


def _cmd_assign(args) -> int:
    taxonomy, entries = read_stack_manifest(args.pred)
    gt_taxonomy, gt_items = read_panoptic_set(args.gt)
    gt_by_id = dict(gt_items)
    columns = taxonomy_columns(taxonomy)
    stuff = stuff_ids(taxonomy)
    weights = LossWeights(*args.lambdas)
    mode = "box" if args.location_mode == "box" else "mass_center"
    _check_pair(args, taxonomy, gt_taxonomy, [e.image_id for e in entries], list(gt_by_id))
    images_out = []
    for entry in entries:
        stack = entry.load(taxonomy)
        gt = gt_by_id[entry.image_id]
        row_to_query, queries = [], []
        for prov, probs, mask in zip(stack.provenance, stack.class_probs, stack.masks):
            if prov.is_thing:
                _, box, center = _geometry(mask)
                queries.append(MatchQuery(probs, mask, box, center))
                row_to_query.append(prov.query_index)
        target_ids, targets, present = [], [], set()
        for seg in gt.segments:
            if seg.category_id in stuff:
                present.add(seg.category_id)
                continue
            mask = gt.ids == seg.instance_id
            filled, box, center = _geometry(mask)
            if not filled:
                raise ValidationError(
                    f"{args.gt}: image {entry.image_id} thing instance id "
                    f"{seg.instance_id} has no pixels"
                )
            targets.append(MatchTarget(columns[seg.category_id], mask, box, center))
            target_ids.append(seg.instance_id)
        with _naming(f"{args.pred}, {args.gt}: image {entry.image_id}"):
            costs = build_cost_matrix(queries, targets, weights, mode, args.normalize)
            result = decoupled_assign(costs, stack.provenance, present)
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
    _dump_json(args.out, {"schema": "assignment/1", "images": images_out})
    print(f"assigned {len(images_out)} images -> {args.out}")
    return 0


def _cmd_fuse(args) -> int:
    tokens = read_pst(args.attn, np.float32)
    if tokens.ndim not in (2, 3):
        raise ValidationError(f"{args.attn}: expected (L, h) or (N, L, h) tokens")
    heads = int(tokens.shape[-1])
    if heads == 0:
        raise ValidationError(f"{args.attn}: tokens carry no heads: {tokens.shape}")
    length = sum(token_counts(args.height, args.width))
    if tokens.shape[-2] != length:
        raise ValidationError(
            f"{args.attn}: a {args.height}x{args.width} base needs {length} "
            f"tokens per query, got shape {tokens.shape}"
        )
    if args.head is not None:
        head = FuseHead.load(args.head)
        if head.heads != heads:
            raise ValidationError(
                f"{args.head}: head built for {head.heads} heads, "
                f"{args.attn} carries {heads}"
            )
    else:
        head = FuseHead.seeded(heads, args.seed_head)
    with _naming(args.attn):
        attn = MultiScaleAttn(tokens, heads, args.height, args.width)
    masks = attn_to_mask(attn, head).astype(np.float32)
    write_pst(args.out, masks)
    print(f"wrote {masks.shape} soft masks to {args.out}")
    return 0


def _cmd_stats(args) -> int:
    _, stats = _each_pair(args, query_stats)
    merged = reduce(QueryStats.merge, stats, QueryStats())
    rows = decile_table(merged)
    print(format_decile_table(rows))
    if args.out:
        _dump_json(
            args.out,
            {"schema": "query-stats/1", "per_query": merged.query_rows(), "table": rows},
        )
    return 0


def _cmd_bench(args) -> int:
    if args.input is not None:
        taxonomy, entries = read_stack_manifest(args.input)

        def source() -> Iterable[tuple[str, MaskStack]]:
            return ((e.image_id, e.load(taxonomy)) for e in entries)

    else:
        taxonomy = DEFAULT_TAXONOMY
        bands = 2
        n_things = args.masks - bands
        if n_things < 0:
            raise ValidationError(
                f"--masks {args.masks} is smaller than the {bands} stuff bands"
            )

        def source() -> Iterable[tuple[str, MaskStack]]:
            scenes = _scenes(args, n_things=n_things, stuff_bands=bands)
            return ((image_id, stack) for image_id, _, stack in scenes)

    merges = {name: _merge_call(name) for name in args.strategies}
    report = bench(source, taxonomy, merges, args.reps)
    print(format_bench_table(report))
    if args.out:
        _dump_json(args.out, report)
    return 0


@cache
def _parser() -> _Parser:
    """The parser main reuses: parse_args leaves it unchanged and returns a
    new Namespace, so one build serves every call in the process."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (PanokitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
