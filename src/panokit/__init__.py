"""Panoptic post-processing toolkit: merging, matching, losses, evaluation."""

from .assignment import (
    Assignment,
    DecoupledAssignment,
    MatchQuery,
    MatchTarget,
    assignment_cost,
    bbox_of,
    build_cost_matrix,
    decoupled_assign,
    giou,
    hungarian,
    mass_center,
    matching_cost,
)
from .attnfuse import (
    FuseHead,
    attn_to_mask,
    bilinear_upsample,
    flatten_attn,
    fuse_attn,
    predict_mask,
    split_attn,
)
from .bench import bench, format_bench_table
from .losses import (
    LossWeights,
    deep_supervised_loss,
    dice_loss,
    dice_loss_grad,
    dynamic_lambda,
    focal_loss,
    lambda_counts,
)
from .merging import (
    MergeParams,
    heuristic_merge,
    mask_wise_merge,
    merge_same_category_stuff,
    pixel_wise_argmax,
)
from .metrics import (
    PqReport,
    QueryStats,
    decile_table,
    format_decile_table,
    pq,
    query_stats,
)
from .pst import read_pst, write_pst
from .scoring import ScoreParams, confidence, segmentation_quality, stack_scores
from .synth import (
    Rng,
    SceneParams,
    generate_scene,
    oracle_assignment,
    oracle_merge,
    random_stack,
)
from .types import (
    DEFAULT_TAXONOMY,
    VOID,
    CategorySpec,
    FormatError,
    MaskStack,
    MultiScaleAttn,
    PanopticMap,
    PanokitError,
    QueryProvenance,
    Segment,
    ValidationError,
    binarize,
    stuff_ids,
    thing_ids,
    token_counts,
    validate_stack,
)

__version__ = "0.1.0"
