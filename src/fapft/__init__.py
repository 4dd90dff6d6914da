"""Angle-guided partial fine-tuning toolkit.

Measures how far each residual layer of a transformer moved during
fine-tuning (the angle between its flattened pre-trained and fine-tuned
weight vectors), selects layers to train via per-group top-k policies, keeps
the parameter accounting exact for the reference architectures, merges runs
into model soups, and validates everything end to end on a deterministic
desk-scale trainer.
"""

__version__ = "0.1.0"

from . import errors
from .angles import (
    AngleEntry,
    AngleReport,
    ConsistencyMatrix,
    compute_angles,
    rank_consistency,
    render_rank_table,
    report_from_json,
)
from .arch import (
    ArchDescriptor,
    FapftPolicy,
    FreezePlan,
    HomogeneousGroup,
    LayerRef,
    describe_arch,
    full_plan,
    linear_probe_plan,
    manual_strategy,
    millions_str,
    plan_from_json,
    soup_millions_str,
)
from .checkpoint import Checkpoint, read_checkpoint, write_checkpoint
from .model import ModelDims
from .planner import default_policy, plan_fapft, plan_series
from .soup import (
    SoupInput,
    SoupRecipe,
    arch_from_checkpoint,
    greedy_soup,
    soup_param_total,
    uniform_soup,
    uniform_soup_checkpoints,
)
from .tensors import kendall_tau, mean_stack, vec_angle
from .train import (
    GradCheckResult,
    OptimizerConfig,
    PipelineResult,
    RunResult,
    ScheduleConfig,
    SeriesResult,
    SyntheticDataset,
    SyntheticSpec,
    TrainConfig,
    accuracy,
    generate_dataset,
    grad_check,
    run_fapft_pipeline,
    run_plan_series,
    train,
)

__all__ = [
    "__version__",
    "errors",
    # tensors
    "vec_angle",
    "kendall_tau",
    "mean_stack",
    # checkpoints
    "Checkpoint",
    "read_checkpoint",
    "write_checkpoint",
    # architectures and plans
    "ArchDescriptor",
    "LayerRef",
    "HomogeneousGroup",
    "FreezePlan",
    "describe_arch",
    "manual_strategy",
    "full_plan",
    "linear_probe_plan",
    "plan_from_json",
    "millions_str",
    "soup_millions_str",
    # angles
    "AngleEntry",
    "AngleReport",
    "ConsistencyMatrix",
    "compute_angles",
    "rank_consistency",
    "render_rank_table",
    "report_from_json",
    # planning
    "FapftPolicy",
    "default_policy",
    "plan_fapft",
    "plan_series",
    # soups
    "SoupInput",
    "SoupRecipe",
    "uniform_soup",
    "uniform_soup_checkpoints",
    "greedy_soup",
    "soup_param_total",
    "arch_from_checkpoint",
    # training
    "ModelDims",
    "OptimizerConfig",
    "ScheduleConfig",
    "SyntheticSpec",
    "SyntheticDataset",
    "TrainConfig",
    "RunResult",
    "GradCheckResult",
    "PipelineResult",
    "SeriesResult",
    "generate_dataset",
    "train",
    "accuracy",
    "grad_check",
    "run_fapft_pipeline",
    "run_plan_series",
]
