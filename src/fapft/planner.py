"""Turn an angle report into a freeze plan: top-k selection per homogeneous group.

Within each homogeneous group of a stage, the k layers with the largest
(``magnitude="large"``, for challenging tasks) or smallest (``"small"``, for
easy tasks) fine-tuned angles are selected for training; ties go to the
shallower layer. The same k applies to every group of a stage, so a one-stage
model with topk 2 trains 2 attention and 2 feed-forward layers plus the head.
"""

from __future__ import annotations

from .arch import ArchDescriptor, FapftPolicy, FreezePlan, _make_plan
from .angles import AngleReport, _check_layers, rank_entries
from .errors import InvalidValue, NoGuidelines

__all__ = [
    "FapftPolicy",
    "default_policy",
    "plan_fapft",
    "plan_series",
    "GUIDELINE_DEFAULTS",
]

DIFFICULTIES = ("easy", "challenging")

# Per-architecture starting points: magnitude follows task difficulty (small
# angles preserve pre-trained knowledge on easy tasks, large angles adapt
# hardest on challenging ones); topk defaults select roughly a third of a
# one-stage model, and for four-stage models keep the first two stages fully
# tuned on easy tasks but frozen on challenging ones.
GUIDELINE_DEFAULTS: dict[str, dict[str, tuple[str, tuple[int, ...]]]] = {
    "vit_b16": {
        "easy": ("small", (4,)),
        "challenging": ("large", (4,)),
    },
    "swin_b": {
        "easy": ("small", (2, 2, 6, 1)),
        "challenging": ("large", (0, 0, 6, 2)),
    },
}


def default_policy(arch: ArchDescriptor, difficulty: str) -> FapftPolicy:
    """Guideline starting policy for an architecture and task difficulty.

    The desk-scale ``toy_vit`` family uses the same one-third ratio as the
    one-stage reference model (topk = max(1, depth // 3)), read from the
    descriptor since its depth is configurable.
    """
    if difficulty not in DIFFICULTIES:
        raise InvalidValue(f"difficulty must be one of {DIFFICULTIES}")
    if arch.arch_id == "toy_vit":
        magnitude = "small" if difficulty == "easy" else "large"
        return FapftPolicy(magnitude, (max(1, arch.stages[0].blocks // 3),))
    table = GUIDELINE_DEFAULTS.get(arch.arch_id)
    if table is None:
        raise NoGuidelines(
            f"no guideline defaults for {arch.arch_id!r}; supply an explicit policy"
        )
    magnitude, topk = table[difficulty]
    return FapftPolicy(magnitude, topk)


def plan_fapft(
    report: AngleReport, arch: ArchDescriptor, policy: FapftPolicy
) -> FreezePlan:
    """Select per-group top-k layers by angle and return the resulting plan.
    ``report`` must hold the angles of ``arch``'s layers, no more, in order."""
    layer_ids = [l.layer_id for l in arch.layers]
    _check_layers(report, "report", arch.arch_id, layer_ids, f"the {arch.arch_id} model")
    policy.validate_for(arch)

    # rank_entries ranks the largest angle first and ties to the shallower
    # layer, so negated angles rank the smallest first
    sign = 1.0 if policy.magnitude == "large" else -1.0
    ranked = rank_entries(arch, {e.layer_id: sign * e.angle for e in report.entries})
    selected = [layer for layer, entry in zip(arch.layers, ranked)
                if entry.rank_in_group <= policy.topk_per_stage[layer.stage]]
    return _make_plan(arch, "FAPFT", selected, policy=policy)


def plan_series(
    report: AngleReport,
    arch: ArchDescriptor,
    magnitude: str,
    topk_values: list,
) -> list[FreezePlan]:
    """One plan per top-k value; the usual seed for soup experiments.

    Each element of ``topk_values`` is an int for one-stage models or a
    per-stage list for multi-stage ones.
    """
    plans = []
    for value in topk_values:
        topk = (value,) if isinstance(value, int) else tuple(value)
        plans.append(plan_fapft(report, arch, FapftPolicy(magnitude, topk)))
    return plans
