"""Turn an angle report into a freeze plan: top-k selection per homogeneous group.

Within each homogeneous group of a stage, the k layers with the largest
(``magnitude="large"``, for challenging tasks) or smallest (``"small"``, for
easy tasks) fine-tuned angles are selected for training; ties go to the
shallower layer. The same k applies to every group of a stage, so a one-stage
model with topk 2 trains 2 attention and 2 feed-forward layers plus the head.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arch import ArchDescriptor, FreezePlan, _make_plan
from .angles import AngleReport, _check_layers
from .errors import InvalidPolicy, InvalidValue, NoGuidelines, require_int

__all__ = [
    "FapftPolicy",
    "default_policy",
    "plan_fapft",
    "plan_series",
    "GUIDELINE_DEFAULTS",
]

MAGNITUDES = ("large", "small")
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


@dataclass(frozen=True)
class FapftPolicy:
    """Angle magnitude plus per-stage top-k; one-stage models use length 1."""

    magnitude: str
    topk_per_stage: tuple[int, ...]

    def __post_init__(self):
        if self.magnitude not in MAGNITUDES:
            raise InvalidPolicy(f"magnitude must be one of {MAGNITUDES}")
        for k in self.topk_per_stage:
            try:
                require_int("topk value", k, 0)
            except InvalidValue as exc:
                raise InvalidPolicy(str(exc)) from None

    def validate_for(self, arch: ArchDescriptor):
        if len(self.topk_per_stage) != len(arch.stages):
            raise InvalidPolicy(
                f"{arch.arch_id} has {len(arch.stages)} stages but policy "
                f"has {len(self.topk_per_stage)} topk values"
            )
        for stage, k in zip(arch.stages, self.topk_per_stage):
            if k > stage.blocks:
                raise InvalidPolicy(
                    f"topk {k} exceeds stage {stage.index} size {stage.blocks}"
                )

    def to_json_obj(self) -> dict:
        return {
            "magnitude": self.magnitude,
            "topk_per_stage": list(self.topk_per_stage),
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

    # members are in depth order and the sort is stable, so ties go to the
    # shallower layer
    sign = -1.0 if policy.magnitude == "large" else 1.0
    selected = []
    for group in arch.groups:
        k = policy.topk_per_stage[group.stage]
        selected.extend(
            sorted(group.members, key=lambda l: sign * report.angle_of(l.layer_id))[:k]
        )
    return _make_plan(arch, "FAPFT", selected, policy=policy.to_json_obj())


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
