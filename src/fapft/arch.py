"""Declarative architecture descriptors and exact trainable-parameter accounting.

A *layer* is an entire residual-connected unit: the attention or feed-forward
module together with its preceding normalization. Layers with identical
structure and parameter count form a *homogeneous group*; multi-stage models
group per stage. Every tensor outside residual units (patch embedding, class
token, positional embedding, downsamplers, final norm) is *non-residual* and
frozen by default in every partial plan; the classifier head's tensors are
always trainable. A plan's trainable set is a set of tensor names
(:attr:`FreezePlan.trainable_names`).

Parameter counts follow from the stage dimensions. There are no lookup
tables of totals anywhere: every count, a plan's included, is one sum of the
element counts of concrete tensor shapes (:func:`_element_total`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from typing import Iterable, Mapping, Sequence

from .errors import (
    FormatError,
    IncompatiblePlan,
    InvalidValue,
    UnknownArchitecture,
    parse_json,
    require_int,
)

__all__ = [
    "ATTN",
    "FFN",
    "StageSpec",
    "LayerRef",
    "HomogeneousGroup",
    "ArchDescriptor",
    "FreezePlan",
    "describe_arch",
    "manual_strategy",
    "full_plan",
    "linear_probe_plan",
    "toy_vit_arch",
    "millions_str",
    "soup_millions_str",
    "MANUAL_STRATEGY_ALIASES",
]

ATTN = "ATTN"
FFN = "FFN"
_CATEGORIES = (ATTN, FFN)
_HEAD = ("head.weight", "head.bias")


def _element_total(shapes: Iterable[tuple[int, ...]]) -> int:
    return sum(math.prod(shape) for shape in shapes)


@dataclass(frozen=True)
class StageSpec:
    """Dimensions of one stage: block count plus per-block widths. The tensor
    names of block ``b`` start with ``f"{prefix}.{b}"``."""

    index: int
    prefix: str
    blocks: int
    dim: int
    heads: int
    ffn_dim: int
    window: int | None = None  # set for windowed attention (adds a bias table)


@dataclass(frozen=True)
class LayerRef:
    """One residual unit: its id, its tensors (with shapes), and its exact size."""

    stage: int
    block: int
    category: str
    tensors: Mapping[str, tuple[int, ...]]

    @property
    def layer_id(self) -> str:
        return f"s{self.stage}.b{self.block}.{self.category}"

    @property
    def param_count(self) -> int:
        return _element_total(self.tensors.values())

    @property
    def depth_key(self) -> tuple[int, int, int]:
        return (self.stage, self.block, _CATEGORIES.index(self.category))


@dataclass(frozen=True)
class HomogeneousGroup:
    """Layers of one (stage, category), built from one ``StageSpec`` and so
    sharing structure and parameter count."""

    stage: int
    category: str
    members: tuple[LayerRef, ...]

    @property
    def group_id(self) -> str:
        return f"s{self.stage}.{self.category}"

    @property
    def member_param_count(self) -> int:
        return self.members[0].param_count


def _attn_tensors(prefix: str, stage: StageSpec) -> dict[str, tuple[int, ...]]:
    d = stage.dim
    tensors = {
        f"{prefix}.norm1.weight": (d,),
        f"{prefix}.norm1.bias": (d,),
        f"{prefix}.attn.qkv.weight": (3 * d, d),
        f"{prefix}.attn.qkv.bias": (3 * d,),
        f"{prefix}.attn.proj.weight": (d, d),
        f"{prefix}.attn.proj.bias": (d,),
    }
    if stage.window is not None:
        side = 2 * stage.window - 1
        tensors[f"{prefix}.attn.relative_position_bias_table"] = (
            side * side,
            stage.heads,
        )
    return tensors


def _ffn_tensors(prefix: str, stage: StageSpec) -> dict[str, tuple[int, ...]]:
    d, f = stage.dim, stage.ffn_dim
    return {
        f"{prefix}.norm2.weight": (d,),
        f"{prefix}.norm2.bias": (d,),
        f"{prefix}.mlp.fc1.weight": (f, d),
        f"{prefix}.mlp.fc1.bias": (f,),
        f"{prefix}.mlp.fc2.weight": (d, f),
        f"{prefix}.mlp.fc2.bias": (d,),
    }


class ArchDescriptor:
    """Layer inventory, tensor-name schema, groups, and head schema of one architecture.

    Two descriptors are equal, and hash alike, exactly when their ``arch_id``
    and ``dims`` are: when they describe the same model, however built."""

    def __init__(
        self,
        arch_id: str,
        stages: Sequence[StageSpec],
        non_residual: Mapping[str, tuple[int, ...]],
        head_feature_dim: int,
        dims: Mapping[str, int] | None = None,
    ):
        self.arch_id = arch_id
        self.stages = tuple(stages)
        self.non_residual = dict(non_residual)
        self.head_feature_dim = head_feature_dim
        self.dims = dict(dims or {})
        layers, groups = [], []
        for stage in self.stages:  # depth order; a stage of no blocks has no groups
            blocks = [
                (LayerRef(stage.index, b, ATTN, _attn_tensors(f"{stage.prefix}.{b}", stage)),
                 LayerRef(stage.index, b, FFN, _ffn_tensors(f"{stage.prefix}.{b}", stage)))
                for b in range(stage.blocks)
            ]
            layers.extend(layer for block in blocks for layer in block)
            groups.extend(HomogeneousGroup(stage.index, category, members)
                          for category, members in zip(_CATEGORIES, zip(*blocks)))
        self.layers = tuple(layers)
        self.groups: tuple[HomogeneousGroup, ...] = tuple(groups)
        self.layer_map: dict[str, LayerRef] = {l.layer_id: l for l in self.layers}

    # -- schema ------------------------------------------------------------

    def head_shapes(self, num_classes: int) -> dict[str, tuple[int, ...]]:
        if num_classes <= 0:
            raise InvalidValue(f"num_classes must be positive, got {num_classes}")
        return {
            "head.weight": (num_classes, self.head_feature_dim),
            "head.bias": (num_classes,),
        }

    def schema_shapes(self, num_classes: int) -> dict[str, tuple[int, ...]]:
        """Every tensor name of a complete checkpoint, with its shape."""
        shapes: dict[str, tuple[int, ...]] = {}
        for layer in self.layers:
            shapes.update(layer.tensors)
        shapes.update(self.non_residual)
        shapes.update(self.head_shapes(num_classes))
        return shapes

    # -- counting ----------------------------------------------------------

    @property
    def non_residual_param_count(self) -> int:
        return _element_total(self.non_residual.values())

    def head_param_count(self, num_classes: int) -> int:
        return _element_total(self.head_shapes(num_classes).values())

    def full_param_count(self, num_classes: int) -> int:
        return _element_total(self.schema_shapes(num_classes).values())

    def __eq__(self, other):
        if not isinstance(other, ArchDescriptor):
            return NotImplemented
        return (self.arch_id, self.dims) == (other.arch_id, other.dims)

    def __hash__(self):
        return hash((self.arch_id, *sorted(self.dims.items())))

    def __repr__(self):
        dims = "".join(f", {key}={value}" for key, value in self.dims.items())
        return f"ArchDescriptor({self.arch_id!r}{dims})"


def _build_vit_b16() -> ArchDescriptor:
    stage = StageSpec(index=0, prefix="blocks", blocks=12, dim=768, heads=12, ffn_dim=3072)
    tokens = (224 // 16) ** 2 + 1  # patches + class token
    non_residual = {
        "patch_embed.proj.weight": (768, 3, 16, 16),
        "patch_embed.proj.bias": (768,),
        "cls_token": (1, 1, 768),
        "pos_embed": (1, tokens, 768),
        "norm.weight": (768,),
        "norm.bias": (768,),
    }
    return ArchDescriptor("vit_b16", [stage], non_residual, 768)


def _build_swin_b() -> ArchDescriptor:
    depths = (2, 2, 18, 2)
    heads = (4, 8, 16, 32)
    stages = [
        StageSpec(
            index=s,
            prefix=f"stages.{s}.blocks",
            blocks=depths[s],
            dim=128 * 2**s,
            heads=heads[s],
            ffn_dim=4 * 128 * 2**s,
            window=7,
        )
        for s in range(4)
    ]
    non_residual: dict[str, tuple[int, ...]] = {
        "patch_embed.proj.weight": (128, 3, 4, 4),
        "patch_embed.proj.bias": (128,),
        "patch_embed.norm.weight": (128,),
        "patch_embed.norm.bias": (128,),
    }
    for s in range(3):  # patch merging between stages
        d = 128 * 2**s
        non_residual[f"stages.{s}.downsample.norm.weight"] = (4 * d,)
        non_residual[f"stages.{s}.downsample.norm.bias"] = (4 * d,)
        non_residual[f"stages.{s}.downsample.reduction.weight"] = (2 * d, 4 * d)
    non_residual["norm.weight"] = (1024,)
    non_residual["norm.bias"] = (1024,)
    return ArchDescriptor("swin_b", stages, non_residual, 1024)


_TOY_DEFAULTS = {"depth": 4, "model_dim": 32, "heads": 4, "seq_len": 8}  # ffn_dim: 4 * model_dim
# a descriptor holds a layer per block, so a depth read from outside is bounded;
# the reference models have 12 and 24 blocks
MAX_TOY_DEPTH = 1024


def _build_toy_vit(**overrides) -> ArchDescriptor:
    unknown = set(overrides) - {*_TOY_DEFAULTS, "ffn_dim"}
    if unknown:
        raise InvalidValue(f"unknown toy_vit dimensions: {sorted(unknown)}")
    dims = {**_TOY_DEFAULTS, **{k: v for k, v in overrides.items() if v is not None}}
    for key, value in dims.items():
        bound = MAX_TOY_DEPTH if key == "depth" else None
        require_int(f"toy_vit dimension {key}", value, 1, bound)
    dims.setdefault("ffn_dim", 4 * dims["model_dim"])
    if dims["model_dim"] % dims["heads"] != 0:
        raise InvalidValue("model_dim must be divisible by heads")
    return toy_vit_arch(**dims)


def toy_vit_arch(
    depth: int, model_dim: int, heads: int, ffn_dim: int, seq_len: int
) -> ArchDescriptor:
    """The ``toy_vit`` descriptor for dimensions the caller has already checked.

    It is the one tensor-name schema of the desk-scale model in
    :mod:`fapft.model`. Depth 0, a head-only model, is allowed here for the
    model's sake; :func:`describe_arch` asks for at least one block.
    """
    stage = StageSpec(index=0, prefix="blocks", blocks=depth, dim=model_dim, heads=heads,
                      ffn_dim=ffn_dim)
    non_residual = {
        "pos_embed": (seq_len, model_dim),
        "norm.weight": (model_dim,),
        "norm.bias": (model_dim,),
    }
    dims = {
        "depth": depth, "model_dim": model_dim, "heads": heads,
        "ffn_dim": ffn_dim, "seq_len": seq_len,
    }
    return ArchDescriptor("toy_vit", [stage], non_residual, model_dim, dims)


def describe_arch(arch_id: str, /, **dims) -> ArchDescriptor:
    """Build the descriptor of a supported architecture.

    Only ``toy_vit`` accepts dimension overrides (depth, model_dim, heads,
    ffn_dim, seq_len); the reference architectures are fixed. ``arch_id`` is
    positional, so a dimension named ``arch_id`` is an unknown dimension.
    """
    if arch_id == "toy_vit":
        return _build_toy_vit(**dims)
    if arch_id == "vit_b16":
        builder = _build_vit_b16
    elif arch_id == "swin_b":
        builder = _build_swin_b
    else:
        raise UnknownArchitecture(f"unknown architecture {arch_id!r}")
    if dims:
        raise InvalidValue(f"{arch_id} does not accept dimension overrides")
    return builder()


# ---------------------------------------------------------------------------
# freeze plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FreezePlan:
    """The trainable tensors of one fine-tuning run (``trainable_names``).

    The classifier head is trainable in every plan (the head of a fresh task
    has to be learned, and linear probing consists of exactly that), while
    non-residual tensors are frozen unless explicitly enabled. ``arch`` is the
    model the plan is for; descriptors compare by value, so plans of
    descriptors built apart for one model are equal, and plans for two sizes
    of one architecture are not.
    """

    arch: ArchDescriptor
    strategy_tag: str
    trainable: tuple[LayerRef, ...]
    non_residual_trainable: bool = False
    policy: Mapping[str, object] | None = None

    @property
    def arch_id(self) -> str:
        return self.arch.arch_id

    @property
    def trainable_layer_ids(self) -> tuple[str, ...]:
        return tuple(l.layer_id for l in self.trainable)

    @property
    def trainable_names(self) -> frozenset[str]:
        """The names of the tensors a run under this plan updates."""
        names = [name for layer in self.trainable for name in layer.tensors]
        if self.non_residual_trainable:
            names.extend(self.arch.non_residual)
        return frozenset((*names, *_HEAD))

    def trainable_param_count(self, num_classes: int) -> int:
        shapes = self.arch.schema_shapes(num_classes)
        return _element_total(shapes[name] for name in self.trainable_names)

    def same_selection(self, other: "FreezePlan") -> bool:
        """Selection equality regardless of how the plan was produced."""
        return self.arch == other.arch and self.trainable_names == other.trainable_names

    def to_json_obj(self, classes: Iterable[int] = (100, 1000)) -> dict:
        return {
            "arch_id": self.arch_id,
            "strategy_tag": self.strategy_tag,
            "policy": dict(self.policy) if self.policy is not None else None,
            "trainable_layers": list(self.trainable_layer_ids),
            "head_trainable": True,
            "non_residual_trainable": self.non_residual_trainable,
            "param_count_by_classes": {
                str(n): self.trainable_param_count(n) for n in classes
            },
        }

    def to_json_text(self, classes: Iterable[int] = (100, 1000)) -> str:
        return json.dumps(self.to_json_obj(classes), sort_keys=True) + "\n"


def _make_plan(
    arch: ArchDescriptor,
    tag: str,
    layers: Iterable[LayerRef],
    non_residual_trainable: bool = False,
    policy: Mapping[str, object] | None = None,
) -> FreezePlan:
    return FreezePlan(
        arch=arch,
        strategy_tag=tag,
        trainable=tuple(sorted(layers, key=lambda l: l.depth_key)),
        non_residual_trainable=non_residual_trainable,
        policy=policy,
    )


def _class_count(key) -> int | None:
    """The class count a ``param_count_by_classes`` key names (a positive int
    in plain decimal), or None."""
    try:
        count = int(key)
    except (TypeError, ValueError):  # not digits, or more than Python converts
        return None
    return count if count > 0 and key == str(count) else None


# the fields of a plan's JSON form, what each must hold, and a test of it
_PLAN_FIELDS = (
    ("strategy_tag", "a string", lambda v: isinstance(v, str)),
    ("policy", "an object or null", lambda v: v is None or isinstance(v, dict)),
    ("trainable_layers", "a list of strings",
     lambda v: isinstance(v, list) and all(isinstance(lid, str) for lid in v)),
    ("head_trainable", "true in every plan", lambda v: v is True),
    ("non_residual_trainable", "a bool", lambda v: isinstance(v, bool)),
)


def plan_from_json(data: Mapping | str, arch: ArchDescriptor) -> FreezePlan:
    """Rebuild a plan from its JSON form, resolving layers against ``arch``.
    A field that does not hold its JSON type is a ``FormatError``."""
    data = parse_json(data, "plan")
    if not isinstance(data, Mapping):
        raise FormatError(f"plan JSON must be an object, got {data!r}")
    missing = {"arch_id", *(key for key, _, _ in _PLAN_FIELDS)} - set(data)
    if missing:
        raise FormatError(f"plan JSON missing fields: {sorted(missing)}")
    for key, kind, valid in _PLAN_FIELDS:
        if not valid(data[key]):
            raise FormatError(f"plan {key} must be {kind}, got {data[key]!r}")
    counts = data.get("param_count_by_classes")
    counts = {} if counts is None else counts
    if not isinstance(counts, Mapping) or not all(
        _class_count(key) and type(stored) is int for key, stored in counts.items()
    ):
        raise FormatError(
            f"plan param_count_by_classes must map positive-int strings to ints, got {counts!r}"
        )
    if data["arch_id"] != arch.arch_id:
        raise IncompatiblePlan(
            f"plan is for {data['arch_id']!r}, descriptor is {arch.arch_id!r}"
        )
    layer_ids = data["trainable_layers"]
    unknown = [lid for lid in layer_ids if lid not in arch.layer_map]
    if unknown:
        raise IncompatiblePlan(f"plan names unknown layer {unknown[0]!r}")
    if len(set(layer_ids)) < len(layer_ids):
        raise FormatError(f"plan names a layer twice: {layer_ids}")
    plan = _make_plan(
        arch,
        data["strategy_tag"],
        [arch.layer_map[lid] for lid in layer_ids],
        non_residual_trainable=data["non_residual_trainable"],
        policy=data["policy"],
    )
    for key, stored in counts.items():
        recomputed = plan.trainable_param_count(_class_count(key))
        if recomputed != stored:
            raise FormatError(
                f"plan param_count_by_classes[{key}] is {stored}, recomputed {recomputed}"
            )
    return plan


MANUAL_STRATEGY_ALIASES = {
    "full": "A",
    "attn_only": "B",
    "ffn_only": "C",
    "first_half_attn": "D",
    "last_half_attn": "E",
    "first_half_ffn": "F",
    "last_half_ffn": "G",
    "first_half_blocks": "H",
    "last_half_blocks": "I",
}
# each alias and letter, lowercase, with its strategy's letter
_MANUAL_STRATEGY_KEYS = {**MANUAL_STRATEGY_ALIASES, **{key.lower(): key for key in "ABCDEFGHI"}}


def manual_strategy(arch: ArchDescriptor, tag: str) -> FreezePlan:
    """One of the nine manual partial fine-tuning strategies A..I.

    A is full fine-tuning (everything trainable, non-residual included);
    B/C train all attention / all feed-forward layers; D-G take the first or
    last half of one category by depth; H/I take the first or last half of
    the blocks (both layers of each block). Odd counts split floor/ceil with
    the extra element in the last half.
    """
    key = _MANUAL_STRATEGY_KEYS.get(tag.lower())
    if key is None:
        raise InvalidValue(f"unknown manual strategy {tag!r}")
    attn = [l for l in arch.layers if l.category == ATTN]
    ffn = [l for l in arch.layers if l.category == FFN]
    blocks = [(l.stage, l.block) for l in attn]
    if key == "A":
        return _make_plan(arch, "A", arch.layers, non_residual_trainable=True)
    if key == "B":
        return _make_plan(arch, "B", attn)
    if key == "C":
        return _make_plan(arch, "C", ffn)
    if key in "DE":
        half = len(attn) // 2
        return _make_plan(arch, key, attn[:half] if key == "D" else attn[half:])
    if key in "FG":
        half = len(ffn) // 2
        return _make_plan(arch, key, ffn[:half] if key == "F" else ffn[half:])
    half = len(blocks) // 2
    chosen = set(blocks[:half] if key == "H" else blocks[half:])
    layers = [l for l in arch.layers if (l.stage, l.block) in chosen]
    return _make_plan(arch, key, layers)


def full_plan(arch: ArchDescriptor) -> FreezePlan:
    return _make_plan(arch, "FULL", arch.layers, non_residual_trainable=True)


def linear_probe_plan(arch: ArchDescriptor) -> FreezePlan:
    return _make_plan(arch, "LINEAR_PROBE", ())


# ---------------------------------------------------------------------------
# display rounding
# ---------------------------------------------------------------------------


def millions_str(count: int) -> str:
    """Exact count rendered in millions at two decimals (half-up)."""
    value = Decimal(count) / Decimal(1_000_000)
    return str(value.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def soup_millions_str(counts: Iterable[int]) -> str:
    """Soup headline figure: round each run to 0.01M, sum, render at 0.1M.

    Rounding per run first is what makes five 86.57M runs display as 432.9
    rather than 432.8; the exact integers stay available separately.
    """
    total = sum(
        (Decimal(c) / Decimal(1_000_000)).quantize(
            Decimal("0.01"), rounding=ROUND_HALF_UP
        )
        for c in counts
    )
    return str(total.quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))
