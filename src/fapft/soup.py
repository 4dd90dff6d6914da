"""Model soups: weight averaging across fine-tuned checkpoints.

Partial fine-tuning adds a dimension to souping: runs can differ only in
which layers were trainable. When per-run freeze plans and the shared base
checkpoint are supplied, the merger verifies that layers frozen in every run
are still bitwise equal to the base before averaging (and the average then
preserves them bitwise, since it is a mean of identical values).

The soup's headline parameter figure is the sum of the per-run trainable
counts, not the merged model's size: a soup costs every run's fine-tuning.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .arch import ArchDescriptor, FreezePlan, describe_arch, plan_from_json, soup_millions_str
from .checkpoint import Checkpoint, read_checkpoint, read_checkpoint_metadata, read_text
from .errors import (
    EvaluationError,
    FormatError,
    IncompatibleCheckpoints,
    IncompatibleReports,
    InvalidValue,
)
from .tensors import mean_stack

__all__ = [
    "SoupInput",
    "SoupRecipe",
    "uniform_soup",
    "uniform_soup_checkpoints",
    "greedy_soup",
    "soup_param_total",
    "soup_manifest",
    "arch_from_checkpoint",
]


def arch_from_checkpoint(ckpt: Checkpoint | Mapping[str, str]) -> ArchDescriptor:
    """Rebuild the descriptor recorded in a toolkit-produced checkpoint or its metadata map."""
    metadata = ckpt.metadata if isinstance(ckpt, Checkpoint) else ckpt
    arch_id = metadata.get("pft.arch_id")
    if arch_id is None:
        raise FormatError("checkpoint has no pft.arch_id metadata")
    config = metadata.get("pft.arch_config")
    dims = {}
    if config is not None:
        try:
            dims = json.loads(config)
        except json.JSONDecodeError as exc:
            raise FormatError(f"malformed pft.arch_config metadata: {exc}") from exc
        dims.pop("num_classes", None)
    return describe_arch(arch_id, **dims)


@dataclass(frozen=True)
class SoupInput:
    path: str
    weight: float = 1.0
    plan_path: str | None = None


@dataclass(frozen=True)
class SoupRecipe:
    """Inputs, merge mode, and (when plans are attached) the shared base."""

    inputs: tuple[SoupInput, ...]
    mode: str = "uniform"
    base: str | None = None

    def __post_init__(self):
        if self.mode not in ("uniform", "greedy"):
            raise FormatError(f"unknown soup mode {self.mode!r}")
        if not self.inputs:
            raise FormatError("recipe has no inputs")
        if any(
            not math.isfinite(i.weight) or i.weight <= 0.0 for i in self.inputs
        ):
            raise InvalidValue("input weights must be finite and positive")
        if any(i.plan_path for i in self.inputs) and self.base is None:
            raise FormatError("recipe attaches plans but names no base checkpoint")

    @classmethod
    def from_json(cls, data) -> "SoupRecipe":
        if isinstance(data, (str, bytes)):
            try:
                data = json.loads(data)
            except json.JSONDecodeError as exc:
                raise FormatError(f"malformed recipe JSON: {exc}") from exc
        try:
            inputs = tuple(
                SoupInput(
                    path=str(entry["path"]),
                    weight=float(entry.get("weight", 1.0)),
                    plan_path=entry.get("plan"),
                )
                for entry in data["inputs"]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"malformed recipe: {exc}") from exc
        mode, base = data.get("mode", "uniform"), data.get("base")
        try:
            return cls(inputs=inputs, mode=mode, base=base)
        except InvalidValue as exc:
            # a bad value read from a file is bad data, not a numerical failure
            raise FormatError(f"invalid recipe: {exc}") from exc

    @classmethod
    def from_file(cls, path) -> "SoupRecipe":
        return cls.from_json(read_text(path))

    def plans(self) -> list[FreezePlan] | None:
        """Each input's freeze plan, resolved against the base checkpoint's
        architecture; None when the recipe attaches no plans."""
        if not any(i.plan_path for i in self.inputs):
            return None
        arch = arch_from_checkpoint(read_checkpoint_metadata(self.base))
        plans = []
        for inp in self.inputs:
            if inp.plan_path is None:
                raise FormatError(f"input {inp.path} has no plan but others do")
            plans.append(plan_from_json(read_text(inp.plan_path), arch))
        return plans


def _check_compatible(ckpts: Sequence[Checkpoint]):
    names = set(ckpts[0].tensors)
    for ckpt in ckpts[1:]:
        if set(ckpt.tensors) != names:
            extra = set(ckpt.tensors) ^ names
            raise IncompatibleCheckpoints(
                f"tensor name sets differ; mismatched names: {sorted(extra)[:5]}"
            )
        for name in names:
            if ckpt.tensors[name].shape != ckpts[0].tensors[name].shape:
                raise IncompatibleCheckpoints(
                    f"tensor {name!r} has shape {ckpt.tensors[name].shape} "
                    f"vs {ckpts[0].tensors[name].shape}"
                )


def uniform_soup_checkpoints(
    ckpts: Sequence[Checkpoint],
    weights: Sequence[float] | None = None,
    extra_metadata: dict[str, str] | None = None,
) -> Checkpoint:
    """Weighted elementwise mean of already-loaded checkpoints."""
    if not ckpts:
        raise InvalidValue("no checkpoints to merge")
    _check_compatible(ckpts)
    if weights is not None and len(weights) != len(ckpts):
        raise InvalidValue("one weight per checkpoint required")
    tensors = {
        name: mean_stack([c.tensors[name] for c in ckpts], weights)
        for name in sorted(ckpts[0].tensors)
    }
    metadata = {"pft.producer": "fapft-soup"}
    for key in ("pft.arch_id", "pft.arch_config"):
        values = {c.metadata.get(key) for c in ckpts}
        if len(values) == 1 and None not in values:
            metadata[key] = values.pop()
    metadata["pft.soup_inputs"] = json.dumps(
        [
            {
                "hash": c.content_hash,
                "weight": 1.0 if weights is None else float(weights[i]),
            }
            for i, c in enumerate(ckpts)
        ],
        sort_keys=True,
    )
    metadata.update(extra_metadata or {})
    return Checkpoint(tensors, metadata)


def _frozen_everywhere(plans: Sequence[FreezePlan], arch: ArchDescriptor):
    trained = set()
    for plan in plans:
        trained.update(plan.trainable_layer_ids)
    return [l for l in arch.layers if l.layer_id not in trained]


def uniform_soup(
    recipe: SoupRecipe, plans: Sequence[FreezePlan] | None = None
) -> Checkpoint:
    """Load a recipe's inputs, check them, and average them.

    With plans attached, every layer frozen in all runs must still match the
    base checkpoint bitwise in every input; a mismatch means the runs did not
    share the base they claim and the soup is refused. ``plans`` are the
    recipe's own, when the caller has already read them with
    :meth:`SoupRecipe.plans`.
    """
    ckpts = _load_inputs(recipe)
    weights = [i.weight for i in recipe.inputs]

    if plans is None:
        plans = recipe.plans()
    if plans is not None:
        base = read_checkpoint(recipe.base)
        arch = arch_from_checkpoint(base)
        for layer in _frozen_everywhere(plans, arch):
            for name in layer.tensors:
                base_tensor = base.tensors.get(name)
                if base_tensor is None:
                    raise IncompatibleCheckpoints(
                        f"base checkpoint lacks tensor {name!r}"
                    )
                for ckpt, inp in zip(ckpts, recipe.inputs):
                    if not ckpt.tensors[name].bitwise_equal(base_tensor):
                        raise IncompatibleCheckpoints(
                            f"{inp.path}: frozen tensor {name!r} differs from the base"
                        )
    return uniform_soup_checkpoints(ckpts, weights)


def _load_inputs(recipe: SoupRecipe) -> list[Checkpoint]:
    # read-only loads may proceed concurrently; PFT_THREADS caps the fan-out
    from .runtime import thread_cap

    paths = [i.path for i in recipe.inputs]
    cap = thread_cap()
    if cap > 1 and len(paths) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=min(cap, len(paths))) as pool:
            return list(pool.map(read_checkpoint, paths))
    return [read_checkpoint(p) for p in paths]


def soup_param_total(plans: Sequence[FreezePlan], num_classes: int) -> int:
    """Sum of each run's exact trainable-parameter count."""
    arch_ids = {p.arch_id for p in plans}
    if len(arch_ids) > 1:
        raise IncompatibleReports(f"mixed architectures: {sorted(arch_ids)}")
    return sum(p.trainable_param_count(num_classes) for p in plans)


def soup_manifest(
    mode: str,
    inputs: Sequence[tuple[str, str, float]],
    output_hash: str,
    plans: Sequence[FreezePlan] | None,
    classes: int | None,
) -> dict:
    """The manifest written beside a soup checkpoint.

    ``inputs`` are (path, content hash, weight) triples in merge order. The
    parameter totals are filled in when both the runs' plans and a class
    count are known.
    """
    param_total = display = None
    if plans is not None and classes is not None:
        param_total = soup_param_total(plans, classes)
        display = soup_millions_str(p.trainable_param_count(classes) for p in plans)
    return {
        "mode": mode,
        "output_hash": output_hash,
        "inputs": [{"path": p, "hash": h, "weight": w} for p, h, w in inputs],
        "param_total": param_total,
        "param_total_display": display,
        "classes": classes,
    }


def greedy_soup(
    candidates: Sequence[Checkpoint],
    evaluate: Callable[[Checkpoint], float],
) -> Checkpoint:
    """Held-out-guided soup: keep a candidate only if it does not hurt.

    Candidates are sorted by their own evaluation, best first; each is added
    to the running uniform average iff the average's evaluation does not
    decrease. ``evaluate`` must be deterministic.
    """
    if not candidates:
        raise InvalidValue("no candidates for greedy soup")

    def score(ckpt: Checkpoint) -> float:
        try:
            value = float(evaluate(ckpt))
        except Exception as exc:  # noqa: BLE001 - caller's eval can fail arbitrarily
            raise EvaluationError(f"evaluation failed: {exc}") from exc
        if not math.isfinite(value):
            raise EvaluationError(f"evaluation returned non-finite {value}")
        return value

    scores = [score(c) for c in candidates]
    order = sorted(range(len(candidates)), key=lambda i: (-scores[i], i))
    kept = [candidates[order[0]]]
    current = score(uniform_soup_checkpoints(kept))
    for idx in order[1:]:
        trial = uniform_soup_checkpoints(kept + [candidates[idx]])
        trial_score = score(trial)
        if trial_score >= current:
            kept.append(candidates[idx])
            current = trial_score
    return uniform_soup_checkpoints(kept)
