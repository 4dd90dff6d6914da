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
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .arch import ArchDescriptor, FreezePlan, describe_arch, plan_from_json, soup_millions_str
from .checkpoint import Checkpoint, read_checkpoint, read_checkpoint_metadata, read_text
from .errors import (
    EvaluationError,
    FormatError,
    IncompatibleCheckpoints,
    IncompatibleReports,
    InvalidValue,
)
from .runtime import thread_cap
from .tensors import Tensor, mean_weights

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


def _merge(ckpts: Iterable[Checkpoint], weights: Sequence[float]) -> Checkpoint:
    """Weighted elementwise mean of checkpoints taken one at a time, one
    validated weight each; every input is checked against the first one's
    tensor names and shapes, added into float64 sums, and released before the
    next one is taken."""
    sums: dict[str, np.ndarray] = {}
    shared = {"pft.arch_id": set(), "pft.arch_config": set()}
    inputs: list[dict] = []
    for ckpt in ckpts:
        weight = weights[len(inputs)]
        if not inputs:
            sums = {
                name: np.multiply(t.array, weight, dtype=np.float64)
                for name, t in ckpt.tensors.items()
            }
        elif ckpt.tensors.keys() != sums.keys():
            extra = sorted(ckpt.tensors.keys() ^ sums.keys())[:5]
            raise IncompatibleCheckpoints(f"tensor name sets differ; mismatched names: {extra}")
        else:
            for name, acc in sums.items():
                if ckpt.tensors[name].shape != acc.shape:
                    raise IncompatibleCheckpoints(
                        f"tensor {name!r} has shape {ckpt.tensors[name].shape} vs {acc.shape}"
                    )
                acc += np.multiply(ckpt.tensors[name].array, weight, dtype=np.float64)
        for key, values in shared.items():
            values.add(ckpt.metadata.get(key))
        inputs.append({"hash": ckpt.content_hash, "weight": weight})
        del ckpt  # its tensors are views of the whole file: free it before the next read
    if not inputs:
        raise InvalidValue("no checkpoints to merge")

    tensors = {}
    for name in sorted(sums):
        acc = sums.pop(name)
        if len(inputs) > 1:
            # seeding the sums with the first input makes an element that is -0.0
            # in every input -0.0; a mean is +0.0 there, as in mean_stack
            acc += 0.0
        acc /= sum(weights)
        tensors[name] = Tensor(acc.astype(np.float32), name=name)
    metadata = {k: v.pop() for k, v in shared.items() if len(v) == 1 and None not in v}
    metadata["pft.producer"] = "fapft-soup"
    metadata["pft.soup_inputs"] = json.dumps(inputs, sort_keys=True)
    return Checkpoint(tensors, metadata)


def uniform_soup_checkpoints(
    ckpts: Sequence[Checkpoint], weights: Sequence[float] | None = None
) -> Checkpoint:
    """Weighted elementwise mean of already-loaded checkpoints."""
    return _merge(ckpts, mean_weights(weights, len(ckpts)))


def uniform_soup(
    recipe: SoupRecipe, plans: Sequence[FreezePlan] | None = None
) -> Checkpoint:
    """Average a recipe's inputs, read one at a time: peak memory is the base,
    one input and the float64 sums.

    With plans attached, every layer frozen in all runs must still match the
    base checkpoint bitwise in every input; a mismatch means the runs did not
    share the base they claim and the soup is refused. ``plans`` are the
    recipe's own, when the caller has already read them with
    :meth:`SoupRecipe.plans`.
    """
    thread_cap()  # PFT_THREADS is still checked, though nothing fans out
    if plans is None:
        plans = recipe.plans()
    return _merge(_read_inputs(recipe, plans), [i.weight for i in recipe.inputs])


def _read_inputs(recipe: SoupRecipe, plans: Sequence[FreezePlan] | None):
    """A recipe's input checkpoints, each read once the previous one is
    released and, with plans, checked against the base."""
    base, frozen = None, []
    if plans is not None:
        base = read_checkpoint(recipe.base)
        trained = {layer_id for plan in plans for layer_id in plan.trainable_layer_ids}
        layers = arch_from_checkpoint(base).layers
        frozen = [name for l in layers if l.layer_id not in trained for name in l.tensors]
        for name in frozen:
            if name not in base.tensors:
                raise IncompatibleCheckpoints(f"base checkpoint lacks tensor {name!r}")
    for inp in recipe.inputs:
        ckpt = read_checkpoint(inp.path)
        for name in frozen:
            if name not in ckpt.tensors:
                raise IncompatibleCheckpoints(f"{inp.path}: lacks frozen tensor {name!r}")
            if not ckpt.tensors[name].bitwise_equal(base.tensors[name]):
                raise IncompatibleCheckpoints(
                    f"{inp.path}: frozen tensor {name!r} differs from the base"
                )
        yield ckpt
        del ckpt  # before the next read


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
