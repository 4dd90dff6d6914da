"""Model soups: weight averaging across fine-tuned checkpoints.

Partial fine-tuning adds a dimension to souping: runs can differ only in
which layers were trainable. When per-run freeze plans and the shared base
checkpoint are supplied, the merger verifies that layers frozen in every run
are still bitwise equal to the base. The soup then keeps them bitwise, since
their mean is a mean of identical values, with one exception: an element
that is -0.0 becomes +0.0 when two or more runs are averaged, as in any
float64 mean (a soup of one run keeps it).

A soup is an elementwise mean, so it needs one chunk at a time: the files of
a recipe are streamed in step, chunk by chunk, straight into the output file,
and a chunk that no run changed is copied rather than averaged. The files
share one 4 MB budget of chunk buffers, so more inputs make shorter chunks
(``checkpoint.chunk_length``), and the merge reuses one set of scratch
buffers of a chunk each: memory stays flat whatever the tensor sizes and the
number of inputs.

The soup's headline parameter figure is the sum of the per-run trainable
counts, not the merged model's size: a soup costs every run's fine-tuning.
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .arch import ArchDescriptor, FreezePlan, describe_arch, plan_from_json, soup_millions_str
from .checkpoint import (
    _MIN_CHUNK,
    Checkpoint,
    CheckpointReader,
    canonical_header,
    chunk_length,
    read_checkpoint_metadata,
    read_text,
    write_all,
    write_atomic,
    zip_chunks,
)
from .errors import (
    EvaluationError,
    FormatError,
    IncompatibleCheckpoints,
    IncompatibleReports,
    InvalidValue,
)
from .tensors import _MEAN_BLOCK, Tensor, bits_equal, mean_arrays, mean_weights

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


def _recipe_path(value, field: str, optional: bool = False) -> str | None:
    """A file name in a recipe: a string without NUL bytes (no file name
    holds one); None, an absent field, only when ``optional``."""
    if value is None and optional:
        return None
    if not isinstance(value, str) or "\0" in value:
        raise FormatError(f"recipe {field} must be a file name, got {value!r}")
    return value


def _recipe_weight(value) -> float:
    # a bool is not a number, though Python counts it as an int
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FormatError(f"recipe weight must be a number, got {value!r}")
    return float(value)


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
        # refuses a weight sum so large that a float64 mean would overflow
        mean_weights([i.weight for i in self.inputs], len(self.inputs))
        if self.mode == "greedy" and any(i.weight != 1.0 for i in self.inputs):
            raise FormatError("a greedy soup averages uniformly; its input weights must be 1.0")
        if any(i.plan_path for i in self.inputs) and self.base is None:
            raise FormatError("recipe attaches plans but names no base checkpoint")

    @classmethod
    def from_json(cls, data) -> "SoupRecipe":
        if isinstance(data, (str, bytes)):
            try:
                data = json.loads(data)
            except ValueError as exc:  # also an int of too many digits
                raise FormatError(f"malformed recipe JSON: {exc}") from exc
        try:
            inputs = tuple(
                SoupInput(
                    path=_recipe_path(entry["path"], "path"),
                    weight=_recipe_weight(entry.get("weight", 1.0)),
                    plan_path=_recipe_path(entry.get("plan"), "plan", optional=True),
                )
                for entry in data["inputs"]
            )
        # OverflowError: a weight that is an int beyond the float range
        except (KeyError, TypeError, OverflowError) as exc:
            raise FormatError(f"malformed recipe: {exc}") from exc
        mode = data.get("mode", "uniform")
        base = _recipe_path(data.get("base"), "base", optional=True)
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


def _check_compatible(sources) -> dict[str, tuple[int, ...]]:
    """The first source's tensor shapes, after checking every other source's
    names and shapes against them."""
    first = sources[0].shapes
    for source in sources[1:]:
        shapes = source.shapes
        if shapes.keys() != first.keys():
            extra = sorted(shapes.keys() ^ first.keys())[:5]
            raise IncompatibleCheckpoints(f"tensor name sets differ; mismatched names: {extra}")
        for name, shape in first.items():
            if shapes[name] != shape:
                raise IncompatibleCheckpoints(f"tensor {name!r} has shape {shapes[name]} vs {shape}")
    return first


def _mean_of_equal(arrays: Sequence[np.ndarray], out: np.ndarray | None = None) -> np.ndarray:
    """The unweighted mean of arrays that hold the same bits, without arithmetic.

    N <= 2**29 equal float32 values sum exactly in float64 and divide back
    exactly, so the mean is the input itself, except where an element is
    -0.0: the float64 mean of two or more is +0.0 there, and adding +0.0 in
    float32 (into ``out``) clears just that sign.
    """
    return np.add(arrays[0], np.float32(0), out=out) if len(arrays) > 1 else arrays[0]


def _merged(inputs, weights, base=None, frozen=frozenset()):
    """(name, start, mean) for every chunk of ``inputs`` (checked compatible),
    in name and offset order, taking one chunk of each input at a time. With
    ``base`` (its ``frozen`` shapes checked by :func:`_frozen_names`), the
    inputs' tensors named in ``frozen`` must equal the base's bitwise,
    and every base tensor is read, and so validated, on the way; a mismatch
    is raised once the tensor's last chunk is taken, naming the first input
    that differs anywhere in it.

    With every weight 1.0, a chunk that no input changed is copied
    (:func:`_mean_of_equal`); any other chunk is averaged in float64. A mean
    is valid until the next one is taken: the merge writes every chunk into
    one set of buffers, allocated here."""
    unit = all(w == 1.0 for w in weights)
    sources = list(inputs) + ([base] if base is not None else [])
    sizes = {name: math.prod(shape) for name, shape in inputs[0].shapes.items()}
    length = min(chunk_length(len(sources)), max(sizes.values(), default=0))
    out = np.empty(length, np.float32)  # the mean of a chunk
    mask = np.empty(length, bool)  # the bitwise comparisons
    work = np.empty((2, min(length, _MEAN_BLOCK)))  # the float64 sums
    # the first input whose current frozen tensor differs from the base; a
    # mismatch raises at the end of its tensor, so this never carries over
    differs = len(inputs)
    for name, start, chunks in zip_chunks(*sources):
        if base is not None:
            *chunks, reference = chunks
            if chunks[0] is None:
                continue  # a tensor of the base alone
            if name in frozen:
                differs = next(
                    (i for i, c in enumerate(chunks[:differs])
                     if not bits_equal(c, reference, mask)),
                    differs,
                )
                if differs < len(inputs) and start + chunks[0].size == sizes[name]:
                    raise IncompatibleCheckpoints(
                        f"{inputs[differs].path}: frozen tensor {name!r} differs from the base"
                    )
        mean = out[: chunks[0].size]
        if unit and (name in frozen or all(bits_equal(c, chunks[0], mask) for c in chunks[1:])):
            yield name, start, _mean_of_equal(chunks, mean)
        else:
            yield name, start, mean_arrays(chunks, weights, mean, work)


def _soup_metadata(inputs, weights, hashes) -> dict[str, str]:
    """The architecture keys that every input shares, plus the inputs' hashes and weights."""
    metadata = {}
    for key in ("pft.arch_id", "pft.arch_config"):
        values = {inp.metadata.get(key) for inp in inputs}
        if len(values) == 1 and None not in values:
            metadata[key] = values.pop()
    metadata["pft.producer"] = "fapft-soup"
    metadata["pft.soup_inputs"] = json.dumps(
        [{"hash": h, "weight": w} for h, w in zip(hashes, weights)], sort_keys=True
    )
    return metadata


def uniform_soup_checkpoints(
    ckpts: Sequence[Checkpoint], weights: Sequence[float] | None = None
) -> Checkpoint:
    """Weighted elementwise mean of already-loaded checkpoints."""
    weights = mean_weights(weights, len(ckpts))
    if not ckpts:
        raise InvalidValue("no checkpoints to merge")
    means = {name: np.empty(shape, np.float32) for name, shape in _check_compatible(ckpts).items()}
    for name, start, mean in _merged(ckpts, weights):
        means[name].reshape(-1)[start : start + mean.size] = mean
    tensors = {name: Tensor(mean, name=name) for name, mean in means.items()}
    return Checkpoint(tensors, _soup_metadata(ckpts, weights, [c.content_hash for c in ckpts]))


def uniform_soup(
    recipe: SoupRecipe, out, plans: Sequence[FreezePlan] | None = None
) -> tuple[str, list[str]]:
    """Average a recipe's inputs into the checkpoint file ``out``, tensor by
    tensor; returns the soup's content hash and the inputs' hashes in recipe
    order.

    Every input (and the base) is streamed in step, so memory holds a few
    chunks, not a tensor. With plans attached, every layer frozen in all
    runs must still match the base checkpoint bitwise in every input; a
    mismatch means the runs did not share the base they claim and the soup is
    refused. ``plans`` are the recipe's own, when the caller has already read
    them with :meth:`SoupRecipe.plans`. The write is atomic: on any error,
    even midway, no file is left behind.
    """
    if plans is None:
        plans = recipe.plans()
    weights = [i.weight for i in recipe.inputs]
    with ExitStack() as stack:
        base = None
        if plans is not None:
            base = stack.enter_context(CheckpointReader(recipe.base, hashed=False))
        inputs = [stack.enter_context(CheckpointReader(i.path)) for i in recipe.inputs]
        frozen = _frozen_names(base, plans, inputs) if base is not None else frozenset()
        shapes = _check_compatible(inputs)
        # the header goes in last, once the input hashes are known; each is 64
        # hex digits, so its length is known now
        unknown = ["0" * 64] * len(inputs)
        header_len = len(canonical_header(shapes.items(), _soup_metadata(inputs, weights, unknown)))
        with write_atomic(out) as fh:
            fh.seek(header_len)
            for _, _, mean in _merged(inputs, weights, base, frozen):
                write_all(fh, mean)
            hashes = [inp.content_hash for inp in inputs]
            header = canonical_header(shapes.items(), _soup_metadata(inputs, weights, hashes))
            assert len(header) == header_len
            fh.seek(0)
            write_all(fh, header)
            fh.seek(0)
            output_hash = _sha256_file(fh)
    return output_hash, hashes


def _sha256_file(fh) -> str:
    digest = hashlib.sha256()
    block = bytearray(_MIN_CHUNK * 4)  # the bytes of the shortest float32 chunk
    while got := fh.readinto(block):
        digest.update(memoryview(block)[:got])
    return digest.hexdigest()


def _frozen_names(base, plans: Sequence[FreezePlan], inputs) -> frozenset[str]:
    """The tensors of the layers that no plan trains, after checking that the
    base and every input have them, with one shape.

    Chunks are flat, so the shapes are compared here: the same bytes under
    another shape are another tensor."""
    trained = {layer_id for plan in plans for layer_id in plan.trainable_layer_ids}
    layers = arch_from_checkpoint(base.metadata).layers
    frozen = [name for l in layers if l.layer_id not in trained for name in l.tensors]
    for name in frozen:
        if name not in base.shapes:
            raise IncompatibleCheckpoints(f"base checkpoint lacks tensor {name!r}")
    for inp in inputs:
        for name in frozen:
            if name not in inp.shapes:
                raise IncompatibleCheckpoints(f"{inp.path}: lacks frozen tensor {name!r}")
            if inp.shapes[name] != base.shapes[name]:
                raise IncompatibleCheckpoints(
                    f"{inp.path}: frozen tensor {name!r} differs from the base"
                )
    return frozenset(frozen)


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
