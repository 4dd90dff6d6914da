"""Model soups: weight averaging across fine-tuned checkpoints.

Partial fine-tuning adds a dimension to souping: runs can differ only in
which tensors were trainable. When per-run freeze plans and the shared base
checkpoint are supplied, the merger verifies that the tensors no plan trains
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

import json
import math
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .arch import ArchDescriptor, FreezePlan, describe_arch, plan_from_json, soup_millions_str
from .checkpoint import (
    Checkpoint,
    CheckpointReader,
    canonical_header,
    chunk_length,
    read_checkpoint,
    read_text,
    write_all,
    write_atomic,
    zip_chunks,
)
from .errors import (
    DataError,
    EvaluationError,
    FormatError,
    IncompatibleCheckpoints,
    IncompatiblePlan,
    IncompatibleReports,
    InvalidValue,
    parse_json,
    reading,
    require_shapes,
)
from .tensors import bits_equal, mean_arrays, mean_scratch, mean_weights

__all__ = [
    "SoupInput",
    "SoupRecipe",
    "uniform_soup",
    "uniform_soup_checkpoints",
    "greedy_soup",
    "soup_param_total",
    "soup_manifest",
    "arch_from_checkpoint",
    "read_inputs",
]


def arch_from_checkpoint(ckpt: Checkpoint | CheckpointReader | Mapping) -> ArchDescriptor:
    """Rebuild the descriptor recorded in a toolkit-produced checkpoint, a
    reader of one, or its metadata map; a reader's errors name its file."""
    if isinstance(ckpt, CheckpointReader):
        try:
            return arch_from_checkpoint(ckpt.metadata)
        except DataError as exc:
            raise type(exc)(f"{ckpt.path}: {exc}") from exc
    metadata = ckpt.metadata if isinstance(ckpt, Checkpoint) else ckpt
    arch_id = metadata.get("pft.arch_id")
    if arch_id is None:
        raise FormatError("checkpoint has no pft.arch_id metadata")
    config = metadata.get("pft.arch_config")
    dims = {} if config is None else parse_json(config, "pft.arch_config metadata")
    if not isinstance(dims, dict):
        raise FormatError(f"pft.arch_config metadata must be a JSON object, got {config!r}")
    dims.pop("num_classes", None)
    with reading("pft.arch_config metadata"):
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
        data = parse_json(data, "recipe")
        with reading("recipe"):
            inputs = tuple(
                SoupInput(
                    path=_recipe_path(entry["path"], "path"),
                    weight=_recipe_weight(entry.get("weight", 1.0)),
                    plan_path=_recipe_path(entry.get("plan"), "plan", optional=True),
                )
                for entry in data["inputs"]
            )
            base = _recipe_path(data.get("base"), "base", optional=True)
            return cls(inputs=inputs, mode=data.get("mode", "uniform"), base=base)

    @classmethod
    def from_file(cls, path) -> "SoupRecipe":
        return cls.from_json(read_text(path))

    def plans(self) -> list[FreezePlan] | None:
        """Each input's freeze plan, resolved against the model that the base
        checkpoint's header declares; None when the recipe attaches no plans."""
        if not any(i.plan_path for i in self.inputs):
            return None
        with CheckpointReader(self.base, hashed=False) as base:
            arch = arch_from_checkpoint(base)
        plans = []
        for inp in self.inputs:
            if inp.plan_path is None:
                raise FormatError(f"input {inp.path} has no plan but others do")
            plans.append(plan_from_json(read_text(inp.plan_path), arch))
        return plans


def _check_compatible(sources, paths=()) -> dict[str, tuple[int, ...]]:
    """The first source's tensor shapes, after checking every other source
    against them; a source is named by its path in ``paths``, else as
    ``input i``, counting from 1."""
    first = sources[0].shapes
    for i, source in enumerate(sources[1:], 1):
        require_shapes(source.shapes, first, paths[i] if paths else f"input {i + 1}", "first input")
    return first


def _mean_of_equal(arrays: Sequence[np.ndarray], out: np.ndarray | None = None) -> np.ndarray:
    """The unweighted mean of arrays that hold the same bits, without arithmetic.

    N <= 2**29 equal float32 values sum exactly in float64 and divide back
    exactly, so the mean is the input itself, except where an element is
    -0.0: the float64 mean of two or more is +0.0 there, and adding +0.0 in
    float32 (into ``out``) clears just that sign.
    """
    return np.add(arrays[0], np.float32(0), out=out) if len(arrays) > 1 else arrays[0]


def _checked_chunks(inputs, base, frozen, paths, mask):
    """(name, start, chunks) for every chunk of ``inputs`` (checked
    compatible), in name and offset order, taking one chunk of each input and
    of ``base`` at a time, so that every base tensor is read, and so
    validated, on the way. The inputs' tensors named in ``frozen`` (their
    shapes checked by :func:`_frozen_names`) must equal the base's bitwise; a
    mismatch is raised once the tensor's last chunk is taken, naming the path
    (in ``paths``) of the first input that differs anywhere in it. ``mask``,
    a bool array a chunk long, holds the comparisons."""
    sizes = {name: math.prod(shape) for name, shape in inputs[0].shapes.items()}
    # the first input whose current frozen tensor differs from the base; a
    # mismatch raises at the end of its tensor, so this never carries over
    differs = len(inputs)
    for name, start, chunks in zip_chunks(*inputs, base):
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
                    f"{paths[differs]}: frozen tensor {name!r} differs from the base"
                )
        yield name, start, chunks


def _merged(inputs, weights, base=None, frozen=frozenset(), paths=()):
    """(name, start, mean) for every chunk of ``inputs`` (checked compatible),
    in name and offset order, taking one chunk of each input at a time. With
    ``base``, the chunks are those of :func:`_checked_chunks`, which checks
    the ``frozen`` tensors against the base.

    With every weight 1.0, a chunk that no input changed is copied
    (:func:`_mean_of_equal`); any other chunk is averaged in float64. A mean
    is valid until the next one is taken: the merge writes every chunk into
    one set of buffers, allocated here."""
    unit = all(w == 1.0 for w in weights)
    sizes = [math.prod(shape) for shape in inputs[0].shapes.values()]
    length = min(chunk_length(len(inputs) + (base is not None)), max(sizes, default=0))
    out = np.empty(length, np.float32)  # the mean of a chunk
    mask = np.empty(length, bool)  # the bitwise comparisons
    work = mean_scratch(length)  # the float64 sums
    if base is None:
        steps = zip_chunks(*inputs)
    else:
        steps = _checked_chunks(inputs, base, frozen, paths, mask)
    for name, start, chunks in steps:
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
    return Checkpoint(means, _soup_metadata(ckpts, weights, [c.content_hash for c in ckpts]))


def uniform_soup(
    recipe: SoupRecipe, out, plans: Sequence[FreezePlan] | None = None
) -> tuple[str, list[str]]:
    """Average a recipe's inputs into the checkpoint file ``out``, tensor by
    tensor; returns the soup's content hash and the inputs' hashes in recipe
    order.

    Every input (and the base) is streamed in step, so memory holds a few
    chunks, not a tensor. With plans attached, every tensor that no plan
    trains must still match the base checkpoint bitwise in every input; a
    mismatch means the runs did not share the base they claim and the soup is
    refused. ``plans``, the recipe's own when the caller has already read them
    (:meth:`SoupRecipe.plans`), must be for the base's declared model. The
    write is atomic: on any error, even midway, no file is left behind. Once
    the soup is in place, it is read back through a :class:`CheckpointReader`,
    which checks it as it checks every input and hashes it; if that read
    fails, the soup stays without a manifest and the error is raised.
    """
    if plans is None:
        plans = recipe.plans()
    weights = [i.weight for i in recipe.inputs]
    with ExitStack() as stack:
        base = None
        if plans is not None:
            base = stack.enter_context(CheckpointReader(recipe.base, hashed=False))
        paths = [i.path for i in recipe.inputs]
        inputs = [stack.enter_context(CheckpointReader(path)) for path in paths]
        frozen = _frozen_names(base, plans, inputs, paths) if base is not None else frozenset()
        shapes = _check_compatible(inputs, paths)
        # the header goes in last, once the input hashes are known; each is 64
        # hex digits, so its length is known now
        unknown = ["0" * 64] * len(inputs)
        header_len = len(canonical_header(shapes.items(), _soup_metadata(inputs, weights, unknown)))
        with write_atomic(out) as fh:
            fh.seek(header_len)
            for _, _, mean in _merged(inputs, weights, base, frozen, paths):
                write_all(fh, mean)
            hashes = [inp.content_hash for inp in inputs]
            header = canonical_header(shapes.items(), _soup_metadata(inputs, weights, hashes))
            assert len(header) == header_len
            fh.seek(0)
            write_all(fh, header)
    with CheckpointReader(out) as written:
        for _ in written.chunks():
            pass
    return written.content_hash, hashes


def read_inputs(recipe: SoupRecipe, plans: Sequence[FreezePlan] | None) -> list[Checkpoint]:
    """Every input of ``recipe``, each file read once. With ``plans`` (the
    recipe's own), the inputs must pass :func:`uniform_soup`'s frozen-tensor check."""
    paths = [i.path for i in recipe.inputs]
    inputs = [read_checkpoint(path) for path in paths]
    if plans is not None:
        with CheckpointReader(recipe.base, hashed=False) as base:
            frozen = _frozen_names(base, plans, inputs, paths)
            _check_compatible(inputs, paths)
            mask = np.empty(chunk_length(len(inputs) + 1), bool)
            for _ in _checked_chunks(inputs, base, frozen, paths, mask):
                pass
    return inputs


def _frozen_names(base, plans: Sequence[FreezePlan], inputs, paths) -> frozenset[str]:
    """The base's tensors, non-residual too, that no plan trains, after checking
    that every plan is for the base's declared model, then that the base (a
    reader), then every input (at ``paths``), holds them with its shapes.

    Chunks are flat, so the shapes are compared here: the same bytes under
    another shape are another tensor."""
    arch = arch_from_checkpoint(base)
    for plan in plans:
        if plan.arch != arch:
            raise IncompatiblePlan(f"plan is for {plan.arch!r}, the base's model is {arch!r}")
    trained = frozenset().union(*(plan.trainable_names for plan in plans))
    # every plan trains the head, so the schema of any class count will do
    frozen = {n: shape for n, shape in arch.schema_shapes(1).items() if n not in trained}
    for path, source in [(base.path, base), *zip(paths, inputs)]:
        shapes = source.shapes
        held = {name: shapes[name] for name in frozen if name in shapes}
        require_shapes(held, frozen, path, f"base's {arch.arch_id} model")
    return frozenset(frozen)


def soup_param_total(plans: Sequence[FreezePlan], num_classes: int) -> int:
    """Sum of each run's exact trainable-parameter count."""
    archs = {p.arch for p in plans}
    if len(archs) > 1:
        raise IncompatibleReports(f"mixed architectures: {sorted(map(repr, archs))}")
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
    soup = uniform_soup_checkpoints(kept)
    current = score(soup)
    for idx in order[1:]:
        trial = uniform_soup_checkpoints(kept + [candidates[idx]])
        trial_score = score(trial)
        if trial_score >= current:
            kept.append(candidates[idx])
            soup, current = trial, trial_score
    return soup
