"""Model soups: weight averaging across fine-tuned checkpoints.

Partial fine-tuning adds a dimension to souping: runs can differ only in
which tensors were trainable. When a recipe attaches per-run freeze plans
and names the shared base checkpoint, the merger verifies that the tensors no plan trains
are still bitwise equal to the base. The soup then keeps them bitwise, since
their mean is a mean of identical values, with one exception: an element
that is -0.0 becomes +0.0 when two or more runs are averaged, as in any
float64 mean (a soup of one run keeps it).

A soup is an elementwise mean, so it needs one chunk at a time: the files of
a recipe are streamed in step, chunk by chunk, and every chunk is averaged in
float64 straight into the output file. The files share one 4 MB budget of
chunk buffers, so more inputs make shorter chunks
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
    """A file name in a recipe: a non-empty string without NUL bytes (no file
    name is empty or holds one); None, an absent field, only when ``optional``."""
    if value is None and optional:
        return None
    if not isinstance(value, str) or not value or "\0" in value:
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
    """Inputs, merge mode, and (when plans are attached, to every input) the shared base."""

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
        unplanned = [i for i in self.inputs if i.plan_path is None]
        if len(unplanned) < len(self.inputs):
            if self.base is None:
                raise FormatError("recipe attaches plans but names no base checkpoint")
            if unplanned:
                raise FormatError(f"input {unplanned[0].path} has no plan but others do")

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


def _check_compatible(sources, paths=()) -> dict[str, tuple[int, ...]]:
    """The first source's tensor shapes, after checking every other source
    against them; a source is named by its path in ``paths``, else as
    ``input i``, counting from 1."""
    first = sources[0].shapes
    for i, source in enumerate(sources[1:], 1):
        require_shapes(source.shapes, first, paths[i] if paths else f"input {i + 1}", "first input")
    return first


def _checked_chunks(inputs, base, frozen):
    """(name, start, chunks) for every chunk of ``inputs`` (checked
    compatible), in name and offset order, taking one chunk of each input,
    and of ``base`` when given, at a time, so that every base tensor is read,
    and so validated, on the way. The inputs' tensors named in ``frozen``
    (their shapes checked by :func:`_frozen_names`) must equal the base's
    bitwise; a mismatch is raised once the tensor's last chunk is taken,
    naming the first input (a reader) that differs anywhere in it."""
    if base is None:
        yield from zip_chunks(*inputs)
        return
    sizes = {name: math.prod(shape) for name, shape in inputs[0].shapes.items()}
    mask = np.empty(chunk_length(len(inputs) + 1), bool)  # the bitwise comparisons
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
                    f"{inputs[differs].path}: frozen tensor {name!r} differs from the base"
                )
        yield name, start, chunks


def _merged(inputs, weights, base=None, frozen=frozenset()):
    """(name, start, mean) for every chunk of ``inputs`` (checked compatible),
    in name and offset order: the float64 mean (:func:`mean_arrays`) of the
    chunks of :func:`_checked_chunks`, which checks the ``frozen`` tensors
    against ``base`` when given. A mean is valid until the next one is taken:
    the merge writes every chunk into one set of buffers, allocated here."""
    sizes = [math.prod(shape) for shape in inputs[0].shapes.values()]
    length = min(chunk_length(len(inputs) + (base is not None)), max(sizes, default=0))
    out = np.empty(length, np.float32)  # the mean of a chunk
    work = mean_scratch(length)  # the float64 sums
    for name, start, chunks in _checked_chunks(inputs, base, frozen):
        yield name, start, mean_arrays(chunks, weights, out[: chunks[0].size], work)


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
    if not ckpts:
        raise InvalidValue("no checkpoints to merge")
    weights = mean_weights(weights, len(ckpts))
    means = {name: np.empty(shape, np.float32) for name, shape in _check_compatible(ckpts).items()}
    for name, start, mean in _merged(ckpts, weights):
        means[name].reshape(-1)[start : start + mean.size] = mean
    return Checkpoint(means, _soup_metadata(ckpts, weights, [c.content_hash for c in ckpts]))


def _open_recipe(recipe: SoupRecipe, stack: ExitStack, hashed: bool):
    """The base (None without plans) and the inputs of ``recipe`` as readers
    entered on ``stack``, each input's plan (None without plans), the frozen
    tensors' names and the inputs' shapes, once every header is checked and
    before any tensor data is read. The only reader of a recipe's plans: each
    input's plan file is read once, for the model the base's header declares."""
    base = plans = None
    if recipe.inputs[0].plan_path is not None:  # a recipe plans every input or none
        base = stack.enter_context(CheckpointReader(recipe.base, hashed=False))
        arch = arch_from_checkpoint(base)
        plans = [plan_from_json(read_text(i.plan_path), arch) for i in recipe.inputs]
    inputs = [stack.enter_context(CheckpointReader(i.path, hashed)) for i in recipe.inputs]
    frozen = frozenset() if plans is None else _frozen_names(base, arch, plans, inputs)
    return base, inputs, plans, frozen, _check_compatible(inputs, [r.path for r in inputs])


def uniform_soup(recipe: SoupRecipe, out) -> tuple[str, list[str], list[FreezePlan] | None]:
    """Average a recipe's inputs into the checkpoint file ``out``, tensor by
    tensor; returns the soup's content hash, then the inputs' hashes and the
    plans they were checked by (None without plans), both in recipe order.

    Every input (and the base) is streamed in step, so memory holds a few
    chunks, not a tensor, once :func:`_open_recipe` has checked every header.
    With plans attached, every tensor that no plan trains must still match
    the base checkpoint bitwise in every input; a mismatch means the runs did
    not share the base they claim and the soup is refused. The write is
    atomic: on any error, even midway, no file is left behind. Once the soup
    is in place, it is read back through a :class:`CheckpointReader`, which
    checks it as it checks every input and hashes it; if that read fails, the
    soup stays without a manifest and the error is raised.
    """
    weights = [i.weight for i in recipe.inputs]
    with ExitStack() as stack:
        base, inputs, plans, frozen, shapes = _open_recipe(recipe, stack, hashed=True)
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
    with CheckpointReader(out) as written:
        for _ in zip_chunks(written):
            pass
    return written.content_hash, hashes, plans


def read_inputs(recipe: SoupRecipe) -> tuple[list[Checkpoint], list[FreezePlan] | None]:
    """Every input of ``recipe`` in memory, each file read once, and the plans
    they were checked by (None without plans), both in recipe order, with the
    checks of :func:`uniform_soup`: every header before any tensor data, and
    with plans attached, each frozen tensor against the base's as it is read."""
    with ExitStack() as stack:
        base, inputs, plans, frozen, shapes = _open_recipe(recipe, stack, hashed=False)
        arrays = [{n: np.empty(shape, np.float32) for n, shape in shapes.items()} for _ in inputs]
        for name, start, chunks in _checked_chunks(inputs, base, frozen):
            for held, chunk in zip(arrays, chunks):
                held[name].reshape(-1)[start : start + chunk.size] = chunk
    return [Checkpoint(held, inp.metadata) for held, inp in zip(arrays, inputs)], plans


def _frozen_names(base, arch: ArchDescriptor, plans, inputs) -> frozenset[str]:
    """The base's tensors, non-residual too, that no plan trains, after checking
    that the base, then every input (all readers), holds them with the shapes
    of ``arch``, the model the base declares and the plans were read for.

    Chunks are flat, so the shapes are compared here: the same bytes under
    another shape are another tensor."""
    trained = frozenset().union(*(plan.trainable_names for plan in plans))
    # every plan trains the head, so the schema of any class count will do
    frozen = {n: shape for n, shape in arch.schema_shapes(1).items() if n not in trained}
    for source in (base, *inputs):
        held = {name: source.shapes[name] for name in frozen if name in source.shapes}
        require_shapes(held, frozen, source.path, f"base's {arch.arch_id} model")
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
