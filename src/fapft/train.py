"""Deterministic desk-scale pre-training and fine-tuning with layer-level freezing.

A run is fully specified by a :class:`TrainConfig`: model dimensions, AdamW
settings, cosine-with-warmup schedule, seed, synthetic data spec, which task
variant to train on, and an optional freeze plan. Identical configs produce
byte-identical final checkpoints.

Frozen tensors receive no updates and carry no optimizer state, so they stay
bitwise equal to their initialization for any number of epochs. They also
cost no backward work, and when ``pos_embed`` and the lowest blocks are
frozen, the hidden state entering the first trainable block is computed once
per run and every step starts there.

Memory follows the batch, not the split. A run keeps only its own task's
tokens, dataset generation holds one task's float64 noise at a time, and
the passes over a whole split (the frozen prefix and each epoch's
validation accuracy) run in the model's ``_SLICE``-sample slices.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .arch import ArchDescriptor, FreezePlan, linear_probe_plan, plan_from_json
from .angles import AngleReport, compute_angles
from .checkpoint import Checkpoint
from .errors import (
    DimensionMismatch,
    DivergenceError,
    EmptyInput,
    IncompatiblePlan,
    InvalidValue,
    parse_json,
    reading,
    require_finite,
    require_int,
)
from .model import (
    ModelDims,
    _checked_params,
    hidden_state,
    init_params,
    loss_and_grads,
    predict,
    reinit_head,
)
from .planner import FapftPolicy, plan_fapft, plan_series
from .soup import uniform_soup_checkpoints

__all__ = [
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
    "cosine_warmup_lr",
]

# independent rng streams per purpose, mixed with the run seed
_STREAM_INIT = 101
_STREAM_HEAD = 202
_STREAM_SHUFFLE = 303
_STREAM_DATA = 404
_STREAM_GRADCHECK = 505

TASKS = ("pretrain", "finetune")


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticSpec:
    """Token-classification data: per-class centers plus Gaussian token noise.

    One spec defines two tasks sharing class structure: the pre-training task
    samples around the base centers, the fine-tuning task around centers
    relocated by ``shift_magnitude`` along a fixed random unit direction per
    class. Zero shift makes the tasks identical; larger shifts play the role
    of harder downstream datasets.
    """

    num_classes: int
    seq_len: int
    samples_per_class: int
    feature_dim: int
    class_center_scale: float = 1.0
    noise_scale: float = 0.25
    shift_magnitude: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("num_classes", "seq_len", "samples_per_class", "feature_dim", "seed"):
            require_int(name, getattr(self, name), 0 if name == "seed" else 1)
        for name in ("class_center_scale", "noise_scale", "shift_magnitude"):
            require_finite(name, getattr(self, name))
            if getattr(self, name) < 0:
                raise InvalidValue(f"{name} must be >= 0")
        # the 80/20 split needs 2 samples to leave one for training and one for validation
        if self.num_classes * self.samples_per_class < 2:
            raise InvalidValue("dataset must hold at least 2 samples per task")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data) -> "SyntheticSpec":
        with reading("dataset spec"):
            return cls(**data)


@dataclass(frozen=True)
class SyntheticDataset:
    spec: SyntheticSpec
    pretrain_x: np.ndarray
    pretrain_y: np.ndarray
    finetune_x: np.ndarray
    finetune_y: np.ndarray
    base_centers: np.ndarray
    shifted_centers: np.ndarray

    def task_split(self, task: str):
        """(x_train, y_train, x_val, y_val) with the fixed 80/20 index split."""
        if task not in TASKS:
            raise InvalidValue(f"task must be one of {TASKS}")
        x = self.pretrain_x if task == "pretrain" else self.finetune_x
        y = self.pretrain_y if task == "pretrain" else self.finetune_y
        cut = int(0.8 * len(y))
        return x[:cut], y[:cut], x[cut:], y[cut:]

    def content_hash(self) -> str:
        digest = hashlib.sha256()
        for arr in (self.pretrain_x, self.pretrain_y, self.finetune_x, self.finetune_y):
            digest.update(arr.tobytes())
        return digest.hexdigest()


def generate_dataset(spec: SyntheticSpec) -> SyntheticDataset:
    """Deterministic dataset generation; identical specs give identical bytes."""
    rng = np.random.default_rng([spec.seed, _STREAM_DATA])
    c, d, t = spec.num_classes, spec.feature_dim, spec.seq_len
    n = c * spec.samples_per_class

    centers = rng.normal(0.0, spec.class_center_scale, size=(c, d))
    directions = rng.normal(size=(c, d))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    shifted = centers + spec.shift_magnitude * directions

    y = (np.arange(n) % c).astype(np.int64)

    def tokens(around):
        # one task's float64 noise, scaled and shifted in place: the same
        # IEEE operations as around + noise_scale * noise
        noise = rng.normal(size=(n, t, d))
        noise *= spec.noise_scale
        noise += around[y][:, None, :]
        return noise.astype(np.float32)

    pre_x = tokens(centers)  # the pre-training task is drawn first
    ft_x = tokens(shifted)
    return SyntheticDataset(
        spec=spec,
        pretrain_x=pre_x,
        pretrain_y=y,
        finetune_x=ft_x,
        finetune_y=y.copy(),
        base_centers=centers,
        shifted_centers=shifted,
    )


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OptimizerConfig:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 0.05

    def __post_init__(self):
        for name in ("learning_rate", "beta1", "beta2", "epsilon", "weight_decay"):
            require_finite(name, getattr(self, name))
        if self.learning_rate <= 0 or self.epsilon <= 0:
            raise InvalidValue("learning_rate and epsilon must be positive")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise InvalidValue("betas must lie in [0, 1)")
        if self.weight_decay < 0:
            raise InvalidValue("weight_decay must be >= 0")


@dataclass(frozen=True)
class ScheduleConfig:
    epochs: int
    warmup_epochs: int
    batch_size: int

    def __post_init__(self):
        require_int("epochs", self.epochs, 1)
        require_int("batch_size", self.batch_size, 1)
        require_int("warmup_epochs", self.warmup_epochs, 0)
        if self.warmup_epochs > self.epochs:
            raise InvalidValue("warmup_epochs must lie in [0, epochs]")


@dataclass(frozen=True)
class TrainConfig:
    """One run. A ``freeze`` plan for another model than :meth:`descriptor` is
    refused, so the config records only counts of the tensors its run updates."""

    arch: ModelDims
    optimizer: OptimizerConfig
    schedule: ScheduleConfig
    seed: int
    dataset: SyntheticSpec
    task: str = "finetune"
    freeze: FreezePlan | None = None

    def __post_init__(self):
        require_int("seed", self.seed, 0)
        if self.task not in TASKS:
            raise InvalidValue(f"task must be one of {TASKS}")
        if self.dataset.feature_dim != self.arch.model_dim:
            raise InvalidValue("dataset feature_dim must equal model_dim")
        if self.dataset.seq_len != self.arch.seq_len:
            raise InvalidValue("dataset seq_len must equal the model seq_len")
        if self.dataset.num_classes > self.arch.num_classes:
            raise InvalidValue("dataset num_classes must be <= the model num_classes")
        if self.freeze is not None and self.freeze.arch != self.descriptor():
            raise IncompatiblePlan(
                f"plan is for {self.freeze.arch!r}, the config's model is {self.descriptor()!r}"
            )

    def descriptor(self) -> ArchDescriptor:
        return self.arch.descriptor

    def to_json_obj(self) -> dict:
        return {
            "arch": self.arch.to_dict(),
            "optimizer": asdict(self.optimizer),
            "schedule": asdict(self.schedule),
            "seed": self.seed,
            "dataset": self.dataset.to_dict(),
            "task": self.task,
            "freeze": self.freeze.to_json_obj() if self.freeze else None,
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True) + "\n"

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.to_json_text().encode()).hexdigest()

    @classmethod
    def from_json(cls, data) -> "TrainConfig":
        data = parse_json(data, "train config")
        with reading("train config"):
            config = cls(
                arch=ModelDims(**data["arch"]),
                optimizer=OptimizerConfig(**data["optimizer"]),
                schedule=ScheduleConfig(**data["schedule"]),
                seed=data["seed"],
                dataset=SyntheticSpec.from_dict(data["dataset"]),
                task=data.get("task", "finetune"),
                freeze=None,
            )
            if data.get("freeze"):
                plan = plan_from_json(data["freeze"], config.descriptor())
                config = replace(config, freeze=plan)
        return config


# ---------------------------------------------------------------------------
# schedule and optimizer
# ---------------------------------------------------------------------------


def cosine_warmup_lr(step: int, total_steps: int, warmup_steps: int, lr: float) -> float:
    """Linear warmup to ``lr`` then cosine decay to exactly zero at the last step."""
    if warmup_steps > 0 and step < warmup_steps:
        return lr * (step + 1) / warmup_steps
    decay_span = total_steps - warmup_steps
    if decay_span <= 1:
        return 0.0
    progress = (step - warmup_steps) / (decay_span - 1)
    return lr * 0.5 * (1.0 + math.cos(math.pi * progress))


def _uses_weight_decay(name: str) -> bool:
    if name.endswith(".bias"):
        return False
    module = name.split(".")[-2] if "." in name else name
    return module not in ("norm", "norm1", "norm2")


class _AdamW:
    """Decoupled-weight-decay Adam on one flat float64 vector of master weights.

    ``params`` maps each name, in the given order, to a view of ``flat``. The
    trainable tensors fill ``flat[:size]``, the weight-decayed ones first, so
    a step is a dozen whole-range vector operations in the per-tensor
    textbook order; the frozen tensors lie behind that range, untouched.
    """

    def __init__(self, arrays, trainable: frozenset[str], config: OptimizerConfig):
        self.config = config
        self.t = 0
        layout = sorted(arrays, key=lambda n: (n not in trainable, not _uses_weight_decay(n)))
        bounds = np.cumsum([0] + [arrays[n].size for n in layout]).tolist()
        self.flat = np.empty(bounds[-1])
        views = {}
        for name, lo, hi in zip(layout, bounds, bounds[1:]):
            views[name] = self.flat[lo:hi].reshape(arrays[name].shape)
            views[name][...] = arrays[name]
        self.params = {n: views[n] for n in arrays}
        self.trainable = [n for n in layout if n in trainable]
        self.size = bounds[len(self.trainable)]
        self.decayed = bounds[sum(map(_uses_weight_decay, self.trainable))]
        self.m, self.v, self.grad, self._update, self._denom = np.zeros((5, self.size))

    def step(self, grads, lr: float):
        c = self.config
        self.t += 1
        bias1 = 1.0 - c.beta1**self.t
        bias2 = 1.0 - c.beta2**self.t
        g, m, v, u, s = self.grad, self.m, self.v, self._update, self._denom
        np.concatenate([grads[n].ravel() for n in self.trainable], out=g)
        # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
        m *= c.beta1
        m += np.multiply(g, 1.0 - c.beta1, out=u)
        v *= c.beta2
        v += np.multiply(np.multiply(g, 1.0 - c.beta2, out=u), g, out=u)
        # w -= lr ((m / bias1) / (sqrt(v / bias2) + eps) + wd w), wd on [:decayed]
        np.sqrt(np.divide(v, bias2, out=s), out=s)
        s += c.epsilon
        np.divide(np.divide(m, bias1, out=u), s, out=u)
        w, d = self.flat[: self.size], self.decayed
        if c.weight_decay > 0.0:
            u[:d] += np.multiply(w[:d], c.weight_decay, out=s[:d])
        u *= lr
        w -= u


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EpochMetrics:
    epoch: int
    train_loss: float
    val_accuracy: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class RunResult:
    final_checkpoint: Checkpoint
    metrics: tuple[EpochMetrics, ...]
    config: TrainConfig

    @property
    def config_hash(self) -> str:
        return self.config.config_hash

    @property
    def final_val_accuracy(self) -> float:
        return self.metrics[-1].val_accuracy

    def metrics_jsonl(self) -> str:
        return "".join(
            json.dumps(m.to_dict(), sort_keys=True) + "\n" for m in self.metrics
        )


def _params_from_init(init: Checkpoint, dims: ModelDims, seed: int):
    """``init``'s weights for the model ``dims``; a head of another class
    count, or none, is drawn afresh from the run seed."""
    params = init.tensors
    head = params.get("head.weight")
    if head is None or head.shape != (dims.num_classes, dims.model_dim):
        params = reinit_head(params, dims, np.random.default_rng([seed, _STREAM_HEAD]))
    # the optimizer copies each array into its flat vector
    return _checked_params(params, dims, "init checkpoint", "config's model")


def _final_checkpoint(params64, config: TrainConfig) -> Checkpoint:
    tensors = {name: arr.astype(np.float32) for name, arr in params64.items()}
    metadata = {
        "pft.arch_id": "toy_vit",
        "pft.arch_config": json.dumps(config.arch.to_dict(), sort_keys=True),
        "pft.producer": "fapft-train",
        "pft.seed": str(config.seed),
        "pft.epoch": str(config.schedule.epochs),
        "pft.task": config.task,
        "pft.config_hash": config.config_hash,
    }
    return Checkpoint(tensors, metadata)


def _frozen_prefix(trainable: frozenset[str], dims: ModelDims) -> int | None:
    """Shallowest block with a trainable tensor (``depth`` if none), or None
    when ``pos_embed`` trains and no hidden state is constant."""
    if "pos_embed" in trainable:
        return None
    blocks = (int(n.split(".")[1]) for n in trainable if n.startswith("blocks."))
    return min(blocks, default=dims.depth)


def _accuracy(params, x, y, dims, start) -> float:
    return float((predict(params, x, dims, start=start) == y).mean())


def accuracy(ckpt: Checkpoint, dims: ModelDims, x, y) -> float:
    """The fraction of the samples ``x`` that the ``toy_vit`` model ``dims``,
    with ``ckpt``'s weights, assigns to their labels ``y``.

    This scores the stored float32 weights; a run's ``val_accuracy`` scores
    its float64 master weights, so the two need not agree."""
    if len(x) != len(y):
        raise DimensionMismatch(f"{len(x)} samples but {len(y)} labels")
    if len(y) == 0:
        raise EmptyInput("accuracy needs at least one sample")
    sample = (dims.seq_len, dims.model_dim)
    if np.shape(x)[1:] != sample:
        raise DimensionMismatch(f"samples of shape {np.shape(x)[1:]}, the model needs {sample}")
    params = _checked_params(ckpt.tensors, dims, "checkpoint")
    return _accuracy(params, x, y, dims, None)


def train(config: TrainConfig, init: Checkpoint | None = None) -> RunResult:
    """Run one pre-training or fine-tuning job; deterministic for a fixed config.

    ``init=None`` starts from a fresh seed-derived initialization. With an
    init checkpoint, the head is re-initialized when its class count differs
    from the config's; ``init`` must hold every other tensor of the model,
    with its shape, and no tensor outside it. Under a freeze plan, frozen
    tensors get no optimizer state, no updates and no gradients, and a frozen
    prefix of the model runs once per split instead of once per step. A run
    updates its plan's ``trainable_names``, or every tensor without a plan.
    """
    dims = config.arch
    # only this task's split outlives the dataset
    x_train, y_train, x_val, y_val = generate_dataset(config.dataset).task_split(config.task)

    if init is None:
        params32 = init_params(dims, np.random.default_rng([config.seed, _STREAM_INIT]))
    else:
        params32 = _params_from_init(init, dims, config.seed)
    trainable = config.freeze.trainable_names if config.freeze else frozenset(params32)
    # 64-bit master weights during the run, as views of the optimizer's flat
    # vector; storage stays 32-bit at both ends
    optimizer = _AdamW(params32, trainable, config.optimizer)
    params = optimizer.params

    n_train = len(y_train)
    batch = config.schedule.batch_size
    first = _frozen_prefix(trainable, dims)
    if first is not None:
        x_train = hidden_state(params, x_train, dims, first)
        x_val = hidden_state(params, x_val, dims, first)
    steps_per_epoch = max(1, math.ceil(n_train / batch))
    total_steps = config.schedule.epochs * steps_per_epoch
    warmup_steps = config.schedule.warmup_epochs * steps_per_epoch

    metrics = []
    step = 0
    for epoch in range(config.schedule.epochs):
        order = np.random.default_rng(
            [config.seed, _STREAM_SHUFFLE, epoch]
        ).permutation(n_train)
        loss_sum = 0.0
        for start in range(0, n_train, batch):
            idx = order[start : start + batch]
            loss, grads = loss_and_grads(
                params, x_train[idx], y_train[idx], dims, trainable, start=first
            )
            if not math.isfinite(loss):
                raise DivergenceError(f"non-finite loss at epoch {epoch}")
            lr = cosine_warmup_lr(
                step, total_steps, warmup_steps, config.optimizer.learning_rate
            )
            optimizer.step(grads, lr)
            loss_sum += loss * len(idx)
            step += 1
        metrics.append(
            EpochMetrics(
                epoch=epoch,
                train_loss=loss_sum / n_train,
                val_accuracy=_accuracy(params, x_val, y_val, dims, first),
            )
        )

    return RunResult(
        final_checkpoint=_final_checkpoint(params, config),
        metrics=tuple(metrics),
        config=config,
    )


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradCheckResult:
    max_rel_error: float
    worst_tensor: str
    per_tensor: dict[str, float] = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        return {
            "max_rel_error": self.max_rel_error,
            "worst_tensor": self.worst_tensor,
            "per_tensor": dict(sorted(self.per_tensor.items())),
        }


def grad_check(
    config: TrainConfig,
    samples: int = 200,
    step_size: float = 1e-5,
) -> GradCheckResult:
    """Analytic gradients vs central finite differences, fully in 64-bit.

    Coordinates are sampled across every tensor role.
    """
    dims = config.arch
    if dims.model_dim > 16 or dims.depth > 2:
        raise InvalidValue("grad_check expects tiny dims (model_dim <= 16, depth <= 2)")
    data = generate_dataset(config.dataset)
    x_train, y_train, _, _ = data.task_split(config.task)
    take = min(config.schedule.batch_size, len(y_train))
    x, y = x_train[:take], y_train[:take]

    params32 = init_params(dims, np.random.default_rng([config.seed, _STREAM_INIT]))
    params = {n: a.astype(np.float64) for n, a in params32.items()}
    _, grads = loss_and_grads(params, x, y, dims)

    rng = np.random.default_rng([config.seed, _STREAM_GRADCHECK])
    names = sorted(params)
    per_coord = max(2, math.ceil(samples / len(names)))
    per_tensor: dict[str, float] = {}
    for name in names:
        flat = params[name].ravel()
        count = min(per_coord, flat.size)
        coords = rng.choice(flat.size, size=count, replace=False)
        worst = 0.0
        for coord in coords:
            original = flat[coord]
            flat[coord] = original + step_size
            plus, _ = loss_and_grads(params, x, y, dims, ())
            flat[coord] = original - step_size
            minus, _ = loss_and_grads(params, x, y, dims, ())
            flat[coord] = original
            numeric = (plus - minus) / (2.0 * step_size)
            analytic = float(grads[name].ravel()[coord])
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)
            if not math.isfinite(rel):  # max() would keep worst over a NaN
                raise DivergenceError(f"grad_check: {name} has a non-finite gradient error")
            worst = max(worst, rel)
        per_tensor[name] = worst
    worst_tensor = max(per_tensor, key=lambda n: per_tensor[n])
    return GradCheckResult(
        max_rel_error=per_tensor[worst_tensor],
        worst_tensor=worst_tensor,
        per_tensor=per_tensor,
    )


# ---------------------------------------------------------------------------
# the four-step pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineResult:
    angle_report: AngleReport
    plan: FreezePlan
    fapft: RunResult
    full: RunResult
    linear_probe: RunResult


def run_fapft_pipeline(
    pre_ckpt: Checkpoint,
    config: TrainConfig,
    policy: FapftPolicy,
) -> PipelineResult:
    """Angle-guided partial fine-tuning, end to end, with shared hyper-parameters.

    1. check ``policy`` against the architecture, so a bad policy is refused
       before any training;
    2. fully fine-tune the pre-trained weights on the task;
    3. compute per-layer angles against the pre-trained weights and select
       layers per group;
    4. partially fine-tune the pre-trained weights under the resulting plan,
       using the same hyper-parameters as the full run.

    Full fine-tuning and linear probing come back as baselines; the plan
    holds ``policy``.
    """
    arch = config.descriptor()
    policy.validate_for(arch)

    full_config = replace(config, task="finetune", freeze=None)
    full = train(full_config, init=pre_ckpt)
    report = compute_angles(pre_ckpt, full.final_checkpoint, arch)
    plan = plan_fapft(report, arch, policy)

    fapft = train(replace(full_config, freeze=plan), init=pre_ckpt)
    probe = train(replace(full_config, freeze=linear_probe_plan(arch)), init=pre_ckpt)
    return PipelineResult(
        angle_report=report,
        plan=plan,
        fapft=fapft,
        full=full,
        linear_probe=probe,
    )


@dataclass(frozen=True)
class SeriesResult:
    """One partial fine-tune per top-k value, in series order, and their uniform soup.

    Each run's plan is ``run.config.freeze``.
    """

    runs: tuple[RunResult, ...]
    soup: Checkpoint

    @property
    def plans(self) -> tuple[FreezePlan, ...]:
        return tuple(run.config.freeze for run in self.runs)


def run_plan_series(
    pre_ckpt: Checkpoint,
    config: TrainConfig,
    report: AngleReport,
    magnitude: str,
    topk_values: list,
) -> SeriesResult:
    """Train a top-k plan series from one pre-trained checkpoint and average it.

    Every run fine-tunes ``pre_ckpt`` with ``config``'s hyper-parameters
    under the plan that ``plan_series`` selects from ``report`` for one
    top-k value; only the trainable layers differ between runs. The soup is
    the uniform average of the final checkpoints (Model Soups, Wortsman et al.
    2022).
    """
    finetune = replace(config, task="finetune", freeze=None)
    plans = plan_series(report, finetune.descriptor(), magnitude, topk_values)
    runs = tuple(train(replace(finetune, freeze=plan), init=pre_ckpt) for plan in plans)
    return SeriesResult(runs, uniform_soup_checkpoints([r.final_checkpoint for r in runs]))
