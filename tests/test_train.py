import importlib
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import fapft

from fapft.angles import AngleReport, compute_angles, rank_entries
from fapft.arch import (
    _make_plan,
    describe_arch,
    full_plan,
    linear_probe_plan,
    manual_strategy,
)
from fapft.checkpoint import Checkpoint
from fapft.errors import (
    DimensionMismatch,
    DivergenceError,
    EmptyInput,
    IncompatibleCheckpoints,
    IncompatiblePlan,
    InvalidPolicy,
    InvalidValue,
)
from fapft.model import (
    ModelDims,
    _forward,
    _params64,
    hidden_state,
    init_params,
    loss_and_grads,
    reinit_head,
)
from fapft.planner import FapftPolicy, default_policy, plan_fapft, plan_series
from fapft.soup import uniform_soup_checkpoints
from fapft.tensors import bits_equal
from fapft.train import (
    OptimizerConfig,
    ScheduleConfig,
    SyntheticSpec,
    TrainConfig,
    _AdamW,
    _frozen_prefix,
    accuracy,
    cosine_warmup_lr,
    generate_dataset,
    grad_check,
    run_fapft_pipeline,
    run_plan_series,
    train,
)

DIMS = ModelDims(depth=2, model_dim=16, heads=2, ffn_dim=32, seq_len=4, num_classes=4)
SPEC = SyntheticSpec(
    num_classes=4,
    seq_len=4,
    samples_per_class=20,
    feature_dim=16,
    noise_scale=0.5,
    shift_magnitude=1.5,
    seed=3,
)
OPT = OptimizerConfig()
SCHED = ScheduleConfig(epochs=3, warmup_epochs=1, batch_size=16)


def config(**over):
    base = dict(
        arch=DIMS, optimizer=OPT, schedule=SCHED, seed=7, dataset=SPEC, task="finetune"
    )
    base.update(over)
    return TrainConfig(**base)


def toy_arch(dims=DIMS):
    return describe_arch(
        "toy_vit",
        depth=dims.depth,
        model_dim=dims.model_dim,
        heads=dims.heads,
        ffn_dim=dims.ffn_dim,
        seq_len=dims.seq_len,
    )


def schema_names(dims=DIMS):
    """Every tensor name of the model, from the toy_vit descriptor."""
    return set(toy_arch(dims).schema_shapes(dims.num_classes))


def assert_unchanged_outside(before: Checkpoint, after: Checkpoint, trained: set) -> set:
    """Check that every tensor of either checkpoint not named in ``trained`` is
    in both, with the same shape and bits; returns those names."""
    frozen = (before.tensors.keys() | after.tensors.keys()) - trained
    for name in sorted(frozen):
        assert name in before.tensors and name in after.tensors, name
        assert bits_equal(after.tensors[name], before.tensors[name]), name
    return frozen


@pytest.fixture(scope="module")
def pretrained():
    return train(config(task="pretrain", seed=1)).final_checkpoint


class TestDataset:
    def test_deterministic(self):
        d1 = generate_dataset(SPEC)
        d2 = generate_dataset(SPEC)
        assert d1.content_hash() == d2.content_hash()

    def test_bytes_are_pinned(self):
        # the draw order and the arithmetic of generation fix every byte
        assert generate_dataset(SPEC).content_hash() == (
            "4bded936a1f391ae6ba1c4953b616a942fa6881e3e6bb6667de4afebeee273a2"
        )

    def test_zero_shift_identity(self):
        spec = replace(SPEC, shift_magnitude=0.0)
        data = generate_dataset(spec)
        assert np.array_equal(data.base_centers, data.shifted_centers)

    def test_noise_zero_samples_equal_centers(self):
        spec = replace(SPEC, noise_scale=0.0)
        data = generate_dataset(spec)
        for i in range(8):
            center = data.base_centers[data.pretrain_y[i]].astype(np.float32)
            assert np.array_equal(data.pretrain_x[i], np.broadcast_to(center, (4, 16)))

    def test_split_is_fixed_80_20(self):
        data = generate_dataset(SPEC)
        xt, yt, xv, yv = data.task_split("finetune")
        assert len(yt) == 64 and len(yv) == 16
        assert np.array_equal(xt[0], data.finetune_x[0])

    @pytest.mark.parametrize("per_class", [40, 250])
    def test_a_larger_draw_holds_unseen_finetune_tokens(self, per_class):
        # a held-out split is replace(spec, samples_per_class=m) with m >= 2n:
        # the generator draws the centers first and each task's tokens in turn,
        # so the larger draw's fine-tune tokens come after every smaller draw
        small = generate_dataset(SPEC)
        large = generate_dataset(replace(SPEC, samples_per_class=per_class))
        assert large.base_centers.tobytes() == small.base_centers.tobytes()
        assert large.shifted_centers.tobytes() == small.shifted_centers.tobytes()
        n = len(small.pretrain_y)
        assert large.pretrain_x[:n].tobytes() == small.pretrain_x.tobytes()
        assert np.array_equal(large.pretrain_y[:n], small.pretrain_y)
        rows = lambda x: {row.tobytes() for row in x.reshape(-1, SPEC.feature_dim)}
        assert not rows(large.finetune_x) & (rows(small.pretrain_x) | rows(small.finetune_x))

    def test_degenerate_spec_rejected(self):
        with pytest.raises(InvalidValue):
            SyntheticSpec(num_classes=0, seq_len=4, samples_per_class=5, feature_dim=8)
        with pytest.raises(InvalidValue):
            SyntheticSpec(num_classes=2, seq_len=4, samples_per_class=0, feature_dim=8)

    def test_noise_zero_linear_probe_is_perfect(self):
        spec = replace(SPEC, noise_scale=0.0, shift_magnitude=0.0)
        cfg = config(
            dataset=spec,
            optimizer=OptimizerConfig(learning_rate=1e-2),
            schedule=ScheduleConfig(epochs=6, warmup_epochs=1, batch_size=16),
            freeze=linear_probe_plan(toy_arch()),
        )
        assert train(cfg).final_val_accuracy == 1.0


class TestSchedule:
    def test_warmup_start_peak_and_floor(self):
        lr, total, warmup = 1e-3, 50, 10
        assert cosine_warmup_lr(0, total, warmup, lr) == lr / warmup
        assert cosine_warmup_lr(warmup - 1, total, warmup, lr) == lr
        assert cosine_warmup_lr(warmup, total, warmup, lr) == lr
        assert abs(cosine_warmup_lr(total - 1, total, warmup, lr)) < 1e-12

    def test_monotone_decay_after_warmup(self):
        values = [cosine_warmup_lr(s, 40, 4, 1.0) for s in range(4, 40)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_no_warmup(self):
        assert cosine_warmup_lr(0, 10, 0, 1.0) == 1.0
        assert abs(cosine_warmup_lr(9, 10, 0, 1.0)) < 1e-12


class TestGradCheck:
    def test_full_two_block_model(self):
        cfg = config(schedule=ScheduleConfig(epochs=1, warmup_epochs=0, batch_size=8))
        result = grad_check(cfg, samples=200)
        assert result.max_rel_error <= 1e-4
        assert set(result.per_tensor) == schema_names()

    def test_corruption_detected_and_named(self, monkeypatch):
        module = importlib.import_module("fapft.train")
        exact = module.loss_and_grads
        target = "blocks.1.mlp.fc1.weight"

        def corrupted(*args):
            loss, grads = exact(*args)
            if target in grads:
                grads[target] = grads[target] + 0.01 * (1.0 + np.abs(grads[target]))
            return loss, grads

        monkeypatch.setattr(module, "loss_and_grads", corrupted)
        cfg = config(schedule=ScheduleConfig(epochs=1, warmup_epochs=0, batch_size=8))
        result = grad_check(cfg, samples=200)
        assert result.max_rel_error > 1e-3
        assert result.worst_tensor == target

    def test_nan_gradient_is_a_divergence(self, monkeypatch):
        # max() keeps the worst error so far over a NaN one, so a NaN must raise
        module = importlib.import_module("fapft.train")
        exact = module.loss_and_grads

        def nan_head_bias(*args):
            loss, grads = exact(*args)
            if "head.bias" in grads:
                grads["head.bias"] = np.full_like(grads["head.bias"], np.nan)
            return loss, grads

        monkeypatch.setattr(module, "loss_and_grads", nan_head_bias)
        cfg = config(schedule=ScheduleConfig(epochs=1, warmup_epochs=0, batch_size=8))
        with pytest.raises(DivergenceError, match="head.bias"):
            grad_check(cfg, samples=200)

    def test_rejects_large_dims(self):
        dims = ModelDims(depth=3, model_dim=16, heads=2, ffn_dim=32, seq_len=4, num_classes=4)
        spec = replace(SPEC, feature_dim=16)
        cfg = TrainConfig(arch=dims, optimizer=OPT, schedule=SCHED, seed=1, dataset=spec)
        with pytest.raises(InvalidValue):
            grad_check(cfg)


class TestFreezing:
    def test_linear_probe_touches_only_head(self, pretrained):
        cfg = config(freeze=linear_probe_plan(toy_arch()))
        result = train(cfg, init=pretrained)
        head = {"head.weight", "head.bias"}
        frozen = assert_unchanged_outside(pretrained, result.final_checkpoint, head)
        assert frozen >= schema_names() - head

    def test_partial_plan_freezes_exactly(self, pretrained):
        arch = toy_arch()
        plan = manual_strategy(arch, "E")  # last-half attention layers
        result = train(config(freeze=plan), init=pretrained)
        trainable_tensors = set()
        for lid in plan.trainable_layer_ids:
            trainable_tensors.update(arch.layer_map[lid].tensors)
        trainable_tensors |= {"head.weight", "head.bias"}
        frozen = assert_unchanged_outside(pretrained, result.final_checkpoint, trainable_tensors)
        assert frozen >= schema_names() - trainable_tensors

    def test_frozen_layers_have_exactly_zero_angle(self, pretrained):
        arch = toy_arch()
        plan = manual_strategy(arch, "B")
        result = train(config(freeze=plan), init=pretrained)
        report = compute_angles(pretrained, result.final_checkpoint, arch)
        trained = set(plan.trainable_layer_ids)
        for entry in report.entries:
            if entry.layer_id in trained:
                assert entry.angle > 0.0
            else:
                assert entry.angle == 0.0

    @pytest.mark.parametrize("arch", [
        describe_arch("vit_b16"),
        toy_arch(replace(DIMS, depth=DIMS.depth + 1)),
        # same depth, so the same layer ids, but other shapes and counts
        toy_arch(replace(DIMS, model_dim=2 * DIMS.model_dim)),
    ], ids=["vit_b16", "deeper", "wider"])
    def test_plan_arch_mismatch(self, arch):
        with pytest.raises(IncompatiblePlan, match="plan is for ArchDescriptor"):
            config(freeze=manual_strategy(arch, "B"))


def _layers_plan(arch, layer_ids, non_residual=False):
    layers = [arch.layer_map[lid] for lid in layer_ids]
    return _make_plan(arch, "TEST", layers, non_residual_trainable=non_residual)


def _batch(dims, seed=3):
    params = {
        n: a.astype(np.float64)
        for n, a in init_params(dims, np.random.default_rng(seed)).items()
    }
    data = generate_dataset(replace(SPEC, feature_dim=dims.model_dim))
    xt, yt, _, _ = data.task_split("finetune")
    return params, xt[:8], yt[:8]


class TestFreezeAware:
    """Gradients of a freeze-aware step, started where ``train`` starts it,
    equal the all-tensor gradients bit for bit."""

    PLANS = {
        "linear_probe": ((), False, DIMS.depth),
        "first_attn_last_ffn": (("s0.b0.ATTN", f"s0.b{DIMS.depth - 1}.FFN"), False, 0),
        "deep_only": ((f"s0.b{DIMS.depth - 1}.FFN",), False, DIMS.depth - 1),
        "non_residual": ((f"s0.b{DIMS.depth - 1}.FFN",), True, None),
    }

    @pytest.mark.parametrize("case", sorted(PLANS))
    def test_gradients_equal_full_backward(self, case):
        selection, non_residual, expected_start = self.PLANS[case]
        trainable = _layers_plan(toy_arch(), selection, non_residual).trainable_names
        start = _frozen_prefix(trainable, DIMS)
        assert start == expected_start
        params, x, y = _batch(DIMS)
        full_loss, full = loss_and_grads(params, x, y, DIMS, trainable=None)
        assert set(full) == schema_names()
        h = x if start is None else hidden_state(params, x, DIMS, start)
        loss, grads = loss_and_grads(params, h, y, DIMS, trainable, start=start)
        assert loss == full_loss
        assert set(grads) == trainable
        for name, grad in grads.items():
            assert np.array_equal(grad, full[name]), name

    @pytest.mark.parametrize("dims", [DIMS], ids=["depth2"])
    def test_prefix_started_logits_equal_full_forward(self, dims):
        params, x, _ = _batch(dims)
        p64, x64 = _params64(params), np.asarray(x, dtype=np.float64)
        full, _, _ = _forward(p64, x64, dims, None)
        for start in range(dims.depth + 1):
            h = hidden_state(params, x, dims, start)
            logits, _, _ = _forward(p64, h, dims, start)
            assert np.array_equal(logits, full), start

    def test_tensor_outside_started_pass_rejected(self):
        params, x, y = _batch(DIMS)
        h = hidden_state(params, x, DIMS, 1)
        for name in ("pos_embed", "blocks.0.mlp.fc1.weight"):
            with pytest.raises(InvalidValue, match=name):
                loss_and_grads(params, h, y, DIMS, {name, "head.weight"}, start=1)

    def test_prefixed_training_matches_unprefixed(self, pretrained, monkeypatch):
        plan = _layers_plan(toy_arch(), (f"s0.b{DIMS.depth - 1}.FFN",))
        cfg = config(freeze=plan)
        prefixed = train(cfg, init=pretrained)
        module = importlib.import_module("fapft.train")  # ``fapft.train`` is also a function
        monkeypatch.setattr(module, "_frozen_prefix", lambda trainable, dims: None)
        plain = train(cfg, init=pretrained)
        assert prefixed.final_checkpoint.content_hash == plain.final_checkpoint.content_hash
        assert prefixed.metrics == plain.metrics


def _reference_adamw_step(params, m, v, t, grads, lr, c, names):
    """Per-tensor AdamW in the textbook order, for the flat optimizer to match bitwise."""
    from fapft.train import _uses_weight_decay

    bias1 = 1.0 - c.beta1**t
    bias2 = 1.0 - c.beta2**t
    for name in names:
        g = grads[name]
        m[name] = c.beta1 * m[name] + (1.0 - c.beta1) * g
        v[name] = c.beta2 * v[name] + (1.0 - c.beta2) * g * g
        update = (m[name] / bias1) / (np.sqrt(v[name] / bias2) + c.epsilon)
        if c.weight_decay > 0.0 and _uses_weight_decay(name):
            update = update + c.weight_decay * params[name]
        params[name] = params[name] - lr * update


def _init64(seed=3):
    return {
        n: a.astype(np.float64)
        for n, a in init_params(DIMS, np.random.default_rng(seed)).items()
    }


class TestOptimizer:
    def test_masked_step_equals_unmasked_on_trainable(self):
        dims = DIMS
        params0 = _init64()
        data = generate_dataset(SPEC)
        xt, yt, _, _ = data.task_split("finetune")
        _, grads = loss_and_grads(params0, xt[:8], yt[:8], dims)

        subset = {"blocks.0.attn.qkv.weight", "head.weight", "norm.bias"}
        full_opt = _AdamW(params0, set(params0), OPT)
        masked_opt = _AdamW(params0, subset, OPT)
        full_opt.step(grads, lr=1e-3)
        masked_opt.step(grads, lr=1e-3)
        params_a, params_b = full_opt.params, masked_opt.params
        assert list(params_a) == list(params_b) == list(params0)
        for name in params_a:
            assert np.array_equal(params_b[name], params0[name]) == (name not in subset)
            if name in subset:
                assert np.array_equal(params_a[name], params_b[name])
            else:
                assert not np.array_equal(params_a[name], params_b[name])

    def test_flat_steps_equal_per_tensor_reference_bitwise(self):
        params0 = _init64(5)
        data = generate_dataset(SPEC)
        xt, yt, _, _ = data.task_split("finetune")
        # weight-decayed and undecayed tensors, with a frozen rest
        trainable = {
            "blocks.1.attn.qkv.weight",
            "blocks.1.attn.qkv.bias",
            "blocks.1.norm1.weight",
            "blocks.1.mlp.fc1.weight",
            "norm.bias",
            "head.weight",
            "head.bias",
        }
        cfg = OptimizerConfig(learning_rate=3e-3, weight_decay=0.1)
        opt = _AdamW(params0, trainable, cfg)
        ref = dict(params0)
        m = {n: np.zeros_like(ref[n]) for n in trainable}
        v = {n: np.zeros_like(ref[n]) for n in trainable}
        for t in range(1, 7):
            idx = slice(8 * t, 8 * t + 8)
            _, grads = loss_and_grads(opt.params, xt[idx], yt[idx], DIMS, trainable)
            lr = cosine_warmup_lr(t - 1, 6, 1, cfg.learning_rate)
            opt.step(grads, lr)
            _reference_adamw_step(ref, m, v, t, grads, lr, cfg, sorted(trainable))
        for name in params0:
            assert np.array_equal(opt.params[name], ref[name]), name
            if name not in trainable:
                assert opt.params[name].tobytes() == params0[name].tobytes(), name
        flat_m = np.concatenate([m[n].ravel() for n in opt.trainable])
        flat_v = np.concatenate([v[n].ravel() for n in opt.trainable])
        assert np.array_equal(opt.m, flat_m)
        assert np.array_equal(opt.v, flat_v)

    def test_weight_decay_skips_norms_and_biases(self):
        from fapft.train import _uses_weight_decay

        assert _uses_weight_decay("blocks.0.attn.qkv.weight")
        assert _uses_weight_decay("pos_embed")
        assert not _uses_weight_decay("blocks.0.norm1.weight")
        assert not _uses_weight_decay("norm.weight")
        assert not _uses_weight_decay("head.bias")


def _fapft_plan(arch):
    """The ``plan_fapft`` plan of the larger-angle layer in each group, the
    angles growing with depth."""
    angles = {layer.layer_id: 0.1 * (i + 1) for i, layer in enumerate(arch.layers)}
    report = AngleReport(
        arch_id=arch.arch_id,
        entries=rank_entries(arch, angles),
        whole_model_angle=0.5,
        pretrained_hash="aa" * 32,
        finetuned_hash="bb" * 32,
        excluded_tensors=(),
    )
    return plan_fapft(report, arch, FapftPolicy("large", (1,)))


class TestTrainableCount:
    """A plan's reported count is the size of the tensors the trainer updates."""

    PLANS = {
        "none": lambda arch: None,
        "full": full_plan,
        "linear_probe": linear_probe_plan,
        **{f"manual_{tag}": lambda arch, tag=tag: manual_strategy(arch, tag)
           for tag in "ABCDEFGHI"},
        "fapft": _fapft_plan,
        "non_residual": lambda arch: _layers_plan(arch, ("s0.b1.ATTN",), non_residual=True),
    }

    @pytest.mark.parametrize("classes", [4, 9])
    @pytest.mark.parametrize("case", sorted(PLANS))
    def test_optimizer_holds_the_counted_tensors(self, case, classes):
        dims = replace(DIMS, num_classes=classes)
        # the plan comes from a descriptor of its own, as a plan file's does
        plan = self.PLANS[case](toy_arch(dims))
        arch = toy_arch(dims)
        arrays = {n: np.zeros(s) for n, s in arch.schema_shapes(classes).items()}
        trainable = plan.trainable_names if plan else frozenset(arrays)
        optimizer = _AdamW(arrays, trainable, OPT)
        if plan is None:
            assert set(optimizer.trainable) == set(arrays)
            assert optimizer.size == arch.full_param_count(classes)
        else:
            assert set(optimizer.trainable) == plan.trainable_names
            assert optimizer.size == plan.trainable_param_count(classes)


class TestTrain:
    def test_byte_identical_repeats(self):
        r1 = train(config())
        r2 = train(config())
        assert r1.final_checkpoint.content_hash == r2.final_checkpoint.content_hash
        assert r1.metrics == r2.metrics

    def test_metrics_shape(self):
        result = train(config())
        assert len(result.metrics) == SCHED.epochs
        lines = result.metrics_jsonl().strip().split("\n")
        assert len(lines) == SCHED.epochs

    def test_head_reinit_on_class_change(self, pretrained):
        dims9 = replace(DIMS, num_classes=9)
        spec9 = replace(SPEC, num_classes=9)
        result = train(config(arch=dims9, dataset=spec9), init=pretrained)
        assert result.final_checkpoint.tensors["head.weight"].shape == (9, 16)

    def test_headless_init_trains_like_one_of_another_class_count(self, pretrained):
        # both heads are drawn afresh from the run seed's head stream
        body = {n: t for n, t in pretrained.tensors.items() if not n.startswith("head.")}
        head9 = reinit_head({}, replace(DIMS, num_classes=9), np.random.default_rng(0))
        headless = train(config(), init=Checkpoint(body)).final_checkpoint
        other = train(config(), init=Checkpoint({**body, **head9})).final_checkpoint
        assert headless.canonical_bytes() == other.canonical_bytes()

    def test_init_deeper_than_config_refused(self, pretrained):
        with pytest.raises(
            IncompatibleCheckpoints,
            match="init checkpoint: tensor 'blocks.1.attn.proj.bias' is not in the config's model",
        ):
            train(config(arch=replace(DIMS, depth=1)), init=pretrained)

    def test_divergence_reported_with_epoch(self):
        cfg = config(optimizer=OptimizerConfig(learning_rate=1e18))
        with pytest.raises(DivergenceError, match="epoch"):
            train(cfg)

    def test_config_json_round_trip(self):
        cfg = config(freeze=manual_strategy(toy_arch(), "E"))
        again = TrainConfig.from_json(cfg.to_json_text())
        assert again.to_json_text() == cfg.to_json_text()
        assert again.config_hash == cfg.config_hash

    def test_init_draw_order_is_pinned(self):
        # init_params draws pos_embed, then each block, then the head; a
        # change of draw order would change every checkpoint
        dims = ModelDims(depth=2, model_dim=8, heads=2, ffn_dim=12, seq_len=3, num_classes=5)
        params = init_params(dims, np.random.default_rng([7, 101]))
        assert list(params) == [
            "pos_embed",
            *(n for n in toy_arch(dims).schema_shapes(5) if n != "pos_embed"),
        ]
        assert (
            Checkpoint(params).content_hash
            == "4a45aba6c0afcd19270d023326319b4fd404a08921fc8cc6b9fa5ccf6dbeac22"
        )
        params = reinit_head(params, dims, np.random.default_rng([7, 202]))
        assert (
            Checkpoint(params).content_hash
            == "6976f288ac37027052dd0cc97a21ed260f52d74f1775dac1d5e7047d7e24c4eb"
        )

    def test_run_carries_its_config(self):
        cfg = config()
        result = train(cfg)
        assert result.config == cfg
        assert result.config_hash == cfg.config_hash

    def test_dataset_model_dim_tied(self):
        with pytest.raises(InvalidValue):
            config(dataset=replace(SPEC, feature_dim=8))


class TestAccuracy:
    def test_equals_one_sample_forward_passes(self, pretrained):
        _, _, x, y = generate_dataset(SPEC).task_split("finetune")
        params = _params64(pretrained.tensors)
        logits = [_forward(params, x[i : i + 1], DIMS, None)[0] for i in range(len(y))]
        expected = float((np.argmax(np.concatenate(logits), axis=-1) == y).mean())
        assert 0.0 < expected < 1.0  # a mix-up of samples or labels would show
        assert accuracy(pretrained, DIMS, x, y) == expected

    def test_labels_must_match_samples(self, pretrained):
        _, _, x, y = generate_dataset(SPEC).task_split("finetune")
        with pytest.raises(DimensionMismatch, match=f"{len(y)} samples but 1 labels"):
            accuracy(pretrained, DIMS, x, y[:1])

    def test_samples_of_another_shape_refused(self, pretrained):
        _, _, x, y = generate_dataset(SPEC).task_split("finetune")
        n, seq, dim = x.shape
        assert (seq, dim) == (DIMS.seq_len, DIMS.model_dim)
        for bad in (x[:, :, : dim // 2], x[:, : seq - 1], x[:, :, :, None], x.reshape(n, -1)):
            message = f"samples of shape {bad.shape[1:]}, the model needs {(seq, dim)}"
            with pytest.raises(DimensionMismatch, match=re.escape(message)):
                accuracy(pretrained, DIMS, bad, y)

    def test_empty_split(self, pretrained):
        _, _, x, y = generate_dataset(SPEC).task_split("finetune")
        with pytest.raises(EmptyInput):
            accuracy(pretrained, DIMS, x[:0], y[:0])

    @pytest.mark.parametrize(
        "change, dims, message",
        [
            pytest.param(
                {"head.weight": np.zeros((9, 16)), "head.bias": np.zeros(9)}, DIMS,
                "checkpoint: tensor 'head.weight' has shape (9, 16), the model needs (4, 16)",
                id="nine_classes",
            ),
            pytest.param(
                {}, replace(DIMS, depth=1),
                "checkpoint: tensor 'blocks.1.attn.proj.bias' is not in the model",
                id="deeper_than_dims",
            ),
            pytest.param(
                {"blocks.1.norm1.weight": None}, DIMS,
                "checkpoint: lacks tensor 'blocks.1.norm1.weight' of the model",
                id="lacks_a_tensor",
            ),
        ],
    )
    def test_another_model_refused(self, pretrained, change, dims, message):
        # the head's class count and the blocks present would otherwise pick
        # the model scored, whatever ``dims`` says
        _, _, x, y = generate_dataset(SPEC).task_split("finetune")
        tensors = {n: t for n, t in {**pretrained.tensors, **change}.items() if t is not None}
        with pytest.raises(IncompatibleCheckpoints, match=re.escape(message)):
            accuracy(Checkpoint(tensors), dims, x, y)

    def test_exported(self):
        assert "accuracy" in fapft.__all__
        assert fapft.accuracy is accuracy


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    @pytest.mark.parametrize("probe", [False, True], ids=["full", "linear_probe"])
    def test_peak_grows_by_the_dataset_arrays_alone(self, probe):
        # a tenfold validation split (and training split) adds the dataset's
        # arrays to train()'s peak: both tasks' float32 tokens, the one task
        # of float64 noise that generation draws at a time, and a few int64
        # words a sample for labels and the shuffle order. Model passes over
        # a split run in fixed slices, so their activations do not grow.
        # The linear probe keeps a float64 hidden state of one task, within
        # the two tasks' tokens and the noise.
        sched = ScheduleConfig(epochs=1, warmup_epochs=0, batch_size=16)
        freeze = linear_probe_plan(toy_arch()) if probe else None

        def run(samples_per_class):
            spec = replace(SPEC, samples_per_class=samples_per_class)
            return lambda: train(config(dataset=spec, schedule=sched, freeze=freeze))

        run(10)()  # caches and lazy imports are not the run's memory
        small, large = _traced_peak(run(10)), _traced_peak(run(100))
        grown = 90 * SPEC.num_classes
        per_sample = SPEC.seq_len * SPEC.feature_dim * (4 + 4 + 8) + 4 * 8
        assert large - small <= grown * per_sample


class TestPipeline:
    def test_limiting_cases_and_artifacts(self, pretrained):
        arch = toy_arch()
        result = run_fapft_pipeline(pretrained, config(), FapftPolicy("large", (DIMS.depth,)))
        assert set(result.plan.trainable_layer_ids) == {
            l.layer_id for l in arch.layers
        }
        probe = run_fapft_pipeline(pretrained, config(), FapftPolicy("small", (0,)))
        assert probe.plan.same_selection(linear_probe_plan(arch))
        assert len(result.angle_report.entries) == len(arch.layers)

    # an over-deep top-k is refused by the pipeline, a bad magnitude by the policy itself
    @pytest.mark.parametrize("bad", [("large", (99,)), ("medium", (1,))],
                             ids=["topk", "magnitude"])
    def test_bad_policy_is_refused_before_training(self, pretrained, monkeypatch, bad):
        def no_training(*args, **kwargs):
            raise AssertionError("train() ran before the policy was checked")

        module = importlib.import_module("fapft.train")  # ``fapft.train`` is also a function
        monkeypatch.setattr(module, "train", no_training)
        with pytest.raises(InvalidPolicy):
            run_fapft_pipeline(pretrained, config(), FapftPolicy(*bad))

    def test_default_policy_used(self, pretrained):
        result = run_fapft_pipeline(pretrained, config(), default_policy(toy_arch(), "challenging"))
        assert result.plan.policy.magnitude == "large"
        # depth 2 -> topk max(1, 2 // 3) == 1: one layer per group plus head
        assert result.plan.policy.topk_per_stage == (1,)
        assert len(result.plan.trainable) == 2

    def test_deterministic(self, pretrained):
        policy = default_policy(toy_arch(), "challenging")
        r1 = run_fapft_pipeline(pretrained, config(), policy)
        r2 = run_fapft_pipeline(pretrained, config(), policy)
        assert (
            r1.fapft.final_checkpoint.content_hash
            == r2.fapft.final_checkpoint.content_hash
        )
        assert r1.angle_report.to_json_text() == r2.angle_report.to_json_text()

    def test_plan_series_and_soup(self, pretrained):
        full = train(config(), init=pretrained)
        arch = toy_arch()
        report = compute_angles(pretrained, full.final_checkpoint, arch)
        series = run_plan_series(pretrained, config(), report, "large", [1, 2])
        assert series.plans == tuple(plan_series(report, arch, "large", [1, 2]))
        for run, plan in zip(series.runs, series.plans):
            alone = train(config(freeze=plan), init=pretrained)
            assert run.config == alone.config
            assert run.final_checkpoint.content_hash == alone.final_checkpoint.content_hash
        expected = uniform_soup_checkpoints([r.final_checkpoint for r in series.runs])
        assert series.soup.content_hash == expected.content_hash
