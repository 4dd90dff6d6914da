"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Criterion 1 pins the toolkit's exact parameter arithmetic against the paper's
reference display table (millions, two decimals, half-up). Three published
cells print one display unit above the exact count of the named model:
ViT-B/16 FAPFT large top-2 @1000 (also series A, k=2) reads 14.95 for
14,944,744, and Swin-B top-k [0, 0, 5, 2] @1000 reads 42.01 for 42,003,704.
No accounting reproduces them:

- no rounding rule on the remainder below the 0.01M step rounds 42,003,704
  (remainder 3,704) up but ViT attn_only @100 = 28,443,748 (remainder 3,748)
  down;
- a constant set of extra trainable tensors in every partial ViT plan would
  hold 256 to 483 parameters, less than ViT-B/16's smallest non-residual
  tensor (768);
- a set added to FAPFT plans only needs +256 to +2,355 on ViT-B/16 but +1,296
  to +1,471 on Swin-B; the final norm gives +1,536 and +2,048, which fits ViT
  only. The sets that fit both (say, the patch-embedding bias and norm plus
  Swin-B's first downsampler norm) are ad-hoc picks, and they break the
  documented rule that partial plans freeze every non-residual tensor.

Those three cells expect the display of the exact count and also assert the
exact integer, summed from the per-layer tensor-shape sizes; the published
figure is noted beside each.
"""

import json
import math
import struct
import time
from dataclasses import replace

import numpy as np
import pytest

from fapft.angles import compute_angles, rank_consistency
from fapft.arch import (
    describe_arch,
    full_plan,
    linear_probe_plan,
    manual_strategy,
    millions_str,
    soup_millions_str,
)
from fapft.checkpoint import Checkpoint, read_checkpoint, write_checkpoint
from fapft.cli import main as cli_main
from fapft.errors import CorruptFile, FormatError, InvalidValue, UnsupportedDtype
from fapft.model import ModelDims
from fapft.planner import FapftPolicy, default_policy, plan_fapft, plan_series
from fapft.soup import uniform_soup_checkpoints
from fapft.tensors import bits_equal, kendall_tau, vec_angle
from fapft.train import (
    OptimizerConfig,
    ScheduleConfig,
    SyntheticSpec,
    TrainConfig,
    accuracy,
    generate_dataset,
    grad_check,
    run_fapft_pipeline,
    run_plan_series,
    train,
)

from test_planner import report_for
from test_tensors import brute_force_tau_b


def announce(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"[criterion {number:>2}] {name}: {status}{suffix}")


# ---------------------------------------------------------------------------
# criterion 1: parameter accounting
# ---------------------------------------------------------------------------

# Exact counts of the cells whose published display is one unit too high (see
# the module docstring): per-layer ATTN + FFN sizes as pinned in test_arch,
# plus the 1000-class head.
VIT_LARGE_TOP2_1000 = 2 * (2_363_904 + 4_723_968) + 769_000
SWIN_TOPK_0052_1000 = (
    5 * (1_054_352 + 2_100_736) + 2 * (4_205_856 + 8_395_776) + 1_025_000
)
EXACT_COUNTS = {
    "vit fapft large-top2 @1000": VIT_LARGE_TOP2_1000,
    "vit series-a k=2 @1000": VIT_LARGE_TOP2_1000,
    "swin fapft topk=[0, 0, 5, 2] @1000": SWIN_TOPK_0052_1000,
}


def _vit_cells():
    vit = describe_arch("vit_b16")
    report = report_for(vit, lambda l: 0.01 * l.block)
    fapft = lambda magnitude, k: plan_fapft(report, vit, FapftPolicy(magnitude, (k,)))
    cells = [
        ("vit full @100", full_plan(vit), 100, "85.88"),
        ("vit full @1000", full_plan(vit), 1000, "86.57"),
        ("vit linear_probe @100", linear_probe_plan(vit), 100, "0.08"),
        ("vit linear_probe @1000", linear_probe_plan(vit), 1000, "0.77"),
        ("vit attn_only @100", manual_strategy(vit, "B"), 100, "28.44"),
        ("vit attn_only @1000", manual_strategy(vit, "B"), 1000, "29.14"),
        ("vit ffn_only @100", manual_strategy(vit, "C"), 100, "56.76"),
        ("vit ffn_only @1000", manual_strategy(vit, "C"), 1000, "57.46"),
        ("vit fapft small-top7 @100", fapft("small", 7), 100, "49.69"),
        # the reference table prints 14.95; see the module docstring
        ("vit fapft large-top2 @1000", fapft("large", 2), 1000, "14.94"),
    ]
    series_a = plan_series(report, vit, "large", [1, 2, 3, 4, 5])
    # the reference table prints 14.95 at k=2; see the module docstring
    for plan, expected in zip(series_a, ["7.86", "14.94", "22.03", "29.12", "36.21"]):
        cells.append((f"vit series-a k={len(plan.trainable)//2} @1000", plan, 1000, expected))
    series_b = plan_series(report, vit, "small", [2, 3, 4, 5, 7])
    for plan, expected in zip(series_b, ["14.25", "21.34", "28.43", "35.52", "49.69"]):
        cells.append((f"vit series-b k={len(plan.trainable)//2} @100", plan, 100, expected))
    soups = [
        (
            "vit fapft soup total",
            soup_millions_str(p.trainable_param_count(1000) for p in series_a),
            "110.2",
        ),
        (
            "vit fft soup total",
            soup_millions_str([vit.full_param_count(1000)] * 5),
            "432.9",
        ),
    ]
    return cells, soups


def _swin_cells():
    swin = describe_arch("swin_b")
    report = report_for(swin, lambda l: 0.01 * l.block + l.stage)
    cells = [
        ("swin full @100", full_plan(swin), 100, "86.85"),
        ("swin full @1000", full_plan(swin), 1000, "87.77"),
        ("swin attn_only @100", manual_strategy(swin, "B"), 100, "28.16"),
        ("swin attn_only @1000", manual_strategy(swin, "B"), 1000, "29.08"),
        ("swin ffn_only @100", manual_strategy(swin, "C"), 100, "56.02"),
        ("swin ffn_only @1000", manual_strategy(swin, "C"), 1000, "56.95"),
    ]
    topk_rows = [
        ((0, 0, 3, 2), "35.69"),
        ((0, 0, 4, 2), "38.85"),
        # the reference table prints 42.01; see the module docstring
        ((0, 0, 5, 2), "42.00"),
        ((0, 0, 6, 2), "45.16"),
    ]
    for topk, expected in topk_rows:
        plan = plan_fapft(report, swin, FapftPolicy("large", topk))
        cells.append((f"swin fapft topk={list(topk)} @1000", plan, 1000, expected))
    return cells


def test_criterion_1_parameter_accounting():
    started = time.monotonic()
    vit_cells, soups = _vit_cells()
    cells = vit_cells + _swin_cells()
    assert set(EXACT_COUNTS) <= {label for label, *_ in cells}
    mismatches = []
    for label, plan, classes, expected in cells:
        count = plan.trainable_param_count(classes)
        got = millions_str(count)
        if got != expected:
            mismatches.append(f"{label}: computed {got}, reference {expected}")
        elif count != EXACT_COUNTS.get(label, count):
            mismatches.append(f"{label}: computed {count:,}, exact {EXACT_COUNTS[label]:,}")
    for label, got, expected in soups:
        if got != expected:
            mismatches.append(f"{label}: computed {got}, reference {expected}")
    elapsed = time.monotonic() - started
    total = len(cells) + len(soups)
    detail = f"{total - len(mismatches)}/{total} cells match in {elapsed:.2f}s"
    announce(1, "parameter accounting", not mismatches, detail)
    for line in mismatches:
        print(f"              MISMATCH {line}")
    assert elapsed < 1.0
    assert not mismatches, mismatches


# ---------------------------------------------------------------------------
# criterion 2: angle analytic suite
# ---------------------------------------------------------------------------


def test_criterion_2_angle_analytic_suite():
    started = time.monotonic()
    assert abs(vec_angle([3.0, 4.0], [3.0, 4.0]) - 0.0) < 1e-12
    assert abs(vec_angle([1.0, 0.0], [0.0, 1.0]) - math.pi / 2) < 1e-12
    u = np.array([0.7, -1.3, 2.9])
    assert abs(vec_angle(u, -u) - math.pi) < 1e-12
    assert abs(vec_angle([1.0, 0.0], [1.0, 1.0]) - math.acos(1 / math.sqrt(2))) < 1e-12

    rng = np.random.default_rng(2024)
    for _ in range(200):
        a = rng.normal(size=31)
        b = rng.normal(size=31)
        c, d = rng.uniform(0.01, 1000.0, size=2)
        assert abs(vec_angle(c * a, d * b) - vec_angle(a, b)) < 1e-10
        assert vec_angle(a, b) == vec_angle(b, a)
    elapsed = time.monotonic() - started
    announce(2, "angle analytic suite", True, f"{elapsed:.2f}s")
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# criterion 3: Kendall oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_3_kendall_oracle():
    started = time.monotonic()
    rng = np.random.default_rng(99)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(2, 9))
        if rng.random() < 0.5:
            a = rng.integers(0, 5, size=n).astype(float)
            b = rng.integers(0, 5, size=n).astype(float)
        else:
            a = rng.normal(size=n)
            b = rng.normal(size=n)
        if np.all(a == a[0]) or np.all(b == b[0]):
            continue
        assert kendall_tau(a, b) == brute_force_tau_b(a, b)
        checked += 1
    elapsed = time.monotonic() - started
    announce(3, "kendall oracle equivalence", True, f"1000 vectors in {elapsed:.2f}s")
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# criterion 4: checkpoint codec
# ---------------------------------------------------------------------------


def test_criterion_4_checkpoint_codec(tmp_path):
    started = time.monotonic()
    rng = np.random.default_rng(4)
    from test_checkpoint import random_checkpoint

    path = tmp_path / "roundtrip.ckpt"
    for i in range(500):
        ckpt = random_checkpoint(rng, max_tensors=5, max_elems=64)
        h = write_checkpoint(ckpt, path)
        again = read_checkpoint(path)
        assert again.content_hash == h == ckpt.content_hash
        for name in ckpt.tensors:
            assert bits_equal(again.tensors[name], ckpt.tensors[name])
        assert dict(again.metadata) == dict(ckpt.metadata)

    ckpt = random_checkpoint(rng)
    original = write_checkpoint(ckpt, path)
    blob = bytearray(path.read_bytes())
    mutated_detected = 0
    for _ in range(100):
        pos = int(rng.integers(0, len(blob)))
        twisted = bytearray(blob)
        twisted[pos] ^= 1 << int(rng.integers(0, 8))
        q = tmp_path / "mutated.ckpt"
        q.write_bytes(bytes(twisted))
        try:
            again = read_checkpoint(q)
        except (CorruptFile, FormatError, UnsupportedDtype, InvalidValue):
            mutated_detected += 1
            continue
        assert again.content_hash != original
        mutated_detected += 1
    assert mutated_detected == 100

    bad = tmp_path / "bad_offsets.ckpt"
    header = json.dumps(
        {"w": {"dtype": "F32", "shape": [4], "data_offsets": [0, 99]}},
        separators=(",", ":"),
    ).encode()
    bad.write_bytes(struct.pack("<Q", len(header)) + header + b"\x00" * 16)
    with pytest.raises(CorruptFile):
        read_checkpoint(bad)

    elapsed = time.monotonic() - started
    announce(4, "checkpoint codec", True, f"500 round trips in {elapsed:.2f}s")
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# shared desk-scale setups
# ---------------------------------------------------------------------------

OPT = OptimizerConfig(learning_rate=1e-3)
SCHED = ScheduleConfig(epochs=10, warmup_epochs=1, batch_size=16)

HARD_DIMS = ModelDims(depth=4, model_dim=32, heads=4, ffn_dim=64, seq_len=8, num_classes=8)
HARD_SPEC = SyntheticSpec(
    num_classes=8,
    seq_len=8,
    samples_per_class=40,
    feature_dim=32,
    class_center_scale=1.0,
    noise_scale=3.0,
    shift_magnitude=4.0,
    seed=11,
)


def hard_config(**over):
    base = dict(
        arch=HARD_DIMS, optimizer=OPT, schedule=SCHED, seed=1, dataset=HARD_SPEC,
        task="finetune",
    )
    base.update(over)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def hard_pretrained():
    return train(hard_config(task="pretrain")).final_checkpoint


def toy_arch(dims):
    return describe_arch(
        "toy_vit",
        depth=dims.depth,
        model_dim=dims.model_dim,
        heads=dims.heads,
        ffn_dim=dims.ffn_dim,
        seq_len=dims.seq_len,
    )


# ---------------------------------------------------------------------------
# criterion 5: gradient check
# ---------------------------------------------------------------------------


def test_criterion_5_gradient_check():
    started = time.monotonic()
    dims = ModelDims(depth=2, model_dim=16, heads=2, ffn_dim=32, seq_len=4, num_classes=4)
    spec = SyntheticSpec(
        num_classes=4, seq_len=4, samples_per_class=20, feature_dim=16,
        noise_scale=0.5, seed=3,
    )
    config = TrainConfig(
        arch=dims,
        optimizer=OPT,
        schedule=ScheduleConfig(epochs=1, warmup_epochs=0, batch_size=8),
        seed=7,
        dataset=spec,
    )
    result = grad_check(config, samples=200, step_size=1e-5)
    elapsed = time.monotonic() - started
    ok = result.max_rel_error <= 1e-4
    announce(5, "gradient check", ok, f"max rel err {result.max_rel_error:.2e} in {elapsed:.1f}s")
    assert ok
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# criterion 6: freezing contract
# ---------------------------------------------------------------------------


def test_criterion_6_freezing_contract(hard_pretrained):
    started = time.monotonic()
    arch = toy_arch(HARD_DIMS)
    angle_report = compute_angles(
        hard_pretrained,
        train(hard_config(seed=3), init=hard_pretrained).final_checkpoint,
        arch,
    )
    plans = [
        linear_probe_plan(arch),
        manual_strategy(arch, "B"),
        manual_strategy(arch, "I"),
        plan_fapft(angle_report, arch, FapftPolicy("large", (1,))),
    ]
    for plan in plans:
        result = train(hard_config(freeze=plan, seed=5), init=hard_pretrained)
        trainable_tensors = {"head.weight", "head.bias"}
        for lid in plan.trainable_layer_ids:
            trainable_tensors.update(arch.layer_map[lid].tensors)
        final = result.final_checkpoint
        for name in sorted(set(hard_pretrained.tensors) - trainable_tensors):
            assert name in final.tensors and bits_equal(
                final.tensors[name], hard_pretrained.tensors[name]
            ), (plan.strategy_tag, name)
        report = compute_angles(hard_pretrained, result.final_checkpoint, arch)
        trained_layers = set(plan.trainable_layer_ids)
        for entry in report.entries:
            if entry.layer_id not in trained_layers:
                assert entry.angle == 0.0, (plan.strategy_tag, entry.layer_id)
    elapsed = time.monotonic() - started
    announce(6, "freezing contract", True, f"{len(plans)} plans in {elapsed:.1f}s")
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# criterion 7: ranking-consistency mirror
# ---------------------------------------------------------------------------


def test_criterion_7_rank_consistency_mirror():
    started = time.monotonic()
    dims = ModelDims(depth=4, model_dim=32, heads=4, ffn_dim=64, seq_len=8, num_classes=6)
    arch = toy_arch(dims)

    def spec(seed, shift, noise, scale=1.0):
        return SyntheticSpec(
            num_classes=6, seq_len=8, samples_per_class=50, feature_dim=32,
            class_center_scale=scale, noise_scale=noise, shift_magnitude=shift,
            seed=seed,
        )

    pre_config = TrainConfig(
        arch=dims, optimizer=OPT, schedule=SCHED, seed=1,
        dataset=spec(11, shift=3.0, noise=1.5), task="pretrain",
    )
    pre = train(pre_config).final_checkpoint

    def reports(dataset_spec, seeds):
        out = []
        for s in seeds:
            config = TrainConfig(
                arch=dims, optimizer=OPT, schedule=SCHED, seed=s,
                dataset=dataset_spec, task="finetune",
            )
            run = train(config, init=pre)
            out.append(compute_angles(pre, run.final_checkpoint, arch))
        return out

    dataset_a = spec(21, shift=2.5, noise=1.0)
    dataset_b = spec(77, shift=0.3, noise=0.2, scale=2.0)
    reports_a = reports(dataset_a, [101, 102, 103])
    reports_b = reports(dataset_b, [101, 102, 103])

    within_a = rank_consistency(reports_a).mean_tau
    within_b = rank_consistency(reports_b).mean_tau
    within_mean = (within_a + within_b) / 2
    cross = [
        kendall_tau(ra.angles_in_order(), rb.angles_in_order())
        for ra in reports_a
        for rb in reports_b
    ]
    cross_mean = sum(cross) / len(cross)
    elapsed = time.monotonic() - started

    ok = within_a >= 0.5 and within_mean > cross_mean
    announce(
        7,
        "rank-consistency mirror",
        ok,
        f"within {within_a:.3f}/{within_b:.3f}, cross {cross_mean:.3f}, {elapsed:.1f}s",
    )
    assert within_a >= 0.5
    assert within_mean > cross_mean
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# criterion 8: end-to-end pipeline on the hard-shift task
# ---------------------------------------------------------------------------


def test_criterion_8_pipeline_end_to_end(hard_pretrained):
    started = time.monotonic()
    arch = toy_arch(HARD_DIMS)
    result = run_fapft_pipeline(
        hard_pretrained, hard_config(seed=2), default_policy(arch, "challenging")
    )

    fapft_acc = result.fapft.final_val_accuracy
    probe_acc = result.linear_probe.final_val_accuracy
    fapft_params = result.plan.trainable_param_count(HARD_DIMS.num_classes)
    full_params = arch.full_param_count(HARD_DIMS.num_classes)

    everything = plan_fapft(
        result.angle_report, arch, FapftPolicy("large", (HARD_DIMS.depth,))
    )
    all_residual = set(l.layer_id for l in arch.layers)
    nothing = plan_fapft(result.angle_report, arch, FapftPolicy("large", (0,)))

    elapsed = time.monotonic() - started
    ok = (
        fapft_acc >= probe_acc
        and fapft_params < 0.5 * full_params
        and set(everything.trainable_layer_ids) == all_residual
        and nothing.same_selection(linear_probe_plan(arch))
    )
    announce(
        8,
        "end-to-end pipeline",
        ok,
        f"fapft {fapft_acc:.3f} vs probe {probe_acc:.3f}, "
        f"params {fapft_params}/{full_params}, {elapsed:.1f}s",
    )
    assert fapft_acc >= probe_acc
    assert fapft_params < 0.5 * full_params
    assert set(everything.trainable_layer_ids) == all_residual
    assert nothing.same_selection(linear_probe_plan(arch))
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# criterion 9: soup properties
# ---------------------------------------------------------------------------


def test_criterion_9_soup_properties():
    started = time.monotonic()
    rng = np.random.default_rng(9)

    # elementwise-mean oracle within 1 ulp of storage precision
    ckpts = [
        Checkpoint({"w": rng.normal(size=128).astype(np.float32)})
        for _ in range(5)
    ]
    soup = uniform_soup_checkpoints(ckpts)
    stack = np.stack([c.tensors["w"].astype(np.float64) for c in ckpts])
    oracle = (stack.sum(axis=0) / 5).astype(np.float32)
    ulp = np.spacing(np.abs(oracle))
    assert np.all(np.abs(soup.tensors["w"] - oracle) <= ulp)

    # identity on identical inputs
    same = uniform_soup_checkpoints([ckpts[0]] * 4)
    assert bits_equal(same.tensors["w"], ckpts[0].tensors["w"])

    # a 5-run series soup holds up on held-out data
    dims = ModelDims(depth=6, model_dim=32, heads=4, ffn_dim=64, seq_len=8, num_classes=8)
    spec = replace(HARD_SPEC, seed=13)
    pre_config = TrainConfig(
        arch=dims, optimizer=OPT, schedule=SCHED, seed=5, dataset=spec, task="pretrain"
    )
    pre = train(pre_config).final_checkpoint
    finetune = replace(pre_config, task="finetune", seed=6)
    full = train(finetune, init=pre)
    report = compute_angles(pre, full.final_checkpoint, toy_arch(dims))
    series = run_plan_series(pre, finetune, report, "large", [1, 2, 3, 4, 5])
    accuracies = [run.final_val_accuracy for run in series.runs]
    data = generate_dataset(spec)
    _, _, x_val, y_val = data.task_split("finetune")
    soup_acc = accuracy(series.soup, dims, x_val, y_val)

    elapsed = time.monotonic() - started
    ok = soup_acc >= min(accuracies)
    announce(
        9,
        "soup properties",
        ok,
        f"soup {soup_acc:.3f} vs members min {min(accuracies):.3f}, {elapsed:.1f}s",
    )
    assert ok
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# criterion 10: CLI determinism
# ---------------------------------------------------------------------------


def test_criterion_10_cli_determinism(tmp_path, capsys):
    started = time.monotonic()
    config = {
        "arch": {
            "depth": 2, "model_dim": 16, "heads": 2, "ffn_dim": 32,
            "seq_len": 4, "num_classes": 4,
        },
        "optimizer": {
            "learning_rate": 0.001, "beta1": 0.9, "beta2": 0.999,
            "epsilon": 1e-08, "weight_decay": 0.05,
        },
        "schedule": {"epochs": 2, "warmup_epochs": 1, "batch_size": 16},
        "seed": 7,
        "dataset": {
            "num_classes": 4, "seq_len": 4, "samples_per_class": 20,
            "feature_dim": 16, "noise_scale": 0.5, "shift_magnitude": 1.5,
            "seed": 3,
        },
        "task": "finetune",
        "freeze": None,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config, sort_keys=True))

    def invoke(*argv):
        code = cli_main(list(argv))
        captured = capsys.readouterr()
        assert code == 0, captured.err
        return captured.out

    outs = [
        invoke("params", "--arch", "swin_b", "--strategy", "attn_only", "--classes", "1000")
        for _ in range(2)
    ]
    assert outs[0] == outs[1]

    dirs = []
    stdouts = []
    for i in range(2):
        out_dir = tmp_path / f"pipe{i}"
        stdouts.append(
            invoke(
                "pipeline",
                "--config", str(config_path),
                "--difficulty", "challenging",
                "--series", "1,2",
                "--out", str(out_dir),
                "--json",
            )
        )
        dirs.append(out_dir)
    assert stdouts[0] == stdouts[1]
    names = sorted(p.name for p in dirs[0].iterdir())
    assert names == sorted(p.name for p in dirs[1].iterdir())
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name

    elapsed = time.monotonic() - started
    announce(10, "cli determinism", True, f"{len(names)} artifacts byte-identical, {elapsed:.1f}s")
