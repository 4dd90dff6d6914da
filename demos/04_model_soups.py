"""Partial fine-tuning as a soup dimension: average runs that differ only in top-k.

Five runs share every hyper-parameter and the pre-trained start; only the
number of layers selected per group changes. Their uniform average (the
soup) is evaluated on held-out data, and a greedy variant shows how a
deliberately corrupted candidate gets rejected.
"""

import time
from dataclasses import replace

import numpy as np

from fapft import (
    Checkpoint,
    ModelDims,
    OptimizerConfig,
    ScheduleConfig,
    SyntheticSpec,
    TrainConfig,
    accuracy,
    compute_angles,
    describe_arch,
    generate_dataset,
    greedy_soup,
    millions_str,
    run_plan_series,
    soup_millions_str,
    soup_param_total,
    train,
)

dims = ModelDims(depth=6, model_dim=32, heads=4, ffn_dim=64, seq_len=8, num_classes=8)
spec = SyntheticSpec(
    num_classes=8, seq_len=8, samples_per_class=40, feature_dim=32,
    class_center_scale=1.0, noise_scale=3.0, shift_magnitude=4.0, seed=13,
)
config = TrainConfig(
    arch=dims,
    optimizer=OptimizerConfig(learning_rate=1e-3),
    schedule=ScheduleConfig(epochs=10, warmup_epochs=1, batch_size=16),
    seed=5,
    dataset=spec,
    task="pretrain",
)
arch = describe_arch("toy_vit", depth=6, model_dim=32, heads=4, ffn_dim=64, seq_len=8)

print("pre-training, then one full fine-tune to measure angles ...")
t0 = time.monotonic()
pretrained = train(config).final_checkpoint
finetune = replace(config, task="finetune", seed=6)
full = train(finetune, init=pretrained)
report = compute_angles(pretrained, full.final_checkpoint, arch)
print(f"  done in {time.monotonic() - t0:.1f}s")

data = generate_dataset(spec)
_, _, x_val, y_val = data.task_split("finetune")


def held_out_accuracy(ckpt: Checkpoint) -> float:
    return accuracy(ckpt, dims, x_val, y_val)


print("\nfive partial runs, varying only top-k:")
series = run_plan_series(pretrained, finetune, report, "large", [1, 2, 3, 4, 5])
for k, run in enumerate(series.runs, start=1):
    count = run.config.freeze.trainable_param_count(dims.num_classes)
    print(
        f"  top-{k}: val_acc={run.final_val_accuracy:.4f} "
        f"trainable={count} ({millions_str(count)}M)"
    )

print(f"\nuniform soup: val_acc={held_out_accuracy(series.soup):.4f}")
total = soup_param_total(series.plans, dims.num_classes)
display = soup_millions_str(p.trainable_param_count(dims.num_classes) for p in series.plans)
print(f"soup budget = sum of per-run trainable counts: {total} ({display}M)")

print("\ngreedy soup with a corrupted candidate thrown in:")
members = [run.final_checkpoint for run in series.runs]
rng = np.random.default_rng(99)
corrupted = Checkpoint(
    {
        name: rng.normal(size=t.shape).astype(np.float32)
        for name, t in members[0].tensors.items()
    },
    dict(members[0].metadata),
)
greedy = greedy_soup(members + [corrupted], held_out_accuracy)
print(f"  greedy soup val_acc={held_out_accuracy(greedy):.4f}")
print(f"  corrupted member alone scores {held_out_accuracy(corrupted):.4f} and is rejected")
