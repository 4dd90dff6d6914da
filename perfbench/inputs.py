"""Deterministic benchmark inputs: checkpoints derived only from the workload
seed, and acceptance criterion 8's pipeline configuration.

Checkpoints are written by the benchmark's own writer in the canonical
container layout (sorted names, compact sorted JSON header, F32 payload), so
each file's SHA-256 equals the toolkit's content hash of the same tensors.
Generation never goes through the code under test, which keeps set-up time
independent of the codec being measured.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from fapft import AngleEntry, AngleReport, plan_series

# independent rng streams per workload, mixed with the seed
ANGLES_STREAM = 1
SOUP_STREAM = 2

SOUP_TOPK = (1, 2, 3, 4, 5)


def write_raw_checkpoint(path, tensors: dict, metadata: dict) -> int:
    """Write float32 ``tensors`` canonically; returns the file size in bytes."""
    names = sorted(tensors)
    header: dict = {}
    offset = 0
    for name in names:
        nbytes = tensors[name].size * 4
        header[name] = {
            "data_offsets": [offset, offset + nbytes],
            "dtype": "F32",
            "shape": list(tensors[name].shape),
        }
        offset += nbytes
    header["__metadata__"] = dict(sorted(metadata.items()))
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for name in names:
            fh.write(np.ascontiguousarray(tensors[name], dtype="<f4").data)
    return 8 + len(blob) + offset


def arch_metadata(arch) -> dict:
    meta = {"pft.arch_id": arch.arch_id, "pft.producer": "perfbench"}
    if arch.arch_id == "toy_vit":
        meta["pft.arch_config"] = json.dumps(arch.dims, sort_keys=True)
    return meta


def uniform(rng, shape):
    """Float32 values in [-0.5, 0.5); a few times cheaper to draw than normals."""
    return rng.random(shape, dtype=np.float32) - np.float32(0.5)


def random_tensors(arch, num_classes: int, rng) -> dict:
    return {
        name: uniform(rng, shape)
        for name, shape in sorted(arch.schema_shapes(num_classes).items())
    }


def perturbed(base: dict, names, rng) -> dict:
    """``base`` plus seeded noise on ``names``; every other tensor is the base array.

    Untouched tensors are the base arrays themselves, never recomputed as
    ``base + 0``: that turns any ``-0.0`` into ``+0.0``, so a "frozen" tensor
    would no longer be bitwise equal to the base and a soup over it would be
    refused.
    """
    out = dict(base)
    for name in sorted(names):
        eps = np.float32(rng.uniform(0.005, 0.05))
        out[name] = base[name] + eps * uniform(rng, base[name].shape)
    return out


# ---------------------------------------------------------------------------
# angles: one pre-trained / fine-tuned pair per architecture
# ---------------------------------------------------------------------------


def angle_pair(seed: int, index: int, arch, num_classes: int):
    """Pre-trained tensors and a fine-tuned copy with every tensor perturbed."""
    rng = np.random.default_rng([seed, ANGLES_STREAM, index])
    pre = random_tensors(arch, num_classes, rng)
    return pre, perturbed(pre, pre, rng)


# ---------------------------------------------------------------------------
# soup: a shared base plus one run per plan of a top-k series
# ---------------------------------------------------------------------------


def synthetic_report(arch, rng) -> AngleReport:
    """A seeded angle per residual layer, ranked within its group."""
    angles = {layer.layer_id: float(rng.uniform(0.01, 0.1)) for layer in arch.layers}
    entries = []
    for group in arch.groups:
        order = sorted(group.members, key=lambda l: (-angles[l.layer_id], l.depth_key))
        ranks = {layer.layer_id: r + 1 for r, layer in enumerate(order)}
        entries += [
            AngleEntry(l.layer_id, group.group_id, angles[l.layer_id], ranks[l.layer_id])
            for l in group.members
        ]
    entries.sort(key=lambda e: arch.layer_map[e.layer_id].depth_key)
    return AngleReport(arch.arch_id, tuple(entries), 0.05, "", "", ())


def soup_inputs(seed: int, arch, num_classes: int):
    """(base, plans, members): member k trains plan k's layers and the head."""
    rng = np.random.default_rng([seed, SOUP_STREAM])
    base = random_tensors(arch, num_classes, rng)
    plans = plan_series(synthetic_report(arch, rng), arch, "large", list(SOUP_TOPK))
    members = []
    for plan in plans:
        trained = {"head.weight", "head.bias"}
        for lid in plan.trainable_layer_ids:
            trained.update(arch.layer_map[lid].tensors)
        members.append(perturbed(base, trained, rng))
    return base, plans, members


def write_soup_inputs(work: Path, seed: int, arch, num_classes: int):
    """Base, members, plans and the uniform recipe; returns the checkpoint
    bytes written and the members' tensors."""
    base, plans, members = soup_inputs(seed, arch, num_classes)
    meta = arch_metadata(arch)
    total = write_raw_checkpoint(work / "base.ckpt", base, meta)
    inputs = []
    for k, (plan, member) in enumerate(zip(plans, members), start=1):
        ckpt, plan_path = work / f"member_k{k}.ckpt", work / f"member_k{k}.plan.json"
        total += write_raw_checkpoint(ckpt, member, meta)
        plan_path.write_text(plan.to_json_text(classes=(num_classes,)))
        inputs.append({"path": str(ckpt), "plan": str(plan_path)})
    recipe = {"mode": "uniform", "base": str(work / "base.ckpt"), "inputs": inputs}
    (work / "recipe.json").write_text(json.dumps(recipe, indent=2) + "\n")
    return total, members


# ---------------------------------------------------------------------------
# pipeline: acceptance criterion 8's configuration
# ---------------------------------------------------------------------------

PIPELINE_DIMS = {
    "depth": 4, "model_dim": 32, "heads": 4, "ffn_dim": 64, "seq_len": 8, "num_classes": 8,
}


def pipeline_config(samples_per_class=40, epochs=10) -> dict:
    """Criterion 8's configuration, its seeds included.

    It does not follow the workload seed: criterion 8 claims FAPFT accuracy
    at least the linear probe's for this configuration only, and other run
    seeds can reverse that order by a couple of validation samples.
    """
    dims = PIPELINE_DIMS
    return {
        "arch": dict(dims),
        "optimizer": {"learning_rate": 1e-3},
        "schedule": {"epochs": epochs, "warmup_epochs": 1, "batch_size": 16},
        "seed": 1,
        "dataset": {
            "num_classes": dims["num_classes"],
            "seq_len": dims["seq_len"],
            "samples_per_class": samples_per_class,
            "feature_dim": dims["model_dim"],
            "class_center_scale": 1.0,
            "noise_scale": 3.0,
            "shift_magnitude": 4.0,
            "seed": 11,
        },
        "task": "finetune",
    }
