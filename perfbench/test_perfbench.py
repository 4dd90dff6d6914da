"""The benchmark's own tests, at toy scale: generators, checks, and the contract.

    python3 -m pytest perfbench

The repository's test run collects only ``tests/``, so these stay out of it.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from fapft import Checkpoint, describe_arch, read_checkpoint  # noqa: E402

from perfbench import inputs, run, tracing  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def toy(name, tmp_path, seed=1):
    wl = WORKLOADS[name](tmp_path, seed, "toy")
    wl.setup()
    wl.prepare()
    return wl


def command(wl, op):
    """Run operation ``op``'s commands without checking them."""
    for label, args in wl.commands(op):
        result = run.spawn(run.fapft_argv(args), wl.work / f"{label}.log", 60.0)
        assert result["rc"] == 0, (wl.work / f"{label}.log").read_text()


def test_writer_is_canonical(tmp_path):
    arch = describe_arch("toy_vit", depth=2, model_dim=16, heads=2, ffn_dim=32, seq_len=4)
    tensors = inputs.random_tensors(arch, 10, np.random.default_rng(0))
    meta = inputs.arch_metadata(arch)
    path = tmp_path / "x.ckpt"
    size = inputs.write_raw_checkpoint(path, tensors, meta)
    data = path.read_bytes()
    assert size == len(data)
    assert hashlib.sha256(data).hexdigest() == Checkpoint(tensors, meta).content_hash
    assert read_checkpoint(path).content_hash == Checkpoint(tensors, meta).content_hash


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_follow_the_seed(name, tmp_path):
    def files(seed):
        work = tmp_path / str(seed)
        work.mkdir(exist_ok=True)
        WORKLOADS[name](work, seed, "toy").setup()
        return {p.name: p.read_bytes() for p in sorted(work.iterdir())}

    first = files(1)
    assert first == files(1)
    # pipeline_toy runs criterion 8's configuration whatever the seed
    assert (first == files(2)) == (name == "pipeline_toy")


def test_soup_members_keep_frozen_tensors_bitwise():
    arch = describe_arch("toy_vit", depth=6, model_dim=16, heads=2, ffn_dim=32, seq_len=4)
    base, plans, members = inputs.soup_inputs(1, arch, 10)
    trained = {name for lid in plans[-1].trainable_layer_ids
               for name in arch.layer_map[lid].tensors}
    for member in members:
        for name in set(base) - trained - {"head.weight", "head.bias"}:
            assert member[name] is base[name]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke(name, trace):
    result = bench("--workload", name, "--seed", "3", "--seconds", "0",
                   "--trace", trace, "--scale", "toy")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[kind]
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and metric["unit"]


def test_angles_check_rejects_an_altered_angle(tmp_path):
    wl = toy("angles_ref", tmp_path)
    command(wl, 0)
    assert wl.check(0) is None
    out = wl._out(0, wl.labels[0])
    report = json.loads(out.read_text())
    report["entries"][0]["angle"] = np.nextafter(report["entries"][0]["angle"], 1.0)
    out.write_text(json.dumps(report, sort_keys=True) + "\n")
    assert "oracle" in wl.check(0)


def test_soup_check_rejects_a_flipped_byte(tmp_path):
    wl = toy("soup_ref", tmp_path)
    command(wl, 0)
    assert wl.check(0) is None
    command(wl, 1)
    out = wl._out(1)
    data = bytearray(out.read_bytes())
    data[-1] ^= 0x01
    out.write_bytes(bytes(data))
    assert "output_hash" in wl.check(1)


def test_pipeline_check_rejects_a_changed_or_failing_manifest(tmp_path):
    wl = toy("pipeline_toy", tmp_path)
    command(wl, 0)
    assert wl.check(0) is None
    command(wl, 1)
    path = wl.work / "op1" / "pipeline.json"
    obj = json.loads(path.read_text())
    obj["runs"]["fapft"]["final_val_accuracy"] = -1.0
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")
    assert "differs" in wl.check(1)
    wl.reference = None
    assert "below linear probe" in wl.check(1)


def test_benchmark_json_names_what_the_benchmark_reports():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    per_layer = [*tracing.layer_metrics([]), *run.PROCESS_METRICS]
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [
        (name, tracing.unit_of(name)) for name in per_layer
    ]


def test_refuses_a_directory_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "angles_ref", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
