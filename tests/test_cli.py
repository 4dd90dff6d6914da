import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import fapft
from fapft.angles import compute_angles, render_rank_table
from fapft.arch import describe_arch, manual_strategy
from fapft import checkpoint
from fapft.cli import main
from fapft.checkpoint import Checkpoint, read_checkpoint, write_checkpoint
from fapft.schemas import COMMAND_SCHEMAS
from fapft.soup import arch_from_checkpoint
from fapft.model import ModelDims, init_params
from fapft.train import SyntheticSpec, TrainConfig, generate_dataset, train

CONFIG = {
    "arch": {
        "depth": 2,
        "model_dim": 16,
        "heads": 2,
        "ffn_dim": 32,
        "seq_len": 4,
        "num_classes": 4,
    },
    "optimizer": {
        "learning_rate": 0.001,
        "beta1": 0.9,
        "beta2": 0.999,
        "epsilon": 1e-08,
        "weight_decay": 0.05,
    },
    "schedule": {"epochs": 2, "warmup_epochs": 1, "batch_size": 16},
    "seed": 7,
    "dataset": {
        "num_classes": 4,
        "seq_len": 4,
        "samples_per_class": 20,
        "feature_dim": 16,
        "class_center_scale": 1.0,
        "noise_scale": 0.5,
        "shift_magnitude": 1.5,
        "seed": 3,
    },
    "task": "finetune",
    "freeze": None,
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config_path = root / "config.json"
    config_path.write_text(json.dumps(CONFIG, sort_keys=True) + "\n")

    config = TrainConfig.from_json(config_path.read_text())
    pre = train(
        TrainConfig.from_json(json.dumps({**CONFIG, "task": "pretrain"}))
    ).final_checkpoint
    ft = train(config, init=pre).final_checkpoint
    pre_path = root / "pre.ckpt"
    ft_path = root / "ft.ckpt"
    write_checkpoint(pre, pre_path)
    write_checkpoint(ft, ft_path)
    return {
        "root": root,
        "config": config_path,
        "pre": pre_path,
        "ft": ft_path,
    }


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def check_schema(command, out):
    jsonschema.validate(json.loads(out), COMMAND_SCHEMAS[command])


class TestExitCodes:
    def test_success_is_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "params", "--arch", "vit_b16", "--strategy", "full", "--classes", "1000"
        )
        assert code == 0
        assert out == "86567656\n86.57M\n"

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "params", "--arch", "vit_b16", "--classes", "10", "--bogus"
        )
        assert code == 1
        assert "bogus" in err

    def test_missing_required_flag(self, capsys):
        code, _, _ = run_cli(capsys, "params", "--arch", "vit_b16")
        assert code == 1

    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 1

    def test_conflicting_flags(self, capsys, workdir, tmp_path):
        report = tmp_path / "r.json"
        code, _, err = run_cli(
            capsys,
            "plan",
            "--arch",
            "vit_b16",
            "--report",
            str(report),
            "--difficulty",
            "easy",
            "--magnitude",
            "large",
            "--topk",
            "2",
        )
        assert code == 1

    def test_data_error_is_two(self, capsys, tmp_path):
        missing = tmp_path / "missing.ckpt"
        code, _, err = run_cli(
            capsys, "angles", "--pre", str(missing), "--ft", str(missing), "--arch", "toy_vit"
        )
        assert code == 2
        assert "missing.ckpt" in err

    def test_corrupt_file_is_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"\xff" * 32)
        code, _, _ = run_cli(
            capsys, "angles", "--pre", str(bad), "--ft", str(bad), "--arch", "toy_vit"
        )
        assert code == 2

    def test_numeric_failure_is_three(self, capsys):
        # an impossible tolerance forces the numerical gate to fail
        code, out, _ = run_cli(capsys, "grad-check", "--tolerance", "1e-18")
        assert code == 3

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_learning_rate_is_data_error(self, capsys, tmp_path, value):
        bad = json.loads(json.dumps(CONFIG))
        bad["optimizer"]["learning_rate"] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))  # json writes NaN / Infinity literals
        code, _, err = run_cli(capsys, "train", "--config", str(path))
        assert code == 2
        assert "learning_rate must be finite" in err

    def test_indivisible_model_dim_is_data_error(self, capsys, tmp_path):
        bad = json.loads(json.dumps(CONFIG))
        bad["arch"].update(model_dim=30, heads=4)
        bad["dataset"]["feature_dim"] = 30
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, _, err = run_cli(capsys, "train", "--config", str(path))
        assert code == 2
        assert "model_dim must be divisible by heads" in err

    @pytest.mark.parametrize(
        "command", [["train"], ["pipeline", "--difficulty", "easy"]], ids=["train", "pipeline"]
    )
    def test_depth_zero_train_config_is_data_error(self, capsys, tmp_path, command):
        bad = json.loads(json.dumps(CONFIG))
        bad["arch"]["depth"] = 0
        path = tmp_path / "depth0.json"
        path.write_text(json.dumps(bad))
        code, _, err = run_cli(capsys, *command, "--config", str(path))
        assert code == 2
        assert "depth must be >= 1" in err

    def test_depth_zero_config_still_grad_checks(self, capsys, tmp_path):
        head_only = json.loads(json.dumps(CONFIG))
        head_only["arch"]["depth"] = 0
        path = tmp_path / "depth0.json"
        path.write_text(json.dumps(head_only))
        code, _, _ = run_cli(capsys, "grad-check", "--config", str(path))
        assert code == 0

    def test_failed_text_write_keeps_old_file(self, capsys, tmp_path, monkeypatch):
        out = tmp_path / "params.json"
        out.write_text("old\n")

        def fail(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", fail)
        code, _, err = run_cli(
            capsys, "params", "--arch", "vit_b16", "--strategy", "full",
            "--classes", "1000", "--out", str(out),
        )
        assert code == 2
        assert "replace refused" in err
        assert out.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["params.json"]


NOT_UTF8 = b'{"seed": "\xff"}\n'


def _recipe(entry=(), **fields) -> bytes:
    """A recipe of one input, x.ckpt, with ``entry``'s fields and the recipe's ``fields``."""
    return json.dumps({"inputs": [{"path": "x.ckpt", **dict(entry)}], **fields}).encode()


def _spec(**over) -> bytes:
    return json.dumps({**CONFIG["dataset"], **over}).encode()


def _config(section, **over) -> bytes:
    return json.dumps({**CONFIG, section: {**CONFIG[section], **over}}).encode()


def _lacking_frozen_tensor() -> dict:
    """A plan-attached recipe whose input lacks a tensor that the plan freezes."""
    dims = {"depth": 1, "model_dim": 4, "heads": 1, "ffn_dim": 8, "seq_len": 2}
    arch = describe_arch("toy_vit", **dims)
    meta = {"pft.arch_id": "toy_vit", "pft.arch_config": json.dumps(dims)}
    base = {n: np.zeros(s, dtype=np.float32) for n, s in arch.schema_shapes(2).items()}
    run = {n: t for n, t in base.items() if n != "blocks.0.mlp.fc1.weight"}
    recipe = {"base": "base.ckpt", "inputs": [{"path": "run.ckpt", "plan": "plan.json"}]}
    return {
        "base.ckpt": Checkpoint(base, meta).canonical_bytes(),
        "run.ckpt": Checkpoint(run, meta).canonical_bytes(),
        "plan.json": manual_strategy(arch, "B").to_json_text().encode(),
        "r.json": json.dumps(recipe).encode(),
    }


def _reshaped_frozen_base() -> dict:
    """A plan-attached recipe whose base holds the run's bytes of a frozen
    tensor under the transposed shape."""
    dims = {"depth": 1, "model_dim": 4, "heads": 1, "ffn_dim": 8, "seq_len": 2}
    arch = describe_arch("toy_vit", **dims)
    meta = {"pft.arch_id": "toy_vit", "pft.arch_config": json.dumps(dims)}
    rng = np.random.default_rng(3)
    run = {n: rng.normal(size=s).astype(np.float32) for n, s in arch.schema_shapes(2).items()}
    frozen = run["blocks.0.mlp.fc1.weight"]
    base = {**run, "blocks.0.mlp.fc1.weight": frozen.reshape(frozen.shape[::-1])}
    recipe = {"base": "base.ckpt", "inputs": [{"path": "run.ckpt", "plan": "plan.json"}]}
    return {
        "base.ckpt": Checkpoint(base, meta).canonical_bytes(),
        "run.ckpt": Checkpoint(run, meta).canonical_bytes(),
        "plan.json": manual_strategy(arch, "B").to_json_text().encode(),
        "r.json": json.dumps(recipe).encode(),
    }


NAN = np.array([np.nan], dtype="<f4").tobytes()
SMALL_DIMS = {"depth": 1, "model_dim": 4, "heads": 1, "ffn_dim": 8, "seq_len": 2}
SMALL_META = {"pft.arch_id": "toy_vit", "pft.arch_config": json.dumps(SMALL_DIMS)}


def _small_ckpt(seed, **dims) -> Checkpoint:
    """A two-class checkpoint of the SMALL_DIMS model, with ``dims``' changes."""
    dims = {**SMALL_DIMS, **dims}
    shapes = describe_arch("toy_vit", **dims).schema_shapes(2)
    rng = np.random.default_rng(seed)
    meta = {"pft.arch_id": "toy_vit", "pft.arch_config": json.dumps(dims)}
    return Checkpoint({n: rng.normal(size=s) for n, s in shapes.items()}, meta)


def _with_nan_last(ckpt: Checkpoint) -> bytes:
    """The canonical file of ``ckpt`` with the last element of its last tensor
    in name order, the last 4 bytes of the file, made NaN."""
    return ckpt.canonical_bytes()[:-4] + NAN


def _soup_nan_input() -> dict:
    """A uniform recipe whose second input is NaN at the very end of its payload."""
    recipe = {"inputs": [{"path": "a.ckpt"}, {"path": "b.ckpt"}]}
    return {
        "a.ckpt": _small_ckpt(1).canonical_bytes(),
        "b.ckpt": _with_nan_last(_small_ckpt(2)),
        "r.json": json.dumps(recipe).encode(),
    }


def _soup_truncated_input() -> dict:
    files = _soup_nan_input()
    files["b.ckpt"] = _small_ckpt(2).canonical_bytes()[:-4]
    return files


def _angles_nan_input() -> dict:
    return {"pre.ckpt": _small_ckpt(1).canonical_bytes(), "ft.ckpt": _with_nan_last(_small_ckpt(2))}


def _angles_arch_config(config: str) -> dict:
    """An angles pair whose --pre records ``config`` as its pft.arch_config metadata."""
    pre = _small_ckpt(1)
    meta = {**SMALL_META, "pft.arch_config": config}
    return {"pre.ckpt": Checkpoint(pre.tensors, meta).canonical_bytes(),
            "ft.ckpt": _small_ckpt(2).canonical_bytes()}


def _header_too_many_digits() -> bytes:
    """A checkpoint file whose header holds a shape of more digits than Python converts."""
    header = b'{"w":{"data_offsets":[0,4],"dtype":"F32","shape":[' + b"1" * 5000 + b"]}}"
    return len(header).to_bytes(8, "little") + header + bytes(4)


def _header_of_2_64_elements() -> bytes:
    """A checkpoint file of one empty-span tensor of 2**64 elements, a count
    that wraps to 0 in int64."""
    header = b'{"x":{"data_offsets":[0,0],"dtype":"F32","shape":[4294967296,4294967296]}}'
    return len(header).to_bytes(8, "little") + header


def _plan(**over) -> bytes:
    """The JSON of a toy_vit (SMALL_DIMS) plan with ``over``'s fields."""
    plan = manual_strategy(describe_arch("toy_vit", **SMALL_DIMS), "B")
    return json.dumps({**plan.to_json_obj(), **over}).encode()


def _report(path=(), value=None) -> bytes:
    """The JSON of a toy_vit (SMALL_DIMS) angle report holding ``value`` at
    ``path``; an empty ``path`` leaves the report as computed."""
    report = compute_angles(_small_ckpt(1), _small_ckpt(2), describe_arch("toy_vit", **SMALL_DIMS))
    obj = report.to_json_obj()
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if path:
        parent[path[-1]] = value
    return json.dumps(obj).encode()


def _small_config(**arch) -> bytes:
    """A train config of the SMALL_DIMS model with two classes, with ``arch``'s changes."""
    dims = {**SMALL_DIMS, "num_classes": 2, **arch}
    dataset = {**CONFIG["dataset"], "num_classes": dims["num_classes"],
               "seq_len": dims["seq_len"], "feature_dim": dims["model_dim"]}
    return json.dumps({**CONFIG, "arch": dims, "dataset": dataset}).encode()


def _greedy_planned(changed: str) -> dict:
    """A greedy recipe of two runs that share a plan freezing the FFN layers
    (strategy B), with its eval config; the second run changed tensor ``changed``."""
    base = _small_ckpt(1)
    arrays = dict(base.tensors)
    changed = {**arrays, changed: arrays[changed] + 1}
    recipe = {"mode": "greedy", "base": "base.ckpt",
              "inputs": [{"path": "r1.ckpt", "plan": "p.json"},
                         {"path": "r2.ckpt", "plan": "p.json"}]}
    return {
        "base.ckpt": base.canonical_bytes(),
        "r1.ckpt": base.canonical_bytes(),
        "r2.ckpt": Checkpoint(changed, SMALL_META).canonical_bytes(),
        "p.json": _plan(),
        "r.json": json.dumps(recipe).encode(),
        "c.json": _small_config(),
    }


def _uniform_planned() -> dict:
    """:func:`_greedy_planned`'s two runs, which keep the layers their plan
    freezes, in a uniform recipe."""
    files = _greedy_planned("blocks.0.attn.proj.bias")
    recipe = {**json.loads(files.pop("r.json")), "mode": "uniform"}
    del files["c.json"]
    return {**files, "r.json": json.dumps(recipe).encode()}


def _uniform_planned_base(metadata: dict) -> dict:
    """:func:`_uniform_planned`'s recipe, whose base's metadata is ``metadata``."""
    base = _small_ckpt(1)
    return {**_uniform_planned(), "base.ckpt": Checkpoint(base.tensors, metadata).canonical_bytes()}


def _greedy_scored_by(**arch) -> dict:
    """A greedy recipe of two SMALL_DIMS runs with two classes, and an eval
    config whose model differs from theirs by ``arch``."""
    recipe = {"mode": "greedy", "inputs": [{"path": "r1.ckpt"}, {"path": "r2.ckpt"}]}
    return {
        "r1.ckpt": _small_ckpt(1).canonical_bytes(),
        "r2.ckpt": _small_ckpt(2).canonical_bytes(),
        "r.json": json.dumps(recipe).encode(),
        "c.json": _small_config(**arch),
    }


def _greedy_scored_on(**dataset) -> dict:
    """:func:`_greedy_scored_by`'s recipe, with an eval config of the runs'
    model whose dataset has ``dataset``'s changes."""
    config = json.loads(_small_config())
    config["dataset"].update(dataset)
    return {**_greedy_scored_by(), "c.json": json.dumps(config).encode()}


SMALL_ARCH = ["--arch", "toy_vit", "--dims", json.dumps(SMALL_DIMS)]
SMALL_PARAMS = ["params", *SMALL_ARCH, "--classes", "2"]
SMALL_PLAN = ["plan", *SMALL_ARCH, "--difficulty", "easy"]
POSITIVE = "argument --{}: must be a positive finite number"
GREEDY_SMALL = ["soup", "--recipe", "@r.json", "--eval-config", "@c.json", "--out", "@s.ckpt"]
ANGLES_TOY = ["angles", "--pre", "@pre.ckpt", "--ft", "@ft.ckpt", "--arch", "toy_vit",
              "--out", "@a.json"]

# (id, argv, files written first, exit code, fragment of stdout + stderr);
# an argument "@name" is the path of ``name`` in a fresh directory, which is
# also the working directory
BAD_INPUTS = [
    ("soup_missing_recipe", ["soup", "--recipe", "@missing.json", "--out", "@s.ckpt"],
     {}, 2, "missing.json"),
    ("train_config_not_utf8", ["train", "--config", "@c.json"],
     {"c.json": NOT_UTF8}, 2, "not UTF-8"),
    ("rank_reports_not_utf8", ["rank", "--reports", "@a.json", "@a.json"],
     {"a.json": NOT_UTF8}, 2, "not UTF-8"),
    ("soup_recipe_not_utf8", ["soup", "--recipe", "@r.json", "--out", "@s.ckpt"],
     {"r.json": NOT_UTF8}, 2, "not UTF-8"),
    # a summary that cannot be decoded is skipped, like malformed JSON
    ("report_skips_not_utf8", ["report", "--dir", "@.", "--json"],
     {"bad.json": NOT_UTF8, "run.ckpt": b""}, 0,
     '"artifacts": [\n    {\n      "file": "run.ckpt"'),
    ("dataset_spec_malformed_json", ["dataset", "--spec", "@spec.json", "--out", "@d.ckpt"],
     {"spec.json": b"{not json"}, 2, "malformed dataset spec JSON"),
    ("dataset_spec_negative_classes", ["dataset", "--spec", "@spec.json", "--out", "@d.ckpt"],
     {"spec.json": _spec(num_classes=-1)}, 2, "num_classes must be positive"),
    ("dataset_checks_out_first", ["dataset", "--spec", "@missing.json"],
     {}, 1, "dataset requires --out"),
    ("soup_checks_out_first", ["soup", "--recipe", "@missing.json"],
     {}, 1, "soup requires --out"),
    # the manifest would overwrite the soup; refused before the recipe is read
    ("soup_manifest_is_out",
     ["soup", "--recipe", "@missing.json", "--out", "@s.ckpt", "--manifest", "./s.ckpt"],
     {}, 1, "soup --manifest must name another file than --out"),
    # nor may it overwrite a file the soup reads; refused before any checkpoint is opened
    ("soup_manifest_is_an_input",
     ["soup", "--recipe", "@r.json", "--out", "@s.ckpt", "--manifest", "@r2.ckpt"],
     _uniform_planned(), 1, "would overwrite a file the soup reads"),
    ("soup_manifest_is_the_base",
     ["soup", "--recipe", "@r.json", "--out", "@s.ckpt", "--manifest", "@base.ckpt"],
     _uniform_planned(), 1, "would overwrite a file the soup reads"),
    ("soup_negative_weight", ["soup", "--recipe", "@r.json", "--out", "@s.ckpt"],
     {"r.json": _recipe({"weight": -1})}, 2, "weights must be finite and positive"),
    # JSON's NaN token
    ("soup_nan_weight", ["soup", "--recipe", "@r.json", "--out", "@s.ckpt"],
     {"r.json": _recipe({"weight": float("nan")})}, 2, "weights must be finite and positive"),
    # a bool is not a number, and a string is not one either
    ("soup_bool_weight", ["soup", "--recipe", "@r.json", "--out", "@s.ckpt"],
     {"r.json": _recipe({"weight": True})}, 2, "recipe weight must be a number, got True"),
    ("soup_string_weight", ["soup", "--recipe", "@r.json", "--out", "@s.ckpt"],
     {"r.json": _recipe({"weight": "2"})}, 2, "recipe weight must be a number, got '2'"),
    ("soup_null_path", ["soup", "--recipe", "@r.json", "--out", "@s.ckpt"],
     {"r.json": _recipe({"path": None})}, 2, "recipe path must be a file name, got None"),
    # no file name holds a NUL byte, and the OS refuses to open one
    ("soup_nul_in_path", ["soup", "--recipe", "@r.json", "--out", "@s.ckpt"],
     {"r.json": _recipe({"path": "a\0b"})}, 2, "recipe path must be a file name, got 'a\\x00b'"),
    ("soup_plan_not_a_string", ["soup", "--recipe", "@r.json", "--out", "@s.ckpt"],
     {"r.json": _recipe({"plan": 5}, base="b.ckpt")}, 2, "recipe plan must be a file name, got 5"),
    ("soup_base_not_a_string", ["soup", "--recipe", "@r.json", "--out", "@s.ckpt"],
     {"r.json": _recipe({"plan": "p.json"}, base=["b.ckpt"])}, 2,
     "recipe base must be a file name, got ['b.ckpt']"),
    # a greedy soup is uniform, so a weight would be listed but not applied
    ("soup_weighted_greedy", ["soup", "--recipe", "@r.json", "--out", "@s.ckpt"],
     {"r.json": _recipe({"weight": 3.0}, mode="greedy")}, 2, "its input weights must be 1.0"),
    # an int weight beyond the float range, and one of more digits than
    # Python converts
    ("soup_int_weight_overflows", ["soup", "--recipe", "@r.json", "--out", "@s.ckpt"],
     {"r.json": _recipe({"weight": 10**400})}, 2, "int too large to convert to float"),
    ("soup_weight_too_many_digits", ["soup", "--recipe", "@r.json", "--out", "@s.ckpt"],
     {"r.json": b'{"inputs": [{"path": "x.ckpt", "weight": ' + b"1" * 5000 + b"}]}"}, 2,
     "malformed recipe JSON"),
    # two weights whose float64 sum overflows would write a soup of NaN
    ("soup_weights_overflow", ["soup", "--recipe", "@r.json", "--out", "@s.ckpt"],
     {"r.json": json.dumps({"inputs": [{"path": "x.ckpt", "weight": 1e308}] * 2}).encode()},
     2, "weights sum too large"),
    ("params_empty_strategy", ["params", "--arch", "vit_b16", "--strategy", "", "--classes", "10"],
     {}, 1, "unknown --strategy ''"),
    ("params_two_letter_strategy",
     ["params", "--arch", "vit_b16", "--strategy", "BC", "--classes", "10"],
     {}, 1, "unknown --strategy 'BC'"),
    ("params_zero_classes", ["params", "--arch", "vit_b16", "--strategy", "B", "--classes", "0"],
     {}, 1, "argument --classes: class counts must be positive ints"),
    ("plan_zero_classes",
     ["plan", "--arch", "vit_b16", "--report", "@missing.json", "--difficulty", "easy",
      "--classes", "100,0"],
     {}, 1, "argument --classes: class counts must be positive ints"),
    ("soup_zero_classes",
     ["soup", "--recipe", "@missing.json", "--out", "@s.ckpt", "--classes", "0"],
     {}, 1, "argument --classes: class counts must be positive ints"),
    ("pipeline_series_not_ints",
     ["pipeline", "--config", "@missing.json", "--difficulty", "easy", "--series", "1,x"],
     {}, 1, "argument --series"),
    # a negative top-k is refused by the flag, before any file is read
    ("pipeline_negative_topk",
     ["pipeline", "--config", "@missing.json", "--difficulty", "easy", "--topk", "-1"],
     {}, 1, "argument --topk"),
    ("pipeline_negative_series",
     ["pipeline", "--config", "@missing.json", "--difficulty", "easy", "--series", "1,-2"],
     {}, 1, "argument --series: values must be >= 0, got '1,-2'"),
    ("plan_negative_topk",
     ["plan", "--arch", "vit_b16", "--report", "@missing.json", "--difficulty", "easy",
      "--topk", "1,-1"],
     {}, 1, "argument --topk"),
    ("grad_check_zero_step", ["grad-check", "--step", "0"], {}, 1, POSITIVE.format("step")),
    ("grad_check_negative_step", ["grad-check", "--step", "-0.5"], {}, 1, POSITIVE.format("step")),
    ("grad_check_nan_step", ["grad-check", "--step", "nan"], {}, 1, POSITIVE.format("step")),
    ("grad_check_inf_step", ["grad-check", "--step", "inf"], {}, 1, POSITIVE.format("step")),
    ("grad_check_nan_tolerance", ["grad-check", "--tolerance", "nan"],
     {}, 1, POSITIVE.format("tolerance")),
    ("grad_check_inf_tolerance", ["grad-check", "--tolerance", "inf"],
     {}, 1, POSITIVE.format("tolerance")),
    ("grad_check_zero_samples", ["grad-check", "--samples", "0"], {}, 1,
     "argument --samples: must be a positive int, got '0'"),
    ("grad_check_negative_samples", ["grad-check", "--samples", "-5"], {}, 1,
     "argument --samples: must be a positive int, got '-5'"),
    ("soup_input_lacks_frozen_tensor", ["soup", "--recipe", "@r.json", "--out", "@s.ckpt"],
     _lacking_frozen_tensor(), 2,
     "run.ckpt: lacks tensor 'blocks.0.mlp.fc1.weight' of the base's toy_vit model"),
    # the same bytes under another shape are another tensor, and the base is
    # checked against the architecture its metadata declares
    ("soup_base_frozen_tensor_reshaped", ["soup", "--recipe", "@r.json", "--out", "@s.ckpt"],
     _reshaped_frozen_base(), 2,
     "base.ckpt: tensor 'blocks.0.mlp.fc1.weight' has shape (4, 8), "
     "the base's toy_vit model needs (8, 4)"),
    # a greedy soup makes the uniform soup's check of the layers frozen in all runs
    ("soup_greedy_frozen_tensor_changed",
     ["soup", "--recipe", "@r.json", "--eval-config", "@c.json", "--out", "@s.ckpt"],
     _greedy_planned("blocks.0.mlp.fc1.weight"), 2,
     "r2.ckpt: frozen tensor 'blocks.0.mlp.fc1.weight' differs from the base"),
    # a greedy soup's candidates are scored by the eval config's model, so they
    # must hold its tensors: a wider head would score labels the runs never had
    ("soup_greedy_eval_config_more_classes", GREEDY_SMALL, _greedy_scored_by(num_classes=3), 2,
     "r1.ckpt: tensor 'head.weight' has shape (2, 4), the --eval-config model needs (3, 4)"),
    ("soup_greedy_eval_config_deeper", GREEDY_SMALL, _greedy_scored_by(depth=2), 2,
     "r1.ckpt: lacks tensor 'blocks.1.norm1.weight' of the --eval-config model"),
    ("soup_greedy_eval_config_shallower", GREEDY_SMALL, _greedy_scored_by(depth=0), 2,
     "r1.ckpt: tensor 'blocks.0.attn.proj.bias' is not in the --eval-config model"),
    # top-k values are checked before any training, so no artifact is left behind
    ("pipeline_series_exceeds_depth",
     ["pipeline", "--config", "@c.json", "--difficulty", "easy", "--series", "1,5",
      "--out", "@out"],
     {"c.json": _config("arch")}, 2, "topk 5 exceeds stage 0 size 2"),
    ("pipeline_topk_exceeds_depth",
     ["pipeline", "--config", "@c.json", "--difficulty", "easy", "--topk", "3", "--out", "@out"],
     {"c.json": _config("arch")}, 2, "topk 3 exceeds stage 0 size 2"),
    ("pipeline_topk_per_stage_count",
     ["pipeline", "--config", "@c.json", "--difficulty", "easy", "--topk", "1,1",
      "--out", "@out"],
     {"c.json": _config("arch")}, 2, "toy_vit has 1 stages but policy has 2 topk values"),
    ("dataset_spec_float_count", ["dataset", "--spec", "@spec.json", "--out", "@d.ckpt"],
     {"spec.json": _spec(samples_per_class=1.5)}, 2, "samples_per_class must be an int"),
    ("train_config_float_count", ["train", "--config", "@c.json", "--out", "@out"],
     {"c.json": _config("dataset", samples_per_class=1.5)}, 2,
     "samples_per_class must be an int"),
    # a label the head has no output for, and a task too small to split 80/20
    ("train_config_more_classes_than_head", ["train", "--config", "@c.json", "--out", "@out"],
     {"c.json": _config("dataset", num_classes=8)}, 2,
     "invalid train config: dataset num_classes must be <= the model num_classes"),
    ("soup_greedy_eval_config_more_classes_than_head", GREEDY_SMALL,
     _greedy_scored_on(num_classes=3), 2,
     "invalid train config: dataset num_classes must be <= the model num_classes"),
    ("train_config_one_sample", ["train", "--config", "@c.json", "--out", "@out"],
     {"c.json": _config("dataset", num_classes=1, samples_per_class=1)}, 2,
     "invalid dataset spec: dataset must hold at least 2 samples per task"),
    ("grad_check_one_sample", ["grad-check", "--config", "@c.json", "--out", "@g.json"],
     {"c.json": _config("dataset", num_classes=1, samples_per_class=1)}, 2,
     "invalid dataset spec: dataset must hold at least 2 samples per task"),
    # a container with no training sample, which the dataset schema refuses
    ("dataset_one_sample", ["dataset", "--spec", "@spec.json", "--out", "@d.ckpt"],
     {"spec.json": json.dumps({"num_classes": 1, "seq_len": 2, "samples_per_class": 1,
                               "feature_dim": 4, "seed": 1}).encode()}, 2,
     "invalid dataset spec: dataset must hold at least 2 samples per task"),
    # an --out that cannot become a directory, because a file holds its place
    ("train_out_is_a_file", ["train", "--config", "@c.json", "--out", "@out"],
     {"c.json": _config("arch"), "out": b""}, 2, "out: [Errno 17] File exists"),
    ("pipeline_out_under_a_file",
     ["pipeline", "--config", "@c.json", "--difficulty", "easy", "--out", "@out/x"],
     {"c.json": _config("arch"), "out": b""}, 2, "out/x: [Errno 20] Not a directory"),
    ("train_config_float_depth", ["train", "--config", "@c.json", "--out", "@out"],
     {"c.json": _config("arch", depth=2.0)}, 2, "depth must be an int"),
    ("train_config_float_epochs", ["train", "--config", "@c.json", "--out", "@out"],
     {"c.json": _config("schedule", epochs=1.5)}, 2, "epochs must be an int"),
    ("train_config_float_batch_size", ["train", "--config", "@c.json", "--out", "@out"],
     {"c.json": _config("schedule", batch_size=8.5)}, 2, "batch_size must be an int"),
    ("train_config_negative_dataset_seed", ["train", "--config", "@c.json", "--out", "@out"],
     {"c.json": _config("dataset", seed=-1)}, 2, "seed must be >= 0"),
    ("train_config_negative_run_seed", ["train", "--config", "@c.json", "--out", "@out"],
     {"c.json": json.dumps({**CONFIG, "seed": -1}).encode()}, 2, "seed must be >= 0"),
    ("train_config_float_run_seed", ["train", "--config", "@c.json", "--out", "@out"],
     {"c.json": json.dumps({**CONFIG, "seed": 1.5}).encode()}, 2, "seed must be an int"),
    # a bool is not a float, though Python counts it as an int
    ("train_config_bool_learning_rate", ["train", "--config", "@c.json", "--out", "@out"],
     {"c.json": _config("optimizer", learning_rate=True)}, 2,
     "learning_rate must be a number, got True"),
    ("train_config_bool_weight_decay", ["train", "--config", "@c.json", "--out", "@out"],
     {"c.json": _config("optimizer", weight_decay=False)}, 2,
     "weight_decay must be a number, got False"),
    ("train_config_bool_noise_scale", ["train", "--config", "@c.json", "--out", "@out"],
     {"c.json": _config("dataset", noise_scale=True)}, 2, "noise_scale must be a number"),
    ("dataset_spec_bool_shift", ["dataset", "--spec", "@spec.json", "--out", "@d.ckpt"],
     {"spec.json": _spec(shift_magnitude=True)}, 2, "shift_magnitude must be a number"),
    ("dataset_spec_bool_center_scale", ["dataset", "--spec", "@spec.json", "--out", "@d.ckpt"],
     {"spec.json": _spec(class_center_scale=False)}, 2, "class_center_scale must be a number"),
    # a non-finite stored value is bad data; the soup fails on the last tensor
    # of its stream, and neither the output nor its temporary file is left
    ("soup_nan_input", ["soup", "--recipe", "@r.json", "--out", "@s.ckpt"],
     _soup_nan_input(), 2, "b.ckpt: tensor pos_embed contains non-finite values"),
    ("soup_truncated_input", ["soup", "--recipe", "@r.json", "--out", "@s.ckpt"],
     _soup_truncated_input(), 2, "b.ckpt: tensor 'pos_embed' offsets [760, 792) out of bounds"),
    ("angles_nan_input",
     ["angles", "--pre", "@pre.ckpt", "--ft", "@ft.ckpt", "--arch", "toy_vit", "--out", "@a.json"],
     _angles_nan_input(), 2, "ft.ckpt: tensor pos_embed contains non-finite values"),
    # every plan field holds its JSON type
    ("train_config_freeze_a_number", ["train", "--config", "@c.json", "--out", "@out"],
     {"c.json": json.dumps({**CONFIG, "freeze": 5}).encode()}, 2,
     "plan JSON must be an object, got 5"),
    ("params_plan_a_number", [*SMALL_PARAMS, "--plan", "@p.json", "--out", "@o.json"],
     {"p.json": b"5"}, 2, "plan JSON must be an object, got 5"),
    ("params_plan_layer_not_a_string", [*SMALL_PARAMS, "--plan", "@p.json", "--out", "@o.json"],
     {"p.json": _plan(trainable_layers=[["a"]])}, 2,
     "plan trainable_layers must be a list of strings, got [['a']]"),
    ("params_plan_counts_not_by_class", [*SMALL_PARAMS, "--plan", "@p.json", "--out", "@o.json"],
     {"p.json": _plan(param_count_by_classes={"x": 1})}, 2,
     "plan param_count_by_classes must map positive-int strings to ints, got {'x': 1}"),
    ("params_plan_tag_not_a_string", [*SMALL_PARAMS, "--plan", "@p.json", "--out", "@o.json"],
     {"p.json": _plan(strategy_tag=5)}, 2, "plan strategy_tag must be a string, got 5"),
    # "no" is not false, and no run trains every non-residual tensor for it
    ("train_plan_string_bool",
     ["train", "--config", "@c.json", "--plan", "@p.json", "--out", "@out"],
     {"c.json": json.dumps({**CONFIG, "arch": {**CONFIG["arch"], "depth": 1}}).encode(),
      "p.json": _plan(non_residual_trainable="no")}, 2,
     "plan non_residual_trainable must be a bool, got 'no'"),
    ("params_plan_layer_twice", [*SMALL_PARAMS, "--plan", "@p.json", "--out", "@o.json"],
     {"p.json": _plan(trainable_layers=["s0.b0.ATTN", "s0.b0.ATTN"])}, 2,
     "plan names a layer twice"),
    # a plan needs a toy_vit descriptor, and so at least one block
    ("grad_check_depth_zero_plan", ["grad-check", "--config", "@c.json", "--out", "@g.json"],
     {"c.json": json.dumps({**CONFIG, "arch": {**CONFIG["arch"], "depth": 0},
                            "freeze": json.loads(_plan())}).encode()}, 2,
     "invalid train config: toy_vit dimension depth must be positive"),
    # every angle report field holds its JSON type
    ("rank_string_angle", ["rank", "--reports", "@a.json", "@a.json", "--out", "@o.json"],
     {"a.json": _report(("entries", 0, "angle"), "1.5")}, 2, "angle must be a number, got '1.5'"),
    ("rank_float_rank", ["rank", "--reports", "@a.json", "@a.json", "--out", "@o.json"],
     {"a.json": _report(("entries", 0, "rank_in_group"), 1.7)}, 2,
     "rank_in_group must be an int, got 1.7"),
    # a deeper model's report holds every layer id of the shallower one
    ("plan_report_of_deeper_model", [*SMALL_PLAN, "--report", "@a.json", "--out", "@p.json"],
     {"a.json": compute_angles(_small_ckpt(1, depth=2), _small_ckpt(2, depth=2),
                               describe_arch("toy_vit", **{**SMALL_DIMS, "depth": 2}))
      .to_json_text().encode()}, 2,
     "report is for toy_vit with 4 layers, not for ArchDescriptor('toy_vit', depth=1, "
     "model_dim=4, heads=1, ffn_dim=8, seq_len=2) with 2 layers"),
    ("plan_int_hash", [*SMALL_PLAN, "--report", "@a.json", "--out", "@p.json"],
     {"a.json": _report(("provenance", "pretrained_hash"), 5)}, 2,
     "pretrained_hash must be a string, got 5"),
    ("plan_excluded_a_string", [*SMALL_PLAN, "--report", "@a.json", "--out", "@p.json"],
     {"a.json": _report(("provenance", "excluded_tensors"), "abc")}, 2,
     "excluded_tensors must be a list, got 'abc'"),
    # an int of more digits than Python converts is malformed JSON
    ("train_config_too_many_digits", ["train", "--config", "@c.json", "--out", "@out"],
     {"c.json": b'{"seed": ' + b"1" * 5000 + b"}"}, 2, "malformed train config JSON"),
    ("dataset_spec_too_many_digits", ["dataset", "--spec", "@spec.json", "--out", "@d.ckpt"],
     {"spec.json": b'{"seed": ' + b"1" * 5000 + b"}"}, 2, "malformed dataset spec JSON"),
    ("params_plan_too_many_digits", [*SMALL_PARAMS, "--plan", "@p.json", "--out", "@o.json"],
     {"p.json": b'{"x": ' + b"1" * 5000 + b"}"}, 2, "malformed plan JSON"),
    ("rank_report_too_many_digits", ["rank", "--reports", "@a.json", "@a.json", "--out", "@o.json"],
     {"a.json": b'{"x": ' + b"1" * 5000 + b"}"}, 2, "malformed angle report JSON"),
    # pft.arch_config metadata is read from a file, so a bad value is bad data
    ("angles_arch_config_not_an_object", ANGLES_TOY, _angles_arch_config("[1]"), 2,
     "pft.arch_config metadata must be a JSON object, got '[1]'"),
    ("angles_arch_config_depth_zero", ANGLES_TOY, _angles_arch_config('{"depth": 0}'), 2,
     "invalid pft.arch_config metadata: toy_vit dimension depth must be positive"),
    ("angles_arch_config_bool_dimension", ANGLES_TOY, _angles_arch_config('{"depth": true}'), 2,
     "invalid pft.arch_config metadata: toy_vit dimension depth must be an int, got True"),
    ("angles_arch_config_too_many_digits", ANGLES_TOY,
     _angles_arch_config('{"depth": ' + "1" * 5000 + "}"), 2,
     "malformed pft.arch_config metadata"),
    # a checkpoint's declared model is read from its metadata, so an error names the file
    ("angles_pre_without_arch_id", ANGLES_TOY,
     {"pre.ckpt": Checkpoint(_small_ckpt(1).tensors, {"pft.arch_config": json.dumps(SMALL_DIMS)})
      .canonical_bytes(), "ft.ckpt": _small_ckpt(2).canonical_bytes()}, 2,
     "pre.ckpt: checkpoint has no pft.arch_id metadata"),
    ("soup_base_without_arch_id", ["soup", "--recipe", "@r.json", "--out", "@s.ckpt"],
     _uniform_planned_base({"pft.arch_config": json.dumps(SMALL_DIMS)}), 2,
     "error: base.ckpt: checkpoint has no pft.arch_id metadata"),
    ("soup_base_arch_config_not_an_object", ["soup", "--recipe", "@r.json", "--out", "@s.ckpt"],
     _uniform_planned_base({**SMALL_META, "pft.arch_config": "[1]"}), 2,
     "error: base.ckpt: pft.arch_config metadata must be a JSON object, got '[1]'"),
    # a descriptor holds a layer per block, so a toy_vit depth is bounded
    ("train_config_depth_above_bound", ["train", "--config", "@c.json", "--out", "@out"],
     {"c.json": _config("arch", depth=1025)}, 2, "invalid train config: depth must be <= 1024"),
    ("angles_arch_config_depth_above_bound", ANGLES_TOY, _angles_arch_config('{"depth": 1025}'),
     2, "invalid pft.arch_config metadata: toy_vit dimension depth must be <= 1024"),
    # each checkpoint must hold the residual tensors of the --dims model
    ("angles_dims_of_another_width",
     [*ANGLES_TOY, "--dims", json.dumps({**SMALL_DIMS, "model_dim": 2})],
     {"pre.ckpt": _small_ckpt(1).canonical_bytes(), "ft.ckpt": _small_ckpt(2).canonical_bytes()},
     2, "pre-trained checkpoint: tensor 'blocks.0.norm1.weight' has shape (4,), "
        "the toy_vit model needs (2,)"),
    ("angles_header_too_many_digits", ANGLES_TOY,
     {"pre.ckpt": _header_too_many_digits(), "ft.ckpt": _small_ckpt(2).canonical_bytes()}, 2,
     "pre.ckpt: malformed header JSON"),
    # an init checkpoint is the config's model, but for its head, so a block
    # the config lacks is refused rather than left out of the run
    ("train_init_deeper_than_config",
     ["train", "--config", "@c.json", "--init", "@i.ckpt", "--out", "@out"],
     {"c.json": _small_config(), "i.ckpt": _small_ckpt(1, depth=2).canonical_bytes()}, 2,
     "init checkpoint: tensor 'blocks.1.attn.proj.bias' is not in the config's model"),
    ("train_init_elements_overflow_int64",
     ["train", "--config", "@c.json", "--init", "@i.ckpt", "--out", "@out"],
     {"c.json": _config("arch"), "i.ckpt": _header_of_2_64_elements()}, 2,
     "i.ckpt: tensor 'x' spans 0 bytes but shape [4294967296, 4294967296] with dtype F32 "
     "needs 73786976294838206464"),
    # bad flag values are usage errors that name the flag
    ("rank_one_report", ["rank", "--reports", "@a.json", "--out", "@o.json"],
     {"a.json": _report()}, 1, "rank needs at least 2 --reports"),
    ("params_dims_depth_zero",
     ["params", "--arch", "toy_vit", "--dims", '{"depth": 0}', "--classes", "2"],
     {}, 1, "--dims: toy_vit dimension depth must be positive"),
    ("params_dims_depth_above_bound",
     ["params", "--arch", "toy_vit", "--dims", '{"depth": 1025}', "--strategy", "B",
      "--classes", "2"],
     {}, 1, "--dims: toy_vit dimension depth must be <= 1024"),
    ("params_dims_arch_id", ["params", "--arch", "toy_vit", "--dims", '{"arch_id": "vit_b16"}',
                             "--strategy", "B", "--classes", "2"],
     {}, 1, "--dims: unknown toy_vit dimensions: ['arch_id']"),
    ("params_dims_bool_dimension",
     ["params", "--arch", "toy_vit", "--dims", '{"heads": false}', "--classes", "2"],
     {}, 1, "--dims: toy_vit dimension heads must be an int, got False"),
    # a summary whose accuracy is not a finite number is listed without it:
    # a string, NaN, a number read as infinity, and an int beyond the float
    # range; as JSON, no NaN or Infinity is written
    ("report_accuracy_not_a_number", ["report", "--dir", "@."],
     {"run.json": b'{"final_val_accuracy": "x"}'}, 0, "  run.json                     summary\n"),
    ("report_accuracy_nan", ["report", "--dir", "@."],
     {"run.json": b'{"final_val_accuracy": NaN}'}, 0, "  run.json                     summary\n"),
    ("report_accuracy_infinite", ["report", "--dir", "@."],
     {"run.json": b'{"final_val_accuracy": 1e999}'}, 0, "  run.json                     summary\n"),
    ("report_accuracy_int_beyond_float", ["report", "--dir", "@."],
     {"run.json": b'{"final_val_accuracy": 1%s}' % (b"0" * 399)}, 0,
     "  run.json                     summary\n"),
    ("report_json_accuracy_nan", ["report", "--dir", "@.", "--json"],
     {"run.json": b'{"final_val_accuracy": NaN}'}, 0,
     '"file": "run.json",\n      "kind": "summary"\n'),
    ("report_json_accuracy_infinite", ["report", "--dir", "@.", "--json"],
     {"run.json": b'{"final_val_accuracy": 1e999}'}, 0,
     '"file": "run.json",\n      "kind": "summary"\n'),
    ("report_json_accuracy_int_beyond_float", ["report", "--dir", "@.", "--json"],
     {"run.json": b'{"final_val_accuracy": 1%s}' % (b"0" * 399)}, 0,
     '"file": "run.json",\n      "kind": "summary"\n'),
]


@pytest.mark.parametrize(
    "argv, files, code, fragment", [pytest.param(*row[1:], id=row[0]) for row in BAD_INPUTS]
)
def test_bad_input_exit_code(capsys, tmp_path, monkeypatch, argv, files, code, fragment):
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    monkeypatch.chdir(tmp_path)
    argv = [str(tmp_path / arg[1:]) if arg.startswith("@") else arg for arg in argv]
    got, out, err = run_cli(capsys, *argv)
    assert got == code, err
    assert fragment in out + err
    assert sorted(os.listdir(tmp_path)) == sorted(files)


# a recipe field names one of these files, or holds any JSON value
_SMALL_PLAN = manual_strategy(describe_arch("toy_vit", **SMALL_DIMS), "B")
RECIPE_FILES = {
    "base.ckpt": _small_ckpt(1).canonical_bytes(),
    "run.ckpt": _small_ckpt(2).canonical_bytes(),
    "plan.json": _SMALL_PLAN.to_json_text().encode(),
}
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=4,
)
RECIPE_FIELDS = (
    st.sampled_from(sorted(RECIPE_FILES) + ["missing.ckpt"])
    | st.text(alphabet="\0/.ab", max_size=4)  # names with the characters paths treat specially
    | JSON_VALUES
)
RECIPE_WEIGHTS = st.sampled_from([1.0, 2.5]) | st.floats() | JSON_VALUES
RECIPES = st.fixed_dictionaries(
    {"inputs": st.lists(
        st.fixed_dictionaries(
            {"path": RECIPE_FIELDS}, optional={"weight": RECIPE_WEIGHTS, "plan": RECIPE_FIELDS}
        ),
        min_size=1, max_size=3,
    )},
    optional={"mode": st.sampled_from(["uniform", "greedy"]) | JSON_VALUES, "base": RECIPE_FIELDS},
)


# whatever a recipe's fields hold, fapft soup exits 0, 1 or 2 and never
# raises; the two examples are recipes that once made it raise
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(recipe=RECIPES)
@example(recipe={"inputs": [{"path": "run.ckpt", "plan": 5}], "base": "base.ckpt"})
@example(recipe={"inputs": [{"path": "a\0b"}]})
def test_any_recipe_exits_with_a_code(capsys, tmp_path, monkeypatch, recipe):
    for name, data in RECIPE_FILES.items():
        (tmp_path / name).write_bytes(data)
    (tmp_path / "r.json").write_text(json.dumps(recipe))
    monkeypatch.chdir(tmp_path)
    argv = ["soup", "--recipe", "r.json", "--out", "s.ckpt", "--classes", "2"]
    code, _, err = run_cli(capsys, *argv)
    assert code in (0, 1, 2), err


class TestAngles:
    def test_self_comparison(self, capsys, workdir):
        code, out, _ = run_cli(
            capsys,
            "angles",
            "--pre",
            str(workdir["pre"]),
            "--ft",
            str(workdir["pre"]),
            "--arch",
            "toy_vit",
        )
        assert code == 0
        assert "0.000000" in out

    def test_json_schema(self, capsys, workdir, tmp_path):
        out_file = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            "angles",
            "--pre",
            str(workdir["pre"]),
            "--ft",
            str(workdir["ft"]),
            "--arch",
            "toy_vit",
            "--json",
            "--out",
            str(out_file),
        )
        assert code == 0
        check_schema("angles", out)
        assert out_file.exists()


def non_canonical_file(ckpt: Checkpoint) -> bytes:
    """The tensors of ``ckpt`` as F64, payload in reverse name order, under an
    indented header: the same content hash as the canonical file, other bytes."""
    header, payload, offset = {}, [], 0
    for name in sorted(ckpt.tensors, reverse=True):
        data = ckpt.tensors[name].astype("<f8").tobytes()
        shape = list(ckpt.tensors[name].shape)
        header[name] = {"dtype": "F64", "shape": shape, "data_offsets": [offset, offset + len(data)]}
        payload.append(data)
        offset += len(data)
    header["__metadata__"] = dict(ckpt.metadata)
    raw = json.dumps(header, indent=1).encode()
    return len(raw).to_bytes(8, "little") + raw + b"".join(payload)


class TestAnglesOnFiles:
    @pytest.mark.parametrize("layout", ["canonical", "non_canonical"])
    def test_report_matches_in_memory(self, capsys, workdir, tmp_path, layout):
        pre = read_checkpoint(workdir["pre"])
        ft = read_checkpoint(workdir["ft"])
        ft_path = workdir["ft"]
        if layout == "non_canonical":
            ft_path = tmp_path / "ft.f64.ckpt"
            ft_path.write_bytes(non_canonical_file(ft))
        out_file = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "angles", "--pre", str(workdir["pre"]), "--ft", str(ft_path),
            "--arch", "toy_vit", "--out", str(out_file),
        )
        assert code == 0
        report = compute_angles(pre, ft, arch_from_checkpoint(pre))
        assert out_file.read_bytes() == report.to_json_text().encode()
        assert out == render_rank_table(report)
        assert report.finetuned_hash == ft.content_hash


@pytest.fixture(scope="module")
def angle_report_file(workdir, tmp_path_factory, capsysbinary_disabled=None):
    out_file = workdir["root"] / "angles.json"
    code = main(
        [
            "angles",
            "--pre",
            str(workdir["pre"]),
            "--ft",
            str(workdir["ft"]),
            "--arch",
            "toy_vit",
            "--out",
            str(out_file),
        ]
    )
    assert code == 0
    return out_file


class TestPlanParams:
    def test_plan_difficulty_default(self, capsys, workdir, angle_report_file):
        plan_file = workdir["root"] / "plan.json"
        code, out, _ = run_cli(
            capsys,
            "plan",
            "--arch",
            "toy_vit",
            "--dims",
            json.dumps({"depth": 2, "model_dim": 16, "heads": 2, "ffn_dim": 32, "seq_len": 4}),
            "--report",
            str(angle_report_file),
            "--difficulty",
            "challenging",
            "--json",
            "--out",
            str(plan_file),
        )
        assert code == 0
        check_schema("plan", out)
        data = json.loads(out)
        assert data["strategy_tag"] == "FAPFT"
        assert data["policy"]["magnitude"] == "large"

    def test_plan_explicit_topk(self, capsys, workdir, angle_report_file):
        code, out, _ = run_cli(
            capsys,
            "plan",
            "--arch",
            "toy_vit",
            "--dims",
            json.dumps({"depth": 2, "model_dim": 16, "heads": 2, "ffn_dim": 32, "seq_len": 4}),
            "--report",
            str(angle_report_file),
            "--magnitude",
            "small",
            "--topk",
            "1",
            "--json",
        )
        assert code == 0
        assert len(json.loads(out)["trainable_layers"]) == 2

    def test_params_strategy_and_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "params",
            "--arch",
            "swin_b",
            "--strategy",
            "ffn_only",
            "--classes",
            "100",
            "--json",
        )
        assert code == 0
        check_schema("params", out)
        data = json.loads(out)
        assert data["display_millions"] == "56.02"

    def test_params_from_plan_file(self, capsys, workdir, angle_report_file):
        dims = json.dumps(
            {"depth": 2, "model_dim": 16, "heads": 2, "ffn_dim": 32, "seq_len": 4}
        )
        plan_file = workdir["root"] / "params_plan.json"
        run_cli(
            capsys,
            "plan",
            "--arch",
            "toy_vit",
            "--dims",
            dims,
            "--report",
            str(angle_report_file),
            "--magnitude",
            "large",
            "--topk",
            "1",
            "--classes",
            "4",
            "--out",
            str(plan_file),
        )
        code, out, _ = run_cli(
            capsys,
            "params",
            "--arch",
            "toy_vit",
            "--dims",
            dims,
            "--plan",
            str(plan_file),
            "--classes",
            "4",
            "--json",
        )
        assert code == 0
        check_schema("params", out)


class TestRank:
    def test_rank_pair(self, capsys, workdir, angle_report_file, tmp_path):
        out_file = tmp_path / "rank.json"
        code, out, _ = run_cli(
            capsys,
            "rank",
            "--reports",
            str(angle_report_file),
            str(angle_report_file),
            "--json",
            "--out",
            str(out_file),
        )
        assert code == 0
        check_schema("rank", out)
        assert json.loads(out)["mean_tau"] == 1.0


class TestTrainCommand:
    def test_train_writes_artifacts(self, capsys, workdir, tmp_path):
        out_dir = tmp_path / "run"
        code, out, _ = run_cli(
            capsys,
            "train",
            "--config",
            str(workdir["config"]),
            "--init",
            str(workdir["pre"]),
            "--out",
            str(out_dir),
            "--json",
        )
        assert code == 0
        check_schema("train", out)
        assert (out_dir / "run.ckpt").exists()
        assert (out_dir / "run.metrics.jsonl").exists()
        summary = json.loads((out_dir / "run.json").read_text())
        assert summary["checkpoint_hash"] == json.loads(out)["checkpoint_hash"]

    def test_unusable_out_fails_before_training(self, capsys, tmp_path, monkeypatch):
        trained = []

        def no_training(*args, **kwargs):
            trained.append(args)
            raise AssertionError("trained before checking --out")

        monkeypatch.setattr("fapft.cli.train", no_training)
        (tmp_path / "c.json").write_text(json.dumps(CONFIG))
        (tmp_path / "out").write_bytes(b"")
        config = str(tmp_path / "c.json")
        for argv in (
            ["train", "--config", config, "--out", str(tmp_path / "out")],
            ["pipeline", "--config", config, "--difficulty", "easy",
             "--out", str(tmp_path / "out" / "x")],
        ):
            code, _, err = run_cli(capsys, *argv)
            assert code == 2 and "cannot write" in err, err
        assert trained == []

    def test_mismatched_init_leaves_no_out_dir(self, capsys, tmp_path):
        (tmp_path / "c.json").write_bytes(_small_config(depth=2))
        (tmp_path / "shallow.ckpt").write_bytes(_small_ckpt(1).canonical_bytes())
        config, shallow = str(tmp_path / "c.json"), str(tmp_path / "shallow.ckpt")
        for argv in (
            ["train", "--config", config, "--init", shallow, "--out", str(tmp_path / "newdir")],
            ["pipeline", "--config", config, "--difficulty", "easy", "--pre", shallow,
             "--out", str(tmp_path / "newpipe")],
        ):
            code, _, err = run_cli(capsys, *argv)
            assert code == 2, err
            assert (
                "init checkpoint: lacks tensor 'blocks.1.norm1.weight' of the config's model"
                in err
            )
        assert sorted(os.listdir(tmp_path)) == ["c.json", "shallow.ckpt"]


class TestSoupCommand:
    def test_uniform_soup(self, capsys, workdir, tmp_path):
        recipe = {
            "inputs": [
                {"path": str(workdir["pre"])},
                {"path": str(workdir["ft"])},
            ],
            "mode": "uniform",
        }
        recipe_path = tmp_path / "recipe.json"
        recipe_path.write_text(json.dumps(recipe))
        out_path = tmp_path / "soup.ckpt"
        code, out, _ = run_cli(
            capsys, "soup", "--recipe", str(recipe_path), "--out", str(out_path), "--json"
        )
        assert code == 0
        check_schema("soup", out)
        merged = read_checkpoint(out_path)
        a = read_checkpoint(workdir["pre"])
        b = read_checkpoint(workdir["ft"])
        expected = (
            a.tensors["norm.weight"].astype(np.float64)
            + b.tensors["norm.weight"].astype(np.float64)
        ) / 2
        assert np.array_equal(
            merged.tensors["norm.weight"], expected.astype(np.float32)
        )

    def test_out_may_name_an_input(self, capsys, workdir, tmp_path):
        from fapft.soup import uniform_soup_checkpoints

        paths = [tmp_path / "a.ckpt", tmp_path / "b.ckpt"]
        for src, dst in zip((workdir["pre"], workdir["ft"]), paths):
            dst.write_bytes(src.read_bytes())
        originals = [read_checkpoint(p) for p in paths]
        recipe_path = tmp_path / "recipe.json"
        recipe_path.write_text(
            json.dumps({"inputs": [{"path": str(p)} for p in paths], "mode": "uniform"})
        )
        code, out, _ = run_cli(
            capsys, "soup", "--recipe", str(recipe_path), "--out", str(paths[0]), "--json"
        )
        assert code == 0
        manifest = json.loads(out)
        expected = uniform_soup_checkpoints(originals, [1.0, 1.0])
        merged = read_checkpoint(paths[0])
        assert merged.content_hash == expected.content_hash == manifest["output_hash"]
        assert [i["hash"] for i in manifest["inputs"]] == [c.content_hash for c in originals]
        assert sorted(os.listdir(tmp_path)) == [
            "a.ckpt", "a.ckpt.manifest.json", "b.ckpt", "recipe.json",
        ]

    def test_greedy_soup_bytes_are_pinned(self, capsys, tmp_path, monkeypatch):
        # five runs that differ only in the head: four heads are the task's
        # class centers plus noise, and the middle run's head is louder noise,
        # which lowers the soup's accuracy, so greedy rejects it
        dims = ModelDims(**CONFIG["arch"])
        shared = init_params(dims, np.random.default_rng(5))
        centers = generate_dataset(SyntheticSpec(**CONFIG["dataset"])).shifted_centers
        rng = np.random.default_rng(6)
        heads = [centers + 2.0 * rng.normal(size=centers.shape) for _ in range(4)]
        heads.insert(2, 20.0 * rng.normal(size=centers.shape))
        meta = {"pft.arch_id": "toy_vit", "pft.arch_config": json.dumps(CONFIG["arch"])}
        for i, head in enumerate(heads):
            write_checkpoint(Checkpoint({**shared, "head.weight": head}, meta), tmp_path / f"r{i}.ckpt")
        recipe = {"mode": "greedy", "inputs": [{"path": f"r{i}.ckpt"} for i in range(5)]}
        (tmp_path / "r.json").write_text(json.dumps(recipe))
        (tmp_path / "c.json").write_text(json.dumps(CONFIG))
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "soup", "--recipe", "r.json", "--eval-config", "c.json",
                                 "--out", "s.ckpt", "--json")
        assert code == 0, err
        hashes = [
            "c363cc4337d855ba24b90f5809e58eca4fd1fbd6ba298a4f2c7bee006982390e",
            "15525fc361fb8ff8a3f304fd1ccbdfa059f8e654d2aec3c9d1f1c3a0ffe690ed",
            "9ef05cc9ea3204a67474aad162f0e8fb7c9a2ebb66033f3f59bd161446c95497",
            "29c5c3917f2067b9681db59a0c3e4bd8eb6e7e74bded454d75767eed5786c15a",
            "f1aae8e835b3daf4b96e1b3dd3866ca82447a80413a025354ec4b54849103a66",
        ]
        output_hash = "caed197e7c0b03128dcf8b7cd91ad36c683f47ab3fc1918ca23ec72bb62d828d"
        assert json.loads(out) == {
            "mode": "greedy",
            "output_hash": output_hash,
            "inputs": [
                {"path": f"r{i}.ckpt", "hash": h, "weight": 1.0} for i, h in enumerate(hashes)
            ],
            "param_total": None,
            "param_total_display": None,
            "classes": None,
        }
        soup = read_checkpoint("s.ckpt")
        assert soup.content_hash == output_hash
        # the kept runs, best own accuracy first; the noise head r2 is not among them
        kept = [i["hash"] for i in json.loads(soup.metadata["pft.soup_inputs"])]
        assert kept == [hashes[i] for i in (1, 3, 4, 0)]


def _planned_head_runs(root: Path, changed: str | None = None) -> None:
    """The five runs of ``test_greedy_soup_bytes_are_pinned`` in ``root``,
    as a greedy recipe ``r.json`` whose runs share a base and a plan that
    freezes the FFN layers (strategy B), with the eval config ``c.json``.
    With ``changed``, the noise-head run r2 also moved that tensor off the base."""
    dims = ModelDims(**CONFIG["arch"])
    shared = init_params(dims, np.random.default_rng(5))
    centers = generate_dataset(SyntheticSpec(**CONFIG["dataset"])).shifted_centers
    rng = np.random.default_rng(6)
    heads = [centers + 2.0 * rng.normal(size=centers.shape) for _ in range(4)]
    heads.insert(2, 20.0 * rng.normal(size=centers.shape))
    meta = {"pft.arch_id": "toy_vit", "pft.arch_config": json.dumps(CONFIG["arch"])}
    write_checkpoint(Checkpoint(shared, meta), root / "base.ckpt")
    for i, head in enumerate(heads):
        run = {**shared, "head.weight": head}
        if changed is not None and i == 2:
            run[changed] = shared[changed] + 1.0
        write_checkpoint(Checkpoint(run, meta), root / f"r{i}.ckpt")
    arch = TrainConfig.from_json(json.dumps(CONFIG)).descriptor()
    (root / "p.json").write_text(manual_strategy(arch, "B").to_json_text())
    inputs = [{"path": f"r{i}.ckpt", "plan": "p.json"} for i in range(5)]
    (root / "r.json").write_text(json.dumps({"mode": "greedy", "base": "base.ckpt",
                                             "inputs": inputs}))
    (root / "c.json").write_text(json.dumps(CONFIG))


GREEDY_HEADS = ["soup", "--recipe", "r.json", "--eval-config", "c.json", "--out", "s.ckpt"]


class TestPlannedSoup:
    def test_manifest_param_totals(self, capsys, workdir, tmp_path):
        from dataclasses import replace

        from fapft.arch import describe_arch, manual_strategy
        from fapft.train import train as train_fn

        arch = describe_arch(
            "toy_vit", depth=2, model_dim=16, heads=2, ffn_dim=32, seq_len=4
        )
        config = TrainConfig.from_json(workdir["config"].read_text())
        pre = read_checkpoint(workdir["pre"])
        inputs = []
        for tag in ("B", "C"):
            plan = manual_strategy(arch, tag)
            run = train_fn(replace(config, freeze=plan), init=pre)
            ckpt_path = tmp_path / f"run_{tag}.ckpt"
            plan_path = tmp_path / f"plan_{tag}.json"
            write_checkpoint(run.final_checkpoint, ckpt_path)
            plan_path.write_text(plan.to_json_text(classes=(4,)))
            inputs.append({"path": str(ckpt_path), "plan": str(plan_path)})
        recipe_path = tmp_path / "recipe.json"
        recipe_path.write_text(
            json.dumps({"inputs": inputs, "mode": "uniform", "base": str(workdir["pre"])})
        )
        code, out, _ = run_cli(
            capsys,
            "soup",
            "--recipe",
            str(recipe_path),
            "--out",
            str(tmp_path / "soup.ckpt"),
            "--classes",
            "4",
            "--json",
        )
        assert code == 0
        check_schema("soup", out)
        manifest = json.loads(out)
        expected = sum(
            manual_strategy(arch, tag).trainable_param_count(4) for tag in ("B", "C")
        )
        assert manifest["param_total"] == expected
        assert (tmp_path / "soup.ckpt.manifest.json").exists()

    def test_greedy_mode_via_cli(self, capsys, workdir, tmp_path):
        recipe_path = tmp_path / "recipe.json"
        recipe_path.write_text(
            json.dumps(
                {
                    "inputs": [
                        {"path": str(workdir["pre"])},
                        {"path": str(workdir["ft"])},
                    ],
                    "mode": "greedy",
                }
            )
        )
        code, out, _ = run_cli(
            capsys,
            "soup",
            "--recipe",
            str(recipe_path),
            "--eval-config",
            str(workdir["config"]),
            "--out",
            str(tmp_path / "greedy.ckpt"),
            "--json",
        )
        assert code == 0
        check_schema("soup", out)

    def test_greedy_mode_with_plans_keeps_runs_that_leave_frozen_layers(
        self, capsys, tmp_path, monkeypatch
    ):
        for name, data in _greedy_planned("blocks.0.attn.qkv.weight").items():
            (tmp_path / name).write_bytes(data)
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "soup", "--recipe", "r.json", "--eval-config", "c.json",
                                 "--out", "s.ckpt", "--classes", "2", "--json")
        assert code == 0, err
        plan = manual_strategy(describe_arch("toy_vit", **SMALL_DIMS), "B")
        assert json.loads(out)["param_total"] == 2 * plan.trainable_param_count(2)

    def test_greedy_with_plans_reads_each_input_once(self, capsys, tmp_path, monkeypatch):
        _planned_head_runs(tmp_path)
        monkeypatch.chdir(tmp_path)
        opened = []
        real_open = checkpoint._open

        def counted_open(path):
            opened.append(path)
            return real_open(path)

        monkeypatch.setattr(checkpoint, "_open", counted_open)
        code, out, err = run_cli(capsys, *GREEDY_HEADS, "--json")
        assert code == 0, err
        assert [opened.count(f"r{i}.ckpt") for i in range(5)] == [1] * 5
        # the frozen-layer check changes no bit: this is the pinned soup
        assert json.loads(out)["output_hash"] == (
            "caed197e7c0b03128dcf8b7cd91ad36c683f47ab3fc1918ca23ec72bb62d828d"
        )

    def test_greedy_refuses_a_changed_frozen_layer_it_would_reject(
        self, capsys, tmp_path, monkeypatch
    ):
        _planned_head_runs(tmp_path, changed="blocks.0.mlp.fc1.weight")
        monkeypatch.chdir(tmp_path)
        # without plans, greedy rejects r2, whose head is noise
        recipe = json.loads(Path("r.json").read_text())
        plain = {"mode": "greedy", "inputs": [{"path": i["path"]} for i in recipe["inputs"]]}
        Path("plain.json").write_text(json.dumps(plain))
        code, _, err = run_cli(capsys, "soup", "--recipe", "plain.json", "--eval-config",
                               "c.json", "--out", "plain.ckpt")
        assert code == 0, err
        kept = json.loads(read_checkpoint("plain.ckpt").metadata["pft.soup_inputs"])
        assert len(kept) == 4
        assert read_checkpoint("r2.ckpt").content_hash not in {i["hash"] for i in kept}
        # with plans, its frozen layer is checked all the same
        code, _, err = run_cli(capsys, *GREEDY_HEADS)
        assert code == 2
        assert "r2.ckpt: frozen tensor 'blocks.0.mlp.fc1.weight' differs from the base" in err
        assert not Path("s.ckpt").exists()

    def test_greedy_without_eval_config_is_usage_error(self, capsys, workdir, tmp_path):
        recipe_path = tmp_path / "recipe.json"
        recipe_path.write_text(
            json.dumps({"inputs": [{"path": str(workdir["pre"])}], "mode": "greedy"})
        )
        code, _, _ = run_cli(
            capsys, "soup", "--recipe", str(recipe_path), "--out", str(tmp_path / "x.ckpt")
        )
        assert code == 1


class TestDatasetCommand:
    def test_dataset_container(self, capsys, workdir, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(CONFIG["dataset"]))
        out_path = tmp_path / "data.ckpt"
        code, out, _ = run_cli(
            capsys, "dataset", "--spec", str(spec_path), "--out", str(out_path), "--json"
        )
        assert code == 0
        check_schema("dataset", out)
        container = read_checkpoint(out_path)
        assert set(container.tensors) == {
            "pretrain.features",
            "pretrain.labels",
            "finetune.features",
            "finetune.labels",
        }


class TestGradCheckCommand:
    def test_default_config_passes(self, capsys):
        code, out, _ = run_cli(capsys, "grad-check", "--json")
        assert code == 0
        check_schema("grad-check", out)
        assert json.loads(out)["passed"] is True


@pytest.fixture(scope="module")
def pipeline_out(workdir, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("pipeline")
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(
            [
                "pipeline",
                "--config",
                str(workdir["config"]),
                "--difficulty",
                "challenging",
                "--pre",
                str(workdir["pre"]),
                "--series",
                "1,2",
                "--out",
                str(out_dir),
                "--json",
            ]
        )
    assert code == 0
    return out_dir, buf.getvalue()


class TestPipelineCommand:
    def test_schema_and_artifacts(self, pipeline_out):
        out_dir, out = pipeline_out
        check_schema("pipeline", out)
        for name in (
            "angles.json",
            "angles.txt",
            "plan.json",
            "full.ckpt",
            "fapft.ckpt",
            "linear_probe.ckpt",
            "series_k1.ckpt",
            "series_k2.ckpt",
            "soup.ckpt",
            "soup.manifest.json",
            "pipeline.json",
        ):
            assert (out_dir / name).exists(), name

    def test_report_command(self, capsys, pipeline_out):
        out_dir, _ = pipeline_out
        code, out, _ = run_cli(capsys, "report", "--dir", str(out_dir), "--json")
        assert code == 0
        check_schema("report", out)
        kinds = {e["kind"] for e in json.loads(out)["artifacts"]}
        assert {"pipeline-manifest", "angle-report", "freeze-plan", "checkpoint"} <= kinds


class TestDeterminism:
    def test_blas_thread_count_does_not_change_bytes(self, tmp_path):
        # OpenBLAS reads its thread count when it loads, so each setting runs
        # in its own process; batches of 64 x 8 tokens make the feed-forward
        # products large enough for OpenBLAS to split them across threads
        config = json.loads(json.dumps(CONFIG))
        config["arch"].update(depth=1, model_dim=32, heads=4, ffn_dim=64, seq_len=8)
        config["dataset"].update(seq_len=8, feature_dim=32)
        config["schedule"]["batch_size"] = 64
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        src = str(Path(fapft.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        checkpoints = []
        for threads in ("1", "2"):
            out_dir = tmp_path / f"threads{threads}"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
            subprocess.run(
                [sys.executable, "-m", "fapft.cli", "train", "--config", str(config_path),
                 "--out", str(out_dir)],
                env=env, check=True, capture_output=True, timeout=120,
            )
            checkpoints.append((out_dir / "run.ckpt").read_bytes())
        assert checkpoints[0] == checkpoints[1]

    def test_blas_thread_count_does_not_change_angle_report(self, tmp_path):
        # the qkv weight (27 648 elements) and each FFN weight (30 720) are
        # above the length at which OpenBLAS splits a dot across threads, and
        # neither is a whole number of the angle kernel's blocks
        dims = dict(depth=1, model_dim=96, heads=4, ffn_dim=320, seq_len=4)
        arch = describe_arch("toy_vit", **dims)
        rng = np.random.default_rng(5)
        pre, ft = {}, {}
        for name, shape in arch.schema_shapes(4).items():
            data = rng.normal(size=shape).astype(np.float32)
            pre[name] = data
            ft[name] = data + rng.normal(scale=0.05, size=shape)
        write_checkpoint(Checkpoint(pre), tmp_path / "pre.ckpt")
        write_checkpoint(Checkpoint(ft), tmp_path / "ft.ckpt")
        src = str(Path(fapft.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}.json"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
            subprocess.run(
                [sys.executable, "-m", "fapft.cli", "angles", "--pre", str(tmp_path / "pre.ckpt"),
                 "--ft", str(tmp_path / "ft.ckpt"), "--arch", "toy_vit",
                 "--dims", json.dumps(dims), "--out", str(out)],
                env=env, check=True, capture_output=True, timeout=120,
            )
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_params_stdout_identical(self, capsys):
        args = ["params", "--arch", "vit_b16", "--strategy", "attn_only", "--classes", "1000"]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_angles_artifacts_identical(self, capsys, workdir, tmp_path):
        outs = []
        for i in range(2):
            out_file = tmp_path / f"r{i}.json"
            code, out, _ = run_cli(
                capsys,
                "angles",
                "--pre",
                str(workdir["pre"]),
                "--ft",
                str(workdir["ft"]),
                "--arch",
                "toy_vit",
                "--out",
                str(out_file),
                "--json",
            )
            assert code == 0
            outs.append((out, out_file.read_bytes()))
        assert outs[0] == outs[1]


def test_python_dash_m_fapft_runs_the_cli(capsys):
    src = str(Path(fapft.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    args = ["params", "--arch", "vit_b16", "--strategy", "attn_only", "--classes", "1000"]
    done = subprocess.run(
        [sys.executable, "-m", "fapft", *args], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout) == (0, run_cli(capsys, *args)[1])
