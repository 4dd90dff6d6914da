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
from fapft.cli import main
from fapft.checkpoint import Checkpoint, read_checkpoint, write_checkpoint
from fapft.schemas import COMMAND_SCHEMAS
from fapft.soup import arch_from_checkpoint
from fapft.tensors import Tensor
from fapft.train import TrainConfig, train

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


def _small_ckpt(seed) -> Checkpoint:
    shapes = describe_arch("toy_vit", **SMALL_DIMS).schema_shapes(2)
    rng = np.random.default_rng(seed)
    return Checkpoint({n: rng.normal(size=s) for n, s in shapes.items()}, SMALL_META)


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


POSITIVE = "argument --{}: must be a positive finite number"

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
     _lacking_frozen_tensor(), 2, "run.ckpt: lacks frozen tensor 'blocks.0.mlp.fc1.weight'"),
    # the same bytes under another shape are another tensor
    ("soup_base_frozen_tensor_reshaped", ["soup", "--recipe", "@r.json", "--out", "@s.ckpt"],
     _reshaped_frozen_base(), 2,
     "run.ckpt: frozen tensor 'blocks.0.mlp.fc1.weight' differs from the base"),
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
        data = ckpt.tensors[name].array.astype("<f8").tobytes()
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
            a.tensors["norm.weight"].array.astype(np.float64)
            + b.tensors["norm.weight"].array.astype(np.float64)
        ) / 2
        assert np.array_equal(
            merged.tensors["norm.weight"].array, expected.astype(np.float32)
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
            pre[name] = Tensor(data, name=name)
            ft[name] = Tensor(data + rng.normal(scale=0.05, size=shape), name=name)
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
