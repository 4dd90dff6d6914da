import json
import os
import re
import struct
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fapft.arch import describe_arch, full_plan, manual_strategy
from fapft import checkpoint
from fapft.checkpoint import _CHUNK, Checkpoint, chunk_length, read_checkpoint, write_checkpoint
from fapft.errors import (
    CorruptFile,
    EvaluationError,
    FormatError,
    IncompatibleCheckpoints,
    IncompatibleReports,
    InvalidValue,
    IoError,
)
from fapft import soup as soup_module
from fapft.cli import main
from fapft.soup import (
    SoupInput,
    SoupRecipe,
    greedy_soup,
    read_inputs,
    soup_param_total,
    uniform_soup,
    uniform_soup_checkpoints,
)
from fapft.tensors import bits_equal, mean_arrays, mean_stack


def simple_ckpt(values_by_name, metadata=None):
    return Checkpoint(
        {n: np.asarray(v, dtype=np.float32) for n, v in values_by_name.items()},
        metadata or {},
    )


TOY_DIMS = {"depth": 2, "model_dim": 8, "heads": 2, "ffn_dim": 32, "seq_len": 4}
TOY_ARCH = describe_arch("toy_vit", **TOY_DIMS)
PLAN = manual_strategy(TOY_ARCH, "B")  # FFN layers frozen everywhere
FROZEN = "blocks.0.mlp.fc1.weight"
TRAINED = ["head.weight", "head.bias"] + [
    name
    for layer in TOY_ARCH.layers
    if layer.layer_id in PLAN.trainable_layer_ids
    for name in layer.tensors
]


# an eval config of the TOY_DIMS model, for greedy soups run through the CLI
EVAL_CONFIG = {
    "arch": {**TOY_DIMS, "num_classes": 3}, "optimizer": {},
    "schedule": {"epochs": 1, "warmup_epochs": 0, "batch_size": 8}, "seed": 1,
    "dataset": {"num_classes": 3, "seq_len": 4, "samples_per_class": 10, "feature_dim": 8,
                "seed": 1},
}


def toy_base(rng) -> Checkpoint:
    shapes = TOY_ARCH.schema_shapes(3)
    meta = {"pft.arch_id": "toy_vit", "pft.arch_config": json.dumps(TOY_DIMS, sort_keys=True)}
    return Checkpoint({n: rng.normal(size=s).astype(np.float32) for n, s in shapes.items()}, meta)


def toy_run(base, rng, **replaced) -> Checkpoint:
    """A run of ``PLAN`` from ``base``: its trained tensors moved, then ``replaced`` applied."""
    tensors = dict(base.tensors)
    for name in TRAINED:
        tensors[name] = tensors[name] + rng.normal(size=tensors[name].shape).astype(np.float32)
    tensors.update(replaced)
    return Checkpoint({n: t for n, t in tensors.items() if t is not None}, base.metadata)


def write_recipe(directory, base, runs, weights=None, plan=PLAN) -> SoupRecipe:
    """Files for a ``plan``-attached recipe over ``runs`` from ``base``."""
    directory.mkdir(exist_ok=True)
    write_checkpoint(base, directory / "base.ckpt")
    plan_path = directory / "plan.json"
    plan_path.write_text(plan.to_json_text())
    inputs = []
    for i, run in enumerate(runs):
        path = directory / f"run{i}.ckpt"
        write_checkpoint(run, path)
        weight = 1.0 if weights is None else weights[i]
        inputs.append(SoupInput(str(path), weight, str(plan_path)))
    return SoupRecipe(inputs=tuple(inputs), base=str(directory / "base.ckpt"))


def with_nan(ckpt: Checkpoint, name: str, index: int) -> bytes:
    """The canonical file of ``ckpt`` with element ``index`` of tensor ``name`` made NaN."""
    blob = bytearray(ckpt.canonical_bytes())
    (header_len,) = struct.unpack("<Q", blob[:8])
    begin = json.loads(blob[8 : 8 + header_len])[name]["data_offsets"][0]
    at = 8 + header_len + begin + 4 * index
    blob[at : at + 4] = np.array([np.nan], dtype="<f4").tobytes()
    return bytes(blob)


def soup_file(recipe: SoupRecipe, path) -> Checkpoint:
    """The soup that ``uniform_soup`` writes to ``path``, read back."""
    output_hash, input_hashes, _ = uniform_soup(recipe, path)
    soup = read_checkpoint(path)
    assert soup.content_hash == output_hash
    assert input_hashes == [read_checkpoint(i.path).content_hash for i in recipe.inputs]
    return soup


class TestUniform:
    def test_midpoint(self):
        soup = uniform_soup_checkpoints(
            [simple_ckpt({"w": [0.0, 0.0]}), simple_ckpt({"w": [2.0, 2.0]})]
        )
        assert np.array_equal(soup.tensors["w"], [1.0, 1.0])

    def test_no_checkpoints(self):
        # the missing inputs are named before any weight is checked
        for weights in (None, []):
            with pytest.raises(InvalidValue, match="^no checkpoints to merge$"):
                uniform_soup_checkpoints([], weights)

    def test_identical_inputs_identity(self):
        rng = np.random.default_rng(1)
        ckpt = simple_ckpt({"a": rng.normal(size=16), "b": rng.normal(size=(3, 3))})
        soup = uniform_soup_checkpoints([ckpt] * 5)
        for name in ckpt.tensors:
            assert bits_equal(soup.tensors[name], ckpt.tensors[name])

    def test_matches_independent_mean_oracle(self):
        rng = np.random.default_rng(2)
        ckpts = [
            simple_ckpt({"w": rng.normal(size=64), "v": rng.normal(size=(4, 4))})
            for _ in range(5)
        ]
        soup = uniform_soup_checkpoints(ckpts)
        for name in ("w", "v"):
            stack = np.stack([c.tensors[name].astype(np.float64) for c in ckpts])
            oracle = (stack.sum(axis=0) / 5).astype(np.float32)
            got = soup.tensors[name]
            ulp = np.spacing(np.abs(oracle).astype(np.float32))
            assert np.all(np.abs(got - oracle) <= ulp)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        ckpts = [simple_ckpt({"w": rng.normal(size=32)}) for _ in range(4)]
        ws = [1.0, 2.0, 0.5, 3.0]
        soup1 = uniform_soup_checkpoints(ckpts, ws)
        perm = [3, 1, 0, 2]
        soup2 = uniform_soup_checkpoints([ckpts[i] for i in perm], [ws[i] for i in perm])
        assert bits_equal(soup1.tensors["w"], soup2.tensors["w"])

    def test_degree_one_homogeneity(self):
        rng = np.random.default_rng(4)
        ckpts = [simple_ckpt({"w": rng.normal(size=32)}) for _ in range(3)]
        scaled = [
            simple_ckpt({"w": c.tensors["w"] * np.float32(2.0)}) for c in ckpts
        ]
        s1 = uniform_soup_checkpoints(ckpts)
        s2 = uniform_soup_checkpoints(scaled)
        assert np.allclose(s2.tensors["w"], 2.0 * s1.tensors["w"], rtol=1e-6)

    def test_name_mismatch(self):
        with pytest.raises(IncompatibleCheckpoints):
            uniform_soup_checkpoints(
                [simple_ckpt({"w": [1.0]}), simple_ckpt({"x": [1.0]})]
            )

    def test_shape_mismatch(self):
        with pytest.raises(IncompatibleCheckpoints):
            uniform_soup_checkpoints(
                [simple_ckpt({"w": [1.0]}), simple_ckpt({"w": [1.0, 2.0]})]
            )

    # the second of three inputs lacks a tensor of the first, or holds one more
    MISMATCHED = {
        "lacks": ({"w": [1.0]}, "lacks tensor 'v' of the first input"),
        "extra": ({"v": [1.0], "w": [1.0], "x": [1.0]}, "tensor 'x' is not in the first input"),
    }

    @pytest.mark.parametrize("case", sorted(MISMATCHED))
    def test_mismatched_input_is_named(self, tmp_path, case):
        second, message = self.MISMATCHED[case]
        ckpts = [simple_ckpt({"v": [1.0], "w": [1.0]}), simple_ckpt(second),
                 simple_ckpt({"v": [2.0], "w": [2.0]})]
        with pytest.raises(IncompatibleCheckpoints, match=f"^input 2: {message}$"):
            uniform_soup_checkpoints(ckpts)
        paths = [tmp_path / f"in{i}.ckpt" for i in range(3)]
        for ckpt, path in zip(ckpts, paths):
            write_checkpoint(ckpt, path)
        recipe = SoupRecipe(inputs=tuple(SoupInput(str(p)) for p in paths))
        with pytest.raises(IncompatibleCheckpoints, match=f"^{re.escape(str(paths[1]))}: {message}$"):
            uniform_soup(recipe, tmp_path / "soup.ckpt")
        assert not (tmp_path / "soup.ckpt").exists()

    def test_negative_zero(self):
        # a mean of inputs that are all -0.0 is +0.0; a single input is kept as it is
        ckpts = [simple_ckpt({"w": [-0.0, -0.0, 1.0]}) for _ in range(3)]
        for weights in (None, [0.5, 2.0, 0.37]):
            soup = uniform_soup_checkpoints(ckpts, weights)
            assert np.signbit(soup.tensors["w"]).tolist() == [False, False, False]
        for weights in (None, [0.37]):
            soup = uniform_soup_checkpoints(ckpts[:1], weights)
            assert bits_equal(soup.tensors["w"], ckpts[0].tensors["w"])

    def test_metadata_records_inputs(self):
        a = simple_ckpt({"w": [0.0]})
        b = simple_ckpt({"w": [1.0]})
        soup = uniform_soup_checkpoints([a, b], [2.0, 1.0])
        recorded = json.loads(soup.metadata["pft.soup_inputs"])
        assert recorded == [
            {"hash": a.content_hash, "weight": 2.0},
            {"hash": b.content_hash, "weight": 1.0},
        ]


class TestRecipe:
    def test_round_trip_and_merge(self, tmp_path):
        rng = np.random.default_rng(5)
        paths = []
        for i in range(3):
            ckpt = simple_ckpt({"w": rng.normal(size=8)})
            p = tmp_path / f"run{i}.ckpt"
            write_checkpoint(ckpt, p)
            paths.append(str(p))
        recipe = SoupRecipe.from_json(
            {"inputs": [{"path": p} for p in paths], "mode": "uniform"}
        )
        soup = soup_file(recipe, tmp_path / "soup.ckpt")
        assert set(soup.tensors) == {"w"}

    def test_plans_require_base(self):
        with pytest.raises(FormatError):
            SoupRecipe(
                inputs=(SoupInput("a.ckpt", plan_path="p.json"),), mode="uniform"
            )

    def test_bad_mode(self):
        with pytest.raises(FormatError):
            SoupRecipe(inputs=(SoupInput("a.ckpt"),), mode="fancy")

    def test_bad_weight(self):
        with pytest.raises(InvalidValue):
            SoupRecipe(inputs=(SoupInput("a.ckpt", weight=0.0),))

    def test_frozen_consistency_check(self, tmp_path):
        # runs sharing a base: honest ones, a tampered one, and one that lacks a frozen tensor
        rng = np.random.default_rng(6)
        base = toy_base(rng)
        good = [toy_run(base, rng) for _ in range(2)]
        soup = soup_file(write_recipe(tmp_path / "good", base, good), tmp_path / "soup.ckpt")
        assert bits_equal(soup.tensors[FROZEN], base.tensors[FROZEN])

        tampered = toy_run(base, rng, **{FROZEN: base.tensors[FROZEN] + np.float32(1.0)})
        recipe = write_recipe(tmp_path / "tampered", base, [good[0], tampered])
        with pytest.raises(IncompatibleCheckpoints, match="run1.ckpt: frozen tensor"):
            uniform_soup(recipe, tmp_path / "tampered" / "soup.ckpt")
        assert not (tmp_path / "tampered" / "soup.ckpt").exists()

        lacking = toy_run(base, rng, **{FROZEN: None})
        recipe = write_recipe(tmp_path / "lacking", base, [good[0], lacking])
        with pytest.raises(IncompatibleCheckpoints,
                           match=f"run1.ckpt: lacks tensor '{FROZEN}' of the base's toy_vit model"):
            uniform_soup(recipe, tmp_path / "lacking" / "soup.ckpt")
        assert not (tmp_path / "lacking" / "soup.ckpt").exists()

    # the frozen-tensor check of a uniform soup, and of a greedy one, which
    # reads its inputs whole
    FROZEN_CHECKS = {
        "uniform": uniform_soup,
        "greedy": lambda recipe, out: read_inputs(replace(recipe, mode="greedy")),
    }

    @pytest.mark.parametrize("mode", sorted(FROZEN_CHECKS))
    def test_non_residual_tensors_no_plan_trains_are_checked(self, tmp_path, mode):
        # PLAN trains no non-residual tensor, so a run that moved pos_embed
        # did not start from the base
        check = self.FROZEN_CHECKS[mode]
        rng = np.random.default_rng(16)
        base = toy_base(rng)
        moved = base.tensors["pos_embed"] + np.float32(1.0)
        runs = [toy_run(base, rng), toy_run(base, rng, pos_embed=moved)]
        recipe = write_recipe(tmp_path / "frozen", base, runs)
        with pytest.raises(IncompatibleCheckpoints,
                           match="run1.ckpt: frozen tensor 'pos_embed' differs from the base"):
            check(recipe, tmp_path / "frozen" / "soup.ckpt")
        assert not (tmp_path / "frozen" / "soup.ckpt").exists()

        tuned = replace(PLAN, non_residual_trainable=True)
        recipe = write_recipe(tmp_path / "tuned", base, runs, plan=tuned)
        check(recipe, tmp_path / "tuned" / "soup.ckpt")

    @pytest.mark.parametrize("mode", ["uniform", "greedy"])
    def test_plan_of_another_width_is_refused(self, tmp_path, capsys, mode):
        # a soup averages runs of one model: the recipe's plans are resolved
        # against the base's declared model, so a plan of a wider toy_vit is
        # refused before any file is written, though the narrow runs hold
        # every tensor the wide plan freezes
        wide = describe_arch("toy_vit", **{**TOY_DIMS, "model_dim": 16})
        rng = np.random.default_rng(17)
        base = toy_base(rng)
        runs = [toy_run(base, rng) for _ in range(2)]
        recipe = replace(write_recipe(tmp_path, base, runs, plan=manual_strategy(wide, "D")),
                         mode=mode)
        (tmp_path / "r.json").write_text(json.dumps(
            {"mode": mode, "base": recipe.base,
             "inputs": [{"path": i.path, "plan": i.plan_path} for i in recipe.inputs]}))
        (tmp_path / "c.json").write_text(json.dumps(EVAL_CONFIG))
        files = sorted(os.listdir(tmp_path))
        message = "plan param_count_by_classes[100] is 2820, recomputed 1204"
        with pytest.raises(FormatError, match=re.escape(message)):
            if mode == "greedy":
                read_inputs(recipe)
            else:
                uniform_soup(recipe, tmp_path / "soup.ckpt")
        assert sorted(os.listdir(tmp_path)) == files
        code = main(["soup", "--recipe", str(tmp_path / "r.json"), "--eval-config",
                     str(tmp_path / "c.json"), "--out", str(tmp_path / "soup.ckpt")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == files

    def test_headers_are_checked_before_any_tensor_is_read(self, tmp_path, monkeypatch):
        # a greedy recipe whose last input holds a frozen tensor of another
        # shape is refused on the headers alone; a good one reads each file once
        rng = np.random.default_rng(20)
        base = toy_base(rng)
        runs = [toy_run(base, rng) for _ in range(3)]
        reshaped = toy_run(base, rng, **{FROZEN: base.tensors[FROZEN].T})
        reads = []
        chunks = checkpoint.CheckpointReader._chunks

        def counted(reader, *args, **kwargs):
            reads.append(reader.path)
            yield from chunks(reader, *args, **kwargs)

        monkeypatch.setattr(checkpoint.CheckpointReader, "_chunks", counted)
        bad = replace(write_recipe(tmp_path / "bad", base, [*runs[:2], reshaped]), mode="greedy")
        message = f"run2.ckpt: tensor '{FROZEN}' has shape (8, 32), the base's toy_vit model needs"
        with pytest.raises(IncompatibleCheckpoints, match=re.escape(message)):
            read_inputs(bad)
        assert reads == []
        good = replace(write_recipe(tmp_path / "good", base, runs), mode="greedy")
        inputs, _ = read_inputs(good)
        assert sorted(reads) == sorted([good.base, *(i.path for i in good.inputs)])
        assert [c.content_hash for c in inputs] == [run.content_hash for run in runs]

    def test_plans_read_only_the_base_header(self, tmp_path):
        # in both modes, the plans are resolved from the base's header: its
        # payload is checked when the soup streams it, after every input's header
        rng = np.random.default_rng(18)
        base = toy_base(rng)
        run = toy_run(base, rng)
        reshaped = toy_run(base, rng, **{FROZEN: base.tensors[FROZEN].T})
        good = write_recipe(tmp_path / "good", base, [run])
        for check in self.FROZEN_CHECKS.values():
            assert check(good, tmp_path / "good" / "soup.ckpt")[-1] == [PLAN]
        for name, runs, error, message in [
            ("nan", [run], CorruptFile, f"base.ckpt: tensor {FROZEN} contains non-finite"),
            ("header", [run, reshaped], IncompatibleCheckpoints, f"run1.ckpt: tensor '{FROZEN}'"),
        ]:
            recipe = write_recipe(tmp_path / name, base, runs)
            with open(recipe.base, "wb") as fh:
                fh.write(with_nan(base, FROZEN, 0))
            for check in self.FROZEN_CHECKS.values():
                with pytest.raises(error, match=f"^{re.escape(str(tmp_path / name / message))}"):
                    check(recipe, tmp_path / name / "soup.ckpt")
            assert not (tmp_path / name / "soup.ckpt").exists()

    def test_plans_validate_the_base_header(self, tmp_path):
        # in both modes, every error met reading the base's declared model names the base
        rng = np.random.default_rng(19)
        base = toy_base(rng)
        recipe = write_recipe(tmp_path, base, [toy_run(base, rng)])
        no_arch_id = {"pft.arch_config": base.metadata["pft.arch_config"]}
        not_an_object = {**base.metadata, "pft.arch_config": "[1]"}
        for blob, error in [
            (b"\x01\x02", CorruptFile),
            (base.canonical_bytes()[:-4], CorruptFile),
            (Checkpoint(base.tensors, no_arch_id).canonical_bytes(), FormatError),
            (Checkpoint(base.tensors, not_an_object).canonical_bytes(), FormatError),
        ]:
            with open(recipe.base, "wb") as fh:
                fh.write(blob)
            for check in self.FROZEN_CHECKS.values():
                with pytest.raises(error, match=f"^{re.escape(recipe.base)}: "):
                    check(recipe, tmp_path / "soup.ckpt")
        os.remove(recipe.base)
        for check in self.FROZEN_CHECKS.values():
            with pytest.raises(IoError, match=re.escape(recipe.base)):
                check(recipe, tmp_path / "soup.ckpt")
        assert not (tmp_path / "soup.ckpt").exists()

    @pytest.mark.parametrize("mode", ["uniform", "greedy"])
    def test_soup_opens_the_base_once_and_reads_each_plan_once(self, tmp_path, monkeypatch, mode):
        # a planned recipe through the CLI: the plans that check the runs
        # are the manifest's, so no file is opened twice but a uniform
        # soup, which reads its output back once
        rng = np.random.default_rng(22)
        base = toy_base(rng)
        recipe = write_recipe(tmp_path, base, [toy_run(base, rng) for _ in range(2)])
        plans = [str(tmp_path / f"plan{i}.json") for i in range(2)]
        for path in plans:
            Path(path).write_text(PLAN.to_json_text())
        (tmp_path / "r.json").write_text(json.dumps(
            {"mode": mode, "base": recipe.base,
             "inputs": [{"path": i.path, "plan": p} for i, p in zip(recipe.inputs, plans)]}))
        (tmp_path / "c.json").write_text(json.dumps(EVAL_CONFIG))
        opened, read = [], []
        init, read_text = checkpoint.CheckpointReader.__init__, soup_module.read_text

        def counted_init(reader, path, *args, **kwargs):
            opened.append(str(path))
            init(reader, path, *args, **kwargs)

        def counted_read(path):
            read.append(str(path))
            return read_text(path)

        monkeypatch.setattr(checkpoint.CheckpointReader, "__init__", counted_init)
        monkeypatch.setattr(soup_module, "read_text", counted_read)
        out = str(tmp_path / "soup.ckpt")
        assert main(["soup", "--recipe", str(tmp_path / "r.json"), "--eval-config",
                     str(tmp_path / "c.json"), "--classes", "3", "--out", out]) == 0
        written = [out] if mode == "uniform" else []
        assert sorted(opened) == sorted([recipe.base, *(i.path for i in recipe.inputs), *written])
        assert sorted(read) == sorted([str(tmp_path / "r.json"), *plans])
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["param_total"] == 2 * PLAN.trainable_param_count(3)

    def test_frozen_check_computes_no_mean(self, tmp_path, monkeypatch):
        # read_inputs needs only the comparisons against the base, even
        # where the runs changed their trained layers
        rng = np.random.default_rng(14)
        base = toy_base(rng)
        runs = [toy_run(base, rng) for _ in range(3)]
        recipe = write_recipe(tmp_path, base, runs)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0][0].size)
            return mean_arrays(*args, **kwargs)

        monkeypatch.setattr(soup_module, "mean_arrays", counted)
        inputs, _ = read_inputs(recipe)
        assert calls == []
        assert [c.content_hash for c in inputs] == [run.content_hash for run in runs]

    def test_weighted_soup_matches_mean_stack(self, tmp_path):
        rng = np.random.default_rng(10)
        base = toy_base(rng)
        runs = [toy_run(base, rng) for _ in range(3)]
        weights = [0.37, 2.0, 1.3]
        soup = soup_file(write_recipe(tmp_path, base, runs, weights), tmp_path / "soup.ckpt")
        for name in base.tensors:
            expected = mean_stack([run.tensors[name] for run in runs], weights)
            assert bits_equal(soup.tensors[name], expected)

    def test_memory_peak_below_one_input_file(self, tmp_path):
        # streamed tensor by tensor: the merge never holds a whole checkpoint
        dims = {"depth": 8, "model_dim": 64, "heads": 2, "ffn_dim": 256, "seq_len": 4}
        arch = describe_arch("toy_vit", **dims)
        meta = {"pft.arch_id": "toy_vit", "pft.arch_config": json.dumps(dims, sort_keys=True)}
        rng = np.random.default_rng(12)
        shapes = arch.schema_shapes(10)
        base = Checkpoint({n: rng.normal(size=s).astype(np.float32) for n, s in shapes.items()}, meta)
        plan = manual_strategy(arch, "B")
        trained = ["head.weight", "head.bias"] + [
            n for layer in arch.layers if layer.layer_id in plan.trainable_layer_ids
            for n in layer.tensors
        ]
        (tmp_path / "plan.json").write_text(plan.to_json_text())
        write_checkpoint(base, tmp_path / "base.ckpt")
        inputs = []
        for i in range(5):
            moved = {n: t + np.float32(0.01 * (i + 1)) if n in trained else t
                     for n, t in base.tensors.items()}
            write_checkpoint(Checkpoint(moved, meta), tmp_path / f"run{i}.ckpt")
            inputs.append(SoupInput(str(tmp_path / f"run{i}.ckpt"), 1.0, str(tmp_path / "plan.json")))
        recipe = SoupRecipe(inputs=tuple(inputs), base=str(tmp_path / "base.ckpt"))
        file_size = (tmp_path / "run0.ckpt").stat().st_size

        tracemalloc.start()
        try:
            uniform_soup(recipe, tmp_path / "soup.ckpt")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < file_size
        soup = read_checkpoint(tmp_path / "soup.ckpt")
        expected = uniform_soup_checkpoints([read_checkpoint(i.path) for i in inputs])
        assert soup.canonical_bytes() == expected.canonical_bytes()


    def test_chunk_faults_name_the_file_whole_tensors_named(self, tmp_path, monkeypatch):
        # a fault in a later chunk of the first input and one in an earlier
        # chunk of the second name the first input, as when whole tensors
        # were read: a NaN raises at the tensor's last chunk, and a frozen
        # mismatch names the first input that differs anywhere in the
        # tensor, at every chunk length
        for length in (1 << 16, 1 << 17, 1 << 18):
            # the budget of two buffers of `length` elements per file, for
            # three files (two runs and the base) and so also for two
            monkeypatch.setattr(checkpoint, "_CHUNK_BUDGET", 3 * 2 * length * 4)
            assert chunk_length(2) == chunk_length(3) == length
            self._check_chunk_faults(tmp_path / str(length))

    def _check_chunk_faults(self, tmp_path):
        tmp_path.mkdir()
        dims = {"depth": 1, "model_dim": 512, "heads": 4, "ffn_dim": 1100, "seq_len": 2}
        arch = describe_arch("toy_vit", **dims)
        meta = {"pft.arch_id": "toy_vit", "pft.arch_config": json.dumps(dims, sort_keys=True)}
        rng = np.random.default_rng(41)
        shapes = arch.schema_shapes(2)
        base = Checkpoint({n: rng.normal(size=s).astype(np.float32) for n, s in shapes.items()}, meta)
        frozen = "blocks.0.mlp.fc1.weight"
        assert base.tensors[frozen].size > 2 * _CHUNK
        runs = []
        for index in (2 * _CHUNK + 5, 3):
            tampered = base.tensors[frozen].copy()
            tampered.reshape(-1)[index] += np.float32(1.0)
            runs.append(Checkpoint({**base.tensors, frozen: tampered}, meta))
        plan = manual_strategy(arch, "B")
        recipe = write_recipe(tmp_path / "frozen", base, runs, plan=plan)
        with pytest.raises(IncompatibleCheckpoints, match=f"run0.ckpt: frozen tensor '{frozen}'"):
            uniform_soup(recipe, tmp_path / "frozen" / "soup.ckpt")
        assert not (tmp_path / "frozen" / "soup.ckpt").exists()

        (tmp_path / "nan").mkdir()
        inputs = []
        for i, index in enumerate((2 * _CHUNK + 5, 3)):
            path = tmp_path / "nan" / f"run{i}.ckpt"
            path.write_bytes(with_nan(base, frozen, index))
            inputs.append(SoupInput(str(path)))
        with pytest.raises(CorruptFile, match=f"run0.ckpt: tensor {frozen} contains non-finite"):
            uniform_soup(SoupRecipe(inputs=tuple(inputs)), tmp_path / "nan" / "soup.ckpt")
        assert sorted(p.name for p in (tmp_path / "nan").iterdir()) == ["run0.ckpt", "run1.ckpt"]

    def test_memory_peak_two_chunk_buffers_per_file(self, tmp_path):
        # a tensor of six chunks: the merge holds two chunk buffers per
        # input and a few chunks of its own, not a tensor per input; the
        # inputs share their first chunk, signed zeros included
        rng = np.random.default_rng(43)
        shared = rng.normal(size=5 * _CHUNK + 1000).astype(np.float32)
        shared[:10] = -0.0
        inputs, runs = [], []
        for i in range(3):
            w = shared.copy()
            w[_CHUNK:] += rng.normal(size=w.size - _CHUNK).astype(np.float32)
            runs.append(simple_ckpt({"v": rng.normal(size=3), "w": w}))
            write_checkpoint(runs[-1], tmp_path / f"run{i}.ckpt")
            inputs.append(SoupInput(str(tmp_path / f"run{i}.ckpt")))
        tracemalloc.start()
        try:
            uniform_soup(SoupRecipe(inputs=tuple(inputs)), tmp_path / "soup.ckpt")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (len(inputs) + 2) * 2 * _CHUNK * 4
        soup = read_checkpoint(tmp_path / "soup.ckpt")
        for name in ("v", "w"):
            whole = mean_arrays([run.tensors[name] for run in runs], [1.0] * 3)
            assert soup.tensors[name].tobytes() == whole.tobytes()
        assert soup.canonical_bytes() == uniform_soup_checkpoints(runs).canonical_bytes()

    def test_memory_stays_flat_as_inputs_are_added(self, tmp_path):
        # eight inputs of a tensor of several chunks: their chunk buffers
        # share one budget, and the merge adds one set of scratch buffers of
        # a chunk each, however many inputs there are
        rng = np.random.default_rng(47)
        runs, inputs = [], []
        for i in range(8):
            runs.append(simple_ckpt({"w": rng.normal(size=3 * _CHUNK + 1000)}))
            write_checkpoint(runs[-1], tmp_path / f"run{i}.ckpt")
            inputs.append(SoupInput(str(tmp_path / f"run{i}.ckpt")))
        length = chunk_length(len(inputs))
        # the float32 mean, its two float64 sums and a bool mask, and 128 KB
        # of Python objects: readers, hash futures, chunk views
        scratch = length * (4 + 2 * 8 + 1) + (128 << 10)
        # an untraced soup first: the hash thread and its modules are not the merge's memory
        uniform_soup(SoupRecipe(inputs=tuple(inputs)), tmp_path / "soup.ckpt")
        tracemalloc.start()
        try:
            uniform_soup(SoupRecipe(inputs=tuple(inputs)), tmp_path / "soup.ckpt")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < checkpoint._CHUNK_BUDGET + scratch
        soup = read_checkpoint(tmp_path / "soup.ckpt")
        assert soup.canonical_bytes() == uniform_soup_checkpoints(runs).canonical_bytes()


class TestParamTotal:
    def test_repeated_plan(self):
        arch = describe_arch("vit_b16")
        plan = manual_strategy(arch, "B")
        assert soup_param_total([plan] * 4, 1000) == 4 * plan.trainable_param_count(1000)

    def test_empty(self):
        assert soup_param_total([], 1000) == 0

    def test_fft_soup_total(self):
        arch = describe_arch("vit_b16")
        plans = [full_plan(arch)] * 5
        assert soup_param_total(plans, 1000) == 5 * 86_567_656

    def test_mixed_arch(self):
        vit = describe_arch("vit_b16")
        swin = describe_arch("swin_b")
        with pytest.raises(IncompatibleReports):
            soup_param_total([full_plan(vit), full_plan(swin)], 10)
        # one architecture at two widths is two models
        narrow, wide = (describe_arch("toy_vit", depth=2, model_dim=m, heads=2) for m in (8, 16))
        with pytest.raises(IncompatibleReports, match="model_dim=16"):
            soup_param_total([manual_strategy(narrow, "B"), manual_strategy(wide, "B")], 3)


class TestGreedy:
    def test_singleton(self):
        ckpt = simple_ckpt({"w": [1.0, 2.0]})
        out = greedy_soup([ckpt], lambda c: 0.5)
        assert bits_equal(out.tensors["w"], ckpt.tensors["w"])

    def test_all_improving_equals_uniform(self):
        rng = np.random.default_rng(7)
        ckpts = [simple_ckpt({"w": rng.normal(size=8)}) for _ in range(4)]
        target = uniform_soup_checkpoints(ckpts)

        def evaluate(c):
            # reward closeness to the full average: every addition helps
            return -float(
                np.abs(c.tensors["w"] - target.tensors["w"]).sum()
            )

        out = greedy_soup(ckpts, evaluate)
        assert bits_equal(out.tensors["w"], target.tensors["w"])

    def test_corrupted_member_rejected(self):
        rng = np.random.default_rng(8)
        good = [simple_ckpt({"w": rng.normal(size=8) * 0.01}) for _ in range(3)]
        corrupted = simple_ckpt({"w": rng.normal(size=8) * 100.0})

        def evaluate(c):
            return -float(np.abs(c.tensors["w"]).sum())

        out = greedy_soup(good + [corrupted], evaluate)
        expected = uniform_soup_checkpoints(good)
        assert bits_equal(out.tensors["w"], expected.tensors["w"])

    def test_returns_a_soup_it_scored(self):
        # the kept soup was merged and scored already; it is not merged again
        rng = np.random.default_rng(9)
        ckpts = [simple_ckpt({"w": rng.normal(size=8)}) for _ in range(4)]
        scored = []

        def evaluate(c):
            scored.append(c)
            return -float(np.abs(c.tensors["w"]).sum())

        out = greedy_soup(ckpts, evaluate)
        assert any(out is c for c in scored[len(ckpts):])

    def test_eval_failure_wrapped(self):
        def broken(c):
            raise RuntimeError("no data")

        with pytest.raises(EvaluationError):
            greedy_soup([simple_ckpt({"w": [1.0]})], broken)

    def test_non_finite_eval_rejected(self):
        with pytest.raises(EvaluationError):
            greedy_soup([simple_ckpt({"w": [1.0]})], lambda c: float("nan"))
