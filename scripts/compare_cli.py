"""Check that two source trees give the same fapft command-line behaviour.

    python scripts/compare_cli.py OLD_SRC NEW_SRC

Each tree (a directory holding the ``fapft`` package, such as ``src`` of two
checkouts) runs the same invocations of all nine subcommands, in text and
``--json`` mode, each command in its own process, in one working directory
per tree; comments in ``_commands`` explain the less obvious ones. Stdout,
stderr (with timings masked), exit codes and the bytes of every file left
behind must be equal. Exit status 0 means identical, 1 lists the
differences. One tree takes about 20 seconds on two CPUs.
"""

import hashlib
import json
import os
import re
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

DIMS = {"depth": 2, "model_dim": 16, "heads": 2, "ffn_dim": 32, "seq_len": 4}
CONFIG = {
    "arch": {**DIMS, "num_classes": 4},
    "optimizer": {"learning_rate": 0.001, "beta1": 0.9, "beta2": 0.999,
                  "epsilon": 1e-08, "weight_decay": 0.05},
    "schedule": {"epochs": 2, "warmup_epochs": 1, "batch_size": 16},
    "seed": 7,
    "dataset": {"num_classes": 4, "seq_len": 4, "samples_per_class": 20,
                "feature_dim": 16, "class_center_scale": 1.0, "noise_scale": 0.5,
                "shift_magnitude": 1.5, "seed": 3},
    "task": "finetune",
    "freeze": None,
}
D = json.dumps(DIMS)
RECIPE = {"base": "pre_text/run.ckpt",
          "inputs": [{"path": "ftp_text/run.ckpt", "plan": "plan_text.json"},
                     {"path": "ftp_json/run.ckpt", "plan": "plan_text.json"}]}
INPUTS = {
    "config.json": CONFIG,
    "pre_config.json": {**CONFIG, "task": "pretrain"},
    # a model one block deeper than the checkpoints it is told to start from
    "deep_config.json": {**CONFIG, "arch": {**CONFIG["arch"], "depth": 3}},
    # and one block shallower
    "shallow_config.json": {**CONFIG, "arch": {**CONFIG["arch"], "depth": 1}},
    # no block at all, which no toy_vit model has
    "depth0_config.json": {**CONFIG, "arch": {**CONFIG["arch"], "depth": 0}},
    # a config in the --out directory of its run, under the name of its summary
    **{f"own_{mode}/run.json": CONFIG for mode in ("text", "json")},
    "recipe.json": RECIPE,
    "recipe_plain.json": {"inputs": [{"path": "ft_text/run.ckpt", "weight": 2.0},
                                     {"path": "pre_text/run.ckpt"}]},
    "greedy.json": {"mode": "greedy",
                    "inputs": [{"path": "ft_text/run.ckpt"}, {"path": "ftp_text/run.ckpt"}]},
    # recipe.json's runs, merged greedily: the frozen-layer check runs first
    "greedy_planned.json": {**RECIPE, "mode": "greedy"},
    # the same check refuses a full fine-tune, which changed the frozen layers
    "greedy_frozen_changed.json": {
        **RECIPE, "mode": "greedy",
        "inputs": [RECIPE["inputs"][0], {"path": "ft_text/run.ckpt", "plan": "plan_text.json"}]},
    # the attention layers with the non-residual tensors, and without them
    "plan_nr.json": {"arch_id": "toy_vit", "strategy_tag": "NR", "policy": None,
                     "trainable_layers": ["s0.b0.ATTN", "s0.b1.ATTN"], "head_trainable": True,
                     "non_residual_trainable": True},
    "plan_nr_frozen.json": {"arch_id": "toy_vit", "strategy_tag": "NR", "policy": None,
                            "trainable_layers": ["s0.b0.ATTN", "s0.b1.ATTN"],
                            "head_trainable": True, "non_residual_trainable": False},
    # a run of plan_nr.json, whose pos_embed moved, souped as if it froze it
    "recipe_nr.json": {"base": "pre_text/run.ckpt",
                       "inputs": [{"path": "ftnr_text/run.ckpt", "plan": "plan_nr_frozen.json"}]},
    # a run of depth 1 after one of depth 2: the second input lacks tensors
    "recipe_shallow.json": {"inputs": [{"path": "ft_text/run.ckpt"},
                                       {"path": "shallowrun_text/run.ckpt"}]},
    # each mode's plain soup, as the second input of a soup whose manifest names it
    **{f"recipe_own_{mode}.json": {"inputs": [{"path": "ft_text/run.ckpt"},
                                              {"path": f"soupp_{mode}.ckpt"}]}
       for mode in ("text", "json")},
    # a base of planned runs that declares no model
    "recipe_no_arch.json": {**RECIPE, "base": "noarch_pre.ckpt"},
    # recipe.json's runs, merged greedily, the last one's frozen pos_embed reshaped
    "greedy_reshaped.json": {
        **RECIPE, "mode": "greedy",
        "inputs": [RECIPE["inputs"][0], {"path": "reshaped_run.ckpt", "plan": "plan_text.json"}]},
    # recipe.json with an empty plan, which names no file, on every input
    "recipe_empty_plan.json": {
        **RECIPE, "inputs": [{**i, "plan": ""} for i in RECIPE["inputs"]]},
    # recipe.json with a plan on its first input only
    "recipe_some_plans.json": {
        **RECIPE, "inputs": [RECIPE["inputs"][0], {"path": RECIPE["inputs"][1]["path"]}]},
    # recipe.json without its base
    "recipe_plans_no_base.json": {"inputs": RECIPE["inputs"]},
    # one value of the wrong type in each kind of JSON input
    "bad_config.json": {**CONFIG, "seed": "7"},
    "bad_dataset_config.json": {**CONFIG, "dataset": {**CONFIG["dataset"], "noise_scale": "0.5"}},
    "bad_recipe.json": {"inputs": [{"path": "ft_text/run.ckpt", "weight": "2"}]},
    "bad_plan.json": {"arch_id": "toy_vit", "strategy_tag": "B", "policy": None,
                      "trainable_layers": "s0.b0.ATTN", "head_trainable": True,
                      "non_residual_trainable": False},
    # a policy the published plan schema refuses: no such magnitude, a negative top-k
    "bad_policy_plan.json": {"arch_id": "toy_vit", "strategy_tag": "FAPFT",
                             "policy": {"magnitude": "huge", "topk_per_stage": [-3]},
                             "trainable_layers": ["s0.b0.ATTN"], "head_trainable": True,
                             "non_residual_trainable": False},
    # one sample, so no training sample after the 80/20 split
    "one_sample_config.json": {
        **CONFIG, "dataset": {**CONFIG["dataset"], "num_classes": 1, "samples_per_class": 1}},
    "bad_report.json": {"arch_id": 5, "entries": [], "whole_model_angle": 0.5,
                        "provenance": {"pretrained_hash": "a", "finetuned_hash": "b",
                                       "excluded_tensors": []}},
}

# summaries whose accuracy parses but is not a finite float
SUMMARIES = {
    "summaries/nan.json": '{"final_val_accuracy": NaN, "strategy_tag": "B"}',
    "summaries/huge.json": '{"final_val_accuracy": 1%s, "strategy_tag": "B"}' % ("0" * 399),
}


def _declare_vit_b16(header: dict) -> None:
    header["__metadata__"] = {"pft.arch_id": "vit_b16", "pft.arch_config": "{}"}


def _drop_metadata(header: dict) -> None:
    del header["__metadata__"]


def _prefix_names(header: dict) -> None:
    for name in [n for n in header if n != "__metadata__"]:
        header[f"x.{name}"] = header.pop(name)


def _transpose_pos_embed(header: dict) -> None:
    header["pos_embed"]["shape"].reverse()


def _repeat_first_layer(report: dict) -> None:
    report["entries"][2]["layer_id"] = report["entries"][0]["layer_id"]


def _negate_first_angle(report: dict) -> None:
    report["entries"][0]["angle"] = -0.1


def _rename_first_layer(report: dict) -> None:
    report["entries"][0]["layer_id"] = "s0.b9.ATTN"


def _misrank_first_layer(report: dict) -> None:
    report["entries"][0]["rank_in_group"] += 1


def _shorten_finetuned_hash(report: dict) -> None:
    provenance = report["provenance"]
    provenance["finetuned_hash"] = provenance["finetuned_hash"][:12]


# files copied from one that an invocation wrote, with their JSON (a
# checkpoint's header) edited: name -> (source, edit)
DERIVED = {
    # the pre-trained toy run, declaring a vit_b16 model
    "vit_pre.ckpt": ("pre_text/run.ckpt", _declare_vit_b16),
    # the same run declaring no model, and with every tensor renamed
    "noarch_pre.ckpt": ("pre_text/run.ckpt", _drop_metadata),
    "prefixed_pre.ckpt": ("pre_text/run.ckpt", _prefix_names),
    # a planned run whose frozen pos_embed holds the same bytes under another shape
    "reshaped_run.ckpt": ("ftp_text/run.ckpt", _transpose_pos_embed),
    # the text-mode angle report, naming s0.b0.ATTN twice (the second in
    # place of s0.b1.ATTN), with a negative angle, naming a layer its model
    # lacks, ranking its first layer one place too low, and with a 12-digit
    # fine-tuned hash
    "angles_twice.json": ("angles_text.json", _repeat_first_layer),
    "angles_negative.json": ("angles_text.json", _negate_first_angle),
    "angles_renamed.json": ("angles_text.json", _rename_first_layer),
    "angles_misranked.json": ("angles_text.json", _misrank_first_layer),
    "angles_short_hash.json": ("angles_text.json", _shorten_finetuned_hash),
}


def _derive(work: Path) -> None:
    """Write each derived file whose source exists and which does not yet."""
    for name, (source, edit) in DERIVED.items():
        if (work / source).exists() and not (work / name).exists():
            blob = (work / source).read_bytes()
            if name.endswith(".json"):
                data = json.loads(blob)
                edit(data)
                (work / name).write_text(json.dumps(data))
                continue
            (length,) = struct.unpack("<Q", blob[:8])
            header = json.loads(blob[8 : 8 + length])
            edit(header)
            raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
            (work / name).write_bytes(struct.pack("<Q", len(raw)) + raw + blob[8 + length :])


def _commands(mode: str, j: list):
    """The invocations of one mode; later ones read what the text-mode runs
    of earlier ones wrote."""
    yield ["train", "--config", "pre_config.json", "--out", f"pre_{mode}", *j]
    yield ["train", "--config", "config.json", "--init", "pre_text/run.ckpt",
           "--out", f"ft_{mode}", *j]
    yield ["angles", "--pre", "pre_text/run.ckpt", "--ft", "ft_text/run.ckpt",
           "--arch", "toy_vit", "--out", f"angles_{mode}.json", *j]
    yield ["angles", "--pre", "ft_text/run.ckpt", "--ft", "pre_json/run.ckpt",
           "--arch", "toy_vit", "--dims", D, "--out", f"angles2_{mode}.json", *j]
    # a checkpoint against itself: every angle is 0.0, so the tie rule alone ranks
    yield ["angles", "--pre", "pre_text/run.ckpt", "--ft", "pre_text/run.ckpt",
           "--arch", "toy_vit", "--out", f"angles_self_{mode}.json", *j]
    yield ["plan", "--report", "angles_self_text.json", "--arch", "toy_vit", "--dims", D,
           "--magnitude", "small", "--topk", "1", "--classes", "4", *j]
    yield ["plan", "--report", "angles_text.json", "--arch", "toy_vit", "--dims", D,
           "--difficulty", "easy", "--out", f"plan_{mode}.json", *j]
    yield ["plan", "--report", "angles_text.json", "--arch", "toy_vit", "--dims", D,
           "--magnitude", "large", "--topk", "2", "--classes", "4", *j]
    yield ["train", "--config", "config.json", "--plan", "plan_text.json",
           "--init", "pre_text/run.ckpt", "--out", f"ftp_{mode}", *j]
    yield ["train", "--config", "config.json", "--plan", "plan_nr.json",
           "--init", "pre_text/run.ckpt", "--out", f"ftnr_{mode}", *j]
    yield ["rank", "--reports", "angles_text.json", "angles2_text.json",
           "--out", f"rank_{mode}.json", *j]
    yield ["params", "--arch", "toy_vit", "--dims", D, "--plan", "plan_text.json",
           "--classes", "4", "--out", f"params_{mode}.json", *j]
    yield ["params", "--arch", "vit_b16", "--strategy", "attn_only", "--classes", "1000", *j]
    yield ["params", "--arch", "swin_b", "--strategy", "D", "--classes", "1000", *j]
    yield ["params", "--arch", "swin_b", "--strategy", "linear_probe", "--classes", "100", *j]
    yield ["params", "--arch", "swin_b", "--strategy", "full", "--classes", "1000", *j]
    yield ["params", "--arch", "vit_b16", "--strategy", "I", "--classes", "100", *j]
    yield ["soup", "--recipe", "recipe.json", "--classes", "4",
           "--out", f"soup_{mode}.ckpt", *j]
    yield ["soup", "--recipe", "recipe_plain.json", "--out", f"soupp_{mode}.ckpt",
           "--manifest", f"soupp_{mode}.m.json", *j]
    yield ["soup", "--recipe", "greedy.json", "--eval-config", "config.json",
           "--classes", "4", "--out", f"soupg_{mode}.ckpt", *j]
    yield ["soup", "--recipe", "greedy_planned.json", "--eval-config", "config.json",
           "--classes", "4", "--out", f"soupgp_{mode}.ckpt", *j]
    yield ["soup", "--recipe", "greedy_frozen_changed.json", "--eval-config", "config.json",
           "--out", f"soupgf_{mode}.ckpt", *j]
    yield ["soup", "--recipe", "recipe_nr.json", "--out", f"soupnr_{mode}.ckpt", *j]
    yield ["soup", "--recipe", "recipe_plain.json", "--out", f"soupm_{mode}.ckpt",
           "--manifest", f"soupm_{mode}.ckpt", *j]
    yield ["pipeline", "--config", "config.json", "--difficulty", "easy",
           "--series", "1,2", "--out", f"pipe_{mode}", *j]
    yield ["pipeline", "--config", "config.json", "--difficulty", "challenging",
           "--pre", "pre_text/run.ckpt", *j]
    yield ["report", "--dir", "pipe_text", "--out", f"report_{mode}.json", *j]
    yield ["report", "--dir", "summaries", "--out", f"report_summaries_{mode}.json", *j]
    yield ["grad-check", "--out", f"gc_{mode}.json", *j]
    yield ["grad-check", "--tolerance", "1e-30", "--out", f"gcf_{mode}.json", *j]
    yield ["grad-check", "--config", "depth0_config.json", "--out", f"gc0_{mode}.json", *j]
    yield ["params", "--arch", "vit_b16", "--strategy", "zz", "--classes", "10", *j]
    yield ["plan", "--report", "missing.json", "--arch", "toy_vit", "--difficulty", "easy", *j]
    yield ["train", "--config", "bad_config.json", "--out", f"bad_{mode}", *j]
    yield ["train", "--config", "deep_config.json", "--init", "pre_text/run.ckpt",
           "--out", f"deep_{mode}", *j]
    yield ["train", "--config", "shallow_config.json", "--init", "pre_text/run.ckpt",
           "--out", f"shallow_{mode}", *j]
    yield ["train", "--config", "bad_dataset_config.json", "--out", f"badd_{mode}", *j]
    yield ["soup", "--recipe", "bad_recipe.json", "--out", f"bad_{mode}.ckpt", *j]
    yield ["params", "--arch", "toy_vit", "--dims", D, "--plan", "bad_plan.json",
           "--classes", "4", *j]
    yield ["params", "--arch", "toy_vit", "--dims", D, "--plan", "bad_policy_plan.json",
           "--classes", "4", *j]
    yield ["train", "--config", "config.json", "--plan", "bad_policy_plan.json",
           "--init", "pre_text/run.ckpt", "--out", f"ftbp_{mode}", *j]
    yield ["rank", "--reports", "bad_report.json", "bad_report.json", *j]
    # reports that parse as JSON but rank a layer twice, hold an angle below 0,
    # name a layer their model lacks, or give a layer a rank its angle does not
    for report in ("angles_twice.json", "angles_negative.json", "angles_renamed.json",
                   "angles_misranked.json"):
        yield ["rank", "--reports", report, report, *j]
        yield ["plan", "--report", report, "--arch", "toy_vit", "--dims", D,
               "--difficulty", "easy", *j]
    yield ["rank", "--reports", "angles_short_hash.json", "angles_short_hash.json", *j]
    yield ["angles", "--pre", "pre_text/run.ckpt", "--ft", "ft_text/run.ckpt",
           "--arch", "toy_vit", "--dims", json.dumps({**DIMS, "model_dim": 8}),
           "--out", f"angles_narrow_{mode}.json", *j]
    # a fine-tuned side that holds no tensor of the model
    yield ["angles", "--pre", "pre_text/run.ckpt", "--ft", "prefixed_pre.ckpt",
           "--arch", "toy_vit", "--dims", D, *j]
    # a report of depth 2 planned for depth 1: it holds every layer id of depth 1
    yield ["plan", "--report", "angles_text.json", "--arch", "toy_vit",
           "--dims", json.dumps({**DIMS, "depth": 1}), "--magnitude", "large", "--topk", "1", *j]
    yield ["train", "--config", "one_sample_config.json", "--out", f"d1_{mode}", *j]
    yield ["train", "--config", "shallow_config.json", "--out", f"shallowrun_{mode}", *j]
    yield ["soup", "--recipe", "recipe_shallow.json", "--out", f"soups_{mode}.ckpt", *j]
    yield ["soup", "--recipe", "recipe_no_arch.json", "--out", f"soupna_{mode}.ckpt", *j]
    yield ["soup", "--recipe", "recipe_empty_plan.json", "--out", f"soupep_{mode}.ckpt", *j]
    yield ["soup", "--recipe", "recipe_some_plans.json", "--out", f"soupsp_{mode}.ckpt", *j]
    yield ["soup", "--recipe", "recipe_plans_no_base.json", "--out", f"soupnb_{mode}.ckpt", *j]
    # --arch toy_vit without --dims, given a --pre that declares another model
    yield ["angles", "--pre", "vit_pre.ckpt", "--ft", "ft_text/run.ckpt", "--arch", "toy_vit",
           "--out", f"angles_vit_{mode}.json", *j]
    yield ["soup", "--recipe", "greedy_reshaped.json", "--eval-config", "config.json",
           "--out", f"soupgr_{mode}.ckpt", *j]
    # a repeated series value, which would train and soup the same run twice
    yield ["pipeline", "--config", "config.json", "--difficulty", "easy",
           "--pre", "pre_text/run.ckpt", "--series", "1,1", *j]
    # last, since a tree that lets the manifest or --out through overwrites the input
    yield ["soup", "--recipe", f"recipe_own_{mode}.json", "--out", f"soupo_{mode}.ckpt",
           "--manifest", f"soupp_{mode}.ckpt", *j]
    yield ["soup", "--recipe", f"recipe_own_{mode}.json", "--out", f"soupp_{mode}.ckpt", *j]
    yield ["plan", "--report", f"angles_self_{mode}.json", "--arch", "toy_vit", "--dims", D,
           "--difficulty", "easy", "--out", f"angles_self_{mode}.json", *j]
    yield ["train", "--config", f"own_{mode}/run.json", "--out", f"own_{mode}", *j]
    yield ["report", "--dir", "pipe_text", "--out", "pipe_text/full.json", *j]


def invocations():
    """Each command in text mode, then in ``--json`` mode."""
    for text, as_json in zip(_commands("text", []), _commands("json", ["--json"])):
        yield text
        yield as_json


def record(src: str, work: Path) -> dict:
    """What every invocation printed and returned, and the hash of every file."""
    for name, obj in INPUTS.items():
        (work / name).parent.mkdir(exist_ok=True)
        (work / name).write_text(json.dumps(obj))
    (work / "summaries").mkdir()
    for name, text in SUMMARIES.items():
        (work / name).write_text(text)
    env = {**os.environ, "PYTHONPATH": str(Path(src).resolve()), "OPENBLAS_NUM_THREADS": "1"}
    runs = []
    for argv in invocations():
        _derive(work)
        done = subprocess.run([sys.executable, "-m", "fapft.cli", *argv], cwd=work, env=env,
                              capture_output=True, text=True, timeout=600)
        err = re.sub(r"\d+\.\d+s", "<T>s", done.stderr)
        runs.append({"argv": argv, "code": done.returncode, "out": done.stdout, "err": err})
    files = {str(p.relative_to(work)): hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(work.rglob("*")) if p.is_file()}
    return {"runs": runs, "files": files}


def differences(old: dict, new: dict) -> list[str]:
    found = []
    for a, b in zip(old["runs"], new["runs"]):
        for key in ("code", "out", "err"):
            if a[key] != b[key]:
                found.append(f"{key}: {' '.join(a['argv'])}")
    names = sorted(old["files"].keys() | new["files"].keys())
    found += [f"file: {n}" for n in names if old["files"].get(n) != new["files"].get(n)]
    return found


def main(old_src: str, new_src: str) -> int:
    records = []
    for src in (old_src, new_src):
        with tempfile.TemporaryDirectory() as work:
            records.append(record(src, Path(work)))
    old, new = records
    codes = [r["code"] for r in old["runs"]]
    print(f"{len(codes)} invocations (exit codes "
          f"{', '.join(f'{c}: {codes.count(c)}' for c in sorted(set(codes)))}), "
          f"{len(old['files'])} files")
    found = differences(old, new)
    print("\n".join(found) if found else "stdout, stderr, exit codes and files identical")
    return 1 if found else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
