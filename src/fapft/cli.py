"""Batch command-line surface over the toolkit.

Exit codes: 0 success, 1 usage error, 2 data/format error, 3 numerical
failure (divergence, degenerate input). Every command accepts ``--out`` for
artifact paths and ``--json`` for machine-readable stdout. Identical
invocations produce identical artifact bytes and identical stdout; anything
timing-related goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import __version__
from .angles import compute_angles, rank_consistency, render_rank_table, report_from_json
from .arch import (
    describe_arch,
    full_plan,
    linear_probe_plan,
    manual_strategy,
    millions_str,
    plan_from_json,
)
from .checkpoint import (
    Checkpoint,
    CheckpointReader,
    read_checkpoint,
    read_text,
    write_all,
    write_atomic,
    write_checkpoint,
)
from .errors import (
    FormatError,
    InvalidValue,
    IoError,
    PftError,
    UsageError,
    parse_json,
    require_finite,
)
from .model import _checked_params
from .planner import FapftPolicy, default_policy, plan_fapft
from .soup import (
    SoupRecipe,
    arch_from_checkpoint,
    greedy_soup,
    read_inputs,
    soup_manifest,
    uniform_soup,
)
from .train import (
    SyntheticSpec,
    TrainConfig,
    _params_from_init,
    accuracy,
    generate_dataset,
    grad_check,
    run_fapft_pipeline,
    run_plan_series,
    train,
)

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); the contract says 1
        raise UsageError(message)


def _write_text(path, text: str):
    with write_atomic(path) as fh:
        write_all(fh, text.encode("utf-8"))


def _emit_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write_out(args, obj):
    """Write ``obj`` as indented JSON to ``--out`` when given."""
    if args.out:
        _write_text(args.out, _emit_json(obj))


def _resolve_arch(arch_id: str, dims_raw: str | None, pre: CheckpointReader | None = None):
    """The architecture named on the command line; a ``toy_vit`` without
    ``--dims`` takes its dimensions from the checkpoint ``pre`` when given."""
    try:
        dims = {} if dims_raw is None else json.loads(dims_raw)
    except ValueError as exc:  # JSONDecodeError, or an int of too many digits
        raise UsageError(f"--dims must be a JSON object: {exc}") from exc
    if not isinstance(dims, dict):
        raise UsageError("--dims must be a JSON object")
    if dims:
        try:
            return describe_arch(arch_id, **dims)
        except InvalidValue as exc:
            raise UsageError(f"--dims: {exc}") from exc
    if arch_id == "toy_vit" and pre is not None and "pft.arch_config" in pre.metadata:
        return arch_from_checkpoint(pre)
    return describe_arch(arch_id)


# argparse types: a bad value is a usage error (exit 1) naming the flag


def _ints(raw: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in raw.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {raw!r}") from None
    if min(values) < 0:
        raise argparse.ArgumentTypeError(f"values must be >= 0, got {raw!r}")
    return values


def _positive_int(raw: str, message: str = "must be a positive int") -> int:
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(f"{message}, got {raw!r}")
    return value


def _class_count(raw: str) -> int:
    return _positive_int(raw, "class counts must be positive ints")


def _class_counts(raw: str) -> tuple[int, ...]:
    return tuple(_class_count(part) for part in raw.split(","))


def _positive_number(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {raw!r}")
    return value


def _out_dir(out: str | None) -> Path | None:
    """The ``--out`` directory of a training command, made before it trains,
    so an unusable path fails before any work is done."""
    if not out:
        return None
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    return path


def _record_run(out_dir: Path | None, stem: str, result) -> dict:
    """A run's summary, after writing its artifacts under ``out_dir`` when given."""
    config = result.config
    summary = {
        "config_hash": result.config_hash,
        "checkpoint_hash": result.final_checkpoint.content_hash,
        "task": config.task,
        "strategy_tag": config.freeze.strategy_tag if config.freeze else None,
        "epochs": config.schedule.epochs,
        "final_train_loss": result.metrics[-1].train_loss,
        "final_val_accuracy": result.metrics[-1].val_accuracy,
    }
    if out_dir:
        write_checkpoint(result.final_checkpoint, out_dir / f"{stem}.ckpt")
        _write_text(out_dir / f"{stem}.metrics.jsonl", result.metrics_jsonl())
        _write_text(out_dir / f"{stem}.json", _emit_json(summary))
    return summary


# ---------------------------------------------------------------------------
# command handlers: each returns ``(obj, text)``, what ``main`` prints under
# ``--json`` and otherwise, plus the exit code when it is not 0
# ---------------------------------------------------------------------------


def _cmd_angles(args):
    with CheckpointReader(args.pre) as pre, CheckpointReader(args.ft) as ft:
        arch = _resolve_arch(args.arch, args.dims, pre)
        report = compute_angles(pre, ft, arch)
    if args.out:
        _write_text(args.out, report.to_json_text())
    return report.to_json_obj(), render_rank_table(report)


def _cmd_rank(args):
    if len(args.reports) < 2:
        raise UsageError("rank needs at least 2 --reports")
    reports = [report_from_json(read_text(path)) for path in args.reports]
    matrix = rank_consistency(reports)
    obj = matrix.to_json_obj()
    _write_out(args, obj)
    rows = "".join(
        f"  {rid:>12}  {' '.join(f'{v:+.3f}' for v in row)}\n"
        for rid, row in zip(matrix.report_ids, matrix.tau)
    )
    return obj, f"pairwise kendall tau\n{rows}mean tau: {matrix.mean_tau:+.4f}\n"


def _cmd_plan(args):
    if args.difficulty and (args.magnitude or args.topk):
        raise UsageError("--difficulty excludes --magnitude/--topk")
    if not args.difficulty and not (args.magnitude and args.topk):
        raise UsageError("supply either --difficulty or --magnitude with --topk")
    report = report_from_json(read_text(args.report))
    arch = _resolve_arch(args.arch, args.dims)
    if args.difficulty:
        policy = default_policy(arch, args.difficulty)
    else:
        policy = FapftPolicy(args.magnitude, args.topk)
    plan = plan_fapft(report, arch, policy)
    classes = args.classes
    if args.out:
        _write_text(args.out, plan.to_json_text(classes))
    count = plan.trainable_param_count(classes[0])
    return plan.to_json_obj(classes), (
        f"FAPFT plan [{policy.magnitude}, topk={list(policy.topk_per_stage)}]: "
        f"{len(plan.trainable)} layers + head\n"
        f"trainable layers: {', '.join(plan.trainable_layer_ids) or '(none)'}\n"
        f"params @ {classes[0]} classes: {count} ({millions_str(count)}M)\n"
    )


def _cmd_params(args):
    arch = _resolve_arch(args.arch, args.dims)
    if (args.plan is None) == (args.strategy is None):
        raise UsageError("supply exactly one of --plan or --strategy")
    if args.plan:
        plan = plan_from_json(read_text(args.plan), arch)
    else:
        named = {"full": full_plan, "a": full_plan, "linear_probe": linear_probe_plan}
        build = named.get(args.strategy.lower())
        try:
            plan = build(arch) if build else manual_strategy(arch, args.strategy)
        except InvalidValue:
            raise UsageError(f"unknown --strategy {args.strategy!r}") from None
    exact = plan.trainable_param_count(args.classes)
    obj = {
        "arch_id": arch.arch_id,
        "strategy_tag": plan.strategy_tag,
        "classes": args.classes,
        "exact": exact,
        "display_millions": millions_str(exact),
    }
    _write_out(args, obj)
    return obj, f"{exact}\n{millions_str(exact)}M\n"


def _cmd_soup(args):
    if not args.out:
        raise UsageError("soup requires --out for the merged checkpoint")
    if args.manifest and Path(args.manifest).resolve() == Path(args.out).resolve():
        raise UsageError("soup --manifest must name another file than --out")
    recipe = SoupRecipe.from_file(args.recipe)
    manifest_path = args.manifest or f"{args.out}.manifest.json"
    reads = [args.recipe, args.eval_config, recipe.base]
    reads += [path for i in recipe.inputs for path in (i.path, i.plan_path)]
    if Path(manifest_path).resolve() in {Path(p).resolve() for p in reads if p is not None}:
        raise UsageError(f"soup manifest {manifest_path} would overwrite a file the soup reads")
    if recipe.mode == "greedy":
        if not args.eval_config:
            raise UsageError("greedy recipes need --eval-config for held-out accuracy")
        config = TrainConfig.from_json(read_text(args.eval_config))
        plans = recipe.plans()
        candidates = read_inputs(recipe, plans)
        for inp, c in zip(recipe.inputs, candidates):
            _checked_params(c.tensors, config.arch, inp.path, "--eval-config model")
        _, _, x_val, y_val = generate_dataset(config.dataset).task_split(config.task)
        merged = greedy_soup(candidates, lambda c: accuracy(c, config.arch, x_val, y_val))
        input_hashes = [c.content_hash for c in candidates]
        output_hash = write_checkpoint(merged, args.out)
    else:
        plans = recipe.plans()
        output_hash, input_hashes = uniform_soup(recipe, args.out, plans)
    inputs = [(i.path, h, i.weight) for i, h in zip(recipe.inputs, input_hashes)]
    manifest = soup_manifest(recipe.mode, inputs, output_hash, plans, args.classes)
    _write_text(manifest_path, _emit_json(manifest))
    text = f"soup checkpoint {output_hash}\n"
    if manifest["param_total"] is not None:
        text += (
            f"param total: {manifest['param_total']} "
            f"({manifest['param_total_display']}M by per-run rounding)\n"
        )
    return manifest, text


def _train_config(path) -> TrainConfig:
    """A config file to train from; unlike ``grad-check``, it needs at least one block."""
    config = TrainConfig.from_json(read_text(path))
    if config.arch.depth < 1:
        raise FormatError(f"{path}: arch depth must be >= 1 to train")
    return config


def _init_checkpoint(path: str | None, config: TrainConfig) -> Checkpoint | None:
    """The ``--init``/``--pre`` checkpoint, checked against the config's model
    as ``train`` checks it, so a mismatch fails before ``--out`` is made."""
    if not path:
        return None
    init = read_checkpoint(path)
    _params_from_init(init, config.arch, config.seed)
    return init


def _cmd_train(args):
    config = _train_config(args.config)
    if args.plan:
        config = replace(config, freeze=plan_from_json(read_text(args.plan), config.descriptor()))
    init = _init_checkpoint(args.init, config)
    out_dir = _out_dir(args.out)
    started = time.monotonic()
    result = train(config, init=init)
    print(f"trained in {time.monotonic() - started:.2f}s", file=sys.stderr)
    summary = _record_run(out_dir, "run", result)
    return summary, (
        f"{summary['task']} [{summary['strategy_tag'] or 'FULL'}] epochs={summary['epochs']} "
        f"loss={summary['final_train_loss']:.6f} "
        f"val_acc={summary['final_val_accuracy']:.4f}\n"
        f"checkpoint {summary['checkpoint_hash']}\n"
    )


def _cmd_pipeline(args):
    config = _train_config(args.config)
    arch = config.descriptor()
    policy = default_policy(arch, args.difficulty)
    # every top-k value is checked against the architecture before any training
    for topk in ([args.topk] if args.topk else []) + [(k,) for k in args.series or ()]:
        replace(policy, topk_per_stage=topk).validate_for(arch)
    pre_ckpt = _init_checkpoint(args.pre, config)
    out_dir = _out_dir(args.out)

    if pre_ckpt is None:
        pre_result = train(replace(config, task="pretrain", freeze=None))
        pre_ckpt = pre_result.final_checkpoint
        _record_run(out_dir, "pretrained", pre_result)

    result = run_fapft_pipeline(
        pre_ckpt, config, args.difficulty, topk=args.topk, magnitude=args.magnitude
    )
    summaries = {
        name: _record_run(out_dir, name, getattr(result, name))
        for name in ("full", "fapft", "linear_probe")
    }
    classes = config.arch.num_classes
    obj = {
        "difficulty": args.difficulty,
        "policy": result.policy.to_json_obj(),
        "pretrained_hash": pre_ckpt.content_hash,
        "angle_report": result.angle_report.to_json_obj(),
        "plan": result.plan.to_json_obj(classes=(classes,)),
        "runs": summaries,
        "series": [],
        "soup": None,
    }
    if out_dir:
        _write_text(out_dir / "angles.json", result.angle_report.to_json_text())
        _write_text(out_dir / "angles.txt", render_rank_table(result.angle_report))
        _write_text(out_dir / "plan.json", result.plan.to_json_text(classes=(classes,)))

    if args.series:
        series = run_plan_series(
            pre_ckpt, config, result.angle_report, result.policy.magnitude, args.series
        )
        inputs = []  # the soup manifest's (path, hash, weight) of each run
        for k, run in zip(args.series, series.runs):
            plan = run.config.freeze
            summary = _record_run(out_dir, f"series_k{k}", run)
            obj["series"].append(
                {"topk": [k], "run": summary, "plan": plan.to_json_obj(classes=(classes,))}
            )
            inputs.append((f"series_k{k}.ckpt", summary["checkpoint_hash"], 1.0))
            if out_dir:
                _write_text(out_dir / f"series_k{k}.plan.json", plan.to_json_text((classes,)))
        obj["soup"] = soup_manifest(
            "uniform", inputs, series.soup.content_hash, series.plans, classes
        )
        if out_dir:
            write_checkpoint(series.soup, out_dir / "soup.ckpt")
            _write_text(out_dir / "soup.manifest.json", _emit_json(obj["soup"]))

    if out_dir:
        _write_text(out_dir / "pipeline.json", _emit_json(obj))
    text = (
        f"pipeline [{args.difficulty}] policy={result.policy.magnitude} "
        f"topk={list(result.policy.topk_per_stage)}\n"
    )
    for name, s in summaries.items():
        text += (
            f"  {name:<13} val_acc={s['final_val_accuracy']:.4f} "
            f"loss={s['final_train_loss']:.6f}\n"
        )
    text += (
        f"  trainable params: fapft={result.plan.trainable_param_count(classes)} "
        f"vs full={arch.full_param_count(classes)}\n"
    )
    if obj["soup"]:
        text += f"  soup of {len(obj['series'])} runs: {obj['soup']['output_hash']}\n"
    return obj, text


_ARTIFACT_KINDS = (
    ("pipeline.json", "pipeline-manifest"),
    (".manifest.json", "soup-manifest"),
    ("angles.json", "angle-report"),
    ("angles.txt", "angle-table"),
    ("plan.json", "freeze-plan"),
    (".metrics.jsonl", "metrics"),
    (".ckpt", "checkpoint"),
    (".json", "summary"),
)


def _cmd_report(args):
    root = Path(args.dir)
    if not root.is_dir():
        raise IoError(f"{args.dir} is not a directory")
    artifacts = []
    for path in sorted(root.iterdir()):
        if not path.is_file():
            continue
        kind = next((k for suffix, k in _ARTIFACT_KINDS if path.name.endswith(suffix)), None)
        if kind is None:
            continue
        entry = {"file": path.name, "kind": kind}
        if kind == "summary":
            try:
                data = parse_json(read_text(path), "summary")
            except FormatError:  # not UTF-8, or not JSON
                continue
            accuracy = data.get("final_val_accuracy") if isinstance(data, dict) else None
            # a summary whose accuracy is not a finite number is listed without it
            try:
                require_finite("final_val_accuracy", accuracy)
            except InvalidValue:
                pass
            else:
                entry["final_val_accuracy"] = accuracy
                entry["strategy_tag"] = data.get("strategy_tag")
        artifacts.append(entry)
    obj = {"directory": str(root), "artifacts": artifacts}
    _write_out(args, obj)
    text = f"artifacts under {root}\n"
    for entry in artifacts:
        extra = ""
        if "final_val_accuracy" in entry:
            accuracy, tag = entry["final_val_accuracy"], entry["strategy_tag"] or "FULL"
            extra = f"  val_acc={accuracy:.4f} [{tag}]"
        text += f"  {entry['file']:<28} {entry['kind']}{extra}\n"
    return obj, text


_GRADCHECK_DEFAULT = {
    "arch": {
        "depth": 2, "model_dim": 16, "heads": 2, "ffn_dim": 32, "seq_len": 4, "num_classes": 4,
    },
    "optimizer": {},
    "schedule": {"epochs": 1, "warmup_epochs": 0, "batch_size": 8},
    "seed": 1,
    "dataset": {
        "num_classes": 4, "seq_len": 4, "samples_per_class": 10, "feature_dim": 16, "seed": 1,
    },
}


def _cmd_grad_check(args):
    config = TrainConfig.from_json(
        read_text(args.config) if args.config else _GRADCHECK_DEFAULT
    )
    result = grad_check(config, samples=args.samples, step_size=args.step)
    passed = result.max_rel_error <= args.tolerance
    obj = {**result.to_json_obj(), "tolerance": args.tolerance, "passed": passed}
    _write_out(args, obj)
    text = (
        f"max relative error {result.max_rel_error:.3e} "
        f"(worst: {result.worst_tensor})\n"
        f"{'PASS' if passed else 'FAIL'} at tolerance {args.tolerance:.1e}\n"
    )
    return obj, text, 0 if passed else 3


def _cmd_dataset(args):
    if not args.out:
        raise UsageError("dataset requires --out for the container file")
    spec = SyntheticSpec.from_dict(parse_json(read_text(args.spec), "dataset spec"))
    data = generate_dataset(spec)
    tensors = {
        "pretrain.features": data.pretrain_x,
        "pretrain.labels": data.pretrain_y,
        "finetune.features": data.finetune_x,
        "finetune.labels": data.finetune_y,
    }
    container = Checkpoint(
        tensors,
        {
            "pft.producer": "fapft-dataset",
            "pft.dataset_spec": json.dumps(spec.to_dict(), sort_keys=True),
        },
    )
    write_checkpoint(container, args.out)
    _, train_y, _, val_y = data.task_split("finetune")
    obj = {
        "content_hash": data.content_hash(),
        "samples": len(data.finetune_y),
        "train_samples": len(train_y),
        "val_samples": len(val_y),
        "path": str(args.out),
    }
    return obj, (
        f"dataset {obj['content_hash']}\n"
        f"{obj['samples']} samples ({obj['train_samples']} train / "
        f"{obj['val_samples']} val) -> {args.out}\n"
    )


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="fapft", description=__doc__)
    parser.add_argument("--version", action="version", version=f"fapft {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="artifact output path")
        p.add_argument("--json", action="store_true", help="machine-readable stdout")

    p = sub.add_parser("angles", help="per-layer angles between two checkpoints")
    p.add_argument("--pre", required=True)
    p.add_argument("--ft", required=True)
    p.add_argument("--arch", required=True)
    p.add_argument("--dims", help="JSON dimension overrides for toy_vit")
    common(p)
    p.set_defaults(func=_cmd_angles)

    p = sub.add_parser("rank", help="ranking consistency across angle reports")
    p.add_argument("--reports", nargs="+", required=True)
    common(p)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("plan", help="build a FAPFT freeze plan from an angle report")
    p.add_argument("--report", required=True)
    p.add_argument("--arch", required=True)
    p.add_argument("--dims")
    p.add_argument("--difficulty", choices=["easy", "challenging"])
    p.add_argument("--magnitude", choices=["large", "small"])
    p.add_argument("--topk", type=_ints, help="comma-separated per-stage k")
    p.add_argument("--classes", type=_class_counts, default="100,1000")
    common(p)
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("params", help="exact trainable-parameter accounting")
    p.add_argument("--arch", required=True)
    p.add_argument("--dims")
    p.add_argument("--classes", type=_class_count, required=True)
    p.add_argument("--plan", help="freeze-plan JSON file")
    p.add_argument("--strategy", help="A..I, full, linear_probe, attn_only, ...")
    common(p)
    p.set_defaults(func=_cmd_params)

    p = sub.add_parser("soup", help="merge checkpoints per a recipe")
    p.add_argument("--recipe", required=True)
    p.add_argument("--manifest", help="manifest path (default: <out>.manifest.json)")
    p.add_argument("--classes", type=_class_count, help="class count for param totals")
    p.add_argument("--eval-config", help="train config for greedy held-out accuracy")
    common(p)
    p.set_defaults(func=_cmd_soup)

    p = sub.add_parser("train", help="one deterministic training run")
    p.add_argument("--config", required=True)
    p.add_argument("--plan", help="freeze-plan JSON file")
    p.add_argument("--init", help="init checkpoint")
    common(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("pipeline", help="the four-step angle-guided pipeline")
    p.add_argument("--config", required=True)
    p.add_argument("--difficulty", required=True, choices=["easy", "challenging"])
    p.add_argument("--pre", help="pre-trained checkpoint (default: pretrain first)")
    p.add_argument("--topk", type=_ints, help="override per-stage k, comma-separated")
    p.add_argument("--magnitude", choices=["large", "small"])
    p.add_argument("--series", type=_ints, help="comma-separated topk list for a soup series")
    common(p)
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("report", help="summarize an artifact directory")
    p.add_argument("--dir", required=True)
    common(p)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("grad-check", help="finite-difference gradient validation")
    p.add_argument("--config")
    p.add_argument("--samples", type=_positive_int, default=200)
    p.add_argument("--step", type=_positive_number, default=1e-5)
    p.add_argument("--tolerance", type=_positive_number, default=1e-4)
    common(p)
    p.set_defaults(func=_cmd_grad_check)

    p = sub.add_parser("dataset", help="materialize a synthetic dataset container")
    p.add_argument("--spec", required=True)
    common(p)
    p.set_defaults(func=_cmd_dataset)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        obj, text, *code = args.func(args)
        sys.stdout.write(_emit_json(obj) if args.json else text)
        return code[0] if code else 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except PftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
