"""Published JSON schemas for every machine-readable CLI output.

These are plain JSON-Schema (draft-07 style) dicts; the test suite validates
each command's ``--json`` output against its schema.
"""

from __future__ import annotations

# "$" also matches before a final newline, so the length is bounded too
_HEX64 = {"type": "string", "pattern": "^[0-9a-f]{64}$", "maxLength": 64}


ANGLE_REPORT_SCHEMA = {
    "type": "object",
    "required": ["arch_id", "whole_model_angle", "entries", "provenance"],
    "additionalProperties": False,
    "properties": {
        "arch_id": {"type": "string"},
        "whole_model_angle": {"type": "number", "minimum": 0},
        "entries": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["layer_id", "group_id", "angle", "rank_in_group"],
                "additionalProperties": False,
                "properties": {
                    "layer_id": {"type": "string"},
                    "group_id": {"type": "string"},
                    "angle": {"type": "number", "minimum": 0},
                    "rank_in_group": {"type": "integer", "minimum": 1},
                },
            },
        },
        "provenance": {
            "type": "object",
            "required": ["pretrained_hash", "finetuned_hash", "excluded_tensors"],
            "additionalProperties": False,
            "properties": {
                "pretrained_hash": _HEX64,
                "finetuned_hash": _HEX64,
                "excluded_tensors": {"type": "array", "items": {"type": "string"}},
            },
        },
    },
}

FREEZE_PLAN_SCHEMA = {
    "type": "object",
    "required": [
        "arch_id",
        "strategy_tag",
        "policy",
        "trainable_layers",
        "head_trainable",
        "non_residual_trainable",
        "param_count_by_classes",
    ],
    "additionalProperties": False,
    "properties": {
        "arch_id": {"type": "string"},
        "strategy_tag": {"type": "string"},
        "policy": {
            "type": ["object", "null"],
            "required": ["magnitude", "topk_per_stage"],
            "additionalProperties": False,
            "properties": {
                "magnitude": {"enum": ["large", "small"]},
                "topk_per_stage": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 0},
                },
            },
        },
        "trainable_layers": {"type": "array", "items": {"type": "string"}},
        "head_trainable": {"const": True},
        "non_residual_trainable": {"type": "boolean"},
        "param_count_by_classes": {
            "type": "object",
            "additionalProperties": {"type": "integer", "minimum": 0},
        },
    },
}

CONSISTENCY_SCHEMA = {
    "type": "object",
    "required": ["report_ids", "tau", "mean_tau"],
    "additionalProperties": False,
    "properties": {
        "report_ids": {"type": "array", "items": {"type": "string"}},
        "tau": {
            "type": "array",
            "items": {
                "type": "array",
                "items": {"type": "number", "minimum": -1, "maximum": 1},
            },
        },
        "mean_tau": {"type": "number", "minimum": -1, "maximum": 1},
    },
}

PARAMS_SCHEMA = {
    "type": "object",
    "required": ["arch_id", "strategy_tag", "classes", "exact", "display_millions"],
    "additionalProperties": False,
    "properties": {
        "arch_id": {"type": "string"},
        "strategy_tag": {"type": "string"},
        "classes": {"type": "integer", "minimum": 1},
        "exact": {"type": "integer", "minimum": 0},
        "display_millions": {"type": "string"},
    },
}

RUN_SUMMARY_SCHEMA = {
    "type": "object",
    "required": [
        "config_hash",
        "checkpoint_hash",
        "task",
        "strategy_tag",
        "epochs",
        "final_train_loss",
        "final_val_accuracy",
    ],
    "additionalProperties": False,
    "properties": {
        "config_hash": _HEX64,
        "checkpoint_hash": _HEX64,
        "task": {"enum": ["pretrain", "finetune"]},
        "strategy_tag": {"type": ["string", "null"]},
        "epochs": {"type": "integer", "minimum": 1},
        "final_train_loss": {"type": "number"},
        "final_val_accuracy": {"type": "number", "minimum": 0, "maximum": 1},
    },
}

SOUP_MANIFEST_SCHEMA = {
    "type": "object",
    "required": ["mode", "output_hash", "inputs", "param_total", "param_total_display"],
    "additionalProperties": False,
    "properties": {
        "mode": {"enum": ["uniform", "greedy"]},
        "output_hash": _HEX64,
        "inputs": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["path", "hash", "weight"],
                "additionalProperties": False,
                "properties": {
                    "path": {"type": "string"},
                    "hash": _HEX64,
                    "weight": {"type": "number", "exclusiveMinimum": 0},
                },
            },
        },
        "param_total": {"type": ["integer", "null"]},
        "param_total_display": {"type": ["string", "null"]},
        "classes": {"type": ["integer", "null"]},
    },
}

GRAD_CHECK_SCHEMA = {
    "type": "object",
    "required": ["max_rel_error", "worst_tensor", "per_tensor", "tolerance", "passed"],
    "additionalProperties": False,
    "properties": {
        "max_rel_error": {"type": "number", "minimum": 0},
        "worst_tensor": {"type": "string"},
        "per_tensor": {
            "type": "object",
            "additionalProperties": {"type": "number", "minimum": 0},
        },
        "tolerance": {"type": "number", "exclusiveMinimum": 0},
        "passed": {"type": "boolean"},
    },
}

PIPELINE_SCHEMA = {
    "type": "object",
    "required": [
        "difficulty",
        "policy",
        "pretrained_hash",
        "angle_report",
        "plan",
        "runs",
        "series",
        "soup",
    ],
    "additionalProperties": False,
    "properties": {
        "difficulty": {"enum": ["easy", "challenging"]},
        "policy": FREEZE_PLAN_SCHEMA["properties"]["policy"],
        "pretrained_hash": _HEX64,
        "angle_report": ANGLE_REPORT_SCHEMA,
        "plan": FREEZE_PLAN_SCHEMA,
        "runs": {
            "type": "object",
            "required": ["full", "fapft", "linear_probe"],
            "additionalProperties": False,
            "properties": {
                "full": RUN_SUMMARY_SCHEMA,
                "fapft": RUN_SUMMARY_SCHEMA,
                "linear_probe": RUN_SUMMARY_SCHEMA,
            },
        },
        "series": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["topk", "run", "plan"],
                "additionalProperties": False,
                "properties": {
                    "topk": {"type": "array", "items": {"type": "integer"}},
                    "run": RUN_SUMMARY_SCHEMA,
                    "plan": FREEZE_PLAN_SCHEMA,
                },
            },
        },
        "soup": {
            "oneOf": [{"type": "null"}, SOUP_MANIFEST_SCHEMA],
        },
    },
}

REPORT_SCHEMA = {
    "type": "object",
    "required": ["directory", "artifacts"],
    "additionalProperties": False,
    "properties": {
        "directory": {"type": "string"},
        "artifacts": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["file", "kind"],
                "properties": {
                    "file": {"type": "string"},
                    "kind": {"type": "string"},
                },
            },
        },
    },
}

TRAIN_SCHEMA = RUN_SUMMARY_SCHEMA

COMMAND_SCHEMAS = {
    "angles": ANGLE_REPORT_SCHEMA,
    "rank": CONSISTENCY_SCHEMA,
    "plan": FREEZE_PLAN_SCHEMA,
    "params": PARAMS_SCHEMA,
    "soup": SOUP_MANIFEST_SCHEMA,
    "train": TRAIN_SCHEMA,
    "pipeline": PIPELINE_SCHEMA,
    "report": REPORT_SCHEMA,
    "grad-check": GRAD_CHECK_SCHEMA,
}
