"""Whatever JSON a field of a train config, a dataset spec, a freeze plan or
an angle report holds, and whatever text a checkpoint's ``pft.arch_config``
holds, its parser returns or raises a ``PftError`` with exit code 2 (a data
error), never another exception. All of them map bad data through
``errors.parse_json`` and ``errors.reading``, which are tested here too. A
plan or report that parses writes JSON its published schema allows.

Only the parsers run here: a generated spec may ask for 10^9 samples per
class, so nothing is trained or generated from one.
"""

import copy
import json

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fapft.angles import compute_angles, report_from_json
from fapft.arch import MAX_TOY_DEPTH, describe_arch, manual_strategy, plan_from_json
from fapft.checkpoint import Checkpoint
from fapft.schemas import ANGLE_REPORT_SCHEMA, FREEZE_PLAN_SCHEMA
from fapft.errors import (
    DivergenceError,
    FormatError,
    IncompatiblePlan,
    InvalidPolicy,
    InvalidValue,
    PftError,
    parse_json,
    reading,
)
from fapft.model import ModelDims
from fapft.soup import arch_from_checkpoint
from fapft.train import SyntheticSpec, TrainConfig

DIMS = {"depth": 2, "model_dim": 8, "heads": 2, "ffn_dim": 16, "seq_len": 4}
ARCH = describe_arch("toy_vit", **DIMS)
SPEC = {
    "num_classes": 4, "seq_len": 4, "samples_per_class": 10, "feature_dim": 8,
    "class_center_scale": 1.0, "noise_scale": 0.5, "shift_magnitude": 1.5, "seed": 3,
}
CONFIG = {
    "arch": {**DIMS, "num_classes": 4},
    "optimizer": {"learning_rate": 0.001, "beta1": 0.9, "beta2": 0.999,
                  "epsilon": 1e-08, "weight_decay": 0.05},
    "schedule": {"epochs": 2, "warmup_epochs": 1, "batch_size": 16},
    "seed": 7,
    "dataset": SPEC,
    "task": "finetune",
    "freeze": None,
}
PLAN = manual_strategy(ARCH, "B").to_json_obj(classes=(4, 100))


def _report() -> dict:
    rng = np.random.default_rng(0)
    shapes = ARCH.schema_shapes(4)
    pre, ft = (Checkpoint({n: rng.normal(size=s) for n, s in shapes.items()}) for _ in "ab")
    return compute_angles(pre, ft, ARCH).to_json_obj()


REPORT = _report()

MISSING = object()  # a field taken out of its object or list
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.sampled_from([10**400, "1" * 5000, *ARCH.layer_map]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=4,
)


def _paths(doc, prefix=()):
    """The path of every value in ``doc``, ``doc`` itself first."""
    yield prefix
    if isinstance(doc, (dict, list)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    else:
        items = ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _with(doc, path, value):
    """A copy of ``doc`` holding ``value`` at ``path``, or without it for MISSING."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is MISSING:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _variants(doc):
    """``doc`` with any JSON value, or nothing, in one of its fields."""
    return st.builds(
        _with, st.just(doc), st.sampled_from(list(_paths(doc))), JSON_VALUES | st.just(MISSING)
    )


def _parse(parser, data):
    """What ``parser`` returns, or None for a data error (exit 2)."""
    try:
        return parser(data)
    except PftError as exc:
        assert exc.exit_code == 2, f"{type(exc).__name__}: {exc}"
        return None


@settings(max_examples=200, deadline=None)
@given(doc=_variants(CONFIG))
@example(doc={**CONFIG, "freeze": 5})
@example(doc={**CONFIG, "optimizer": {**CONFIG["optimizer"], "learning_rate": 10**400}})
@example(doc={**CONFIG, "arch": {**CONFIG["arch"], "depth": 0}, "freeze": PLAN})
def test_any_train_config_parses_or_is_a_data_error(doc):
    _parse(TrainConfig.from_json, doc)


@settings(max_examples=200, deadline=None)
@given(doc=_variants(SPEC))
@example(doc={**SPEC, "noise_scale": 10**400})
def test_any_dataset_spec_parses_or_is_a_data_error(doc):
    _parse(SyntheticSpec.from_dict, doc)


@settings(max_examples=300, deadline=None)
@given(doc=_variants(PLAN))
@example(doc=5)
@example(doc={**PLAN, "trainable_layers": [["a"]]})
@example(doc={**PLAN, "param_count_by_classes": {"x": 1}})
@example(doc={**PLAN, "non_residual_trainable": "no"})
@example(doc={**PLAN, "trainable_layers": ["s0.b0.ATTN", "s0.b0.ATTN"]})
@example(doc={**PLAN, "policy": {"": float("nan")}})
@example(doc={**PLAN, "policy": {"magnitude": "huge", "topk_per_stage": [-3]}})
@example(doc={**PLAN, "policy": {"foo": 1}})
@example(doc={**PLAN, "policy": {"magnitude": "large", "topk_per_stage": [1.5]}})
def test_any_plan_parses_or_is_a_data_error(doc):
    plan = _parse(lambda data: plan_from_json(data, ARCH), doc)
    if plan is not None:
        # and what it writes is what the published schema allows
        jsonschema.validate(plan.to_json_obj(), FREEZE_PLAN_SCHEMA)
        # a plan that comes back holds the document's values, of JSON's types
        assert plan.strategy_tag == doc["strategy_tag"] and type(doc["strategy_tag"]) is str
        assert plan.non_residual_trainable is doc["non_residual_trainable"]
        assert set(plan.trainable_layer_ids) == set(doc["trainable_layers"])
        assert plan_from_json(plan.to_json_text(), ARCH) == plan


@settings(max_examples=300, deadline=None)
@given(doc=_variants(REPORT))
@example(doc=_with(REPORT, ("entries", 0, "angle"), "1.5"))
@example(doc=_with(REPORT, ("entries", 0, "rank_in_group"), 1.7))
@example(doc=_with(REPORT, ("provenance", "pretrained_hash"), 5))
@example(doc=_with(REPORT, ("provenance", "excluded_tensors"), "abc"))
@example(doc=_with(REPORT, ("provenance", "finetuned_hash"), "zz"))
def test_any_angle_report_parses_or_is_a_data_error(doc):
    report = _parse(report_from_json, doc)
    if report is not None:
        # and what it writes is what the published schema allows
        jsonschema.validate(report.to_json_obj(), ANGLE_REPORT_SCHEMA)
        # a report that comes back holds the document's values, of JSON's types
        for entry, raw in zip(report.entries, doc["entries"], strict=True):
            assert type(raw["angle"]) in (int, float) and entry.angle == float(raw["angle"])
            assert type(raw["rank_in_group"]) is int
            assert (entry.layer_id, entry.group_id, entry.rank_in_group) == (
                raw["layer_id"], raw["group_id"], raw["rank_in_group"]
            )
        provenance = doc["provenance"]
        assert list(report.excluded_tensors) == provenance["excluded_tensors"]
        assert (report.pretrained_hash, report.finetuned_hash) == (
            provenance["pretrained_hash"], provenance["finetuned_hash"]
        )
        strings = [report.arch_id, report.pretrained_hash, report.finetuned_hash,
                   *report.excluded_tensors, *(e.layer_id for e in report.entries)]
        assert all(type(s) is str for s in strings)
        assert report_from_json(json.dumps(report.to_json_obj())) == report


@pytest.mark.parametrize("field", ["pretrained_hash", "finetuned_hash"])
def test_a_hash_with_a_trailing_newline_is_refused(field):
    doc = _with(REPORT, ("provenance", field), "a" * 64 + "\n")
    assert not jsonschema.Draft7Validator(ANGLE_REPORT_SCHEMA).is_valid(doc)
    with pytest.raises(FormatError, match=f"^invalid angle report: {field} must be 64"):
        report_from_json(doc)


# pft.arch_config text: JSON of any value, objects of toy_vit dimensions (and
# keys that describe_arch takes otherwise), and text that is not JSON
ARCH_CONFIGS = (
    st.builds(json.dumps, JSON_VALUES)
    | st.builds(
        json.dumps,
        st.dictionaries(
            st.sampled_from([*DIMS, "num_classes", "arch_id", "x"]),
            st.integers(-1, MAX_TOY_DEPTH + 1) | JSON_VALUES,
            max_size=4,
        ),
    )
    | st.text()
)


@settings(max_examples=300, deadline=None)
@given(config=ARCH_CONFIGS)
@example(config='{"depth": ' + "1" * 5000 + "}")
@example(config="1" * 5000)
@example(config='{"arch_id": "vit_b16"}')
@example(config=json.dumps({**DIMS, "depth": MAX_TOY_DEPTH + 1}))
def test_any_arch_config_gives_a_descriptor_or_is_a_data_error(config):
    arch = _parse(arch_from_checkpoint, {"pft.arch_id": "toy_vit", "pft.arch_config": config})
    if arch is not None:
        assert arch.arch_id == "toy_vit" and len(arch.layers) <= 2 * MAX_TOY_DEPTH


# a model dimension: an int (0 and negatives included), a depth around the
# bound, a bool, None or a float
DIM_VALUES = (
    st.integers(-1, 9) | st.integers(MAX_TOY_DEPTH - 1, MAX_TOY_DEPTH + 1)
    | st.booleans() | st.none() | st.sampled_from([2.0, 1.5])
)


@settings(max_examples=300, deadline=None)
@given(dims=st.fixed_dictionaries({name: DIM_VALUES for name in CONFIG["arch"]}))
@example(dims={**CONFIG["arch"], "depth": 0})
@example(dims={**CONFIG["arch"], "depth": MAX_TOY_DEPTH + 1})
@example(dims={**CONFIG["arch"], "ffn_dim": None})
@example(dims={**CONFIG["arch"], "num_classes": True})
def test_model_dims_are_valid_exactly_when_their_descriptor_is(dims):
    toy = {name: value for name, value in dims.items() if name != "num_classes"}
    try:
        arch = describe_arch("toy_vit", **toy)
    except InvalidValue:
        arch = None
    classes = dims["num_classes"]
    # describe_arch reads a None as its default; a model dimension must be an int
    valid = (arch is not None and None not in toy.values()
             and type(classes) is int and classes >= 1)
    try:
        model = ModelDims(**dims)
    except InvalidValue:
        assert not valid
    else:
        assert valid and model.descriptor == arch and model.descriptor is model.descriptor


@pytest.mark.parametrize("exc, prefix", [
    (KeyError("k"), "malformed thing: "),
    (TypeError("t"), "malformed thing: "),
    (OverflowError("o"), "malformed thing: "),
    (InvalidValue("v"), "invalid thing: "),
    (InvalidPolicy("p"), "invalid thing: "),
])
def test_reading_maps_bad_data_to_a_format_error(exc, prefix):
    with pytest.raises(FormatError) as info, reading("thing"):
        raise exc
    assert str(info.value) == prefix + str(exc) and info.value.__cause__ is exc


@pytest.mark.parametrize("exc", [IncompatiblePlan("p"), DivergenceError("d"), ValueError("v")])
def test_reading_passes_other_errors_through(exc):
    with pytest.raises(type(exc)) as info, reading("thing"):
        raise exc
    assert info.value is exc


def test_parse_json_parses_text_and_passes_other_values_through():
    assert parse_json('{"a": [1]}', "thing") == parse_json(b'{"a": [1]}', "thing") == {"a": [1]}
    value = {"a": 1}
    assert parse_json(value, "thing") is value
    for text in ("{not json", "1" * 5000, b"\xff"):
        with pytest.raises(FormatError, match="^malformed thing JSON: "):
            parse_json(text, "thing")
