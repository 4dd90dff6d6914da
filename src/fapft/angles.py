"""Per-layer fine-tuned angles between two checkpoints and ranking consistency.

For each residual layer, the layer's tensors from both checkpoints are
concatenated in lexicographic name order, flattened, and the angle between
the two resulting vectors is computed. A whole-model angle is computed the
same way over the concatenation of all residual layers. The classifier head
(freshly initialized per task, possibly with a different shape) and the
non-residual modules are excluded and recorded in the report's provenance.
Each tensor pair is reduced once, in float64 over fixed-length blocks (see
``tensors.pair_stats``), and its sums count toward both its layer and the
whole model. Checkpoint files are read as two streams in step, one chunk of
each at a time (2^18 elements, from the 4 MB chunk budget that
``checkpoint.chunk_length`` shares out), and every chunk pair is reduced in
one set of scratch buffers, so memory holds four chunk buffers and a few
blocks, whatever the tensor sizes.
"""

from __future__ import annotations

import json
import re
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import zip_longest

from .arch import ArchDescriptor, describe_arch
from .checkpoint import zip_chunks
from .errors import (
    FormatError,
    IncompatibleReports,
    InvalidValue,
    parse_json,
    reading,
    require_finite,
    require_int,
    require_shapes,
    require_str,
)
from .tensors import PairStats, kendall_tau, pair_scratch, pair_stats

__all__ = [
    "AngleEntry",
    "AngleReport",
    "ConsistencyMatrix",
    "compute_angles",
    "rank_consistency",
    "rank_entries",
    "render_rank_table",
]

# Buffers that real-world hierarchical checkpoints carry inside attention
# modules; they hold indices/masks, not parameters, and angles skip them.
_IGNORED_SUFFIXES = (".attn.relative_position_index", ".attn_mask")


@dataclass(frozen=True)
class AngleEntry:
    layer_id: str
    group_id: str
    angle: float
    rank_in_group: int


@dataclass(frozen=True)
class AngleReport:
    """Per-layer angles with group ranks, plus provenance hashes."""

    arch_id: str
    entries: tuple[AngleEntry, ...]
    whole_model_angle: float
    pretrained_hash: str
    finetuned_hash: str
    excluded_tensors: tuple[str, ...]

    def angles_in_order(self) -> list[float]:
        """Angle values in the canonical layer order (depth-major)."""
        return [e.angle for e in self.entries]

    def to_json_obj(self) -> dict:
        return {
            "arch_id": self.arch_id,
            "whole_model_angle": self.whole_model_angle,
            "entries": [
                {
                    "layer_id": e.layer_id,
                    "group_id": e.group_id,
                    "angle": e.angle,
                    "rank_in_group": e.rank_in_group,
                }
                for e in self.entries
            ],
            "provenance": {
                "pretrained_hash": self.pretrained_hash,
                "finetuned_hash": self.finetuned_hash,
                "excluded_tensors": list(self.excluded_tensors),
            },
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True) + "\n"


def _angle(name: str, value) -> float:
    angle = require_finite(name, value)
    if angle < 0:
        raise InvalidValue(f"{name} must be >= 0, got {angle!r}")
    return angle


def _hash(name: str, value) -> str:
    digest = require_str(name, value)
    if not re.fullmatch("[0-9a-f]{64}", digest):
        raise InvalidValue(f"{name} must be 64 lowercase hex digits, got {digest!r}")
    return digest


def _check_layers(report: AngleReport, name: str, arch_id: str, layer_ids, what: str) -> None:
    """Raise ``IncompatibleReports`` unless ``report`` (called ``name``) is
    for ``arch_id`` and holds the layers ``layer_ids`` of ``what``, in order.
    The message names the first difference: the two arch ids, or the first
    position whose layer ids differ, with both."""
    if report.arch_id != arch_id:
        raise IncompatibleReports(f"{name} is for {report.arch_id}, not {arch_id}")
    held = (e.layer_id for e in report.entries)
    for position, (got, want) in enumerate(zip_longest(held, layer_ids)):
        if got != want:
            raise IncompatibleReports(
                f"{name} has {_layer(got)} at position {position} where {what} has {_layer(want)}"
            )


def _layer(layer_id: str | None) -> str:
    return "no layer" if layer_id is None else f"layer {layer_id}"


def report_from_json(data) -> AngleReport:
    """Rebuild a report from its JSON form. Ids and excluded tensor names
    must be strings, hashes 64 lowercase hex digits, angles finite numbers of
    at least 0, ranks positive ints and layer ids unique; anything else is a
    ``FormatError``. The entries must then be those :func:`compute_angles`
    gives the report's model (a ``toy_vit`` of two layers per block): its
    layer ids in order (else ``IncompatibleReports``), each in its group,
    ranked by :func:`rank_entries` (else a ``FormatError``); an unknown
    ``arch_id`` is an ``UnknownArchitecture``."""
    data = parse_json(data, "angle report")
    with reading("angle report"):
        provenance = data["provenance"]
        excluded = provenance["excluded_tensors"]
        if not isinstance(excluded, list):
            raise TypeError(f"excluded_tensors must be a list, got {excluded!r}")
        entries = tuple(
            AngleEntry(
                layer_id=require_str("layer_id", e["layer_id"]),
                group_id=require_str("group_id", e["group_id"]),
                angle=_angle("angle", e["angle"]),
                rank_in_group=require_int("rank_in_group", e["rank_in_group"], 1),
            )
            for e in data["entries"]
        )
        layer_ids = [e.layer_id for e in entries]
        if len(set(layer_ids)) < len(layer_ids):
            raise FormatError(f"angle report names a layer twice: {layer_ids}")
        report = AngleReport(
            arch_id=require_str("arch_id", data["arch_id"]),
            entries=entries,
            whole_model_angle=_angle("whole_model_angle", data["whole_model_angle"]),
            pretrained_hash=_hash("pretrained_hash", provenance["pretrained_hash"]),
            finetuned_hash=_hash("finetuned_hash", provenance["finetuned_hash"]),
            excluded_tensors=tuple(require_str("excluded tensor", name) for name in excluded),
        )
        # toy_vit layer ids depend on its depth alone
        dims = {"depth": len(entries) // 2} if report.arch_id == "toy_vit" else {}
        arch = describe_arch(report.arch_id, **dims)
        model = f"the {arch.arch_id} model"
        _check_layers(report, "angle report", arch.arch_id, [l.layer_id for l in arch.layers], model)
        ranked = rank_entries(arch, {e.layer_id: e.angle for e in entries})
        for got, want in zip(entries, ranked):
            if got != want:
                raise FormatError(
                    f"angle report puts layer {got.layer_id} in group {got.group_id} at rank "
                    f"{got.rank_in_group}, where {model} and its angles give group "
                    f"{want.group_id} and rank {want.rank_in_group}"
                )
        return report


def rank_entries(arch: ArchDescriptor, angles: Mapping[str, float]) -> tuple[AngleEntry, ...]:
    """One entry per layer of ``arch``, in its layer order, holding the layer's
    angle (from ``angles``, keyed by layer id) and its rank in its homogeneous
    group: largest angle first. The sort is stable over the group's members,
    which are in depth order, so ties go to the shallower layer."""
    entries: dict[str, AngleEntry] = {}
    for group in arch.groups:
        order = sorted(group.members, key=lambda l: -angles[l.layer_id])
        for rank, l in enumerate(order, 1):
            entries[l.layer_id] = AngleEntry(l.layer_id, group.group_id, angles[l.layer_id], rank)
    return tuple(entries[l.layer_id] for l in arch.layers)


def compute_angles(pre, ft, arch: ArchDescriptor) -> AngleReport:
    """Per-layer and whole-model angles between a pre-trained and a fine-tuned
    checkpoint, each a :class:`Checkpoint` in memory or a
    :class:`CheckpointReader` of a file (which is then read once, in step
    with the other, one chunk at a time)."""
    # each checkpoint must hold the architecture's residual tensors, with
    # their shapes, and no tensor the architecture does not name; the
    # non-residual tensors, the head and attention buffers are not compared
    pre_shapes, ft_shapes = pre.shapes, ft.shapes
    residual = {name: shape for layer in arch.layers for name, shape in layer.tensors.items()}
    skipped = arch.non_residual.keys() | arch.head_shapes(1).keys()
    for side, shapes in (("pre-trained", pre_shapes), ("fine-tuned", ft_shapes)):
        held = {name: shape for name, shape in shapes.items()
                if name not in skipped and not name.endswith(_IGNORED_SUFFIXES)}
        require_shapes(held, residual, f"{side} checkpoint", f"{arch.arch_id} model")

    # each pair is reduced once, chunk after chunk; its sums then go to its
    # layer and to the whole model, both in the fixed per-tensor order, so the
    # result does not depend on map insertion order or on the read order
    stats: dict[str, PairStats] = {}
    scratch = pair_scratch()
    for name, _, (a, b) in zip_chunks(pre, ft):
        if name in residual:
            stats[name] = pair_stats(a, b, stats.get(name, PairStats()), scratch)
    angles: dict[str, float] = {}
    whole = PairStats()
    for layer in arch.layers:
        acc = PairStats()
        for name in sorted(layer.tensors):
            acc += stats[name]
            whole += stats[name]
        angles[layer.layer_id] = acc.angle(layer.layer_id)

    excluded = sorted((pre_shapes.keys() | ft_shapes.keys()) - residual.keys())

    return AngleReport(
        arch_id=arch.arch_id,
        entries=rank_entries(arch, angles),
        whole_model_angle=whole.angle("whole model"),
        pretrained_hash=pre.content_hash,
        finetuned_hash=ft.content_hash,
        excluded_tensors=tuple(excluded),
    )


@dataclass(frozen=True)
class ConsistencyMatrix:
    """Pairwise Kendall tau of angle rankings across several reports."""

    report_ids: tuple[str, ...]
    tau: tuple[tuple[float, ...], ...]
    mean_tau: float

    def to_json_obj(self) -> dict:
        return {
            "report_ids": list(self.report_ids),
            "tau": [list(row) for row in self.tau],
            "mean_tau": self.mean_tau,
        }


def rank_consistency(reports: list[AngleReport]) -> ConsistencyMatrix:
    """Pairwise tau-b over angle values in canonical layer order, plus their mean.

    Correlations are computed on raw angle values rather than pre-binned
    ranks; tau only depends on the ordering, and this avoids a second round
    of tie-breaking.
    """
    if len(reports) < 2:
        raise InvalidValue("need at least 2 reports for consistency")
    first = reports[0]
    layer_ids = [e.layer_id for e in first.entries]
    for i, report in enumerate(reports[1:], 2):
        _check_layers(report, f"report {i}", first.arch_id, layer_ids, "report 1")

    vectors = [r.angles_in_order() for r in reports]
    n = len(reports)
    tau = [[1.0] * n for _ in range(n)]
    off_diagonal = []
    for i in range(n):
        for j in range(i + 1, n):
            t = kendall_tau(vectors[i], vectors[j])
            tau[i][j] = tau[j][i] = t
            off_diagonal.append(t)
    return ConsistencyMatrix(
        report_ids=tuple(r.finetuned_hash[:12] for r in reports),
        tau=tuple(tuple(row) for row in tau),
        mean_tau=sum(off_diagonal) / len(off_diagonal),
    )


def render_rank_table(report: AngleReport) -> str:
    """Aligned text table, one section per group in the order the entries
    first name them; within a group, rows keep the entries' order and give their rank."""
    groups: dict[str, list[AngleEntry]] = {}
    for entry in report.entries:
        groups.setdefault(entry.group_id, []).append(entry)

    lines = [
        f"arch: {report.arch_id}",
        f"whole-model angle: {report.whole_model_angle:.6f} rad",
    ]
    for gid, entries in groups.items():
        lines.append("")
        lines.append(f"group {gid}")
        lines.append(f"  {'layer':<14} {'angle(rad)':>12} {'rank':>5}")
        for e in entries:
            lines.append(f"  {e.layer_id:<14} {e.angle:>12.6f} {e.rank_in_group:>5}")
    if report.excluded_tensors:
        lines.append("")
        lines.append(f"excluded tensors: {', '.join(report.excluded_tensors)}")
    return "\n".join(lines) + "\n"
