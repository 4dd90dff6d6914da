import json
import math
import re
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fapft.angles import (
    AngleEntry,
    AngleReport,
    compute_angles,
    rank_consistency,
    rank_entries,
    render_rank_table,
    report_from_json,
)
from fapft.arch import describe_arch
from fapft import checkpoint
from fapft.checkpoint import _CHUNK, Checkpoint, CheckpointReader, chunk_length, write_checkpoint
from fapft.errors import (
    CorruptFile,
    DegenerateVector,
    IncompatibleCheckpoints,
    IncompatibleReports,
    InvalidValue,
)
from fapft.tensors import PairStats, pair_stats


def make_ckpt(arch, num_classes, rng, mutate=None):
    """Full synthetic checkpoint for an architecture; `mutate` edits arrays."""
    tensors = {}
    for name, shape in arch.schema_shapes(num_classes).items():
        data = rng.normal(size=shape).astype(np.float32)
        if mutate is not None:
            data = mutate(name, data)
        tensors[name] = data
    return Checkpoint(tensors, {"pft.arch_id": arch.arch_id})


@pytest.fixture(scope="module")
def toy():
    return describe_arch("toy_vit", depth=3, model_dim=8, heads=2, seq_len=4)


@pytest.fixture(scope="module")
def wide(tmp_path_factory):
    """An architecture whose FFN tensors span almost six chunks, and the
    paths of a pre-trained and a fine-tuned checkpoint file of it."""
    arch = describe_arch("toy_vit", depth=1, model_dim=512, heads=4, ffn_dim=3000, seq_len=2)
    rng = np.random.default_rng(44)
    pre = make_ckpt(arch, 3, rng)
    # a small move, as in fine-tuning: an angle near 0 shows the last bits of its sums
    ft = Checkpoint({n: t + np.float32(1e-3) * t[::-1] for n, t in pre.tensors.items()},
                    pre.metadata)
    directory = tmp_path_factory.mktemp("wide")
    paths = (directory / "pre.ckpt", directory / "ft.ckpt")
    for ckpt, path in zip((pre, ft), paths):
        write_checkpoint(ckpt, path)
    return arch, pre, ft, paths


class TestComputeAngles:
    def test_identical_checkpoints(self, toy):
        ckpt = make_ckpt(toy, 5, np.random.default_rng(1))
        report = compute_angles(ckpt, ckpt, toy)
        assert all(e.angle == 0.0 for e in report.entries)
        assert report.whole_model_angle == 0.0
        assert len(report.entries) == len(toy.layers)

    def test_negated_layer_hits_pi(self, toy):
        rng = np.random.default_rng(2)
        pre = make_ckpt(toy, 5, rng)
        target = toy.layer_map["s0.b1.FFN"]

        def negate(name, data):
            return -data if name in target.tensors else data

        ft = Checkpoint(
            {
                n: negate(n, t.copy())
                for n, t in pre.tensors.items()
            },
            dict(pre.metadata),
        )
        report = compute_angles(pre, ft, toy)
        for e in report.entries:
            if e.layer_id == "s0.b1.FFN":
                assert e.angle == math.pi
            else:
                assert e.angle == 0.0

    def test_equal_and_negated_tensors_give_neither_zero_nor_pi(self, toy):
        rng = np.random.default_rng(11)
        pre = make_ckpt(toy, 5, rng)
        target = toy.layer_map["s0.b1.FFN"]
        negated = sorted(target.tensors)[-1]  # the others stay equal

        def flip(names):
            return Checkpoint(
                {n: -t if n in names else t
                 for n, t in pre.tensors.items()}
            )

        report = compute_angles(pre, flip({negated}), toy)
        angles = {e.layer_id: e.angle for e in report.entries}
        assert 0.0 < angles["s0.b1.FFN"] < math.pi
        assert 0.0 < report.whole_model_angle < math.pi
        for e in report.entries:
            if e.layer_id != "s0.b1.FFN":
                assert e.angle == 0.0

        # the whole model follows the same rule: pi only when every residual
        # tensor is negated
        residual = {n for layer in toy.layers for n in layer.tensors}
        report = compute_angles(pre, flip(residual), toy)
        assert report.whole_model_angle == math.pi
        assert all(e.angle == math.pi for e in report.entries)

    @pytest.mark.parametrize(
        "dims",
        [dict(depth=3, model_dim=8, heads=2, seq_len=4),
         # qkv 27 648 and FFN 30 720 elements: several blocks and a tail
         dict(depth=1, model_dim=96, heads=4, ffn_dim=320, seq_len=4)],
        ids=["one_block", "several_blocks"],
    )
    def test_angles_match_exact_oracle(self, dims):
        arch = describe_arch("toy_vit", **dims)
        rng = np.random.default_rng(12)
        pre = make_ckpt(arch, 5, rng)
        ft = make_ckpt(arch, 5, rng, mutate=lambda n, d: d + np.float32(0.1) * d[::-1])
        report = compute_angles(pre, ft, arch)

        def oracle(names):
            u, v = (
                np.concatenate([c.tensors[n].ravel() for n in sorted(names)])
                .astype(np.longdouble)
                for c in (pre, ft)
            )
            return math.acos(float((u @ v) / np.sqrt((u @ u) * (v @ v))))

        for layer, entry in zip(arch.layers, report.entries, strict=True):
            assert entry.angle == pytest.approx(oracle(layer.tensors), rel=1e-12)
        residual = {n for layer in arch.layers for n in layer.tensors}
        assert report.whole_model_angle == pytest.approx(oracle(residual), rel=1e-12)

    @pytest.mark.parametrize("seed", [16, 17, 18])
    def test_one_block_tensors_match_per_tensor_reference(self, seed):
        # every tensor fits in one block, so each is one plain float64 dot,
        # summed tensor by tensor into its layer and into the whole model
        arch = describe_arch("toy_vit", depth=6, model_dim=32, heads=2, seq_len=4)
        rng = np.random.default_rng(seed)
        pre = make_ckpt(arch, 5, rng)
        ft = Checkpoint(
            {n: t + np.float32(0.2) * t[::-1]
             for n, t in pre.tensors.items()}
        )
        report = compute_angles(pre, ft, arch)

        def reference(sums):
            ab, aa, bb = sums
            return math.acos(min(1.0, max(-1.0, ab / math.sqrt(aa * bb))))

        whole = [0.0, 0.0, 0.0]
        for layer, entry in zip(arch.layers, report.entries, strict=True):
            sums = [0.0, 0.0, 0.0]
            for name in sorted(layer.tensors):
                a = pre.tensors[name].astype(np.float64).ravel()
                b = ft.tensors[name].astype(np.float64).ravel()
                for i, (x, y) in enumerate([(a, b), (a, a), (b, b)]):
                    sums[i] += float(np.dot(x, y))
                    whole[i] += float(np.dot(x, y))
            assert entry.angle == reference(sums)
        assert report.whole_model_angle == reference(whole)

    def test_chunked_tensors_match_whole_array_pair_stats(self, wide, monkeypatch):
        # tensors of 3 and 5.86 chunks of 2^18 elements (twice and four times
        # as many of 2^17 and 2^16), streamed from files or viewed in memory,
        # give the bits of pair_stats over each whole tensor pair at every
        # chunk length
        arch, pre, ft, paths = wide
        sizes = [pre.tensors[n].size for layer in arch.layers for n in layer.tensors]
        assert max(sizes) >= 3 * _CHUNK and any(size % _CHUNK for size in sizes)
        whole = PairStats()
        expected = {}
        for layer in arch.layers:
            acc = PairStats()
            for name in sorted(layer.tensors):
                stats = pair_stats(pre.tensors[name], ft.tensors[name])
                acc += stats
                whole += stats
            expected[layer.layer_id] = acc.angle()
        for length in (1 << 16, 1 << 17, 1 << 18):
            # the budget of two buffers of `length` elements per file
            monkeypatch.setattr(checkpoint, "_CHUNK_BUDGET", 2 * 2 * length * 4)
            assert chunk_length(2) == length
            with CheckpointReader(paths[0]) as a, CheckpointReader(paths[1]) as b:
                streamed = compute_angles(a, b, arch)
            for report in (streamed, compute_angles(pre, ft, arch)):
                assert {e.layer_id: e.angle for e in report.entries} == expected
                assert report.whole_model_angle == whole.angle()
            assert streamed.finetuned_hash == ft.content_hash

    def test_memory_peak_two_chunk_buffers_per_file(self, wide):
        # two chunk buffers per file, not a tensor of almost six chunks
        arch, _, _, paths = wide
        tracemalloc.start()
        try:
            with CheckpointReader(paths[0]) as a, CheckpointReader(paths[1]) as b:
                compute_angles(a, b, arch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (2 + 2) * 2 * _CHUNK * 4

    def test_faults_in_both_files_name_the_pre_trained_one(self, wide, tmp_path):
        # the fine-tuned file's infinity comes in an earlier chunk, but the
        # tensor's last chunk is taken from the pre-trained file first, as
        # whole tensors were
        arch, pre, ft, _ = wide
        name = "blocks.0.mlp.fc1.weight"
        paths = []
        for ckpt, index, stem in ((pre, 5 * _CHUNK + 1, "pre"), (ft, 7, "ft")):
            blob = bytearray(ckpt.canonical_bytes())
            (header_len,) = struct.unpack("<Q", blob[:8])
            begin = json.loads(blob[8 : 8 + header_len])[name]["data_offsets"][0]
            at = 8 + header_len + begin + 4 * index
            blob[at : at + 4] = np.array([np.inf], dtype="<f4").tobytes()
            paths.append(tmp_path / f"{stem}.ckpt")
            paths[-1].write_bytes(bytes(blob))
        with CheckpointReader(paths[0]) as a, CheckpointReader(paths[1]) as b:
            with pytest.raises(CorruptFile, match=f"pre.ckpt: tensor {name} contains non-finite"):
                compute_angles(a, b, arch)

    def test_perturbed_layer_matches_flat_oracle(self, toy):
        rng = np.random.default_rng(3)
        pre = make_ckpt(toy, 5, rng)
        target = toy.layer_map["s0.b1.FFN"]
        delta = {
            name: rng.normal(size=shape).astype(np.float32) * 0.05
            for name, shape in target.tensors.items()
        }

        def perturb(name, data):
            return data + delta[name] if name in delta else data

        ft = Checkpoint(
            {
                n: perturb(n, t.copy())
                for n, t in pre.tensors.items()
            }
        )
        report = compute_angles(pre, ft, toy)

        # independent oracle: concatenate in sorted name order, plain dot math
        u = np.concatenate(
            [pre.tensors[n].astype(np.float64).ravel() for n in sorted(target.tensors)]
        )
        v = np.concatenate(
            [ft.tensors[n].astype(np.float64).ravel() for n in sorted(target.tensors)]
        )
        expected = math.acos(
            float(u @ v) / (math.sqrt(float(u @ u)) * math.sqrt(float(v @ v)))
        )
        (got,) = [e.angle for e in report.entries if e.layer_id == "s0.b1.FFN"]
        assert got == pytest.approx(expected, abs=1e-12)
        assert got > 0.0

    def test_symmetry(self, toy):
        rng = np.random.default_rng(4)
        a = make_ckpt(toy, 5, rng)
        b = make_ckpt(toy, 5, rng)
        r1 = compute_angles(a, b, toy)
        r2 = compute_angles(b, a, toy)
        assert r1.angles_in_order() == r2.angles_in_order()

    def test_scale_invariance_preserves_angles_and_ranks(self, toy):
        rng = np.random.default_rng(5)
        pre = make_ckpt(toy, 5, rng)
        ft = make_ckpt(toy, 5, rng)
        base = compute_angles(pre, ft, toy)

        def scaled(ckpt, c):
            return Checkpoint(
                {n: t * np.float32(c) for n, t in ckpt.tensors.items()}
            )

        # powers of two scale exactly at storage precision
        scaled_report = compute_angles(scaled(pre, 4.0), scaled(ft, 0.5), toy)
        for e1, e2 in zip(base.entries, scaled_report.entries):
            assert abs(e1.angle - e2.angle) < 1e-10
            assert e1.rank_in_group == e2.rank_in_group

        # non-dyadic scales round the stored values themselves; angles stay
        # put to storage precision and ranks are unaffected
        rough = compute_angles(scaled(pre, 3.0), scaled(ft, 3.0), toy)
        for e1, e2 in zip(base.entries, rough.entries):
            assert abs(e1.angle - e2.angle) < 1e-6
            assert e1.rank_in_group == e2.rank_in_group

    def test_insertion_order_irrelevant(self, toy):
        rng = np.random.default_rng(6)
        pre = make_ckpt(toy, 5, rng)
        ft = make_ckpt(toy, 5, rng)
        shuffled = Checkpoint(
            {n: pre.tensors[n] for n in reversed(list(pre.tensors))},
            dict(pre.metadata),
        )
        assert (
            compute_angles(pre, ft, toy).angles_in_order()
            == compute_angles(shuffled, ft, toy).angles_in_order()
        )

    def test_head_and_non_residual_excluded(self, toy):
        # a pair that differs only in tensors angles do not compare still gets
        # a report: a head of another class count, an attention buffer
        # (indices, not parameters) on one side, no pos_embed on the other
        rng = np.random.default_rng(7)
        buffer = "blocks.0.attn.relative_position_index"
        pre = {**make_ckpt(toy, 5, rng).tensors, buffer: np.arange(16, dtype=np.float32)}
        ft = dict(make_ckpt(toy, 9, rng).tensors)
        del ft["pos_embed"]
        report = compute_angles(Checkpoint(pre), Checkpoint(ft), toy)
        excluded = {*toy.non_residual, "head.weight", "head.bias", buffer}
        assert report.excluded_tensors == tuple(sorted(excluded))
        assert len(report.entries) == len(toy.layers)

    @pytest.mark.parametrize("side", ["pre-trained", "fine-tuned"])
    def test_unknown_tensor_is_named(self, toy, side):
        rng = np.random.default_rng(19)
        pair = [make_ckpt(toy, 5, rng), make_ckpt(toy, 5, rng)]
        i = ["pre-trained", "fine-tuned"].index(side)
        pair[i] = Checkpoint({**pair[i].tensors, "mystery.weight": np.ones(3, np.float32)})
        expected = f"{side} checkpoint: tensor 'mystery.weight' is not in the toy_vit model"
        with pytest.raises(IncompatibleCheckpoints, match=re.escape(expected)):
            compute_angles(*pair, toy)

    def test_zero_norm_layer_is_named(self, toy):
        rng = np.random.default_rng(13)
        target = toy.layer_map["s0.b1.FFN"]
        pre = make_ckpt(
            toy, 5, rng, mutate=lambda n, d: 0.0 * d if n in target.tensors else d
        )
        with pytest.raises(DegenerateVector, match="^s0.b1.FFN: "):
            compute_angles(pre, make_ckpt(toy, 5, rng), toy)

    def test_missing_residual_tensor(self, toy):
        rng = np.random.default_rng(8)
        pre = make_ckpt(toy, 5, rng)
        partial = {n: t for n, t in pre.tensors.items() if n != "blocks.0.norm1.weight"}
        with pytest.raises(IncompatibleCheckpoints):
            compute_angles(pre, Checkpoint(partial), toy)

    def test_residual_shape_mismatch(self, toy):
        rng = np.random.default_rng(9)
        pre = make_ckpt(toy, 5, rng)
        tensors = dict(pre.tensors)
        tensors["blocks.0.norm1.weight"] = np.zeros(4, dtype=np.float32)
        with pytest.raises(IncompatibleCheckpoints):
            compute_angles(pre, Checkpoint(tensors), toy)

    # a descriptor of the checkpoints' depth but another width: its residual
    # tensors have the checkpoints' names and other shapes
    OTHER_WIDTHS = {
        "model_dim": ({"model_dim": 4},
                      "tensor 'blocks.0.norm1.weight' has shape (8,), "
                      "the toy_vit model needs (4,)"),
        "ffn_dim": ({"ffn_dim": 16},
                    "tensor 'blocks.0.mlp.fc1.weight' has shape (32, 8), "
                    "the toy_vit model needs (16, 8)"),
    }

    @pytest.mark.parametrize("width", sorted(OTHER_WIDTHS))
    def test_descriptor_of_another_width(self, toy, width):
        change, message = self.OTHER_WIDTHS[width]
        other = describe_arch("toy_vit", **{**toy.dims, **change})
        rng = np.random.default_rng(17)
        pre, ft = make_ckpt(toy, 5, rng), make_ckpt(toy, 5, rng)
        # each side is checked against the descriptor, not only against the other
        fits = make_ckpt(other, 5, rng)
        for side, pair in (("pre-trained", (pre, ft)), ("fine-tuned", (fits, ft))):
            expected = re.escape(f"{side} checkpoint: {message}")
            with pytest.raises(IncompatibleCheckpoints, match=expected):
                compute_angles(*pair, other)

    def test_provenance_hashes(self, toy):
        rng = np.random.default_rng(10)
        pre = make_ckpt(toy, 5, rng)
        ft = make_ckpt(toy, 5, rng)
        report = compute_angles(pre, ft, toy)
        assert report.pretrained_hash == pre.content_hash
        assert report.finetuned_hash == ft.content_hash


def synthetic_report(angles_by_depth, arch_id="toy_vit"):
    """A report of the attention layers of a toy model as deep as
    ``angles_by_depth``, with those angles, ranked by the library's rule."""
    arch = describe_arch("toy_vit", depth=len(angles_by_depth))
    angles = {l.layer_id: angles_by_depth[l.block] for l in arch.layers}
    entries = tuple(e for e in rank_entries(arch, angles) if e.group_id == "s0.ATTN")
    return AngleReport(
        arch_id=arch_id,
        entries=entries,
        whole_model_angle=0.1,
        pretrained_hash="00" * 32,
        finetuned_hash="11" * 32,
        excluded_tensors=(),
    )


def rendered_rows(report):
    """[(group id, [(layer id, rank)])] for each group section of the rendered table."""
    table = []
    for line in render_rank_table(report).splitlines():
        if line.startswith("group "):
            table.append((line[len("group "):], []))
        elif line.startswith("  ") and line.split()[0] != "layer":
            layer_id, _, rank = line.split()
            table[-1][1].append((layer_id, int(rank)))
    return table


class TestRanks:
    def test_rank_is_one_based_largest_first(self):
        report = synthetic_report([0.3, 0.1, 0.2])
        rows = rendered_rows(report)[0][1]
        assert rows == [("s0.b0.ATTN", 1), ("s0.b1.ATTN", 3), ("s0.b2.ATTN", 2)]

    def test_tie_goes_to_shallower(self):
        report = synthetic_report([0.1, 0.2, 0.05, 0.2])
        rows = rendered_rows(report)[0][1]
        # the two 0.2 layers: depths 1 and 3, shallower ranks higher
        assert rows[1][1] == 1
        assert rows[3][1] == 2

    def test_singleton_group(self):
        report = synthetic_report([0.7])
        assert rendered_rows(report) == [("s0.ATTN", [("s0.b0.ATTN", 1)])]

    def test_self_comparison_ranks_each_group_in_depth_order(self, toy):
        # every angle is 0.0, so every rank in a group comes from the tie rule
        ckpt = make_ckpt(toy, 5, np.random.default_rng(16))
        report = compute_angles(ckpt, ckpt, toy)
        assert {e.angle for e in report.entries} == {0.0}
        ranks = {e.layer_id: e.rank_in_group for e in report.entries}
        for group in toy.groups:
            assert [ranks[l.layer_id] for l in group.members] == [1, 2, 3]

    def test_rank_consistent_with_argsort(self, toy):
        rng = np.random.default_rng(11)
        pre = make_ckpt(toy, 5, rng)
        ft = make_ckpt(toy, 5, rng)
        report = compute_angles(pre, ft, toy)
        for e1 in report.entries:
            for e2 in report.entries:
                if e1.group_id == e2.group_id and e1.angle > e2.angle:
                    assert e1.rank_in_group < e2.rank_in_group

    def test_render_lists_groups_in_the_order_entries_name_them(self):
        # groups and, within each, layers keep the report's order
        entries = (
            AngleEntry("s10.b0.ATTN", "s10.ATTN", 0.5, 1),
            AngleEntry("s2.b0.FFN", "s2.FFN", 0.25, 2),
            AngleEntry("s2.b1.FFN", "s2.FFN", 0.75, 1),
            AngleEntry("s2.b0.ATTN", "s2.ATTN", 0.125, 1),
        )
        report = AngleReport("swin_b", entries, 0.0625, "00" * 32, "11" * 32, ("head.weight",))
        assert render_rank_table(report) == (
            "arch: swin_b\n"
            "whole-model angle: 0.062500 rad\n"
            "\n"
            "group s10.ATTN\n"
            "  layer            angle(rad)  rank\n"
            "  s10.b0.ATTN        0.500000     1\n"
            "\n"
            "group s2.FFN\n"
            "  layer            angle(rad)  rank\n"
            "  s2.b0.FFN          0.250000     2\n"
            "  s2.b1.FFN          0.750000     1\n"
            "\n"
            "group s2.ATTN\n"
            "  layer            angle(rad)  rank\n"
            "  s2.b0.ATTN         0.125000     1\n"
            "\n"
            "excluded tensors: head.weight\n"
        )

    def test_render_smoke(self, toy):
        rng = np.random.default_rng(12)
        pre = make_ckpt(toy, 5, rng)
        report = compute_angles(pre, make_ckpt(toy, 5, rng), toy)
        text = render_rank_table(report)
        assert "group s0.ATTN" in text
        assert "whole-model angle" in text


class TestConsistency:
    def test_duplicated_report(self):
        r = synthetic_report([0.3, 0.1, 0.2])
        matrix = rank_consistency([r, r])
        assert matrix.tau == ((1.0, 1.0), (1.0, 1.0))
        assert matrix.mean_tau == 1.0

    def test_reversed_order(self):
        r1 = synthetic_report([0.1, 0.2, 0.3])
        r2 = synthetic_report([0.3, 0.2, 0.1])
        matrix = rank_consistency([r1, r2])
        assert matrix.tau[0][1] == -1.0
        assert matrix.mean_tau == -1.0

    def test_mean_matches_brute_force_pairs(self):
        rng = np.random.default_rng(13)
        reports = [synthetic_report(list(rng.normal(size=6))) for _ in range(3)]
        matrix = rank_consistency(reports)
        from fapft.tensors import kendall_tau

        expected = [
            kendall_tau(reports[i].angles_in_order(), reports[j].angles_in_order())
            for i in range(3)
            for j in range(i + 1, 3)
        ]
        assert matrix.mean_tau == pytest.approx(sum(expected) / 3, abs=1e-15)
        for i in range(3):
            assert matrix.tau[i][i] == 1.0
            for j in range(3):
                assert matrix.tau[i][j] == matrix.tau[j][i]
                assert -1.0 <= matrix.tau[i][j] <= 1.0

    def test_mixed_arch_rejected(self):
        r1 = synthetic_report([0.1, 0.2])
        r2 = synthetic_report([0.1, 0.2], arch_id="vit_b16")
        with pytest.raises(IncompatibleReports):
            rank_consistency([r1, r2])

    def test_differing_layer_is_named(self):
        r1 = synthetic_report([0.1, 0.2])
        r2 = replace(r1, entries=(r1.entries[0], replace(r1.entries[1], layer_id="s0.b9.ATTN")))
        with pytest.raises(IncompatibleReports, match=r"^report 2 has layer s0\.b9\.ATTN at "
                           r"position 1 where report 1 has layer s0\.b1\.ATTN$"):
            rank_consistency([r1, r2])

    def test_single_report_rejected(self):
        with pytest.raises(InvalidValue):
            rank_consistency([synthetic_report([0.1, 0.2])])


class TestSerialization:
    def test_json_round_trip(self, toy):
        rng = np.random.default_rng(14)
        pre = make_ckpt(toy, 5, rng)
        report = compute_angles(pre, make_ckpt(toy, 5, rng), toy)
        again = report_from_json(report.to_json_text())
        assert again == report

    def test_parsed_report_equals_and_hashes_as_computed(self, toy):
        rng = np.random.default_rng(15)
        report = compute_angles(make_ckpt(toy, 5, rng), make_ckpt(toy, 5, rng), toy)
        fresh = report_from_json(report.to_json_text())
        assert [e.angle for e in report.entries] == report.angles_in_order()
        assert report == fresh and hash(report) == hash(fresh)
        assert report.to_json_obj() == fresh.to_json_obj()
