import hashlib
import json

import pytest

from fapft.arch import (
    MAX_TOY_DEPTH,
    describe_arch,
    full_plan,
    linear_probe_plan,
    manual_strategy,
    millions_str,
    plan_from_json,
    soup_millions_str,
)
from fapft.errors import (
    InvalidValue,
    UnknownArchitecture,
)
from fapft.model import ModelDims

# Frozen expected parameter totals, derived by hand from the standard
# dimensions (ViT-B/16: width 768, FFN 3072, 12 blocks, 16x16 patches on
# 224px; Swin-B: widths 128/256/512/1024, depths 2/2/18/2, heads 4/8/16/32,
# window 7). Each number is a plain sum of tensor element counts.
VIT_ATTN_LAYER = 2_363_904
VIT_FFN_LAYER = 4_723_968
VIT_NON_RESIDUAL = 744_192
VIT_FULL_1000 = 86_567_656
VIT_FULL_100 = 85_875_556

SWIN_ATTN = [66_980, 265_032, 1_054_352, 4_205_856]
SWIN_FFN = [131_968, 526_080, 2_100_736, 8_395_776]
SWIN_NON_RESIDUAL = 2_768_256
SWIN_FULL_1000 = 87_768_224
SWIN_FULL_100 = 86_845_724


class TestDescriptors:
    def test_vit_inventory(self):
        arch = describe_arch("vit_b16")
        assert len(arch.layers) == 24
        assert len(arch.groups) == 2
        assert all(len(g.members) == 12 for g in arch.groups)
        assert {g.group_id for g in arch.groups} == {"s0.ATTN", "s0.FFN"}

    def test_vit_layer_counts(self):
        arch = describe_arch("vit_b16")
        for group in arch.groups:
            expected = VIT_ATTN_LAYER if group.category == "ATTN" else VIT_FFN_LAYER
            assert group.member_param_count == expected

    def test_vit_totals(self):
        arch = describe_arch("vit_b16")
        assert arch.non_residual_param_count == VIT_NON_RESIDUAL
        assert arch.full_param_count(1000) == VIT_FULL_1000
        assert arch.full_param_count(100) == VIT_FULL_100
        assert arch.head_param_count(1000) == 769_000

    def test_swin_inventory(self):
        arch = describe_arch("swin_b")
        assert len(arch.layers) == 2 * (2 + 2 + 18 + 2)
        assert len(arch.groups) == 8
        sizes = [len(g.members) for g in arch.groups]
        assert sizes == [2, 2, 2, 2, 18, 18, 2, 2]

    def test_swin_layer_counts(self):
        arch = describe_arch("swin_b")
        for group in arch.groups:
            table = SWIN_ATTN if group.category == "ATTN" else SWIN_FFN
            assert group.member_param_count == table[group.stage]

    def test_swin_totals(self):
        arch = describe_arch("swin_b")
        assert arch.non_residual_param_count == SWIN_NON_RESIDUAL
        assert arch.full_param_count(1000) == SWIN_FULL_1000
        assert arch.full_param_count(100) == SWIN_FULL_100

    def test_toy_configurable(self):
        arch = describe_arch("toy_vit", depth=4, model_dim=32)
        assert len(arch.layers) == 8
        assert len(arch.groups) == 2
        assert all(len(g.members) == 4 for g in arch.groups)
        d, f, t = 32, 128, 8
        attn = 2 * d + (3 * d * d + 3 * d) + (d * d + d)
        ffn = 2 * d + (f * d + f) + (d * f + d)
        assert arch.groups[0].member_param_count == attn
        assert arch.groups[1].member_param_count == ffn
        assert arch.non_residual_param_count == t * d + 2 * d

    # tensor names, their shapes and their order, group membership and the
    # schema order in which init_params draws tensors
    @pytest.mark.parametrize("arch_id, digest", [
        ("vit_b16", "425d3bfb40c1d5cd6ca48406129165eb89dab057499a304140116158562743f5"),
        ("swin_b", "cd31d42326247c12e22f451cb8756401db574e8dd06e3f689e28eb0f5a76913d"),
        ("toy_vit", "7a0b391777212ca8e4f9f144dd461641540e1dc28c0b9ea9893ad4141e895a59"),
    ])
    def test_layer_inventory_is_pinned(self, arch_id, digest):
        arch = describe_arch(arch_id)
        inventory = json.dumps({
            "layers": [[l.layer_id, list(l.tensors.items())] for l in arch.layers],
            "groups": [[g.group_id, [m.layer_id for m in g.members]] for g in arch.groups],
            "schema": list(arch.schema_shapes(1000).items()),
        })
        assert hashlib.sha256(inventory.encode()).hexdigest() == digest

    def test_sum_rule(self):
        for arch_id in ("vit_b16", "swin_b", "toy_vit"):
            arch = describe_arch(arch_id)
            total = (
                sum(l.param_count for l in arch.layers)
                + arch.non_residual_param_count
                + arch.head_param_count(10)
            )
            assert total == arch.full_param_count(10)

    def test_unknown_arch(self):
        with pytest.raises(UnknownArchitecture):
            describe_arch("resnet50")

    def test_fixed_archs_reject_overrides(self):
        with pytest.raises(InvalidValue):
            describe_arch("vit_b16", depth=6)

    def test_toy_validation(self):
        with pytest.raises(InvalidValue):
            describe_arch("toy_vit", model_dim=30, heads=4)
        with pytest.raises(InvalidValue):
            describe_arch("toy_vit", depth=0)
        with pytest.raises(InvalidValue):
            describe_arch("toy_vit", widths=3)

    def test_toy_depth_is_bounded(self, monkeypatch):
        assert len(describe_arch("toy_vit", depth=MAX_TOY_DEPTH).layers) == 2 * MAX_TOY_DEPTH
        dims = {"model_dim": 8, "heads": 2, "ffn_dim": 16, "seq_len": 4, "num_classes": 2}
        assert ModelDims(depth=MAX_TOY_DEPTH, **dims).depth == MAX_TOY_DEPTH
        # a depth above the bound is refused before any layer is built
        monkeypatch.setattr("fapft.arch.ArchDescriptor", lambda *_: pytest.fail("descriptor built"))
        for depth in (MAX_TOY_DEPTH + 1, 10**9):
            with pytest.raises(InvalidValue, match=f"depth must be <= {MAX_TOY_DEPTH}"):
                describe_arch("toy_vit", depth=depth)
            with pytest.raises(InvalidValue, match=f"depth must be <= {MAX_TOY_DEPTH}"):
                ModelDims(depth=depth, **dims)

    def test_descriptors_compare_by_value(self):
        toy = describe_arch("toy_vit", depth=2)
        apart = describe_arch("toy_vit", depth=2, model_dim=32, heads=4, ffn_dim=128, seq_len=8)
        assert toy is not apart and toy == apart and hash(toy) == hash(apart)
        assert describe_arch("vit_b16") == describe_arch("vit_b16")
        assert repr(toy) == (
            "ArchDescriptor('toy_vit', depth=2, model_dim=32, heads=4, ffn_dim=128, seq_len=8)"
        )
        others = [describe_arch("toy_vit", depth=3), describe_arch("toy_vit", depth=2, seq_len=4),
                  describe_arch("toy_vit", depth=2, model_dim=16), describe_arch("vit_b16")]
        for other in others:
            assert toy != other, other
        assert len({toy, apart, *others}) == 5

    @pytest.mark.parametrize("dims", [{"depth": True}, {"heads": True}, {"model_dim": {}},
                                      {"ffn_dim": 2.0}, {"seq_len": "8"}])
    def test_toy_dimensions_are_ints(self, dims):
        # a bool is not an int here, though Python counts it as one
        with pytest.raises(InvalidValue, match="must be an int"):
            describe_arch("toy_vit", **dims)


class TestManualStrategies:
    def test_attn_only_count(self):
        arch = describe_arch("vit_b16")
        plan = manual_strategy(arch, "B")
        assert len(plan.trainable) == 12
        assert plan.trainable_param_count(1000) == 12 * VIT_ATTN_LAYER + 769_000
        assert millions_str(plan.trainable_param_count(1000)) == "29.14"
        assert millions_str(plan.trainable_param_count(100)) == "28.44"

    def test_ffn_only_count(self):
        arch = describe_arch("vit_b16")
        plan = manual_strategy(arch, "C")
        assert millions_str(plan.trainable_param_count(100)) == "56.76"
        assert millions_str(plan.trainable_param_count(1000)) == "57.46"

    def test_last_half_attn(self):
        arch = describe_arch("vit_b16")
        plan = manual_strategy(arch, "E")
        assert plan.trainable_layer_ids == tuple(
            f"s0.b{b}.ATTN" for b in range(6, 12)
        )

    def test_odd_split_extra_goes_last(self):
        arch = describe_arch("toy_vit", depth=5)
        first = manual_strategy(arch, "D")
        last = manual_strategy(arch, "E")
        assert len(first.trainable) == 2
        assert len(last.trainable) == 3

    def test_strategy_unions(self):
        arch = describe_arch("swin_b")
        all_ids = {l.layer_id for l in arch.layers}
        b = set(manual_strategy(arch, "B").trainable_layer_ids)
        c = set(manual_strategy(arch, "C").trainable_layer_ids)
        assert b | c == all_ids and not (b & c)
        d = set(manual_strategy(arch, "D").trainable_layer_ids)
        e = set(manual_strategy(arch, "E").trainable_layer_ids)
        assert d | e == b and not (d & e)
        f = set(manual_strategy(arch, "F").trainable_layer_ids)
        g = set(manual_strategy(arch, "G").trainable_layer_ids)
        assert f | g == c and not (f & g)
        h = set(manual_strategy(arch, "H").trainable_layer_ids)
        i = set(manual_strategy(arch, "I").trainable_layer_ids)
        assert h | i == all_ids and not (h & i)

    def test_aliases(self):
        arch = describe_arch("vit_b16")
        assert manual_strategy(arch, "attn_only").same_selection(
            manual_strategy(arch, "B")
        )
        with pytest.raises(InvalidValue):
            manual_strategy(arch, "Z")

    def test_full_and_linear_probe(self):
        arch = describe_arch("vit_b16")
        full = full_plan(arch)
        assert full.non_residual_trainable
        assert full.trainable_param_count(1000) == VIT_FULL_1000
        assert manual_strategy(arch, "A").trainable_param_count(1000) == VIT_FULL_1000
        probe = linear_probe_plan(arch)
        assert probe.trainable == ()
        assert probe.trainable_param_count(1000) == 769_000
        assert millions_str(probe.trainable_param_count(1000)) == "0.77"
        assert millions_str(probe.trainable_param_count(100)) == "0.08"

    def test_plans_of_two_widths_differ(self):
        narrow, wide = (describe_arch("toy_vit", depth=2, model_dim=m, heads=2) for m in (8, 16))
        assert linear_probe_plan(narrow) == linear_probe_plan(describe_arch(
            "toy_vit", depth=2, model_dim=8, heads=2))
        assert linear_probe_plan(narrow) != linear_probe_plan(wide)
        assert not manual_strategy(narrow, "B").same_selection(manual_strategy(wide, "B"))
        assert (linear_probe_plan(narrow).trainable_param_count(3),
                linear_probe_plan(wide).trainable_param_count(3)) == (27, 51)


class TestParamCount:
    def test_matches_descriptor_sums(self):
        arch = describe_arch("swin_b")
        for tag in "ABCDEFGHI":
            plan = manual_strategy(arch, tag)
            for n in (1, 100, 1000):
                expected = sum(arch.layer_map[lid].param_count for lid in plan.trainable_layer_ids)
                expected += arch.head_param_count(n)
                if plan.non_residual_trainable:
                    expected += arch.non_residual_param_count
                assert plan.trainable_param_count(n) == expected
        assert full_plan(arch).trainable_param_count(10) == arch.full_param_count(10)

    def test_swin_attn_ffn_cells(self):
        arch = describe_arch("swin_b")
        attn = manual_strategy(arch, "B")
        ffn = manual_strategy(arch, "C")
        assert millions_str(attn.trainable_param_count(1000)) == "29.08"
        assert millions_str(attn.trainable_param_count(100)) == "28.16"
        assert millions_str(ffn.trainable_param_count(1000)) == "56.95"
        assert millions_str(ffn.trainable_param_count(100)) == "56.02"
        assert millions_str(full_plan(arch).trainable_param_count(1000)) == "87.77"
        assert millions_str(full_plan(arch).trainable_param_count(100)) == "86.85"

    def test_errors(self):
        plan = manual_strategy(describe_arch("vit_b16"), "B")
        for n in (0, -1):
            with pytest.raises(InvalidValue):
                plan.trainable_param_count(n)


class TestPlanJson:
    def test_round_trip(self):
        arch = describe_arch("swin_b")
        plan = manual_strategy(arch, "E")
        text = plan.to_json_text()
        again = plan_from_json(text, arch)
        assert again.same_selection(plan)
        assert again.strategy_tag == plan.strategy_tag
        assert plan.to_json_text() == again.to_json_text()

    def test_byte_deterministic(self):
        arch = describe_arch("vit_b16")
        assert (
            manual_strategy(arch, "B").to_json_text()
            == manual_strategy(arch, "B").to_json_text()
        )

    def test_tampered_counts_rejected(self):
        import json

        arch = describe_arch("vit_b16")
        obj = manual_strategy(arch, "B").to_json_obj()
        obj["param_count_by_classes"]["1000"] += 1
        from fapft.errors import FormatError

        with pytest.raises(FormatError):
            plan_from_json(json.dumps(obj), arch)


class TestDisplayRounding:
    def test_basic_cells(self):
        assert millions_str(VIT_FULL_1000) == "86.57"
        assert millions_str(VIT_FULL_100) == "85.88"
        assert millions_str(769_000) == "0.77"
        assert millions_str(76_900) == "0.08"

    def test_soup_headline_uses_per_run_rounding(self):
        assert soup_millions_str([VIT_FULL_1000] * 5) == "432.9"
        # exact sum is 432,838,280 which would render 432.8 without the
        # per-run rounding convention
        assert millions_str(5 * VIT_FULL_1000) == "432.84"
