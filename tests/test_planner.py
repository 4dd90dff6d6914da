import numpy as np
import pytest

from fapft.angles import AngleReport, rank_entries
from fapft.arch import ArchDescriptor, describe_arch, full_plan, linear_probe_plan, millions_str
from fapft.errors import (
    IncompatibleReports,
    InvalidPolicy,
    InvalidValue,
    NoGuidelines,
)
from fapft.planner import FapftPolicy, default_policy, plan_fapft, plan_series


def report_for(arch, angle_fn):
    """Build an AngleReport assigning angle_fn(layer) to each residual layer."""
    angles = {l.layer_id: float(angle_fn(l)) for l in arch.layers}
    return AngleReport(
        arch_id=arch.arch_id,
        entries=rank_entries(arch, angles),
        whole_model_angle=0.5,
        pretrained_hash="aa" * 32,
        finetuned_hash="bb" * 32,
        excluded_tensors=(),
    )


VIT_DEPTH_ANGLES = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.91, 0.92, 0.93]


@pytest.fixture(scope="module")
def vit():
    return describe_arch("vit_b16")


@pytest.fixture(scope="module")
def vit_report(vit):
    return report_for(vit, lambda l: VIT_DEPTH_ANGLES[l.block])


class TestDefaultPolicy:
    def test_vit_challenging(self):
        policy = default_policy(describe_arch("vit_b16"), "challenging")
        assert policy.magnitude == "large"
        assert policy.topk_per_stage == (4,)

    def test_vit_easy(self):
        policy = default_policy(describe_arch("vit_b16"), "easy")
        assert policy.magnitude == "small"
        assert policy.topk_per_stage == (4,)

    def test_swin_defaults(self):
        swin = describe_arch("swin_b")
        assert default_policy(swin, "easy") == FapftPolicy("small", (2, 2, 6, 1))
        assert default_policy(swin, "challenging") == FapftPolicy("large", (0, 0, 6, 2))

    def test_toy_scales_with_depth(self):
        deep = describe_arch("toy_vit", depth=6)
        assert default_policy(deep, "challenging").topk_per_stage == (2,)
        shallow = describe_arch("toy_vit", depth=2)
        assert default_policy(shallow, "easy") == FapftPolicy("small", (1,))

    def test_no_guidelines(self):
        with pytest.raises(NoGuidelines):
            default_policy(ArchDescriptor("mystery_net", [], {}, 8), "easy")

    def test_bad_difficulty(self):
        with pytest.raises(InvalidValue):
            default_policy(describe_arch("vit_b16"), "medium")

    def test_policy_validation(self):
        with pytest.raises(InvalidPolicy):
            FapftPolicy("huge", (1,))
        with pytest.raises(InvalidPolicy):
            FapftPolicy("large", (-1,))
        with pytest.raises(InvalidPolicy, match="topk value must be an int, got True"):
            FapftPolicy("large", (True,))
        with pytest.raises(InvalidPolicy, match="topk value must be an int, got 1.0"):
            FapftPolicy("large", (1.0,))


class TestPlanFapft:
    def test_top2_large_picks_deepest(self, vit, vit_report):
        plan = plan_fapft(vit_report, vit, FapftPolicy("large", (2,)))
        attn = [lid for lid in plan.trainable_layer_ids if lid.endswith("ATTN")]
        assert sorted(attn) == ["s0.b10.ATTN", "s0.b11.ATTN"]
        ffn = [lid for lid in plan.trainable_layer_ids if lid.endswith("FFN")]
        assert sorted(ffn) == ["s0.b10.FFN", "s0.b11.FFN"]
        assert plan.strategy_tag == "FAPFT"
        assert plan.to_json_obj()["head_trainable"] and not plan.non_residual_trainable

    def test_top2_small_picks_shallowest(self, vit, vit_report):
        plan = plan_fapft(vit_report, vit, FapftPolicy("small", (2,)))
        assert sorted(plan.trainable_layer_ids) == [
            "s0.b0.ATTN",
            "s0.b0.FFN",
            "s0.b1.ATTN",
            "s0.b1.FFN",
        ]

    def test_vit_top2_param_cell(self, vit, vit_report):
        plan = plan_fapft(vit_report, vit, FapftPolicy("large", (2,)))
        assert plan.trainable_param_count(1000) == 2 * (2_363_904 + 4_723_968) + 769_000

    def test_ties_go_shallower(self, vit):
        report = report_for(vit, lambda l: 0.5 if l.block in (3, 7) else 0.1)
        plan = plan_fapft(report, vit, FapftPolicy("large", (3,)))
        attn = sorted(lid for lid in plan.trainable_layer_ids if "ATTN" in lid)
        # 0.5-angle layers at depths 3 and 7 first, then tie on 0.1 broken
        # toward depth 0
        assert attn == ["s0.b0.ATTN", "s0.b3.ATTN", "s0.b7.ATTN"]

    def test_monotone_transform_invariance(self, vit, vit_report):
        squashed = report_for(vit, lambda l: np.tanh(VIT_DEPTH_ANGLES[l.block]))
        for policy in (FapftPolicy("large", (3,)), FapftPolicy("small", (5,))):
            assert plan_fapft(vit_report, vit, policy).same_selection(
                plan_fapft(squashed, vit, policy)
            )

    def test_selected_dominate_unselected(self, vit):
        rng = np.random.default_rng(3)
        report = report_for(vit, lambda l: rng.uniform(0, 1))
        plan = plan_fapft(report, vit, FapftPolicy("large", (5,)))
        chosen = set(plan.trainable_layer_ids)
        angles = {e.layer_id: e.angle for e in report.entries}
        for group in vit.groups:
            inside = [angles[l.layer_id] for l in group.members if l.layer_id in chosen]
            outside = [angles[l.layer_id] for l in group.members if l.layer_id not in chosen]
            assert min(inside) >= max(outside)

    def test_limiting_cases(self, vit, vit_report):
        everything = plan_fapft(vit_report, vit, FapftPolicy("large", (12,)))
        assert set(everything.trainable_layer_ids) == {l.layer_id for l in vit.layers}
        nothing = plan_fapft(vit_report, vit, FapftPolicy("large", (0,)))
        assert nothing.same_selection(linear_probe_plan(vit))
        assert not everything.same_selection(full_plan(vit))  # non-residual differs

    def test_swin_multi_stage(self):
        swin = describe_arch("swin_b")
        report = report_for(swin, lambda l: l.stage + 0.01 * l.block)
        plan = plan_fapft(report, swin, FapftPolicy("large", (0, 0, 3, 2)))
        assert plan.trainable_param_count(1000) == 35_693_528
        assert millions_str(plan.trainable_param_count(1000)) == "35.69"
        stages = {lid.split(".")[0] for lid in plan.trainable_layer_ids}
        assert stages == {"s2", "s3"}

    def test_deterministic_serialization(self, vit, vit_report):
        p1 = plan_fapft(vit_report, vit, FapftPolicy("large", (4,)))
        p2 = plan_fapft(vit_report, vit, FapftPolicy("large", (4,)))
        assert p1.to_json_text() == p2.to_json_text()

    def test_errors(self, vit, vit_report):
        with pytest.raises(InvalidPolicy):
            plan_fapft(vit_report, vit, FapftPolicy("large", (13,)))
        with pytest.raises(InvalidPolicy):
            plan_fapft(vit_report, vit, FapftPolicy("large", (1, 1)))

    @pytest.mark.parametrize("report_arch, arch, topk, message", [
        # a deeper model's report holds every layer id of the shallower one
        (describe_arch("toy_vit", depth=4), describe_arch("toy_vit", depth=2), (1,),
         "report has layer s0.b2.ATTN at position 4 where the toy_vit model has no layer"),
        (describe_arch("vit_b16"), describe_arch("swin_b"), (0, 0, 1, 1),
         "report is for vit_b16, not swin_b"),
    ], ids=["deeper", "other_arch"])
    def test_report_of_another_model_refused(self, report_arch, arch, topk, message):
        report = report_for(report_arch, lambda l: l.block)
        with pytest.raises(IncompatibleReports, match=f"^{message}$"):
            plan_fapft(report, arch, FapftPolicy("large", topk))


class TestPlanSeries:
    def test_vit_large_series_param_cells(self, vit, vit_report):
        plans = plan_series(vit_report, vit, "large", [1, 2, 3, 4, 5])
        cells = [millions_str(p.trainable_param_count(1000)) for p in plans]
        assert cells == ["7.86", "14.94", "22.03", "29.12", "36.21"]

    def test_vit_small_series_param_cells(self, vit, vit_report):
        plans = plan_series(vit_report, vit, "small", [2, 3, 4, 5, 7])
        cells = [millions_str(p.trainable_param_count(100)) for p in plans]
        assert cells == ["14.25", "21.34", "28.43", "35.52", "49.69"]

    def test_empty_series(self, vit, vit_report):
        assert plan_series(vit_report, vit, "large", []) == []

    def test_multi_stage_values(self):
        swin = describe_arch("swin_b")
        report = report_for(swin, lambda l: 0.1 * l.block + l.stage)
        plans = plan_series(report, swin, "large", [[0, 0, 3, 2], [0, 0, 4, 2]])
        assert [p.trainable_param_count(1000) for p in plans] == [
            35_693_528,
            38_848_616,
        ]
