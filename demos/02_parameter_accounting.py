"""Exact trainable-parameter accounting for the reference architectures.

Every count is a closed-form sum over concrete tensor shapes; the display
convention rounds to 0.01M. Soups report the sum of per-run trainable
counts (round each run first, then sum; that is why five 86.57M runs show
as 432.9 and not 432.8).
"""

from fapft import (
    FapftPolicy,
    describe_arch,
    full_plan,
    linear_probe_plan,
    manual_strategy,
    millions_str,
    plan_fapft,
    plan_series,
    soup_millions_str,
)
from fapft.angles import AngleReport, rank_entries


def depth_report(arch):
    """A synthetic angle report (angle grows with depth) just to drive selection."""
    angles = {l.layer_id: 0.01 * l.block + l.stage for l in arch.layers}
    return AngleReport(arch.arch_id, rank_entries(arch, angles), 0.3, "00" * 32, "11" * 32, ())


vit = describe_arch("vit_b16")
print("== one-stage reference model (12 blocks, width 768) ==")
print(f"{len(vit.layers)} residual layers in {len(vit.groups)} homogeneous groups")
per_group = {g.group_id: g.member_param_count for g in vit.groups}
print(f"per-layer sizes: {per_group}")

rows = [
    ("full fine-tuning", full_plan(vit)),
    ("linear probing", linear_probe_plan(vit)),
    ("attention only (B)", manual_strategy(vit, "B")),
    ("feed-forward only (C)", manual_strategy(vit, "C")),
    ("last-half blocks (I)", manual_strategy(vit, "I")),
]
print(f"\n{'strategy':<24} {'@100 classes':>14} {'@1000 classes':>14}")
for label, plan in rows:
    c100 = millions_str(plan.trainable_param_count(100))
    c1000 = millions_str(plan.trainable_param_count(1000))
    print(f"{label:<24} {c100:>13}M {c1000:>13}M")

report = depth_report(vit)
series = plan_series(report, vit, "large", [1, 2, 3, 4, 5])
cells = [millions_str(p.trainable_param_count(1000)) for p in series]
print(f"\ntop-k sweep (large angles, 1000 classes): {cells}")
print(f"soup of those five runs: {soup_millions_str(p.trainable_param_count(1000) for p in series)}M")
print(f"soup of five full runs:  {soup_millions_str([vit.full_param_count(1000)] * 5)}M")

swin = describe_arch("swin_b")
print("\n== four-stage reference model (depths 2/2/18/2, widths 128..1024) ==")
print(f"{len(swin.layers)} residual layers in {len(swin.groups)} homogeneous groups")
for topk in [(0, 0, 3, 2), (0, 0, 4, 2), (0, 0, 5, 2), (0, 0, 6, 2)]:
    plan = plan_fapft(depth_report(swin), swin, FapftPolicy("large", topk))
    exact = plan.trainable_param_count(1000)
    print(f"topk per stage {list(topk)} -> {exact:>10} params = {millions_str(exact)}M")
print(f"full fine-tuning @1000: {millions_str(swin.full_param_count(1000))}M")
