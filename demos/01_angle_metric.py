"""Weight-space angles, rank correlation, and weight averaging on small vectors.

The angle between a layer's flattened weights before and after fine-tuning
measures how much that layer moved. This demo exercises three primitives on
float32 arrays: vec_angle, kendall_tau and mean_stack. Checkpoints hold their
tensors as read-only float32 arrays, and soups average them blockwise with
mean_arrays, the kernel under mean_stack.
"""

import math

import numpy as np

from fapft import kendall_tau, mean_stack, vec_angle
from fapft.tensors import bits_equal

print("== angles between flat weight vectors ==")
print(f"identical directions        -> {vec_angle([3, 4], [3, 4]):.6f} rad")
print(f"orthogonal directions       -> {vec_angle([1, 0], [0, 1]):.6f} rad (pi/2)")
print(f"opposite directions         -> {vec_angle([1, 0], [-1, 0]):.6f} rad (pi)")
print(f"45 degrees                  -> {vec_angle([1, 0], [1, 1]):.6f} rad (pi/4)")

rng = np.random.default_rng(0)
u = rng.normal(size=1000)
v = u + 0.3 * rng.normal(size=1000)
print(f"\na vector vs a noisy copy of itself: {vec_angle(u, v):.4f} rad")
print(f"same, after scaling both by 100:    {vec_angle(100 * u, 100 * v):.4f} rad")
print("(the angle ignores magnitude; only direction changes count)")

print("\n== ranking agreement via Kendall tau-b ==")
angles_run1 = [0.12, 0.31, 0.25, 0.40, 0.38, 0.44]
angles_run2 = [0.10, 0.33, 0.22, 0.45, 0.35, 0.47]  # same story, noisier
angles_rev = list(reversed(angles_run1))
print(f"two similar runs   -> tau = {kendall_tau(angles_run1, angles_run2):+.3f}")
print(f"reversed ordering  -> tau = {kendall_tau(angles_run1, angles_rev):+.3f}")
print(f"identical ordering -> tau = {kendall_tau(angles_run1, angles_run1):+.3f}")

print("\n== weight averaging ==")
a = np.float32([0.0, 0.0, 0.0])
b = np.float32([1.0, 2.0, 3.0])
print(f"uniform mean of two tensors: {mean_stack([a, b]).tolist()}")
print(f"3:1 weighted mean:           {mean_stack([a, b], weights=[3, 1]).tolist()}")

same = rng.normal(size=5).astype("float32")
merged = mean_stack([same, same, same])
print(f"averaging identical tensors is exact: {bits_equal(merged, same)}")

assert abs(vec_angle([1, 0], [1, 1]) - math.pi / 4) < 1e-12
print("\nall checks passed")
