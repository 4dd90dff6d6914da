"""The numerics on float32 arrays that the rest of the toolkit builds on:
bit comparison, vector angles, rank correlation and weighted means.

Storage precision is 32-bit; every reduction (dot products, norms, sums)
accumulates in 64-bit. No function keeps state between calls, so concurrent
calls that share no buffer need no locking.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    DegenerateRanking,
    DegenerateVector,
    DimensionMismatch,
    EmptyInput,
    InvalidValue,
)

__all__ = [
    "PairStats", "all_finite", "bits_equal", "pair_scratch", "pair_stats", "vec_angle",
    "kendall_tau", "mean_arrays", "mean_scratch", "mean_stack", "mean_weights",
]

# Length of the blocks in which ``pair_stats`` reduces a vector pair. A BLAS
# may split a long dot product across its threads, and the split changes the
# order of the sum with the thread count: OpenBLAS 0.3.31 threads a float64
# dot of more than 10 000 elements. Blocks below that length keep every dot on
# one thread, so the sums are the same at any BLAS thread count; a vector of
# at most one block is reduced by one plain dot. Changing the length changes
# the bits of every angle over a longer vector.
_BLOCK = 8192
# Length of the blocks in which ``mean_arrays`` sums by default: the float64
# sums of one block stay in cache while every input is added into them. The
# mean is elementwise, so no block length changes its bits.
_MEAN_BLOCK = 1 << 16


def all_finite(a: np.ndarray) -> bool:
    """Whether a float array holds no NaN and no infinity, found without a
    temporary array: ``min`` and ``max`` return NaN if any element is NaN."""
    return a.size == 0 or (math.isfinite(a.min()) and math.isfinite(a.max()))


def bits_equal(a: np.ndarray, b: np.ndarray, mask: np.ndarray | None = None) -> bool:
    """Whether two float32 arrays have the same shape and the same bit patterns
    (so ``-0.0`` differs from ``+0.0``), compared without copies. ``mask``, a
    bool array of at least ``a.size`` elements, holds the elementwise result;
    one is allocated when it is None."""
    if a.shape != b.shape:
        return False
    if mask is None:
        mask = np.empty(a.size, dtype=bool)
    out = mask[: a.size].reshape(a.shape)
    return bool(np.equal(a.view(np.uint32), b.view(np.uint32), out=out).all())


def _as_flat_f64(x, label: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64).ravel()
    if not np.all(np.isfinite(arr)):
        raise InvalidValue(f"{label} contains non-finite values")
    return arr


class PairStats(NamedTuple):
    """Float64 sums ``a.b``, ``a.a`` and ``b.b`` of a vector pair, and whether
    ``a == b`` and ``a == -b`` elementwise. The default is the empty pair."""

    ab: float = 0.0
    aa: float = 0.0
    bb: float = 0.0
    equal: bool = True
    negated: bool = True

    def __add__(self, other: "PairStats") -> "PairStats":
        """Stats of the concatenation of the two pairs, this one first."""
        return PairStats(
            self.ab + other.ab,
            self.aa + other.aa,
            self.bb + other.bb,
            self.equal and other.equal,
            self.negated and other.negated,
        )

    def angle(self, label: str | None = None) -> float:
        """Angle in radians, in [0, pi]; exactly 0.0 for an equal pair and pi for a negated one.

        The cosine is clamped to [-1, 1] so rounding can never produce NaN.
        ``label`` names the pair in the error raised for a zero norm.
        """
        if self.aa == 0.0 or self.bb == 0.0:
            prefix = f"{label}: " if label else ""
            raise DegenerateVector(f"{prefix}zero-norm vector has no direction")
        if self.equal:
            return 0.0
        if self.negated:
            return math.pi
        cos = self.ab / math.sqrt(self.aa * self.bb)
        return math.acos(min(1.0, max(-1.0, cos)))


def pair_scratch(size: int = _BLOCK) -> tuple[np.ndarray, np.ndarray]:
    """Reusable buffers of :func:`pair_stats`: two float64 blocks and one bool
    block of ``min(size, _BLOCK)`` elements, enough for vectors of up to
    ``size`` elements, and at the default for vectors of any length."""
    n = min(size, _BLOCK)
    return np.empty((2, n), dtype=np.float64), np.empty(n, dtype=bool)


def mean_scratch(size: int) -> np.ndarray:
    """The reusable float64 sums of :func:`mean_arrays` over arrays of ``size``
    elements: two blocks of ``min(size, _MEAN_BLOCK)`` elements."""
    return np.empty((2, min(size, _MEAN_BLOCK)), dtype=np.float64)


def pair_stats(
    a: np.ndarray,
    b: np.ndarray,
    acc: PairStats = PairStats(),
    scratch: tuple[np.ndarray, np.ndarray] | None = None,
) -> PairStats:
    """Stats of two same-size arrays, taken as flat vectors in row-major order,
    appended to the pair that ``acc`` holds.

    Each block of ``_BLOCK`` elements is cast into two float64 buffers and
    its three dot products are added in block order, so no full-size float64
    copy is made. A vector folded in pieces whose lengths are multiples of
    ``_BLOCK`` (the last one aside), each call continuing the last one's
    ``acc``, gets the bits of one call over the whole vector. The equality
    checks compare the float64 copies, which is exact because the cast is,
    and stop at the first block that fails them. ``scratch``, from
    :func:`pair_scratch`, holds the buffers, so a caller that passes one
    allocates nothing per call; one is allocated when it is None.
    """
    a = a.reshape(-1)
    b = b.reshape(-1)
    if a.size != b.size:
        raise DimensionMismatch(f"length mismatch: {a.size} vs {b.size}")
    (a64, b64), mask = scratch if scratch is not None else pair_scratch(a.size)
    ab, aa, bb, equal, negated = acc
    for start in range(0, a.size, _BLOCK):
        a_block = a[start : start + _BLOCK]
        x = a64[: a_block.size]
        y = b64[: a_block.size]
        same = mask[: a_block.size]
        x[...] = a_block
        y[...] = b[start : start + _BLOCK]
        ab += float(np.dot(x, y))
        aa += float(np.dot(x, x))
        bb += float(np.dot(y, y))
        equal = equal and bool(np.equal(x, y, out=same).all())
        # y is not read again, so it is negated in place
        negated = negated and bool(np.equal(x, np.negative(y, out=y), out=same).all())
    return PairStats(ab, aa, bb, equal, negated)


def vec_angle(u, v) -> float:
    """Angle in radians, in [0, pi], between two flat vectors.

    Computed as arccos of the cosine similarity from the float64 sums of
    ``pair_stats``; the cosine is clamped to [-1, 1] so rounding can never
    produce NaN. Bitwise-identical and bitwise-negated inputs short-circuit
    to exactly 0.0 and pi.
    """
    a = _as_flat_f64(u, "u")
    stats = pair_stats(a, _as_flat_f64(v, "v"))
    if a.size == 0:
        raise DegenerateVector("empty vectors have no direction")
    return stats.angle()


def kendall_tau(a, b) -> float:
    """Kendall tau-b (tie-corrected) rank correlation over all index pairs.

    Larger value means larger rank. Counts of concordant/discordant/tied
    pairs are exact integers, so results match an all-pairs oracle exactly.
    """
    x = _as_flat_f64(a, "a")
    y = _as_flat_f64(b, "b")
    if x.size != y.size:
        raise DimensionMismatch(f"length mismatch: {x.size} vs {y.size}")
    n = x.size
    if n < 2:
        raise DimensionMismatch("need at least 2 entries for correlation")
    iu = np.triu_indices(n, k=1)
    sx = np.sign(x[:, None] - x[None, :])[iu].astype(np.int64)
    sy = np.sign(y[:, None] - y[None, :])[iu].astype(np.int64)
    c_minus_d = int(np.sum(sx * sy))
    n0 = n * (n - 1) // 2
    tied_x = int(np.sum(sx == 0))
    tied_y = int(np.sum(sy == 0))
    denom_x = n0 - tied_x
    denom_y = n0 - tied_y
    if denom_x == 0 or denom_y == 0:
        raise DegenerateRanking("all-tied vector: tie-corrected denominator is zero")
    return c_minus_d / math.sqrt(denom_x * denom_y)


def mean_weights(weights: Sequence[float] | None, count: int) -> list[float]:
    """Float weights of a mean of ``count`` inputs, ``None`` meaning uniform:
    finite, non-negative, and with a positive sum small enough that no
    float64 sum of float32 values scaled by them overflows."""
    if weights is None:
        return [1.0] * count
    weights = [float(w) for w in weights]
    if len(weights) != count:
        raise DimensionMismatch(f"{len(weights)} weights for {count} inputs")
    if any(not math.isfinite(w) or w < 0.0 for w in weights):
        raise InvalidValue("weights must be finite and non-negative")
    if sum(weights) <= 0.0:
        raise InvalidValue("weights must sum to a positive value")
    if not math.isfinite(sum(weights) * float(np.finfo(np.float32).max)):
        raise InvalidValue(f"weights sum too large for a float64 mean: {sum(weights)}")
    return weights


def mean_arrays(
    arrays: Sequence[np.ndarray],
    weights: Sequence[float],
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Weighted elementwise mean of same-shape float32 arrays, with validated
    weights: each element is summed in float64 in input order, divided by the
    weight sum and rounded once to float32, one block of elements at a time.
    With two or more inputs, an element that is -0.0 in every input is +0.0.

    The mean goes into ``out`` (a float32 array of the inputs' size, which is
    returned) and the float64 sums into ``work`` (shape ``(2, n)``: blocks of
    ``n`` elements); each is allocated when it is None. A caller that passes
    both allocates nothing per call.
    """
    if out is None:
        out = np.empty(arrays[0].shape, dtype=np.float32)
    if work is None:
        work = mean_scratch(out.size)
    flat_out = out.reshape(-1)
    flats = [a.reshape(-1) for a in arrays]
    total = sum(weights)
    acc, scaled = work
    step = max(acc.size, 1)  # an empty mean has no block to sum
    for start in range(0, out.size, step):
        blocks = [a[start : start + step] for a in flats]
        sums = acc[: blocks[0].size]
        term = scaled[: sums.size]
        # blocks are cast to float64 by assignment: a ufunc on mixed float32
        # and float64 operands allocates a cast buffer on every call. A weight
        # of 1.0 scales exactly, so it is not applied.
        sums[...] = blocks[0]
        if weights[0] != 1.0:
            sums *= weights[0]
        for block, w in zip(blocks[1:], weights[1:]):
            term[...] = block
            if w != 1.0:
                term *= w
            sums += term
        if len(arrays) > 1:
            # seeding the sums with the first input makes an element that is
            # -0.0 in every input -0.0; a sum from +0.0 is +0.0 there
            sums += 0.0
        sums /= total
        flat_out[start : start + sums.size] = sums
    return out


def mean_stack(
    arrays: Sequence[np.ndarray], weights: Sequence[float] | None = None
) -> np.ndarray:
    """Elementwise weighted mean of same-shape finite arrays, as a new float32 array.

    Accumulates in 64-bit and rounds once to storage precision
    (:func:`mean_arrays`). Weights are normalized by their sum; ``None``
    means uniform. A single float32 input is reproduced exactly.
    """
    arrays = [np.asarray(a, dtype=np.float32) for a in arrays]
    if not arrays:
        raise EmptyInput("mean_stack needs at least one array")
    for a in arrays:
        if a.shape != arrays[0].shape:
            raise DimensionMismatch(f"shape mismatch: {a.shape} vs {arrays[0].shape}")
        if not all_finite(a):
            raise InvalidValue("mean_stack input contains non-finite values")
    weights = mean_weights(weights, len(arrays))
    if len(arrays) == 1:
        return arrays[0].copy()
    return mean_arrays(arrays, weights)
