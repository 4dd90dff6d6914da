import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fapft.errors import (
    DegenerateRanking,
    DegenerateVector,
    DimensionMismatch,
    EmptyInput,
    InvalidValue,
)
from fapft.tensors import (
    _BLOCK,
    PairStats,
    bits_equal,
    kendall_tau,
    mean_arrays,
    mean_stack,
    pair_stats,
    vec_angle,
)

F32_INFO = np.finfo(np.float32)
# exact float32 values at the edges: signed zeros, the smallest subnormal and
# normal magnitudes, and the largest finite magnitude
SPECIAL_F32 = [
    float(v) for v in (0.0, -0.0, F32_INFO.smallest_subnormal, -F32_INFO.smallest_subnormal,
                       F32_INFO.smallest_normal, -F32_INFO.smallest_normal,
                       F32_INFO.max, -F32_INFO.max)
]


def brute_force_tau_b(a, b):
    """All-pairs tau-b oracle, written independently of the library path."""
    n = len(a)
    c_minus_d = 0
    tied_a = 0
    tied_b = 0
    for i in range(n):
        for j in range(i + 1, n):
            da = int(a[i] > a[j]) - int(a[i] < a[j])
            db = int(b[i] > b[j]) - int(b[i] < b[j])
            c_minus_d += da * db
            if da == 0:
                tied_a += 1
            if db == 0:
                tied_b += 1
    n0 = n * (n - 1) // 2
    return c_minus_d / math.sqrt((n0 - tied_a) * (n0 - tied_b))


def fsum_dot(x, y) -> float:
    """Correctly rounded float64 sum of products; float32 products are exact in float64."""
    return math.fsum(np.asarray(x, np.float64) * np.asarray(y, np.float64))


# one element, one whole block, one block plus one, several blocks plus a tail
ORACLE_SIZES = [1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 123]


class TestBitsEqual:
    def test_signed_zeros_are_not_bitwise_equal(self):
        neg = np.float32([-0.0, 1.0])
        assert not bits_equal(neg, np.float32([0.0, 1.0]))
        assert bits_equal(neg, neg.copy())
        assert not bits_equal(np.float32([1.0, 2.0]), np.float32([[1.0, 2.0]]))

    def test_shape_mismatch_with_equal_elements(self):
        a = np.arange(6, dtype=np.float32)
        mask = np.ones(8, dtype=bool)
        for other in (a.reshape(2, 3), a.reshape(1, 6), a[:5]):
            assert not bits_equal(a, other)
            assert not bits_equal(a, other, mask)

    def test_with_and_without_mask(self):
        a = np.random.default_rng(31).normal(size=(3, 5)).astype(np.float32)
        b = a.copy()
        b[2, 4] = np.nextafter(b[2, 4], np.float32(np.inf))
        nan = np.float32([np.nan, 1.0])
        mask = np.empty(a.size + 3, dtype=bool)  # longer than needed
        assert bits_equal(a, a.copy()) and bits_equal(a, a.copy(), mask)
        assert not bits_equal(a, b) and not bits_equal(a, b, mask)
        # the mask holds the elementwise result
        assert mask[: a.size].tolist() == [True] * (a.size - 1) + [False]
        # bit patterns, not values: a NaN equals its own bits
        assert bits_equal(nan, nan.copy()) and bits_equal(nan, nan.copy(), mask)


class TestVecAngle:
    def test_identical_vectors(self):
        assert vec_angle([3.0, 4.0], [3.0, 4.0]) == 0.0

    def test_orthogonal(self):
        assert vec_angle([1.0, 0.0], [0.0, 1.0]) == pytest.approx(
            math.pi / 2, abs=1e-15
        )

    def test_forty_five_degrees(self):
        # independent evaluation of arccos(1/sqrt(2))
        expected = math.acos(1.0 / math.sqrt(2.0))
        assert vec_angle([1.0, 0.0], [1.0, 1.0]) == pytest.approx(expected, abs=1e-12)
        assert abs(vec_angle([1.0, 0.0], [1.0, 1.0]) - 0.785398163) < 1e-8

    def test_antiparallel_exact(self):
        u = np.array([0.3, -1.7, 2.5], dtype=np.float32)
        assert abs(vec_angle(u, -u) - math.pi) < 1e-12

    def test_symmetry_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            u = rng.normal(size=17)
            v = rng.normal(size=17)
            assert vec_angle(u, v) == vec_angle(v, u)

    def test_scale_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            u = rng.normal(size=23)
            v = rng.normal(size=23)
            c, d = rng.uniform(0.01, 100.0, size=2)
            assert abs(vec_angle(c * u, d * v) - vec_angle(u, v)) < 1e-10

    def test_range(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            u = rng.normal(size=5)
            v = rng.normal(size=5)
            assert 0.0 <= vec_angle(u, v) <= math.pi

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            vec_angle([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_zero_norm(self):
        with pytest.raises(DegenerateVector):
            vec_angle([0.0, 0.0], [1.0, 2.0])
        with pytest.raises(DegenerateVector):
            vec_angle([], [])

    def test_non_finite(self):
        with pytest.raises(InvalidValue):
            vec_angle([1.0, float("nan")], [1.0, 2.0])

    def test_accepts_tensor_inputs(self):
        assert vec_angle(np.float32([1.0, 0.0]), np.float32([1.0, 0.0])) == 0.0

    @pytest.mark.parametrize("n", ORACLE_SIZES)
    def test_blocked_vectors_match_exact_oracle(self, n):
        rng = np.random.default_rng(200 + n)
        u = rng.normal(size=n).astype(np.float32)
        v = (u + 0.3 * rng.normal(size=n)).astype(np.float32)
        cos = fsum_dot(u, v) / math.sqrt(fsum_dot(u, u) * fsum_dot(v, v))
        expected = math.acos(min(1.0, max(-1.0, cos)))
        assert vec_angle(u, v) == pytest.approx(expected, abs=1e-12)
        assert vec_angle(u, v) == vec_angle(v, u)
        assert vec_angle(u, u.copy()) == 0.0
        assert vec_angle(u, -u) == math.pi


class TestPairStats:
    @pytest.mark.parametrize("n", [1, 7, _BLOCK - 1, _BLOCK])
    def test_one_block_is_one_plain_dot(self, n):
        rng = np.random.default_rng(n)
        a = rng.normal(size=n).astype(np.float32)
        b = rng.normal(size=n).astype(np.float32)
        a64, b64 = a.astype(np.float64), b.astype(np.float64)
        stats = pair_stats(a, b)
        assert stats.ab == float(np.dot(a64, b64))
        assert stats.aa == float(np.dot(a64, a64))
        assert stats.bb == float(np.dot(b64, b64))

    @pytest.mark.parametrize("n", ORACLE_SIZES)
    def test_sums_match_exact_oracle(self, n):
        rng = np.random.default_rng(100 + n)
        a = rng.normal(size=n).astype(np.float32)
        b = (a + 0.1 * rng.normal(size=n)).astype(np.float32)
        stats = pair_stats(a.reshape(1, -1), b.reshape(1, -1))
        assert stats.ab == pytest.approx(fsum_dot(a, b), rel=1e-12)
        assert stats.aa == pytest.approx(fsum_dot(a, a), rel=1e-12)
        assert stats.bb == pytest.approx(fsum_dot(b, b), rel=1e-12)
        assert not stats.equal and not stats.negated

    def test_flags_look_past_the_first_block(self):
        n = 2 * _BLOCK + 5
        a = np.random.default_rng(3).normal(size=n).astype(np.float32)
        assert pair_stats(a, a.copy())[3:] == (True, False)
        assert pair_stats(a, -a)[3:] == (False, True)
        for index in (_BLOCK, n - 1):  # second block, tail
            b = a.copy()
            b[index] += 1.0
            assert pair_stats(a, b)[3:] == (False, False)
            c = -a
            c[index] += 1.0
            assert pair_stats(a, c)[3:] == (False, False)

    def test_continued_pieces_equal_one_call(self):
        # pieces whose lengths are multiples of _BLOCK, then a ragged tail,
        # each continuing the last: the bits and flags of one whole call
        rng = np.random.default_rng(9)
        a = rng.normal(size=6 * _BLOCK + 11).astype(np.float32)
        b = (a + np.float32(1e-3) * a[::-1]).astype(np.float32)
        b[:_BLOCK] = a[:_BLOCK]
        acc = PairStats()
        for lo, hi in [(0, _BLOCK), (_BLOCK, 3 * _BLOCK), (3 * _BLOCK, a.size)]:
            acc = pair_stats(a[lo:hi], b[lo:hi], acc)
            assert acc == pair_stats(a[:hi], b[:hi])

    def test_signed_zeros_compare_as_values(self):
        zeros = np.zeros(3, np.float32)
        assert pair_stats(zeros, -zeros)[3:] == (True, True)

    def test_concatenation_adds_in_order(self):
        first = PairStats(1.0, 2.0, 3.0, True, False)
        second = PairStats(0.5, 0.25, 0.125, False, False)
        assert PairStats() + first == first
        assert first + second == PairStats(1.5, 2.25, 3.125, False, False)

    def test_size_mismatch(self):
        with pytest.raises(DimensionMismatch):
            pair_stats(np.zeros(3, np.float32), np.zeros(4, np.float32))

    def test_zero_norm_names_the_pair(self):
        with pytest.raises(DegenerateVector, match="^s0.b1.FFN: zero-norm"):
            PairStats(0.0, 0.0, 1.0).angle("s0.b1.FFN")


class TestKendallTau:
    def test_identical(self):
        assert kendall_tau([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_reversed(self):
        assert kendall_tau([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == -1.0

    def test_one_swap(self):
        # 2 concordant, 1 discordant over 3 pairs
        assert kendall_tau([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]) == pytest.approx(
            1.0 / 3.0, abs=1e-15
        )

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            # draw from a tiny alphabet so ties are common
            a = rng.integers(0, 4, size=n).astype(float)
            b = rng.integers(0, 4, size=n).astype(float)
            if np.all(a == a[0]) or np.all(b == b[0]):
                continue
            assert kendall_tau(a, b) == brute_force_tau_b(a, b)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            a = rng.normal(size=8)
            b = rng.normal(size=8)
            assert kendall_tau(np.exp(a), b) == kendall_tau(a, b)
            assert kendall_tau(a, 3.0 * b + 7.0) == kendall_tau(a, b)

    def test_symmetry(self):
        rng = np.random.default_rng(37)
        a = rng.normal(size=10)
        b = rng.normal(size=10)
        assert kendall_tau(a, b) == kendall_tau(b, a)

    def test_all_tied_raises(self):
        with pytest.raises(DegenerateRanking):
            kendall_tau([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_errors(self):
        with pytest.raises(DimensionMismatch):
            kendall_tau([1.0], [2.0])
        with pytest.raises(DimensionMismatch):
            kendall_tau([1.0, 2.0], [1.0, 2.0, 3.0])


class TestMeanStack:
    def test_uniform_mean(self):
        out = mean_stack([np.float32([1.0, 2.0]), np.float32([3.0, 4.0])])
        assert out.dtype == np.float32
        assert np.array_equal(out, np.array([2.0, 3.0], dtype=np.float32))

    def test_idempotent_on_identical(self):
        t = np.random.default_rng(41).normal(size=(5, 7)).astype(np.float32)
        out = mean_stack([t, t, t])
        assert bits_equal(out, t)

    def test_weighted(self):
        out = mean_stack([np.float32([0.0, 0.0]), np.float32([1.0, 1.0])], weights=[3.0, 1.0])
        assert np.array_equal(out, np.array([0.25, 0.25], dtype=np.float32))

    def test_single_input_reproduced_exactly(self):
        t = np.random.default_rng(43).normal(size=64).astype(np.float32)
        assert bits_equal(mean_stack([t]), t)
        assert bits_equal(mean_stack([t], weights=[0.37]), t)
        assert not np.shares_memory(mean_stack([t]), t)

    def test_negative_zero(self):
        zeros = np.float32([-0.0, -0.0])
        for weights in (None, [0.5, 2.0]):
            assert not np.signbit(mean_stack([zeros, zeros], weights)).any()
        assert bits_equal(mean_stack([zeros], [0.37]), zeros)

    @settings(max_examples=300, deadline=None)
    @given(
        count=st.integers(1, 6),
        x=hnp.arrays(np.float32, st.integers(1, 40), elements=st.one_of(
            st.sampled_from(SPECIAL_F32), st.floats(width=32, allow_nan=False, allow_infinity=False)
        )),
    )
    def test_mean_of_equal_inputs_keeps_their_bits(self, count, x):
        # what keeps a soup's frozen tensors bitwise equal to the base: at
        # weight 1.0, equal float32 values sum exactly in float64 and divide
        # back exactly, and only a zero of two or more inputs becomes +0.0
        expected = x.copy()
        if count > 1:
            expected[x == 0] = 0.0
        assert mean_arrays([x] * count, [1.0] * count).tobytes() == expected.tobytes()

    def test_blocked_sums_match_whole_array_sums(self):
        # several blocks of float64 sums, and the last one partial; the oracle
        # is one float64 sum from +0.0 over whole arrays
        rng = np.random.default_rng(53)
        arrays = [rng.normal(size=(3, 70_001)).astype(np.float32) for _ in range(4)]
        for a in arrays:
            a[:, 7] = -0.0
        for weights in ([1.0] * 4, [0.37, 2.0, 1.0, 1.3]):
            acc = np.zeros(arrays[0].shape)
            for a, w in zip(arrays, weights):
                acc += np.multiply(a, w, dtype=np.float64)
            expected = (acc / sum(weights)).astype(np.float32)
            assert mean_arrays(arrays, weights).tobytes() == expected.tobytes()
            got = mean_stack(arrays, weights)
            assert got.tobytes() == expected.tobytes()

    def test_permutation_invariant(self):
        rng = np.random.default_rng(47)
        ts = [rng.normal(size=16).astype(np.float32) for _ in range(4)]
        ws = [1.0, 2.0, 3.0, 4.0]
        out1 = mean_stack(ts, ws)
        perm = [2, 0, 3, 1]
        out2 = mean_stack([ts[i] for i in perm], [ws[i] for i in perm])
        assert bits_equal(out1, out2)

    def test_errors(self):
        with pytest.raises(EmptyInput):
            mean_stack([])
        with pytest.raises(DimensionMismatch):
            mean_stack([np.float32([1.0]), np.float32([1.0, 2.0])])
        with pytest.raises(DimensionMismatch):
            mean_stack([np.float32([1.0])], weights=[1.0, 2.0])
        with pytest.raises(InvalidValue):
            mean_stack([np.float32([1.0]), np.float32([2.0])], weights=[0.0, 0.0])
        with pytest.raises(InvalidValue):
            mean_stack([np.float32([1.0]), np.float32([2.0])], weights=[-1.0, 2.0])
        for bad in (np.nan, np.inf):
            with pytest.raises(InvalidValue, match="non-finite"):
                mean_stack([np.float32([1.0]), np.float32([bad])])
