"""The model's kernels against their textbook formulas, bit for bit.

The kernels run in place and in fewer numpy calls than the formulas read, but
every product and sum keeps its operands, so checkpoints keep their bytes.
Shapes are odd on purpose, so no result rests on a power-of-two length.
"""

import math

import numpy as np
import pytest

from fapft.model import (
    _SLICE,
    ModelDims,
    _gelu_bwd,
    _gelu_fwd,
    _layernorm_dx,
    _layernorm_fwd,
    _schema,
    _softmax,
    hidden_state,
    init_params,
    loss_and_grads,
    predict,
)

C = math.sqrt(2.0 / math.pi)
A = 0.044715
EPS = 1e-5
SHAPES = [(3, 5, 7), (1, 1, 1), (2, 9, 13), (11, 3)]


def _data(shape, seed, scale=3.0):
    return np.random.default_rng(seed).normal(0.0, scale, size=shape)


def _unchanged(fn, *arrays):
    copies = [a.copy() for a in arrays]
    out = fn(*arrays)
    for a, c in zip(arrays, copies):
        assert a.tobytes() == c.tobytes()
    return out


@pytest.mark.parametrize("shape", SHAPES)
def test_softmax_matches_formula(shape):
    x = _data(shape, 1, scale=20.0)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    assert np.array_equal(_unchanged(_softmax, x), e / e.sum(axis=-1, keepdims=True))


@pytest.mark.parametrize("shape", SHAPES)
def test_gelu_matches_formula(shape):
    x, dout = _data(shape, 2), _data(shape, 3)
    t = np.tanh(C * (x + A * (x * x * x)))
    out, cache = _unchanged(_gelu_fwd, x)
    assert np.array_equal(out, 0.5 * x * (1.0 + t))
    assert cache[0] is x and np.array_equal(cache[1], t)

    du_dx = C * (1.0 + 3.0 * A * x * x)
    want = dout * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du_dx)
    assert np.array_equal(_unchanged(lambda d: _gelu_bwd(d, cache), dout), want)


@pytest.mark.parametrize("shape", SHAPES)
def test_layernorm_matches_formula(shape):
    x, dout = _data(shape, 4), _data(shape, 5)
    gain, bias = _data(shape[-1:], 6), _data(shape[-1:], 7)
    xc = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + EPS)
    xhat = xc * inv
    out, cache = _unchanged(_layernorm_fwd, x, gain, bias)
    assert np.array_equal(out, xhat * gain + bias)
    assert np.array_equal(cache[0], xhat) and np.array_equal(cache[1], inv)

    dxhat = dout * gain
    want = inv * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    assert np.array_equal(_unchanged(lambda d: _layernorm_dx(d, cache), dout), want)


def test_loss_and_grads_same_for_float32_and_float64_params():
    dims = ModelDims(depth=2, model_dim=12, heads=3, ffn_dim=20, seq_len=5, num_classes=3)
    params32 = init_params(dims, np.random.default_rng(8))
    params64 = {n: a.astype(np.float64) for n, a in params32.items()}
    mixed = dict(params64, **{"blocks.1.mlp.fc1.weight": params32["blocks.1.mlp.fc1.weight"]})
    rng = np.random.default_rng(9)
    x = rng.normal(size=(7, 5, 12)).astype(np.float32)
    y = rng.integers(0, 3, size=7)
    loss, grads = loss_and_grads(params64, x, y, dims)
    for params in (params32, mixed):
        other_loss, other = loss_and_grads(params, x, y, dims)
        assert other_loss == loss
        assert other.keys() == grads.keys()
        for name in grads:
            assert np.array_equal(other[name], grads[name]), name


@pytest.mark.parametrize("n", [0, 1, _SLICE, _SLICE + 1, 3 * _SLICE + 5])
def test_sliced_passes_equal_one_sample_passes(n):
    # predict and hidden_state run in slices of _SLICE samples; their output
    # holds the bits of one-sample passes put together
    dims = ModelDims(depth=2, model_dim=6, heads=2, ffn_dim=10, seq_len=3, num_classes=5)
    rng = np.random.default_rng(10)
    params = {
        name: rng.normal(0.0, 0.5, size=shape).astype(np.float32)
        for name, shape in _schema(dims).items()
    }
    params["head.bias"][:] = 0.0  # the inputs, not the bias, pick the class
    x = rng.normal(size=(n, 3, 6)).astype(np.float32)

    def one_at_a_time(fn, inputs, empty):
        parts = [fn(inputs[i : i + 1]) for i in range(n)]
        return np.concatenate(parts) if parts else empty

    no_labels, no_states = np.empty(0, dtype=np.int64), np.empty((0, 3, 6))
    want = one_at_a_time(lambda xi: predict(params, xi, dims), x, no_labels)
    got = predict(params, x, dims)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    if n > _SLICE:
        assert len(set(got.tolist())) > 1  # the classes differ, so the test can see a mix-up
    for stop in range(dims.depth + 1):
        h = hidden_state(params, x, dims, stop)
        want = one_at_a_time(lambda xi: hidden_state(params, xi, dims, stop), x, no_states)
        assert h.dtype == np.float64 and h.shape == (n, 3, 6)
        assert h.tobytes() == want.tobytes(), stop
        got = predict(params, h, dims, start=stop)
        want = one_at_a_time(lambda hi: predict(params, hi, dims, start=stop), h, no_labels)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), stop
