"""A small pre-norm transformer classifier with hand-written backprop.

Per block: LayerNorm + multi-head self-attention as one residual unit, then
LayerNorm + a two-layer GELU feed-forward as the second residual unit.
Tokens are given directly as feature vectors (no patch embedding); a learned
positional embedding is added, the final LayerNorm output is mean-pooled over
the sequence, and a linear head produces logits.

All math runs in float64 numpy with a fixed reduction order, so results are
bit-deterministic. The kernels work in place, each step one product or sum of
the textbook formula on its operands, and ``np.add.reduce(a, axis) / n`` is
what ``a.mean(axis)`` computes. Parameters live in a plain ``name -> ndarray``
dict whose names match the schema of the ``toy_vit`` descriptor that
:class:`ModelDims` holds, so every model has at least one block. Backward
computes gradients for the trainable tensors only and stops at the shallowest
one; a pass can also start from a cached hidden state when the blocks below it
are frozen. :func:`predict` and :func:`hidden_state` run their forward pass in
slices of ``_SLICE`` samples, so their working memory follows the slice,
not the number of samples; every operation but the head GEMM is per
sample, so slicing keeps the output bits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .arch import ArchDescriptor, describe_arch
from .errors import InvalidValue, require_int, require_shapes

__all__ = [
    "ModelDims",
    "init_params",
    "reinit_head",
    "hidden_state",
    "loss_and_grads",
    "predict",
]

_LN_EPS = 1e-5
# samples per forward pass of predict and hidden_state: a pass over a whole
# split would hold float64 activations for every sample at once, and a large
# GEMM starts the BLAS thread pool, whose buffers raise peak RSS
_SLICE = 16
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


@dataclass(frozen=True)
class ModelDims:
    """The model's dimensions: valid exactly when their ``toy_vit`` descriptor
    is and ``num_classes`` is positive. :attr:`descriptor` holds it."""

    depth: int
    model_dim: int
    heads: int
    ffn_dim: int
    seq_len: int
    num_classes: int

    def __post_init__(self):
        require_int("num_classes", self.num_classes, 1)
        self.descriptor  # noqa: B018 - built and cached here, so invalid dims raise

    @functools.cached_property
    def descriptor(self) -> ArchDescriptor:
        dims = self.to_dict()
        del dims["num_classes"]
        if None in dims.values():  # which describe_arch would read as its default
            raise InvalidValue(f"toy_vit dimensions must be ints, got {dims}")
        return describe_arch("toy_vit", **dims)

    def to_dict(self) -> dict:
        return asdict(self)


def _trunc_normal(rng: np.random.Generator, shape, std: float) -> np.ndarray:
    """Normal(0, std) truncated at two standard deviations, by resampling."""
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2.0 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * std
    return out


@functools.lru_cache(maxsize=None)
def _schema(dims: ModelDims) -> Mapping[str, tuple[int, ...]]:
    """Tensor names and shapes of the ``toy_vit`` descriptor for ``dims``, with
    ``pos_embed`` first: the order in which :func:`init_params` draws them."""
    shapes = dims.descriptor.schema_shapes(dims.num_classes)
    return MappingProxyType({"pos_embed": shapes.pop("pos_embed"), **shapes})


def _checked_params(
    arrays: Mapping[str, np.ndarray], dims: ModelDims, what: str, model: str = "model"
) -> dict[str, np.ndarray]:
    """``arrays`` in :func:`_schema` order, once they are the weights of the
    ``toy_vit`` model ``dims``: each of its tensors, with its shape, and no
    other. ``what`` names the input and ``model`` the model in the messages."""
    shapes = _schema(dims)
    require_shapes({name: array.shape for name, array in arrays.items()}, shapes, what, model)
    return {name: arrays[name] for name in shapes}


def init_params(dims: ModelDims, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Fresh float32 parameters drawn in a fixed name order."""
    params: dict[str, np.ndarray] = {}
    for name, shape in _schema(dims).items():
        if name.endswith(".bias"):
            arr = np.zeros(shape)
        elif name in ("norm.weight",) or name.endswith(("norm1.weight", "norm2.weight")):
            arr = np.ones(shape)
        else:
            arr = _trunc_normal(rng, shape, std=0.02)
        params[name] = arr.astype(np.float32)
    return params


def reinit_head(
    params: Mapping[str, np.ndarray], dims: ModelDims, rng: np.random.Generator
) -> dict[str, np.ndarray]:
    out = dict(params)
    out["head.weight"] = _trunc_normal(
        rng, (dims.num_classes, dims.model_dim), std=0.02
    ).astype(np.float32)
    out["head.bias"] = np.zeros(dims.num_classes, dtype=np.float32)
    return out


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------


def _flat(a):
    """Rows of ``a``'s last axis, so a sum over the leading axes is one GEMM."""
    return a.reshape(-1, a.shape[-1])


def _layernorm_fwd(x, gain, bias):
    n = x.shape[-1]
    xhat = x - np.add.reduce(x, axis=-1, keepdims=True) / n
    inv = np.add.reduce(xhat * xhat, axis=-1, keepdims=True) / n
    inv += _LN_EPS
    np.divide(1.0, np.sqrt(inv, out=inv), out=inv)
    xhat *= inv
    return xhat * gain + bias, (xhat, inv, gain)


def _layernorm_dx(dout, cache):
    xhat, inv, gain = cache
    n = xhat.shape[-1]
    dxhat = dout * gain
    proj = dxhat * xhat
    np.multiply(xhat, np.add.reduce(proj, axis=-1, keepdims=True) / n, out=proj)
    dxhat -= np.add.reduce(dxhat, axis=-1, keepdims=True) / n
    dxhat -= proj
    dxhat *= inv
    return dxhat


def _layernorm_grads(grads, todo, prefix, dout, cache):
    """Gain and bias gradients of a (batch, seq, dim) LayerNorm, for the names in ``todo``."""
    if f"{prefix}.weight" in todo:
        grads[f"{prefix}.weight"] = (dout * cache[0]).sum(axis=(0, 1))
    if f"{prefix}.bias" in todo:
        grads[f"{prefix}.bias"] = dout.sum(axis=(0, 1))


def _linear_grads(grads, todo, prefix, dout, inp):
    """Gradients of ``inp @ weight.T + bias`` over (batch, seq) rows, for names in ``todo``."""
    if f"{prefix}.weight" in todo:
        grads[f"{prefix}.weight"] = _flat(dout).T @ _flat(inp)
    if f"{prefix}.bias" in todo:
        grads[f"{prefix}.bias"] = dout.sum(axis=(0, 1))


def _gelu_fwd(x):
    # x * x * x, not x**3: numpy's float64 pow is far slower than two products
    t = x * x
    t *= x
    t *= _GELU_A
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    out = x * 0.5
    out *= t + 1.0
    return out, (x, t)


def _gelu_bwd(dout, cache):
    x, t = cache
    du_dx = x * (3.0 * _GELU_A)
    du_dx *= x
    du_dx += 1.0
    du_dx *= _GELU_C
    tail = t * t
    np.subtract(1.0, tail, out=tail)
    tail *= x * 0.5
    tail *= du_dx
    out = t + 1.0
    out *= 0.5
    out += tail
    out *= dout
    return out


def _softmax(x):
    e = x - x.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def _split_heads(x, heads):
    b, t, d = x.shape
    return x.reshape(b, t, heads, d // heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, h, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * dh)


def _blocks_fwd(params, h, dims: ModelDims, start: int, stop: int, caches=None):
    """Blocks ``start .. stop-1`` on hidden state ``h``; ``caches[i]`` gets block i's cache."""
    dh = dims.model_dim // dims.heads
    scale = 1.0 / math.sqrt(dh)
    for i in range(start, stop):
        p = f"blocks.{i}"
        n1, ln1 = _layernorm_fwd(h, params[f"{p}.norm1.weight"], params[f"{p}.norm1.bias"])
        qkv = n1 @ params[f"{p}.attn.qkv.weight"].T + params[f"{p}.attn.qkv.bias"]
        q, k, v = qkv.reshape(*qkv.shape[:2], 3, dims.heads, dh).transpose(2, 0, 3, 1, 4)
        attn = _softmax((q @ k.swapaxes(-1, -2)) * scale)
        o = _merge_heads(attn @ v)
        att_out = o @ params[f"{p}.attn.proj.weight"].T + params[f"{p}.attn.proj.bias"]
        h_mid = h + att_out

        n2, ln2 = _layernorm_fwd(
            h_mid, params[f"{p}.norm2.weight"], params[f"{p}.norm2.bias"]
        )
        f1 = n2 @ params[f"{p}.mlp.fc1.weight"].T + params[f"{p}.mlp.fc1.bias"]
        g, gelu_cache = _gelu_fwd(f1)
        f2 = g @ params[f"{p}.mlp.fc2.weight"].T + params[f"{p}.mlp.fc2.bias"]
        h = h_mid + f2
        if caches is not None:
            caches[i] = {
                "ln1": ln1,
                "n1": n1,
                "q": q,
                "k": k,
                "v": v,
                "attn": attn,
                "o": o,
                "ln2": ln2,
                "n2": n2,
                "gelu": gelu_cache,
                "g": g,
            }
    return h


def _forward(params, x, dims: ModelDims, start: int | None, caches=None):
    """Logits from raw tokens ``x``, or from the hidden state ``x`` entering block ``start``."""
    h = x + params["pos_embed"] if start is None else x
    h = _blocks_fwd(params, h, dims, start or 0, dims.depth, caches)
    z, lnf = _layernorm_fwd(h, params["norm.weight"], params["norm.bias"])
    pooled = np.add.reduce(z, axis=1) / dims.seq_len
    logits = pooled @ params["head.weight"].T + params["head.bias"]
    return logits, lnf, pooled


def _params64(params):
    """Float64 parameters; ``params`` itself if it holds only float64 arrays."""
    if all(isinstance(v, np.ndarray) and v.dtype == np.float64 for v in params.values()):
        return params
    return {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}


def _sliced(pass_fn, params, x) -> np.ndarray:
    """``pass_fn(params64, x64)`` over slices of at most ``_SLICE`` samples of
    ``x``, each cast to float64 on its own (``x`` is never copied whole), with
    the results written into one output array.

    Every operation of a pass is per sample except the head GEMM, so the
    output has the bits of one-sample passes put together.
    """
    p64 = _params64(params)
    x = np.asarray(x)
    out = None
    for i in range(0, max(len(x), 1), _SLICE):  # an empty x still gets its shape
        part = pass_fn(p64, np.asarray(x[i : i + _SLICE], dtype=np.float64))
        if out is None:
            out = np.empty((len(x), *part.shape[1:]), dtype=part.dtype)
        out[i : i + _SLICE] = part
    return out


def hidden_state(params, x, dims: ModelDims, stop: int) -> np.ndarray:
    """The float64 hidden state entering block ``stop``: tokens plus positional
    embedding, through blocks ``0 .. stop-1``, in ``_SLICE``-sample slices.

    While ``pos_embed`` and those blocks are frozen it is a constant of each
    sample, so a trainer can compute it once and pass it as ``x`` with
    ``start=stop`` to :func:`predict` and :func:`loss_and_grads`.
    """
    return _sliced(
        lambda p64, x64: _blocks_fwd(p64, x64 + p64["pos_embed"], dims, 0, stop), params, x
    )


def predict(params, x, dims: ModelDims, start: int | None = None) -> np.ndarray:
    """Class predictions in ``_SLICE``-sample slices; ``start`` as in
    :func:`loss_and_grads`."""
    return _sliced(
        lambda p64, x64: np.argmax(_forward(p64, x64, dims, start)[0], axis=-1), params, x
    )


def _mean_cross_entropy(probs, y) -> float:
    n = probs.shape[0]
    # a vanishing true-class probability legitimately yields an infinite
    # loss; the trainer reports it as divergence rather than warning here
    with np.errstate(divide="ignore"):
        return float(-np.log(probs[np.arange(n), y]).mean())


@functools.lru_cache(maxsize=None)
def _reached(dims: ModelDims, start: int | None) -> frozenset[str]:
    """Names of the tensors that a pass from block ``start`` runs through."""
    return frozenset(
        n for n in _schema(dims)
        if not ((n == "pos_embed" and start is not None)
                or (n.startswith("blocks.") and int(n.split(".")[1]) < (start or 0)))
    )


def loss_and_grads(
    params, x, y, dims: ModelDims, trainable=None, start: int | None = None
):
    """Mean softmax cross-entropy and its gradient for each trainable tensor.

    ``trainable=None`` means every tensor the pass runs through, and an empty
    ``trainable`` the loss alone. Backward
    skips the weight-gradient products of frozen tensors and stops once every
    trainable tensor has its gradient, so it never runs below the shallowest
    trainable layer. With ``start``, ``x`` is the hidden state entering block
    ``start`` (see :func:`hidden_state`); ``pos_embed`` and the blocks below
    ``start`` are then outside the pass and cannot be trainable.
    """
    p64, x64 = _params64(params), np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    first = start or 0
    reached = _reached(dims, start)
    todo = reached if trainable is None else set(trainable)
    if not todo <= reached:
        raise InvalidValue(
            f"tensors outside a pass from block {first}: {sorted(todo - reached)}"
        )
    caches: dict[int, dict] = {}
    logits, lnf, pooled = _forward(p64, x64, dims, start, caches)
    t = dims.seq_len
    scale = 1.0 / math.sqrt(dims.model_dim // dims.heads)

    # the loss reads the probabilities before they turn into dlogits in place
    dlogits = _softmax(logits)
    n = logits.shape[0]
    loss = _mean_cross_entropy(dlogits, y)

    grads: dict[str, np.ndarray] = {}

    def done():
        return len(grads) == len(todo)

    dlogits[np.arange(n), y] -= 1.0
    dlogits /= n

    if "head.weight" in todo:
        grads["head.weight"] = dlogits.T @ pooled
    if "head.bias" in todo:
        grads["head.bias"] = dlogits.sum(axis=0)
    if done():
        return loss, grads
    dpooled = dlogits @ p64["head.weight"]
    dz = np.broadcast_to((dpooled / t)[:, None, :], lnf[0].shape)
    _layernorm_grads(grads, todo, "norm", dz, lnf)
    if done():
        return loss, grads
    dh = _layernorm_dx(dz, lnf)

    for i in reversed(range(first, dims.depth)):
        p = f"blocks.{i}"
        c = caches[i]
        # feed-forward residual unit
        _linear_grads(grads, todo, f"{p}.mlp.fc2", dh, c["g"])
        if done():
            return loss, grads
        df1 = _gelu_bwd(dh @ p64[f"{p}.mlp.fc2.weight"], c["gelu"])
        _linear_grads(grads, todo, f"{p}.mlp.fc1", df1, c["n2"])
        if done():
            return loss, grads
        dn2 = df1 @ p64[f"{p}.mlp.fc1.weight"]
        _layernorm_grads(grads, todo, f"{p}.norm2", dn2, c["ln2"])
        if done():
            return loss, grads
        dh_mid = dh + _layernorm_dx(dn2, c["ln2"])

        # attention residual unit
        _linear_grads(grads, todo, f"{p}.attn.proj", dh_mid, c["o"])
        if done():
            return loss, grads
        do = _split_heads(dh_mid @ p64[f"{p}.attn.proj.weight"], dims.heads)
        a = c["attn"]
        dscores = do @ c["v"].swapaxes(-1, -2)
        dscores -= np.add.reduce(dscores * a, axis=-1, keepdims=True)
        dscores *= a
        dq = (dscores @ c["k"]) * scale
        dk = (dscores.swapaxes(-1, -2) @ c["q"]) * scale
        dv = a.swapaxes(-1, -2) @ do
        dqkv = np.concatenate(
            [_merge_heads(dq), _merge_heads(dk), _merge_heads(dv)], axis=-1
        )
        _linear_grads(grads, todo, f"{p}.attn.qkv", dqkv, c["n1"])
        if done():
            return loss, grads
        dn1 = dqkv @ p64[f"{p}.attn.qkv.weight"]
        _layernorm_grads(grads, todo, f"{p}.norm1", dn1, c["ln1"])
        if done():
            return loss, grads
        dh = dh_mid + _layernorm_dx(dn1, c["ln1"])

    grads["pos_embed"] = dh.sum(axis=0)
    return loss, grads
