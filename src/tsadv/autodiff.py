"""Reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps an ndarray and remembers how it was produced; calling
``backward()`` on a scalar walks the graph in reverse topological order and
accumulates gradients into every tensor created with ``requires_grad=True``.
The walk frees each interior node once its own backward has run, so a graph
takes one backward. Only the operations the three network architectures need
are provided.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        if data.dtype not in (np.float32, np.float64):
            data = data.astype(np.float64)
        self.data = data
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def backward(self):
        """Accumulate gradients of this scalar into all tracked ancestors.

        Each interior node is released once its own backward has run: its
        ``.grad`` and its backward closure, with the arrays it saved, are
        dropped, and ``_parents`` becomes None, so a second backward through
        it raises ValueError. Leaves keep ``.grad``; every tensor keeps ``.data``.
        """
        if self.data.size != 1:
            raise ValueError(f"backward() needs a scalar, got shape {self.data.shape}")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            if node._parents is None:
                raise ValueError("backward() through a graph an earlier backward() released")
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is not None:
                if node.grad is not None:
                    node._backward(node.grad)
                node.grad = node._backward = node._parents = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # operator sugar; scalars and ndarrays become constant tensors
    def __add__(self, other):
        return add(self, _wrap(other, self.dtype))

    def __mul__(self, other):
        return mul(self, _wrap(other, self.dtype))

    def __rmul__(self, other):
        return mul(_wrap(other, self.dtype), self)

    def __neg__(self):
        return mul(self, _wrap(-1.0, self.dtype))

    def __sub__(self, other):
        return add(self, -_wrap(other, self.dtype))


def _wrap(value, dtype) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype))


def _needs_grad(t: Tensor) -> bool:
    """Whether a gradient reaching ``t`` is stored or propagated further; a
    released node counts, so a graph built on it raises in its backward."""
    return t.requires_grad or t._backward is not None or t._parents is None


def _accumulate(t: Tensor, g: np.ndarray):
    if not _needs_grad(t):
        return
    g = g.astype(t.data.dtype, copy=False)
    t.grad = g if t.grad is None else t.grad + g


def _node(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if any(_needs_grad(p) for p in parents):
        out.requires_grad = False
        out._parents = parents
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def add(a: Tensor, b: Tensor, overwrite: bool = False) -> Tensor:
    """a + b, broadcast. ``overwrite`` writes the sum over ``a.data`` when
    that already has the sum's dtype and shape."""
    out = None
    if (overwrite and np.result_type(a.data, b.data) == a.data.dtype
            and np.broadcast_shapes(a.data.shape, b.data.shape) == a.data.shape):
        out = a.data
    data = np.add(a.data, b.data, out=out)

    def backward(g):
        if _needs_grad(a):
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if _needs_grad(b):
            _accumulate(b, _unbroadcast(g, b.data.shape))

    return _node(data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def backward(g):
        if _needs_grad(a):
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        if _needs_grad(b):
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(data, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul supports 2-D operands only")
    data = a.data @ b.data

    def backward(g):
        if _needs_grad(a):
            _accumulate(a, g @ b.data.T)
        if _needs_grad(b):
            _accumulate(b, a.data.T @ g)

    return _node(data, (a, b), backward)


def relu(a: Tensor, overwrite: bool = False) -> Tensor:
    """Elementwise max(a, 0). As in clamp_min, NaN propagates, with a zero
    gradient; -0.0 maps to +0.0. The mask ``data > 0`` equals ``a > 0``.
    ``overwrite`` writes the output over ``a.data``."""
    data = np.maximum(a.data, 0, out=a.data if overwrite else None)

    def backward(g):
        _accumulate(a, g * (data > 0))

    return _node(data, (a,), backward)


def log(a: Tensor) -> Tensor:
    data = np.log(a.data)

    def backward(g):
        _accumulate(a, g / a.data)

    return _node(data, (a,), backward)


def pow_const(a: Tensor, p: float) -> Tensor:
    data = a.data**p

    def backward(g):
        _accumulate(a, g * p * a.data ** (p - 1))

    return _node(data, (a,), backward)


def clamp_min(a: Tensor, lo: float) -> Tensor:
    """Elementwise max(a, lo); gradient is zero on the clamped region.

    Uses np.maximum so NaN propagates instead of being silently floored,
    keeping divergence detectable downstream.
    """
    mask = a.data > lo
    data = np.maximum(a.data, lo)

    def backward(g):
        _accumulate(a, g * mask)

    return _node(data, (a,), backward)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, a.data.shape).copy())

    return _node(data, (a,), backward)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    count = a.data.size if axis is None else np.prod([a.data.shape[ax] for ax in np.atleast_1d(axis)])
    return mul(tsum(a, axis=axis, keepdims=keepdims), _wrap(1.0 / count, a.dtype))


def reshape(a: Tensor, shape) -> Tensor:
    data = a.data.reshape(shape)

    def backward(g):
        _accumulate(a, g.reshape(a.data.shape))

    return _node(data, (a,), backward)


def concat(tensors: list[Tensor], axis: int = 1) -> Tensor:
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]

    def backward(g):
        start = 0
        for t, size in zip(tensors, sizes):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(start, start + size)
            _accumulate(t, g[tuple(sl)])
            start += size

    return _node(data, tuple(tensors), backward)


def softmax(a: Tensor, axis: int = -1, temperature: float = 1.0) -> Tensor:
    """Max-subtracted softmax of a/temperature along ``axis``."""
    if temperature <= 0:
        raise ValueError(f"temperature must be > 0, got {temperature}")
    z = a.data / temperature
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * s).sum(axis=axis, keepdims=True)
        _accumulate(a, (s * (g - inner)) / temperature)

    return _node(s, (a,), backward)


def _pad(x: np.ndarray, K: int, padding: str) -> np.ndarray:
    """x: [B, C, L] as conv1d windows it: x itself for "valid"; for "same", a
    copy with K - 1 zeros along L, (K - 1) // 2 of them on the left."""
    if padding == "valid":
        return x
    B, C, L = x.shape
    left = (K - 1) // 2
    xp = np.zeros((B, C, L + K - 1), dtype=x.dtype)
    xp[:, :, left : left + L] = x
    return xp


def conv1d(x: Tensor, w: Tensor, b: Tensor, padding: str = "same") -> Tensor:
    """1-D cross-correlation, stride 1.

    x: [B, C_in, L], w: [C_out, C_in, K], b: [C_out]. "same" pads to keep L,
    with the extra element on the right for even kernels; "valid" yields
    L - K + 1 and raises if that is < 1. The weight gradient pads x again
    rather than keep the padded copy alive until backward.
    """
    if padding not in ("same", "valid"):
        raise ValueError(f"unknown padding mode {padding!r}")
    B, Cin, L = x.data.shape
    Cout, Cin_w, K = w.data.shape
    if Cin != Cin_w:
        raise ValueError(f"conv1d input has {Cin} channels, weights expect {Cin_w}")
    left = (K - 1) // 2 if padding == "same" else 0
    l_out = L if padding == "same" else L - K + 1
    if l_out < 1:
        raise ValueError(f"conv1d: input length {L} too short for kernel {K} with valid padding")
    windows = sliding_window_view(_pad(x.data, K, padding), K, axis=2)  # [B, Cin, Lout, K]
    data = np.einsum("bclk,ock->bol", windows, w.data, optimize=True)
    data += b.data[None, :, None]

    def backward(g):
        if _needs_grad(b):
            _accumulate(b, g.sum(axis=(0, 2)))
        if _needs_grad(w):
            windows = sliding_window_view(_pad(x.data, K, padding), K, axis=2)
            _accumulate(w, np.einsum("bol,bclk->ock", g, windows, optimize=True))
            del windows  # the re-padded copy, before the input gradient's buffers
        if _needs_grad(x):
            # [Cin, K, B, Lout], the same GEMM as einsum("bol,ock->bclk"); each
            # k slice scatters into a contiguous [Cin, B, Lp] buffer
            d_windows = np.tensordot(w.data, g, axes=([0], [1]))
            gxp = np.zeros((Cin, B, l_out + K - 1), dtype=x.data.dtype)
            for k in range(K):
                gxp[:, :, k : k + l_out] += d_windows[:, k]
            _accumulate(x, gxp.transpose(1, 0, 2)[:, :, left : left + L])

    return _node(data, (x, w, b), backward)


def batch_normalize(x: Tensor, eps: float) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """x: [B, C, L] normalised by its own per-channel statistics,
    ``(x - mu) * (var + eps) ** -0.5``, with the batch mean ``mu`` and
    variance ``var`` ([1, C, 1] arrays) that it used.

    One node with the numpy operations of the ad composite (tmean, sub, mul,
    pow_const), in its order, forward and backward, so the output and x's
    gradient are bitwise the composite's. Backward recomputes ``x - mu`` from
    x instead of keeping it, and hands x the composite's two terms in its
    order: the centred path's array, then a C-contiguous copy of the mean's.
    """
    shape = x.data.shape
    inv_count = np.asarray(1.0 / (shape[0] * shape[2]), dtype=x.dtype)
    neg_one = np.asarray(-1.0, dtype=x.dtype)
    mu = x.data.sum(axis=(0, 2), keepdims=True) * inv_count
    neg_mu = mu * neg_one
    x_hat = x.data + neg_mu
    var = (x_hat * x_hat).sum(axis=(0, 2), keepdims=True) * inv_count
    var_eps = var + np.asarray(eps, dtype=x.dtype)
    inv_std = var_eps**-0.5
    x_hat *= inv_std

    def backward(g):
        # each sum of full-size terms is its own statement, as in _accumulate:
        # numpy would write a temporary left operand in place, in its layout
        d_centered = g * inv_std
        centered = x.data + neg_mu
        d_var = _unbroadcast(g * centered, inv_std.shape) * -0.5 * var_eps**-1.5
        d_sq = np.broadcast_to(d_var * inv_count, shape).copy()
        d_sq_term = d_sq * centered
        del d_sq, centered
        d_centered = d_centered + d_sq_term  # centered * centered: once per operand
        d_centered = d_centered + d_sq_term
        del d_sq_term
        d_mu = _unbroadcast(d_centered, neg_mu.shape) * neg_one * inv_count
        _accumulate(x, d_centered)
        _accumulate(x, np.broadcast_to(d_mu, shape).copy())

    return _node(x_hat, (x,), backward), mu, var


def batchnorm_inference(x: Tensor, mean: np.ndarray, var: np.ndarray, eps: float,
                        gamma: Tensor, beta: Tensor, overwrite: bool = False) -> Tensor:
    """Per-channel ``(x + -mean) * (var + eps) ** -0.5 * gamma + beta`` over x: [B, C, L].

    One node with the operations of the ad composite, in its order, so the
    output and every gradient are bitwise the composite's; x_hat is kept only
    when gamma needs a gradient. The in-place steps run in the widest dtype
    of the operands, so none of them narrows a result. ``overwrite`` writes
    x_hat over ``x.data`` when the dtypes allow it.
    """
    shape = (1, -1, 1)
    neg_mean = (-mean).reshape(shape)
    inv_std = ((var + var.dtype.type(eps)) ** -0.5).reshape(shape)
    gamma_r = gamma.data.reshape(shape)
    beta_r = beta.data.reshape(shape)
    need_gamma, need_beta = _needs_grad(gamma), _needs_grad(beta)
    dtype = np.result_type(x.data, mean, var, gamma.data, beta.data)
    x_hat = np.add(x.data, neg_mean, dtype=dtype,
                   out=x.data if overwrite and dtype == x.data.dtype else None)
    x_hat *= inv_std
    if need_gamma:
        data = x_hat * gamma_r
    else:
        data = np.multiply(x_hat, gamma_r, out=x_hat)
        x_hat = None
    data += beta_r

    def backward(g):
        if _needs_grad(x):
            _accumulate(x, (g * gamma_r) * inv_std)
        if need_gamma:
            _accumulate(gamma, _unbroadcast(g * x_hat, gamma_r.shape).reshape(gamma.data.shape))
        if need_beta:
            _accumulate(beta, _unbroadcast(g, beta_r.shape).reshape(beta.data.shape))

    return _node(data, (x, gamma, beta), backward)


def maxpool1d(x: Tensor, pool_size: int = 2, stride: int | None = None) -> Tensor:
    """Non-overlapping max pooling (stride must equal pool_size); floor-crops the tail."""
    if stride is None:
        stride = pool_size
    if stride != pool_size:
        raise ValueError("maxpool1d supports stride == pool_size only")
    B, C, L = x.data.shape
    l_out = L // pool_size
    if l_out < 1:
        raise ValueError(f"maxpool1d: input length {L} shorter than pool size {pool_size}")
    xc = x.data[:, :, : l_out * pool_size].reshape(B, C, l_out, pool_size)
    # argmax's choice, one pool position at a time: a strictly greater value
    # or the first NaN takes over, so a tie keeps the earlier position
    data = xc[..., 0]
    takes = []
    for k in range(1, pool_size):
        cand = xc[..., k]
        take = (cand > data) | (np.isnan(cand) & ~np.isnan(data))
        data = np.where(take, cand, data)
        takes.append(take)

    def backward(g):
        gx = np.empty_like(x.data)
        gx[:, :, l_out * pool_size :] = 0
        gxc = gx[:, :, : l_out * pool_size].reshape(B, C, l_out, pool_size)
        won = None  # where a later position holds the max
        for k in range(pool_size - 1, 0, -1):
            take = takes[k - 1] if won is None else takes[k - 1] & ~won
            gxc[..., k] = np.where(take, g, 0)
            won = take if won is None else won | take
        gxc[..., 0] = g if won is None else np.where(won, 0, g)
        _accumulate(x, gx)

    return _node(data, (x,), backward)
