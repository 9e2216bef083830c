"""Reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps an ndarray and remembers how it was produced; calling
``backward()`` on a scalar walks the graph in reverse topological order and
accumulates gradients into every tensor created with ``requires_grad=True``.
The walk frees each interior node once its own backward has run, so a graph
takes one backward. Only the operations the three network architectures need
are provided.
"""

from __future__ import annotations

import math

import numpy as np


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


# Bytes of one block's im2col buffer, or of its input-gradient counterpart:
# conv1d's GEMMs run over blocks of batch rows, and the weight gradient's over
# blocks of input channels, so these buffers are bounded by the layer's shape
# and not by B * L. The floors keep each GEMM wide: a block holds at least
# _MIN_MACS multiply-adds and _MIN_COLUMNS output columns (row blocks) or
# _MIN_ROWS im2col rows (channel blocks), and a row block's edges fall on
# multiples of _ALIGN columns, a whole number of BLAS column tiles. They also
# keep each element bitwise the unblocked GEMM's: OpenBLAS sums an element in
# another order in a small GEMM (below 10**6 multiply-adds) or across a cut tile.
_BLOCK_BYTES = 1 << 20
_MIN_MACS = 1 << 22
_MIN_COLUMNS = 256
_MIN_ROWS = 64
_ALIGN = 64


def _blocks(n: int, item_bytes: int, item_macs: int, floor: int, align: int = 1) -> list[slice]:
    """Slices of range(n), each of _BLOCK_BYTES // item_bytes items unless the
    floors ask for more, rounded up to a multiple of ``align``; a last block
    below the floors joins the one before it."""
    floor = max(floor, -(-_MIN_MACS // item_macs))
    step = -(-max(_BLOCK_BYTES // item_bytes, floor) // align) * align
    starts = list(range(0, n, step))
    if len(starts) > 1 and n - starts[-1] < floor:
        starts.pop()
    return [slice(s, e) for s, e in zip(starts, starts[1:] + [n])]


def _im2col(x: np.ndarray, rows: slice, channels: slice, K: int, left: int,
            l_out: int) -> np.ndarray:
    """The [c·K, b·l_out] matrix of x[rows, channels]: [B, C, L] with
    ``col[c*K + k, b*l_out + l] = x[b, c, l + k - left]``, zero outside x."""
    xs = x[rows, channels]
    B, C, L = xs.shape
    # einsum passes a one-column output's windows as the [C·K, B] transpose of a
    # [B, C·K] matrix
    col = (np.empty((B, C, K, 1), dtype=x.dtype).transpose(1, 2, 0, 3) if l_out == 1
           else np.empty((C, K, B, l_out), dtype=x.dtype))
    for k in range(K):
        lo = max(0, left - k)
        hi = max(lo, min(l_out, L + left - k))
        col[:, k, :, :lo] = 0
        col[:, k, :, hi:] = 0
        col[:, k, :, lo:hi] = xs[:, :, lo + k - left : hi + k - left].transpose(1, 0, 2)
    return col.reshape(C * K, B * l_out)


def conv1d(x: Tensor, w: Tensor, b: Tensor, padding: str = "same") -> Tensor:
    """1-D cross-correlation, stride 1.

    x: [B, C_in, L], w: [C_out, C_in, K], b: [C_out]. "same" pads to keep L,
    with the extra element on the right for even kernels; "valid" yields
    L - K + 1 and raises if that is < 1.

    Each GEMM is the one ``einsum("bclk,ock->bol")`` over a padded
    ``sliding_window_view`` of x makes (and ``einsum("bol,bclk->ock")`` and
    ``tensordot(w, g, ([0], [1]))`` in backward), with its operands in the
    same layouts, run over blocks of about _BLOCK_BYTES: the forward
    ``w[O, C·K] @ col[C·K, rows·L]`` and the input gradient
    ``wᵀ[C·K, O] @ g[O, rows·L]`` over batch rows, the weight gradient
    ``col[C·K, B·L] @ g[B·L, O]`` over channels. Each output element is
    the same BLAS reduction, so every result is bitwise the unblocked one, and
    the output has its [O, B, L] memory layout. The im2col blocks are built
    from x, with no padded copy.
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
    row_blocks = _blocks(B, Cin * K * l_out * x.data.itemsize, Cout * Cin * K * l_out,
                         -(-_MIN_COLUMNS // l_out), _ALIGN // math.gcd(l_out, _ALIGN))
    out = np.empty((Cout, B, l_out), dtype=np.result_type(w.data, x.data))
    flat = out.reshape(Cout, B * l_out)
    w_rows = w.data.reshape(Cout, Cin * K)
    # float64 runs in one block: OpenBLAS's dgemm rounds a partial last column
    # tile otherwise when a BLAS thread's share of its block is narrow
    for r in row_blocks if out.dtype != np.float64 else [slice(0, B)]:
        np.matmul(w_rows, _im2col(x.data, r, slice(None), K, left, l_out),
                  out=flat[:, r.start * l_out : r.stop * l_out])
    data = out.transpose(1, 0, 2)
    data += b.data[None, :, None]

    def backward(g):
        if _needs_grad(b):
            _accumulate(b, g.sum(axis=(0, 2)))
        if _needs_grad(w):
            g_cols = g.transpose(0, 2, 1).reshape(B * l_out, Cout)
            dw = np.empty((Cin * K, Cout), dtype=np.result_type(x.data, g))
            for c in _blocks(Cin, K * B * l_out * x.data.itemsize, K * B * l_out * Cout,
                             -(-_MIN_ROWS // K)):
                np.matmul(_im2col(x.data, slice(None), c, K, left, l_out), g_cols,
                          out=dw[c.start * K : c.stop * K])
            del g_cols  # g's copy, before the input gradient's buffers
            _accumulate(w, dw.reshape(Cin, K, Cout).transpose(2, 0, 1))
        if _needs_grad(x):
            # each k slice of a block's [Cin, K, rows, Lout] scatters into a
            # contiguous [Cin, B, Lp] buffer, k in order
            w_cols = w.data.transpose(1, 2, 0).reshape(Cin * K, Cout)
            gxp = np.zeros((Cin, B, l_out + K - 1), dtype=x.data.dtype)
            for r in row_blocks:
                g_rows = g[r].transpose(1, 0, 2).reshape(Cout, -1)
                d_col = np.dot(w_cols, g_rows).reshape(Cin, K, -1, l_out)
                for k in range(K):
                    gxp[:, r, k : k + l_out] += d_col[:, k]
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
