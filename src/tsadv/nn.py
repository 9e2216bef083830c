"""Layers, sequential networks, losses, Adam, the shared training loop and model files.

A Network is an ordered stack of layers with explicit parameter arrays; the
whole thing is plain numpy so a saved model reloads bit-exactly. Training is
float32 by default, gradient checks build float64 models. Whole-split passes,
:func:`predict` and :func:`input_gradient_with_probs`, run over chunks of rows
whose size is a function of the network and the input shape only.
"""

from __future__ import annotations

import json
import os

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import TrainingDivergedError
from .util import array_state_hash, softmax_np


def he_uniform(rng: np.random.Generator, fan_in: int, shape, dtype) -> np.ndarray:
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


class Layer:
    kind = "?"

    def forward(self, x: Tensor, training: bool) -> Tensor:
        raise NotImplementedError

    def params(self) -> list[Tensor]:
        return []

    def state(self) -> dict[str, np.ndarray]:
        """Parameter and buffer arrays, keyed for serialization."""
        return {}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        for name, arr in self.state().items():
            loaded = state[name]
            if loaded.shape != arr.shape:
                raise ValueError(f"{self.kind}: stored {name} shape {loaded.shape} != {arr.shape}")
        for name in self.state():
            self._set_state(name, state[name])

    def _set_state(self, name: str, arr: np.ndarray) -> None:
        raise NotImplementedError

    def spec(self) -> dict:
        return {"kind": self.kind}


class Conv1d(Layer):
    kind = "conv1d"

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 padding: str = "same", rng: np.random.Generator | None = None,
                 dtype=np.float32):
        if kernel_size < 1 or in_channels < 1 or out_channels < 1:
            raise ValueError("conv1d hyperparameters must be >= 1")
        if padding not in ("same", "valid"):
            raise ValueError(f"unknown padding mode {padding!r}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.padding = padding
        rng = rng or np.random.default_rng(0)
        self.w = Tensor(he_uniform(rng, in_channels * kernel_size,
                                   (out_channels, in_channels, kernel_size), dtype),
                        requires_grad=True)
        self.b = Tensor(np.zeros(out_channels, dtype=dtype), requires_grad=True)

    def forward(self, x, training):
        return ad.conv1d(x, self.w, self.b, self.padding)

    def params(self):
        return [self.w, self.b]

    def state(self):
        return {"w": self.w.data, "b": self.b.data}

    def _set_state(self, name, arr):
        getattr(self, name).data = arr.copy()

    def spec(self):
        return {"kind": self.kind, "in_channels": self.in_channels,
                "out_channels": self.out_channels, "kernel_size": self.kernel_size,
                "padding": self.padding}


class BatchNorm1d(Layer):
    """Per-channel normalization over (batch, time) with 0.9-momentum running stats."""

    kind = "batchnorm"

    def __init__(self, num_features: int, momentum: float = 0.9, eps: float = 1e-5,
                 dtype=np.float32):
        if num_features < 1:
            raise ValueError("batchnorm needs num_features >= 1")
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = Tensor(np.ones(num_features, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(num_features, dtype=dtype), requires_grad=True)
        self.running_mean = np.zeros(num_features, dtype=dtype)
        self.running_var = np.ones(num_features, dtype=dtype)

    def forward(self, x, training, overwrite=False):
        """``overwrite`` lets inference mode write its output over ``x.data``."""
        if x.data.ndim != 3:
            raise ValueError(f"batchnorm expects [B, C, L] input, got {x.data.shape}")
        if not training:
            return ad.batchnorm_inference(x, self.running_mean, self.running_var, self.eps,
                                          self.gamma, self.beta, overwrite=overwrite)
        # batch_normalize keeps the composite's backward summation order, which
        # fixes the trained state hash
        x_hat, mu, var = ad.batch_normalize(x, self.eps)
        m = self.momentum
        self.running_mean = (m * self.running_mean
                             + (1 - m) * mu.reshape(-1)).astype(self.running_mean.dtype)
        self.running_var = (m * self.running_var
                            + (1 - m) * var.reshape(-1)).astype(self.running_var.dtype)
        gamma = ad.reshape(self.gamma, (1, self.num_features, 1))
        beta = ad.reshape(self.beta, (1, self.num_features, 1))
        return gamma * x_hat + beta

    def params(self):
        return [self.gamma, self.beta]

    def state(self):
        return {"gamma": self.gamma.data, "beta": self.beta.data,
                "running_mean": self.running_mean, "running_var": self.running_var}

    def _set_state(self, name, arr):
        if name in ("gamma", "beta"):
            getattr(self, name).data = arr.copy()
        else:
            setattr(self, name, arr.copy())

    def spec(self):
        return {"kind": self.kind, "num_features": self.num_features,
                "momentum": self.momentum, "eps": self.eps}


class ReLU(Layer):
    kind = "relu"

    def forward(self, x, training, overwrite=False):
        """``overwrite`` writes the output over ``x.data``."""
        return ad.relu(x, overwrite=overwrite)


class MaxPool1d(Layer):
    kind = "maxpool1d"

    def __init__(self, pool_size: int = 2, stride: int | None = None):
        if pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        self.pool_size = pool_size
        self.stride = stride if stride is not None else pool_size

    def forward(self, x, training):
        return ad.maxpool1d(x, self.pool_size, self.stride)

    def spec(self):
        return {"kind": self.kind, "pool_size": self.pool_size, "stride": self.stride}


class GlobalAvgPool1d(Layer):
    kind = "globalavgpool1d"

    def forward(self, x, training):
        return ad.tmean(x, axis=2)


class Flatten(Layer):
    kind = "flatten"

    def forward(self, x, training):
        return ad.reshape(x, (x.data.shape[0], -1))


class Dense(Layer):
    kind = "dense"

    def __init__(self, in_features: int, units: int, rng: np.random.Generator | None = None,
                 dtype=np.float32):
        if units < 1 or in_features < 1:
            raise ValueError("dense hyperparameters must be >= 1")
        self.in_features = in_features
        self.units = units
        rng = rng or np.random.default_rng(0)
        self.w = Tensor(he_uniform(rng, in_features, (in_features, units), dtype),
                        requires_grad=True)
        self.b = Tensor(np.zeros(units, dtype=dtype), requires_grad=True)

    def forward(self, x, training):
        if x.data.ndim != 2:
            raise ValueError(f"dense expects [B, F] input, got {x.data.shape}")
        if x.data.shape[1] != self.in_features:
            raise ValueError(f"dense expects {self.in_features} features, got {x.data.shape[1]}")
        return ad.matmul(x, self.w) + self.b

    def params(self):
        return [self.w, self.b]

    def state(self):
        return {"w": self.w.data, "b": self.b.data}

    def _set_state(self, name, arr):
        getattr(self, name).data = arr.copy()

    def spec(self):
        return {"kind": self.kind, "in_features": self.in_features, "units": self.units}


_LAYER_KINDS = {cls.kind: cls for cls in
                (Conv1d, BatchNorm1d, ReLU, MaxPool1d, GlobalAvgPool1d, Flatten, Dense)}


class Network:
    """An ordered layer stack plus its seed and per-epoch training log."""

    def __init__(self, layers: list[Layer], rng_seed: int, architecture: str | None = None):
        self.layers = list(layers)
        self.rng_seed = rng_seed
        self.architecture = architecture
        self.training_log: list[dict] = []

    def forward(self, x, training: bool = False) -> Tensor:
        """The network's output for x. An inference BatchNorm1d or a ReLU
        writes its output over the previous layer's when that layer's backward
        never reads its own output; x itself is never written."""
        h = x
        for i, layer in enumerate(self.layers):
            try:
                if i > 0 and isinstance(layer, (BatchNorm1d, ReLU)) \
                        and isinstance(self.layers[i - 1], (Conv1d, BatchNorm1d, Dense)):
                    h = layer.forward(h, training, overwrite=True)
                else:
                    h = layer.forward(h, training)
            except ValueError as exc:
                raise ValueError(f"layer {i} ({layer.kind}): {exc}") from None
        return h

    def parameters(self) -> list[Tensor]:
        return [p for layer in self.layers for p in layer.params()]

    def set_requires_grad(self, flag: bool) -> None:
        for p in self.parameters():
            p.requires_grad = flag

    def state_arrays(self) -> list[np.ndarray]:
        return [arr for layer in self.layers for arr in layer.state().values()]

    def state_hash(self) -> str:
        return array_state_hash(self.state_arrays())


# Whole-split passes run over chunks of rows, each holding at most this many
# elements of the widest per-row conv buffer, max(Cin*K*L, Cout*L) at series
# length L, so their memory is bounded by the shapes and not by the row count.
# The FCN's rows are bitwise the same in any batch; LeNet-5's are not, and it
# stays in one chunk up to 2912 rows at L = 24.
_CHUNK_ELEMENTS = 1 << 21


def chunk_rows(model: Network, shape: tuple[int, ...]) -> int:
    """Rows per chunk of a whole-split pass of ``model`` over an input of ``shape``."""
    widest = max([int(np.prod(shape[1:]))]
                 + [max(layer.in_channels * layer.kernel_size, layer.out_channels) * shape[-1]
                    for layer in model.layers if isinstance(layer, Conv1d)])
    return max(1, _CHUNK_ELEMENTS // widest)


def _in_chunks(model: Network, x: np.ndarray, rows_pass) -> tuple[np.ndarray, ...]:
    """The arrays ``rows_pass`` returns for each chunk of x's rows, joined along rows."""
    rows = chunk_rows(model, x.shape)
    parts = [rows_pass(x[s : s + rows]) for s in range(0, max(len(x), 1), rows)]
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def predict(model: Network, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inference-mode logits and softmax probabilities, over chunks of rows."""

    def rows_pass(rows):
        logits = model.forward(Tensor(rows), training=False).data
        return logits, softmax_np(logits, axis=1)

    return _in_chunks(model, np.asarray(x), rows_pass)


def input_gradient_with_probs(model: Network, x: np.ndarray, target_class: int
                              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradient of the softmax probability of ``target_class`` w.r.t. the input,
    the probabilities and the logits, from one tracked forward pass per chunk
    of rows.

    Runs in inference mode, so per-sample gradients are independent of the
    rest of the batch, and the logits are the bits :func:`predict` returns
    for ``x``. The gradient has the same shape as ``x``.
    """
    num_classes = model.layers[-1].units
    if not 0 <= target_class < num_classes:
        raise ValueError(f"target_class {target_class} out of range for {num_classes} classes")

    def rows_pass(rows):
        xt = Tensor(rows, requires_grad=True)
        logits = model.forward(xt, training=False)
        probs = ad.softmax(logits, axis=1)
        mask = np.zeros(num_classes, dtype=logits.data.dtype)
        mask[target_class] = 1
        ad.tsum(probs * Tensor(mask)).backward()
        return xt.grad, probs.data, logits.data

    return _in_chunks(model, np.asarray(x), rows_pass)


def cross_entropy(p_target: np.ndarray, q: Tensor) -> Tensor:
    """-sum(p * log q) with q clamped at 1e-12; batched inputs average over rows."""
    p = np.asarray(p_target, dtype=q.dtype)
    if p.shape != q.data.shape:
        raise ValueError(f"distribution shapes differ: {p.shape} vs {q.data.shape}")
    logq = ad.log(ad.clamp_min(q, 1e-12))
    total = ad.tsum(Tensor(p) * logq)
    rows = p.shape[0] if p.ndim == 2 else 1
    return total * (-1.0 / rows)


def l2(a: Tensor, b) -> Tensor:
    """Mean squared element difference of ``a`` and ``b``, a Tensor or an array."""
    bt = b if isinstance(b, Tensor) else Tensor(np.asarray(b, dtype=a.dtype))
    if a.data.shape != bt.data.shape:
        raise ValueError(f"shapes differ: {a.data.shape} vs {bt.data.shape}")
    d = a - bt
    return ad.tmean(d * d)


class Adam:
    """Adaptive moment estimation with the standard decay constants."""

    def __init__(self, params: list[Tensor], lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        if lr < 0:
            raise ValueError("learning rate must be >= 0")
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g = p.grad
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            m_hat = self.m[i] / (1 - b1**self.t)
            v_hat = self.v[i] / (1 - b2**self.t)
            p.data = p.data - (self.lr * m_hat / (np.sqrt(v_hat) + self.eps)).astype(p.data.dtype)


def fit(model: Network, n: int, batch_loss, config, end_epoch=None) -> Network:
    """Adam over shuffled mini-batches of ``n`` rows; one log entry per epoch.

    ``config`` supplies ``epochs``, ``batch_size``, ``lr`` and ``seed``; each
    epoch draws one permutation of ``range(n)`` from ``default_rng(seed)``.
    ``batch_loss(idx)`` returns the scalar loss Tensor of the rows ``idx``.
    ``end_epoch(entry)``, if given, adds fields to the epoch's log entry
    (``epoch`` and mean ``loss``) and returns True to stop after that epoch.
    Aborts with diagnostics on a non-finite loss.
    """
    batch_size = min(config.batch_size, n)
    rng = np.random.default_rng(config.seed)
    opt = Adam(model.parameters(), lr=config.lr)
    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        losses = []
        for start in range(0, n, batch_size):
            opt.zero_grad()
            loss = batch_loss(perm[start : start + batch_size])
            value = float(loss.data)
            if not np.isfinite(value):
                raise TrainingDivergedError(
                    f"non-finite loss {value} in epoch {epoch} "
                    f"(architecture={model.architecture}, lr={config.lr})")
            loss.backward()
            opt.step()
            losses.append(value)
        entry = {"epoch": epoch, "loss": float(np.mean(losses))}
        stop = end_epoch is not None and end_epoch(entry)
        model.training_log.append(entry)
        if stop:
            break
    return model


def save_model(model: Network, path: str | os.PathLike) -> None:
    """Versioned npz file: layer specs as JSON, arrays stored losslessly."""
    meta = {
        "format_version": 1,
        "architecture": model.architecture,
        "rng_seed": model.rng_seed,
        "layers": [layer.spec() for layer in model.layers],
        "training_log": model.training_log,
    }
    arrays = {}
    for i, layer in enumerate(model.layers):
        for name, arr in layer.state().items():
            arrays[f"layer{i}.{name}"] = arr
    meta_bytes = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez(path, __meta__=meta_bytes, **arrays)


def load_model(path: str | os.PathLike) -> Network:
    with np.load(path) as data:
        meta = json.loads(bytes(data["__meta__"]).decode("utf-8"))
        if meta.get("format_version") != 1:
            raise ValueError(f"unsupported model format {meta.get('format_version')!r}")
        layers = []
        for i, spec in enumerate(meta["layers"]):
            layer = layer_from_spec(spec)
            state = {}
            for name in layer.state():
                state[name] = data[f"layer{i}.{name}"]
            if state:
                layer.load_state(state)
            layers.append(layer)
    model = Network(layers, rng_seed=meta["rng_seed"], architecture=meta["architecture"])
    model.training_log = meta["training_log"]
    return model


def layer_from_spec(spec: dict) -> Layer:
    kind = spec["kind"]
    if kind not in _LAYER_KINDS:
        raise ValueError(f"unknown layer kind {kind!r}")
    kwargs = {k: v for k, v in spec.items() if k != "kind"}
    return _LAYER_KINDS[kind](**kwargs)
