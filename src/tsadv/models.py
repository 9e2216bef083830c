"""Builders for the three fixed architectures and classifier training.

* fcn: 3 x [conv(same) -> batchnorm -> relu] with 128/256/128 filters and
  kernels 8/5/3, global average pooling, dense head.
* lenet5: conv(6, k5, valid) -> pool2 -> conv(16, k5, valid) -> pool2 ->
  flatten -> dense 120 -> dense 84 -> dense head (1-D reading of the classic
  5x5 image kernels; pooling 2/2).
* gatn: dense hidden stack -> dense(T, linear) over the [B, 2T] rows
  [x, input-gradient], emitting the adversarial series directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .nn import (
    BatchNorm1d,
    Conv1d,
    Dense,
    Flatten,
    GlobalAvgPool1d,
    MaxPool1d,
    Network,
    ReLU,
    cross_entropy,
    fit,
    predict,
)
from . import autodiff as ad
from .autodiff import Tensor
from .util import one_hot

FCN_FILTERS = (128, 256, 128)
FCN_KERNELS = (8, 5, 3)

# lenet5 valid-padding shape arithmetic: L -> L-4 -> //2 -> -4 -> //2; every
# stage must stay >= 1, which pins the minimum input length to 16.
LENET5_MIN_LENGTH = 16


@dataclass(frozen=True)
class ArchitectureConfig:
    input_length: int
    num_classes: int
    architecture: str  # fcn | lenet5 | gatn
    gatn_hidden_units: tuple[int, ...] = (128, 128)
    seed: int = 0
    dtype: type = np.float32

    def __post_init__(self):
        if self.architecture not in ("fcn", "lenet5", "gatn"):
            raise ValueError(f"unknown architecture {self.architecture!r}")
        if self.input_length < 1:
            raise ValueError("input_length must be >= 1")
        if self.architecture in ("fcn", "lenet5") and self.num_classes < 2:
            raise ValueError("classifiers need num_classes >= 2")
        if self.architecture == "lenet5":
            lenet5_feature_length(self.input_length)


def build_fcn(config: ArchitectureConfig) -> Network:
    rng = np.random.default_rng(config.seed)
    layers = []
    in_channels = 1
    for filters, kernel in zip(FCN_FILTERS, FCN_KERNELS):
        layers.append(Conv1d(in_channels, filters, kernel, padding="same",
                             rng=rng, dtype=config.dtype))
        layers.append(BatchNorm1d(filters, dtype=config.dtype))
        layers.append(ReLU())
        in_channels = filters
    layers.append(GlobalAvgPool1d())
    layers.append(Dense(in_channels, config.num_classes, rng=rng, dtype=config.dtype))
    return Network(layers, rng_seed=config.seed, architecture="fcn")


def lenet5_feature_length(input_length: int) -> int:
    """Flattened feature count before the dense stack; raises on too-short input."""
    if input_length < LENET5_MIN_LENGTH:
        raise ValueError(
            f"lenet5 needs input_length >= {LENET5_MIN_LENGTH}, got {input_length} "
            "(two conv(k=5, valid) + floor-pool(2) stages must keep length >= 1)")
    length = input_length - 4
    length //= 2
    length -= 4
    length //= 2
    return 16 * length


def build_lenet5_1d(config: ArchitectureConfig) -> Network:
    features = lenet5_feature_length(config.input_length)
    rng = np.random.default_rng(config.seed)
    layers = [
        Conv1d(1, 6, 5, padding="valid", rng=rng, dtype=config.dtype),
        MaxPool1d(2),
        Conv1d(6, 16, 5, padding="valid", rng=rng, dtype=config.dtype),
        MaxPool1d(2),
        Flatten(),
        Dense(features, 120, rng=rng, dtype=config.dtype),
        ReLU(),
        Dense(120, 84, rng=rng, dtype=config.dtype),
        ReLU(),
        Dense(84, config.num_classes, rng=rng, dtype=config.dtype),
    ]
    return Network(layers, rng_seed=config.seed, architecture="lenet5")


def build_gatn(config: ArchitectureConfig) -> Network:
    if not config.gatn_hidden_units:
        raise ValueError("gatn needs at least one hidden layer")
    rng = np.random.default_rng(config.seed)
    layers = []
    in_features = 2 * config.input_length
    for units in config.gatn_hidden_units:
        layers.append(Dense(in_features, units, rng=rng, dtype=config.dtype))
        layers.append(ReLU())
        in_features = units
    layers.append(Dense(in_features, config.input_length, rng=rng, dtype=config.dtype))
    return Network(layers, rng_seed=config.seed, architecture="gatn")


@dataclass
class TrainConfig:
    epochs: int = 200
    batch_size: int = 128
    lr: float = 1e-3
    seed: int = 0
    early_stop_acc: float | None = None

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")


def as_conv_input(x: np.ndarray, dtype=np.float32) -> np.ndarray:
    """[N, T] series matrix as the [N, 1, T] tensor the conv stacks expect."""
    x = np.asarray(x, dtype=dtype)
    if x.ndim == 1:
        x = x[None, :]
    return x[:, None, :]


def train_classifier(model: Network, dataset: Dataset, hyper: TrainConfig) -> Network:
    """Minimize cross-entropy against one-hot labels; logs the loss per epoch
    and the training accuracy where it is read: after every epoch under
    ``early_stop_acc``, otherwise after the last epoch only."""
    dtype = model.parameters()[0].dtype
    x_all = as_conv_input(dataset.values, dtype=dtype)
    y_all = one_hot(dataset.labels, dataset.num_classes, dtype=dtype)
    early_stop = hyper.early_stop_acc is not None

    def batch_loss(idx):
        logits = model.forward(Tensor(x_all[idx]), training=True)
        return cross_entropy(y_all[idx], ad.softmax(logits, axis=1))

    def end_epoch(entry):
        if not early_stop and entry["epoch"] < hyper.epochs - 1:
            return False
        _, probs = predict(model, x_all)
        entry["accuracy"] = float((np.argmax(probs, axis=1) == dataset.labels).mean())
        return early_stop and entry["accuracy"] >= hyper.early_stop_acc

    return fit(model, x_all.shape[0], batch_loss, hyper, end_epoch)
