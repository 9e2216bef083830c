"""Small numeric helpers shared across modules."""

from __future__ import annotations

import hashlib

import numpy as np


def softmax_np(z: np.ndarray, temperature: float = 1.0, axis: int = -1) -> np.ndarray:
    """Max-subtracted softmax of ``z / temperature`` along ``axis``."""
    if temperature <= 0:
        raise ValueError(f"temperature must be > 0, got {temperature}")
    scaled = np.asarray(z, dtype=np.float64) / temperature
    scaled = scaled - scaled.max(axis=axis, keepdims=True)
    e = np.exp(scaled)
    return e / e.sum(axis=axis, keepdims=True)


def one_hot(labels: np.ndarray, num_classes: int, dtype=np.float64) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("label outside [0, num_classes)")
    out = np.zeros((labels.shape[0], num_classes), dtype=dtype)
    out[np.arange(labels.shape[0]), labels] = 1
    return out


def rankdata_average(x: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties assigned the average of their rank span."""
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.shape[0], dtype=np.float64)
    i = 0
    while i < x.shape[0]:
        j = i
        while j + 1 < x.shape[0] and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def readonly(arr, dtype=None) -> np.ndarray:
    """Return a copy, as ``dtype`` if given, with the writeable flag cleared."""
    out = np.array(arr, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


def array_state_hash(arrays) -> str:
    """SHA-256 over the raw bytes of an iterable of arrays (order matters)."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()
