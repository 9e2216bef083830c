"""Dynamic time warping distance, distance matrices, 1-NN classification and
the soft probabilistic 1-NN equivalent.

The distance between series Q (length n) and C (length m) is the square root
of the minimal cumulative squared pointwise difference over all monotone
contiguous warping paths from cell (1,1) to (n,m), with an unconstrained
(100%) warping window.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass

import numpy as np

from .data import TimeSeries
from .util import readonly, softmax_np


@dataclass(frozen=True)
class DistanceMatrix:
    """Pairwise distances of an evaluation set (rows) vs a reference set (columns)."""

    values: np.ndarray
    train_labels: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        labels = np.asarray(self.train_labels, dtype=np.int64)
        if v.ndim != 2:
            raise ValueError("distance matrix must be 2-D")
        if labels.ndim != 1 or labels.shape[0] != v.shape[1]:
            raise ValueError("train_labels length must match the number of columns")
        if not np.isfinite(v).all() or (v < 0).any():
            raise ValueError("distances must be finite and nonnegative")
        object.__setattr__(self, "values", readonly(v))
        object.__setattr__(self, "train_labels", readonly(labels))

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


def _as_values(series) -> np.ndarray:
    v = series.values if isinstance(series, TimeSeries) else np.asarray(series, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] == 0:
        raise ValueError("series must be a nonempty 1-D array")
    if not np.isfinite(v).all():
        raise ValueError("series contains non-finite values")
    return v.astype(np.float64, copy=False)


def dtw_distance(q, c) -> float:
    """DTW distance between two series (full warping window).

    Dynamic program over the cumulative cost matrix with O(m) rolling rows;
    the square root is applied once to the total minimal cost.
    """
    qv = _as_values(q)
    cv = _as_values(c)
    row = _dtw_final_row(qv, cv[None, :])
    return float(np.sqrt(row[0]))


def _dtw_final_row(q: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """Minimal cumulative squared cost of q against each row of refs [M, m]."""
    n = q.shape[0]
    m = refs.shape[1]
    prev = np.cumsum((q[0] - refs) ** 2, axis=1)
    cur = np.empty_like(prev)
    for i in range(1, n):
        cost = (q[i] - refs) ** 2
        cur[:, 0] = prev[:, 0] + cost[:, 0]
        for j in range(1, m):
            best = np.minimum(np.minimum(prev[:, j], prev[:, j - 1]), cur[:, j - 1])
            cur[:, j] = cost[:, j] + best
        prev, cur = cur, prev
    return prev[:, m - 1]


_WORKER_DATA: dict = {}


def _matrix_row_worker(i: int) -> np.ndarray:
    eval_values, ref_values = _WORKER_DATA["eval"], _WORKER_DATA["ref"]
    return np.sqrt(_dtw_final_row(eval_values[i], ref_values))


def dtw_pairwise(eval_values: np.ndarray, ref_values: np.ndarray,
                 processes: int | None = None) -> np.ndarray:
    """All-pairs DTW distances; entry (i, j) equals dtw_distance(eval_i, ref_j).

    Rows may be fanned out across worker processes; each cell is computed by
    the same scalar recurrence regardless of placement, so parallel and
    sequential runs produce bitwise-identical matrices.
    """
    eval_values = np.asarray(eval_values, dtype=np.float64)
    ref_values = np.asarray(ref_values, dtype=np.float64)
    if eval_values.ndim != 2 or ref_values.ndim != 2:
        raise ValueError("expected [N, T] matrices of equal-length series")
    if eval_values.shape[0] == 0 or ref_values.shape[0] == 0:
        raise ValueError("both sets must be nonempty")
    for mat, which in ((eval_values, "eval set"), (ref_values, "ref set")):
        if not np.isfinite(mat).all():
            raise ValueError(f"{which} contains non-finite values; run preprocess first")
    if processes is not None and processes > 1:
        ctx = multiprocessing.get_context("fork")
        _WORKER_DATA["eval"], _WORKER_DATA["ref"] = eval_values, ref_values
        try:
            with ctx.Pool(processes) as pool:
                rows = pool.map(_matrix_row_worker, range(eval_values.shape[0]))
        finally:
            _WORKER_DATA.clear()
        return np.stack(rows)
    return np.stack([np.sqrt(_dtw_final_row(q, ref_values)) for q in eval_values])


def nn1_classify(v: DistanceMatrix) -> np.ndarray:
    """Per row, the train label of the minimum-distance column (ties: lowest index)."""
    return v.train_labels[np.argmin(v.values, axis=1)]


def soft_1nn(v: DistanceMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Probabilistic equivalent of 1-NN on a distance matrix.

    Negate the distances, take the per-class column-wise maximum to build an
    [N, C] score matrix, softmax each row, argmax for the labels. The argmax
    matches :func:`nn1_classify` whenever the row minimum is unique.
    """
    labels = v.train_labels
    num_classes = int(labels.max()) + 1
    present = np.unique(labels)
    if not np.array_equal(present, np.arange(num_classes)):
        missing = sorted(set(range(num_classes)) - set(present.tolist()))
        raise ValueError(f"classes {missing} absent from train_labels")
    neg = -v.values
    scores = np.stack([neg[:, labels == c].max(axis=1) for c in range(num_classes)], axis=1)
    probs = softmax_np(scores, temperature=1.0, axis=1)
    return probs, np.argmax(probs, axis=1)

