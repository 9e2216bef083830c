"""Dynamic time warping distance, distance matrices, 1-NN classification and
the soft probabilistic 1-NN equivalent.

The distance between series Q (length n) and C (length m) is the square root
of the minimal cumulative squared pointwise difference over all monotone
contiguous warping paths from cell (1,1) to (n,m), with an unconstrained
(100%) warping window.

Distances come from one anti-diagonal wavefront vectorized over blocks of
(query, reference) pairs, bitwise identical to the row-by-row recurrence;
matrices fanned out over worker processes are bitwise identical too.
"""

from __future__ import annotations

import functools

import numpy as np

from .util import softmax_np


def _as_values(series) -> np.ndarray:
    v = np.asarray(series, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] == 0:
        raise ValueError("series must be a nonempty 1-D array")
    if not np.isfinite(v).all():
        raise ValueError("series contains non-finite values")
    return v


def dtw_distance(q, c) -> float:
    """DTW distance between two series (full warping window)."""
    return float(_dtw_block(_as_values(q)[None, :], _as_values(c)[None, :])[0, 0])


# Query rows are swept in blocks whose (T+1) x pairs wavefront buffers hold
# about this many cells: 1024 pairs at T = 24, which beat 512, 2048 and 4096
# on 1029 x 67 x 24 (2-vCPU VM). At T = 512 one row per block (67 pairs) took
# 0.85 s against 1.41 s for 1024 pairs on 16 x 67 (same VM, best of 3).
_BLOCK_CELLS = 1024 * 25


def _block_rows(num_refs: int, length: int) -> int:
    """Query rows per wavefront block of length-``length`` queries against ``num_refs`` refs."""
    return max(1, _BLOCK_CELLS // (num_refs * (length + 1)))


def _dtw_block(queries: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """DTW distances [n, m] of queries [n, T] against refs [m, U].

    Sweeps the anti-diagonals k = i + j of the cumulative cost matrix for all
    n*m pairs at once (the last two, contiguous axes): cell (i, j) gets
    cost(i, j) + min(up, diagonal, left). Row -1 and column -1 are +inf with
    a single 0 at the (-1, -1) corner, so the first row and column add one
    cost per cell, as a running sum does. The min is exact, so each cell is
    bitwise what the row-by-row recurrence computes. The square root is
    taken once, of the total minimal cost.
    """
    t, u = queries.shape[1], refs.shape[1]
    q = queries.T[:, :, None]
    # reversed columns, so the cells of one diagonal read a forward slice
    r = np.ascontiguousarray(refs.T[::-1])[:, None, :]
    shape = (t + 1, queries.shape[0], refs.shape[0])
    # diagonals k-2, k-1 and k, indexed by row i + 1
    older, old, cur = (np.full(shape, np.inf) for _ in range(3))
    older[0] = 0.0
    best_buf, cost_buf = np.empty(shape), np.empty(shape)
    for k in range(t + u - 1):
        lo, hi = max(0, k - u + 1), min(t - 1, k)
        cells = hi + 1 - lo
        best = np.minimum(old[lo:hi + 1], older[lo:hi + 1], out=best_buf[:cells])  # up, diagonal
        np.minimum(best, old[lo + 1:hi + 2], out=best)  # left
        cost = np.subtract(q[lo:hi + 1], r[u - 1 - k + lo:u - k + hi], out=cost_buf[:cells])
        np.square(cost, out=cost)
        np.add(cost, best, out=cur[lo + 1:hi + 2])
        if k == 0:
            older[0] = np.inf  # the corner feeds cell (0, 0) only
        older, old, cur = old, cur, older
    return np.sqrt(old[t])


def dtw_pairwise(eval_values: np.ndarray, ref_values: np.ndarray,
                 processes: int | None = None) -> np.ndarray:
    """All-pairs DTW distances; entry (i, j) equals dtw_distance(eval_i, ref_j).

    Contiguous blocks of query rows go through one wavefront each, in this
    process or, with ``processes`` > 1, mapped over a pool of worker
    processes. A pair's distance does not depend on which block holds it, so
    parallel and sequential runs produce bitwise-identical matrices.
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
    rows = _block_rows(ref_values.shape[0], eval_values.shape[1])
    blocks = [eval_values[s:s + rows] for s in range(0, eval_values.shape[0], rows)]
    if processes is not None and processes > 1:
        import multiprocessing

        with multiprocessing.get_context("fork").Pool(processes) as pool:
            parts = pool.map(functools.partial(_dtw_block, refs=ref_values), blocks)
    else:
        parts = [_dtw_block(block, ref_values) for block in blocks]
    return np.concatenate(parts)


def nn1_classify(distances: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per row of distances [N, M], the label of the nearest reference (ties: lowest index)."""
    return labels[np.argmin(distances, axis=1)]


def soft_1nn(distances: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Probabilistic equivalent of 1-NN on distances [N, M] to references labeled [M].

    Negate the distances, take the per-class column-wise maximum to build an
    [N, C] score matrix, softmax each row, argmax for the labels. The argmax
    matches :func:`nn1_classify` whenever the row minimum is unique.
    """
    num_classes = int(labels.max()) + 1
    present = np.unique(labels)
    if not np.array_equal(present, np.arange(num_classes)):
        missing = sorted(set(range(num_classes)) - set(present.tolist()))
        raise ValueError(f"classes {missing} absent from the reference labels")
    neg = -distances
    scores = np.stack([neg[:, labels == c].max(axis=1) for c in range(num_classes)], axis=1)
    probs = softmax_np(scores, axis=1)
    return probs, np.argmax(probs, axis=1)

