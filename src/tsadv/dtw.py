"""Dynamic time warping distance, distance matrices, 1-NN classification and
the soft probabilistic 1-NN equivalent.

The distance between series Q (length n) and C (length m) is the square root
of the minimal cumulative squared pointwise difference over all monotone
contiguous warping paths from cell (1,1) to (n,m), with an unconstrained
(100%) warping window.

Distances come from one anti-diagonal wavefront vectorized over blocks of
(query, reference) pairs, bitwise identical to the row-by-row recurrence;
matrices fanned out over worker processes are bitwise identical too. The
wavefront runs in float32 when both sets are float32 arrays and in float64
otherwise. A hard-label 1-NN query filters in float32 and recomputes in
float64 only the references a proven error bound cannot rule out, so it
picks the reference the float64 matrix picks.
"""

from __future__ import annotations

import functools
import math

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


# Query rows are swept in blocks whose (T+1) x pairs wavefront buffers take
# about this many bytes: 1024 float64 pairs at T = 24, which beat 512, 2048 and
# 4096 on 1029 x 67 x 24 (2-vCPU VM). At T = 512 one row per block (67 pairs)
# took 0.85 s against 1.41 s for 1024 pairs on 16 x 67 (same VM, best of 3).
# A float32 block holds twice the rows in the same memory.
_BLOCK_BYTES = 1024 * 25 * 8


def _block_rows(num_refs: int, length: int, itemsize: int) -> int:
    """Query rows per wavefront block of length-``length`` queries against ``num_refs`` refs."""
    return max(1, _BLOCK_BYTES // (itemsize * num_refs * (length + 1)))


def _row_blocks(queries: np.ndarray, num_refs: int) -> list[np.ndarray]:
    rows = _block_rows(num_refs, queries.shape[1], queries.itemsize)
    return [queries[s:s + rows] for s in range(0, queries.shape[0], rows)]


def _dtw_block(queries: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """DTW distances [n, m] of queries [n, T] against refs [m, U].

    Sweeps the anti-diagonals k = i + j of the cumulative cost matrix for all
    n*m pairs at once (the last two, contiguous axes): cell (i, j) gets
    cost(i, j) + min(up, diagonal, left). Row -1 and column -1 are +inf with
    a single 0 at the (-1, -1) corner, so the first row and column add one
    cost per cell, as a running sum does. The min is exact, so each cell is
    bitwise what the row-by-row recurrence computes in the same dtype. The
    square root is taken once, of the total minimal cost.
    """
    t, u = queries.shape[1], refs.shape[1]
    q = queries.T[:, :, None]
    # reversed columns, so the cells of one diagonal read a forward slice
    r = np.ascontiguousarray(refs.T[::-1])[:, None, :]
    shape, dtype = (t + 1, queries.shape[0], refs.shape[0]), queries.dtype
    # diagonals k-2, k-1 and k, indexed by row i + 1
    older, old, cur = (np.full(shape, np.inf, dtype) for _ in range(3))
    older[0] = 0.0
    best_buf, cost_buf = np.empty(shape, dtype), np.empty(shape, dtype)
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

    The matrix is float32, computed in float32, when both sets are float32
    arrays; otherwise both are cast to float64 and it is float64. Contiguous
    blocks of query rows go through one wavefront each, in this process or,
    with ``processes`` > 1, mapped over a pool of worker processes. A pair's
    distance does not depend on which block holds it, so parallel and
    sequential runs produce bitwise-identical matrices.
    """
    float32 = all(isinstance(v, np.ndarray) and v.dtype == np.float32
                  for v in (eval_values, ref_values))
    dtype = np.float32 if float32 else np.float64
    eval_values = np.asarray(eval_values, dtype=dtype)
    ref_values = np.asarray(ref_values, dtype=dtype)
    if eval_values.ndim != 2 or ref_values.ndim != 2:
        raise ValueError("expected [N, T] matrices of equal-length series")
    if eval_values.shape[0] == 0 or ref_values.shape[0] == 0:
        raise ValueError("both sets must be nonempty")
    for mat, which in ((eval_values, "eval set"), (ref_values, "ref set")):
        if not np.isfinite(mat).all():
            raise ValueError(f"{which} contains non-finite values; run preprocess first")
    blocks = _row_blocks(eval_values, ref_values.shape[0])
    if processes is not None and processes > 1:
        import multiprocessing

        with multiprocessing.get_context("fork").Pool(processes) as pool:
            parts = pool.map(functools.partial(_dtw_block, refs=ref_values), blocks)
    else:
        parts = [_dtw_block(block, ref_values) for block in blocks]
    return np.concatenate(parts)


_U32 = 2.0 ** -24  # unit roundoff of float32


def nn1_distances(eval_values: np.ndarray, ref_values: np.ndarray) -> np.ndarray:
    """A float64 [N, M] matrix on which :func:`nn1_classify` picks, per row,
    the reference it picks on ``dtw_pairwise(eval_values, ref_values)``.

    One float32 ``dtw_pairwise`` pass gives D32. Each row keeps as candidates
    the references with D32 <= (1 + 3 rho) m + 3 s + 4 a, where m is the row's
    float32 minimum; every other entry is +inf. A lone candidate keeps its
    D32; the candidates of the other rows are recomputed by the float64
    wavefront, each bitwise its ``dtw_pairwise`` value.

    The band. Let L = T + U - 1, the longest warping path, u = 2**-24 and
    rho = gamma_{L+3} = (L+3) u / (1 - (L+3) u). Along one path P the
    distance is the Euclidean norm of (q_i - r_j) over P's cells. Rounding
    the inputs to float32 moves each entry by at most u (max|q| + max|r|) +
    2**-149 (subnormals), so it moves the norm, and the minimum over paths,
    by at most s = sqrt(L) (u (max|q_row| + max|r|) + 2**-149). Given the
    float32 inputs, each cost is (q - r)**2 (1 + theta), |theta| <= gamma_3,
    plus at most 2**-150 of underflow; the wavefront's value is a recursive
    sum of at most L nonnegative costs along one path and, rounding being
    monotone, no more than such a sum along any other, so it lies within
    gamma_{L-1} (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., eq. 4.4) of the least exact sum. With the final square root,
    |D32 - E| <= rho E + a, E the exact DTW of the float32 inputs and
    a = sqrt(L) 2**-74. The float64 values obey the same bound with
    u = 2**-53. Chaining these from the float64 argmin j through the exact
    distances to the float32 argmin k gives D32_j <= (1 + 2.03 rho) (m + a)
    + 2.03 s + 2 a for rho <= 0.01; the constants 3 and 4 cover that and
    the rounding of the band itself. So every reference at the float64
    minimum, ties included, is a candidate.

    When float32 could overflow (L (max|q| + max|r|)**2 >= 2**127), when
    (L+3) u > 0.005 (so rho may exceed 0.01), or for non-finite input, this
    returns ``dtw_pairwise``'s float64 matrix, or its error.
    """
    queries = np.asarray(eval_values, dtype=np.float64)
    refs = np.asarray(ref_values, dtype=np.float64)
    length = queries.shape[-1] + refs.shape[-1] - 1
    query_max = np.abs(queries).max(axis=-1, initial=0.0)
    ref_max = np.abs(refs).max(initial=0.0)
    if not (1 <= length and (length + 3) * _U32 <= 0.005
            and query_max.max(initial=0.0) + ref_max < math.sqrt(2.0 ** 127 / length)):
        return dtw_pairwise(queries, refs)
    rho = (length + 3) * _U32 / (1 - (length + 3) * _U32)
    approx = dtw_pairwise(queries.astype(np.float32), refs.astype(np.float32))
    lowest = approx.min(axis=1).astype(np.float64)
    s = math.sqrt(length) * (_U32 * (query_max + ref_max) + 2.0 ** -149)
    band = (1 + 3 * rho) * lowest + 3 * s + 4 * math.sqrt(length) * 2.0 ** -74
    candidates = approx <= band[:, None]
    out = np.where(candidates, approx.astype(np.float64), np.inf)
    rows = np.flatnonzero(candidates.sum(axis=1) > 1)
    if rows.size:
        cols = np.flatnonzero(candidates[rows].any(axis=0))
        exact = np.concatenate([_dtw_block(block, refs[cols])
                                for block in _row_blocks(queries[rows], cols.size)])
        refined = np.ix_(rows, cols)
        out[refined] = np.where(candidates[refined], exact, np.inf)
    return out


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

