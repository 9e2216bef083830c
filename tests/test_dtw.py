import numpy as np
import pytest

import tsadv.dtw as dtw_module
from tsadv.data import Dataset
from tsadv.dtw import (
    dtw_distance,
    dtw_pairwise,
    nn1_classify,
    soft_1nn,
)


def enumerate_paths_min_cost(q, c):
    """Oracle: minimum cumulative squared cost over all monotone warping paths.

    Recursively walks every path from (0, 0) to (n-1, m-1) built from the
    unit steps (1,0), (0,1), (1,1); independent of the DP implementation.
    """
    n, m = len(q), len(c)
    best = [np.inf]

    def walk(i, j, cost):
        cost += (q[i] - c[j]) ** 2
        if i == n - 1 and j == m - 1:
            best[0] = min(best[0], cost)
            return
        if i + 1 < n:
            walk(i + 1, j, cost)
        if j + 1 < m:
            walk(i, j + 1, cost)
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, cost)

    walk(0, 0, 0.0)
    return np.sqrt(best[0])


def row_by_row_distance(q, c, dtype=float):
    """Oracle: the row-by-row recurrence in scalars of ``dtype`` (plain
    Python floats by default, or np.float32).

    Row 0 is the running sum of costs along c; each later row i starts from
    the cell above and then takes cost + min(up, diagonal, left) left to
    right. The square root is taken once, of the final cell. Costs are
    d * d: Python's d ** 2 goes through pow(), which is not always
    correctly rounded.
    """
    def cost(a, b):
        d = dtype(a) - dtype(b)
        return d * d

    prev = []
    total = dtype(0.0)
    for cj in c:
        total += cost(q[0], cj)
        prev.append(total)
    for qi in q[1:]:
        cur = [prev[0] + cost(qi, c[0])]
        for j in range(1, len(c)):
            cur.append(cost(qi, c[j]) + min(prev[j], prev[j - 1], cur[j - 1]))
        prev = cur
    return np.sqrt(prev[-1])


def row_by_row_matrix(ev, ref, dtype=float):
    return np.array([[row_by_row_distance(q, c, dtype) for c in ref] for q in ev])


class TestDTWDistance:
    def test_identity_is_zero(self):
        assert dtw_distance([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_constant_offset_pair(self):
        assert dtw_distance([0.0, 0.0], [1.0, 1.0]) == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_warped_step(self):
        assert dtw_distance([1.0, 2.0, 3.0], [2.0, 2.0, 3.0]) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            q = rng.uniform(-2, 2, int(rng.integers(1, 8)))
            c = rng.uniform(-2, 2, int(rng.integers(1, 8)))
            assert dtw_distance(q, c) == pytest.approx(dtw_distance(c, q), abs=1e-12)

    def test_matches_path_enumeration_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            q = rng.uniform(-2, 2, int(rng.integers(1, 6)))
            c = rng.uniform(-2, 2, int(rng.integers(1, 6)))
            assert dtw_distance(q, c) == pytest.approx(enumerate_paths_min_cost(q, c), abs=1e-9)

    def test_bounded_by_euclidean(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 20))
            q = rng.uniform(-2, 2, n)
            c = rng.uniform(-2, 2, n)
            euclid = np.sqrt(((q - c) ** 2).sum())
            assert dtw_distance(q, c) <= euclid + 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            dtw_distance([], [1.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            dtw_distance([np.nan, 1.0], [1.0])


class TestDistanceMatrix:
    def test_zero_diagonal_when_eval_is_ref(self):
        rng = np.random.default_rng(2)
        ds = Dataset("m", rng.normal(size=(5, 6)), np.zeros(5), {0: 0})
        assert np.array_equal(np.diag(dtw_pairwise(ds.values, ds.values)), np.zeros(5))

    def test_single_pair(self):
        q, c = [1.0, 2.0], [2.0, 4.0]
        assert dtw_pairwise(np.array([q]), np.array([c]))[0, 0] == dtw_distance(q, c)

    def test_entries_match_scalar_calls(self):
        rng = np.random.default_rng(3)
        ev = rng.normal(size=(4, 7))
        ref = rng.normal(size=(3, 7))
        got = dtw_pairwise(ev, ref)
        for i in range(4):
            for j in range(3):
                assert got[i, j] == dtw_distance(ev[i], ref[j])

    def test_parallel_is_bitwise_identical(self):
        rng = np.random.default_rng(4)
        ev = rng.normal(size=(6, 9))
        ref = rng.normal(size=(5, 9))
        seq = dtw_pairwise(ev, ref, processes=None)
        par = dtw_pairwise(ev, ref, processes=2)
        assert np.array_equal(seq, par)

    @pytest.mark.parametrize("n, m, t, u", [
        (3, 4, 1, 1),      # T = 1
        (5, 6, 7, 1),      # U = 1
        (4, 5, 6, 9),      # T < U
        (4, 5, 11, 3),     # T > U
        (40, 67, 24, 24),  # several blocks of query rows
        (3, 1100, 6, 6),   # more references than one block's pairs: one query per block
    ])
    def test_bitwise_equal_to_row_by_row_oracle(self, n, m, t, u):
        rng = np.random.default_rng(n * 1000 + m + t + u)
        ev = rng.normal(size=(n, t))
        ref = rng.normal(size=(m, u))
        assert np.array_equal(dtw_pairwise(ev, ref), row_by_row_matrix(ev, ref))

    def test_duplicated_query_rows_bitwise_equal_to_oracle(self):
        rng = np.random.default_rng(5)
        ev = rng.normal(size=(30, 8))
        ev[[3, 17, 29]] = ev[11]
        ref = rng.normal(size=(67, 8))
        got = dtw_pairwise(ev, ref)
        assert np.array_equal(got, row_by_row_matrix(ev, ref))
        assert all(np.array_equal(got[i], got[11]) for i in (3, 17, 29))

    def test_block_rows_are_a_function_of_the_shapes(self):
        # bytes per block, not pairs: 15 float64 query rows (1005 pairs) at T = 24
        # against 67 references, as when blocks held 1024 pairs, and one row at
        # T = 512; float32 blocks hold twice the rows in the same bytes
        assert [dtw_module._block_rows(67, t, 8) for t in (24, 128, 512)] == [15, 2, 1]
        assert [dtw_module._block_rows(67, t, 4) for t in (24, 128, 512)] == [30, 5, 1]
        assert dtw_module._block_rows(1, 24, 8) == 1024
        assert dtw_module._block_rows(2000, 24, 8) == 1

    def test_long_series_matrix_unchanged_across_block_sizes(self, monkeypatch):
        rng = np.random.default_rng(7)
        ev = rng.normal(size=(7, 128))
        ref = rng.normal(size=(5, 128))
        whole = dtw_pairwise(ev, ref)
        for block_bytes in (1, 5 * 129 * 2 * 8, 5 * 129 * 3 * 8, 10**9):
            monkeypatch.setattr(dtw_module, "_BLOCK_BYTES", block_bytes)
            assert np.array_equal(dtw_pairwise(ev, ref), whole)
        assert whole[2, 3] == dtw_distance(ev[2], ref[3])

    def test_processes_bitwise_equal_to_oracle(self):
        rng = np.random.default_rng(6)
        ev = rng.normal(size=(40, 10))
        ref = rng.normal(size=(67, 10))
        assert np.array_equal(dtw_pairwise(ev, ref, processes=2), row_by_row_matrix(ev, ref))


class TestFloat32Matrix:
    @pytest.mark.parametrize("n, m, t, u", [
        (3, 4, 1, 1),
        (4, 5, 6, 9),
        (4, 5, 11, 3),
        (40, 67, 24, 24),  # several float32 blocks of query rows
    ])
    def test_bitwise_equal_to_float32_row_by_row_oracle(self, n, m, t, u):
        rng = np.random.default_rng(n * 1000 + m + t + u)
        ev = rng.normal(size=(n, t)).astype(np.float32)
        ref = rng.normal(size=(m, u)).astype(np.float32)
        got = dtw_pairwise(ev, ref)
        assert got.dtype == np.float32
        assert np.array_equal(got, row_by_row_matrix(ev, ref, np.float32))

    def test_unchanged_across_block_sizes_and_processes(self, monkeypatch):
        rng = np.random.default_rng(8)
        ev = rng.normal(size=(9, 64)).astype(np.float32)
        ref = rng.normal(size=(5, 64)).astype(np.float32)
        whole = dtw_pairwise(ev, ref)
        assert np.array_equal(dtw_pairwise(ev, ref, processes=2), whole)
        for block_bytes in (1, 5 * 65 * 2 * 4, 5 * 65 * 3 * 4, 10**9):
            monkeypatch.setattr(dtw_module, "_BLOCK_BYTES", block_bytes)
            assert np.array_equal(dtw_pairwise(ev, ref), whole)

    def test_float32_queries_against_float64_refs_stay_float64(self):
        # the adversarial series x_hat are float32; the references are float64
        rng = np.random.default_rng(9)
        ev = rng.normal(size=(6, 10)).astype(np.float32)
        ref = rng.normal(size=(7, 10))
        got = dtw_pairwise(ev, ref)
        assert got.dtype == np.float64
        assert np.array_equal(got, dtw_pairwise(ev.astype(np.float64), ref))
        assert np.array_equal(got, row_by_row_matrix(ev, ref))

    def test_float32_values_in_lists_stay_float64(self):
        ev = [[np.float32(0.1), np.float32(0.7)]]
        ref = np.array([[0.2, 0.3]], dtype=np.float32)
        assert dtw_pairwise(ev, ref).dtype == np.float64


class TestNN1:
    def test_argmin_label(self):
        assert nn1_classify(np.array([[3.0, 1.0, 2.0]]), np.array([0, 0, 1])).tolist() == [0]

    def test_tie_break_lowest_index(self):
        assert nn1_classify(np.array([[1.0, 1.0]]), np.array([0, 1])).tolist() == [0]

    def test_zero_distance_wins(self):
        assert nn1_classify(np.array([[0.0, 5.0]]), np.array([1, 0])).tolist() == [1]


class TestSoft1NN:
    def test_two_columns(self):
        probs, labels = soft_1nn(np.array([[0.0, 1.0]]), np.array([0, 1]))
        assert probs[0] == pytest.approx([0.7310585786300049, 0.2689414213699951], abs=1e-12)
        assert labels.tolist() == [0]

    def test_per_class_max_then_softmax(self):
        probs, labels = soft_1nn(np.array([[3.0, 1.0, 2.0]]), np.array([0, 0, 1]))
        # per-class maxima of -V are [-1, -2]
        assert probs[0] == pytest.approx([0.7310585786300049, 0.2689414213699951], abs=1e-12)
        assert labels.tolist() == [0]

    def test_tie_gives_half_half(self):
        probs, labels = soft_1nn(np.array([[1.0, 1.0]]), np.array([0, 1]))
        assert probs[0] == pytest.approx([0.5, 0.5], abs=1e-12)
        assert labels.tolist() == [0]

    def test_missing_class_rejected(self):
        with pytest.raises(ValueError, match=r"classes \[1\] absent"):
            soft_1nn(np.array([[1.0, 2.0]]), np.array([0, 2]))

    def test_equivalence_with_nn1_randomized(self):
        rng = np.random.default_rng(99)
        agreements = 0
        trials = 1000
        for _ in range(trials):
            n_test = int(rng.integers(1, 21))
            c = int(rng.integers(2, 6))
            n_train = int(rng.integers(c, 31))
            labels = np.concatenate([np.arange(c), rng.integers(0, c, n_train - c)])
            rng.shuffle(labels)
            values = rng.uniform(0.0, 10.0, size=(n_test, n_train))
            # enforce unique row minima
            for row in values:
                i = rng.integers(0, n_train)
                row[i] = -1.0 + rng.uniform(0, 0.5)
            distances = values - values.min() + 0.001
            probs, soft_labels = soft_1nn(distances, labels)
            assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9
            assert (probs >= 0).all()
            if np.array_equal(soft_labels, nn1_classify(distances, labels)):
                agreements += 1
        assert agreements == trials
