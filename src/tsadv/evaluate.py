"""Adversary counting, generalization to the unseen split, and the paired
Wilcoxon signed-rank comparison used to compare attack variants.

An adversarial sample counts under the labeled criterion only if the teacher
classifies the clean series correctly AND changes its answer on the crafted
one; the unlabeled criterion drops the first check by treating the teacher's
clean prediction as ground truth.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .reports import AttackReport
from .util import rankdata_average


def _build_report(x: np.ndarray, x_hat: np.ndarray, adversaries: np.ndarray, *, criterion: str,
                  dataset: str = "", box_mode: str = "", teacher_kind: str = "",
                  beta: float = 0.0, split: str = "d_eval") -> AttackReport:
    """The report on x_hat [N, T] crafted from x, counting the rows ``adversaries`` marks."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    x_hat = np.atleast_2d(np.asarray(x_hat, dtype=np.float64))
    if x.shape[0] == 0:
        raise ValueError("no samples to evaluate")
    if x.shape != x_hat.shape:
        raise ValueError(f"shapes differ: {x.shape} vs {x_hat.shape}")
    mse = ((x_hat - x) ** 2).mean(axis=1)
    count = int(adversaries.sum())
    return AttackReport(
        dataset=dataset, box_mode=box_mode, teacher_kind=teacher_kind, beta=beta,
        num_adversaries=count, mse_adversaries=float(mse[adversaries].mean()) if count else None,
        mse_all=float(mse.mean()), split=split, criterion=criterion, n_evaluated=int(mse.shape[0]))


def count_adversaries_labeled(x: np.ndarray, x_hat: np.ndarray, y_true: np.ndarray,
                              pred_clean: np.ndarray, pred_adv: np.ndarray,
                              **meta) -> AttackReport:
    """Two-fold verification: clean prediction correct AND flipped by x_hat.

    ``pred_clean`` and ``pred_adv`` are the teacher's labels for each row of
    ``x`` and ``x_hat``; ``meta`` fills the report's dataset, box_mode,
    teacher_kind, beta and split.
    """
    y_true, pred_clean = np.asarray(y_true, dtype=np.int64), np.asarray(pred_clean)
    mask = (pred_clean == y_true) & (np.asarray(pred_adv) != pred_clean)
    return _build_report(x, x_hat, mask, criterion="labeled", **meta)


def count_adversaries_unlabeled(x: np.ndarray, x_hat: np.ndarray, pred_clean: np.ndarray,
                                pred_adv: np.ndarray, **meta) -> AttackReport:
    """Clean predictions are pseudo-labels; any flip counts.

    Arguments are as in :func:`count_adversaries_labeled`.
    """
    mask = np.asarray(pred_adv) != np.asarray(pred_clean)
    return _build_report(x, x_hat, mask, criterion="unlabeled", **meta)


def count_adversaries(criterion: str, x: np.ndarray, x_hat: np.ndarray, y_true: np.ndarray,
                      pred_clean: np.ndarray, pred_adv: np.ndarray, config, dataset: str,
                      split: str) -> AttackReport:
    """:func:`count_adversaries_labeled` or :func:`count_adversaries_unlabeled`, by
    ``criterion``; the report takes its box mode, teacher kind and beta from ``config``."""
    meta = dict(dataset=dataset, box_mode=config.box_mode, teacher_kind=config.teacher_kind,
                beta=config.beta, split=split)
    if criterion == "labeled":
        return count_adversaries_labeled(x, x_hat, y_true, pred_clean, pred_adv, **meta)
    if criterion == "unlabeled":
        return count_adversaries_unlabeled(x, x_hat, pred_clean, pred_adv, **meta)
    raise ValueError(f"unknown criterion {criterion!r}")


def generalization_eval(run, teacher, d_test: Dataset, criterion: str,
                        signal: tuple[np.ndarray, np.ndarray, np.ndarray],
                        pred_clean: np.ndarray) -> AttackReport:
    """Counting on the unseen split with zero parameter updates.

    ``signal`` is ``attack.surrogate_signal`` of ``d_test`` and ``pred_clean``
    the teacher's labels of it (``attack.clean_labels``), so that every
    generator evaluated on the split shares one of each; the teacher's labels
    of the crafted series are queried here. Generator and surrogate state are
    hashed before and after; any drift is an error, since generation must be
    a pure forward pass.
    """
    from .attack import generate

    before = (run.gatn.state_hash(), run.surrogate.state_hash())
    x = d_test.values
    x_hat = generate(run, x, signal)
    report = count_adversaries(criterion, x, x_hat, d_test.labels, pred_clean,
                               teacher.predict_labels(x_hat), run.config, d_test.name, "d_test")
    after = (run.gatn.state_hash(), run.surrogate.state_hash())
    if before != after:
        raise RuntimeError("model parameters changed during test-split evaluation")
    return report


@dataclass(frozen=True)
class WilcoxonResult:
    statistic: float  # min(W+, W-)
    p_value: float
    n_effective: int
    method: str  # exact | normal | degenerate
    degenerate: bool = False

    def __iter__(self):
        return iter((self.statistic, self.p_value))


def wilcoxon_signed_rank(a: np.ndarray, b: np.ndarray,
                         alternative: str = "two-sided") -> WilcoxonResult:
    """Paired Wilcoxon signed-rank test, two-sided by default.

    NaN differences are refused, never ranked; zero differences are dropped
    and tied ranks averaged. With n <= 25
    effective pairs the p-value comes from the exact sign-flip distribution
    of the rank sum (a subset-sum count over doubled ranks, so averaged tie
    ranks stay exact); larger n uses the normal approximation with tie
    correction and a continuity correction. All differences zero returns the
    degenerate (0, 1.0) result with a warning. ``alternative`` "greater"
    ("less") tests whether a tends to exceed (fall below) b.
    """
    if alternative not in ("two-sided", "greater", "less"):
        raise ValueError(f"unknown alternative {alternative!r}")
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("inputs must be 1-D arrays of equal length")
    if a.shape[0] == 0:
        raise ValueError("no paired values")
    diff = a - b
    if np.isnan(diff).any():
        raise ValueError("undefined (NaN) differences cannot be ranked; drop their pairs first")
    diff = diff[diff != 0.0]
    n = diff.shape[0]
    if n == 0:
        warnings.warn("all paired differences are zero; test is degenerate", stacklevel=2)
        return WilcoxonResult(statistic=0.0, p_value=1.0, n_effective=0,
                              method="degenerate", degenerate=True)
    if n < 5:
        raise ValueError(f"need >= 5 nonzero differences, got {n}")
    ranks = rankdata_average(np.abs(diff))
    w_plus = float(ranks[diff > 0].sum())
    w_minus = float(ranks.sum()) - w_plus
    statistic = min(w_plus, w_minus)
    if n <= 25:
        p_le, p_ge = _exact_tails(ranks, w_plus)
        method = "exact"
    else:
        p_le, p_ge = _normal_tails(diff, ranks, w_plus)
        method = "normal"
    if alternative == "greater":
        p = p_ge
    elif alternative == "less":
        p = p_le
    else:
        p = 2.0 * min(p_le, p_ge)
    return WilcoxonResult(statistic=statistic, p_value=min(1.0, p), n_effective=n, method=method)


def _exact_tails(ranks: np.ndarray, w_plus: float) -> tuple[float, float]:
    """Exact P(W+ <= w) and P(W+ >= w) over all 2^n sign assignments.

    Doubling the ranks makes every value integral; counts[s] is the number of
    sign assignments whose doubled rank sum is s, built by the usual
    subset-sum recurrence.
    """
    doubled = np.rint(2 * ranks).astype(np.int64)
    total = int(doubled.sum())
    counts = np.zeros(total + 1, dtype=np.int64)
    counts[0] = 1
    for r in doubled:
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[: counts.shape[0] - r]
        counts = counts + shifted
    w2 = int(round(2 * w_plus))
    denom = float(2 ** ranks.shape[0])
    return counts[: w2 + 1].sum() / denom, counts[w2:].sum() / denom


def _normal_tails(diff: np.ndarray, ranks: np.ndarray, w_plus: float) -> tuple[float, float]:
    n = diff.shape[0]
    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    _, tie_counts = np.unique(np.abs(diff), return_counts=True)
    var -= (tie_counts**3 - tie_counts).sum() / 48.0
    if var <= 0:
        return 1.0, 1.0
    sd = math.sqrt(var)

    def phi(z):
        return 0.5 * math.erfc(-z / math.sqrt(2.0))

    # continuity correction: each tail includes its boundary point
    p_le = phi((w_plus - mean + 0.5) / sd)
    p_ge = 1.0 - phi((w_plus - mean - 0.5) / sd)
    return min(1.0, p_le), min(1.0, p_ge)


def pairwise_wilcoxon(values_by_variant: dict[str, np.ndarray | list[float]]) -> list[dict]:
    """Upper-triangle pairwise comparisons across attack variants.

    A pair drops the datasets where either value is NaN (undefined, such as
    the MSE of a variant that found no adversary) and records how many in
    ``n_dropped``. Each entry carries the pair, the statistic and p-value, or
    a note when the test is not applicable (fewer than 5 nonzero differences).
    """
    names = list(values_by_variant)
    rows = []
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            a, b = names[i], names[j]
            x, y = (np.asarray(values_by_variant[v], dtype=np.float64) for v in (a, b))
            entry = {"a": a, "b": b, "n_dropped": None}
            try:
                if x.shape != y.shape or x.ndim != 1:
                    raise ValueError("inputs must be 1-D arrays of equal length")
                defined = ~(np.isnan(x) | np.isnan(y))
                entry["n_dropped"] = int(x.shape[0] - defined.sum())
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    result = wilcoxon_signed_rank(x[defined], y[defined])
                entry.update(statistic=result.statistic, p_value=result.p_value,
                             n_effective=result.n_effective, method=result.method)
            except ValueError as exc:
                entry.update(statistic=None, p_value=None, n_effective=None,
                             method=f"skipped: {exc}")
            rows.append(entry)
    return rows
