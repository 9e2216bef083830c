"""Targeted adversarial generation against a frozen differentiable surrogate.

The generator receives the original series and the gradient of the
surrogate's target-class probability with respect to it, and emits the
adversarial series directly. Its loss trades reconstruction fidelity
(weight beta) against matching a reranked version of the surrogate's clean
prediction in which the target class is boosted to alpha times the current
maximum and the row renormalized.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import BETA_GRID, attacks_teacher
from .data import Dataset
from .models import ArchitectureConfig, as_conv_input, build_gatn
from .nn import Network, fit, input_gradient_with_probs, l2
from .teachers import FCNTeacher


@dataclass(frozen=True)
class AttackConfig:
    box_mode: str  # white | black
    teacher_kind: str  # fcn | dtw1nn
    alpha: float = 1.5
    beta: float = 1e-2
    target_class: int = 1
    seed: int = 0
    epochs: int = 100
    batch_size: int = 128
    lr: float = 1e-3

    def __post_init__(self):
        if self.box_mode not in ("white", "black"):
            raise ValueError(f"unknown box_mode {self.box_mode!r}")
        if self.teacher_kind not in ("fcn", "dtw1nn"):
            raise ValueError(f"unknown teacher_kind {self.teacher_kind!r}")
        if self.alpha <= 1.0:
            raise ValueError(f"alpha must be > 1 for the reranking argmax guarantee, got {self.alpha}")
        if self.beta <= 0.0:
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if self.target_class < 0:
            raise ValueError("target_class must be >= 0")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")


@dataclass
class AttackRun:
    """One trained attack: configuration, frozen surrogate and generator."""

    config: AttackConfig
    surrogate: Network
    gatn: Network

    def __post_init__(self):
        self.surrogate.set_requires_grad(False)


def select_surrogate(config: AttackConfig, teacher, student: Network | None) -> Network:
    """The network the generator differentiates through: the teacher's own for a
    white-box attack on the fcn teacher (:func:`attacks_teacher`), else ``student``."""
    if attacks_teacher(config.box_mode, config.teacher_kind):
        if getattr(teacher, "model", None) is None:
            raise ValueError("white-box fcn attack needs the teacher network")
        return teacher.model
    if student is None:
        raise ValueError(f"({config.box_mode}, {config.teacher_kind}) attack needs a "
                         f"distilled student")
    return student


def rerank(y: np.ndarray, target_class: int, alpha: float) -> np.ndarray:
    """Boost the target class to alpha * max(y), keep the rest, renormalize.

    For alpha > 1 the boosted entry strictly dominates every other, so the
    argmax of the result is always the target class.
    """
    if alpha <= 1.0:
        raise ValueError(f"alpha must be > 1, got {alpha}")
    y = np.asarray(y, dtype=np.float64)
    out = np.atleast_2d(y).copy()
    if not 0 <= target_class < out.shape[1]:
        raise ValueError(f"target_class {target_class} out of range for {out.shape[1]} classes")
    out[:, target_class] = alpha * out.max(axis=1)
    out /= out.sum(axis=1, keepdims=True)
    return out.reshape(y.shape)


def gatn_loss(x: np.ndarray, x_hat: Tensor, y_clean: np.ndarray, y_adv: Tensor,
              config: AttackConfig):
    """beta * MSE(x_hat, x) + MSE(y_adv, rerank(y_clean)).

    ``x`` and ``y_clean`` are constants; gradients flow through ``x_hat`` and
    ``y_adv`` into the generator. Returns a scalar Tensor.
    """
    target = rerank(y_clean, config.target_class, config.alpha)
    return config.beta * l2(x_hat, x) + l2(y_adv, target)


def make_attack_run(config: AttackConfig, input_length: int, surrogate: Network) -> AttackRun:
    """Build an untrained generator wired to ``surrogate`` (see :func:`select_surrogate`)."""
    gatn = build_gatn(ArchitectureConfig(input_length=input_length, num_classes=2,
                                         architecture="gatn", seed=config.seed))
    return AttackRun(config, surrogate, gatn)


def surrogate_signal(surrogate: Network, x: np.ndarray, target_class: int,
                     dtype=np.float32) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The generator's gradient input and the clean prediction for each series.

    Returns (x_tilde, y_clean, logits): the gradient of the frozen surrogate's
    target-class probability with respect to each series of ``x`` [N, T],
    cast to ``dtype``, the dtype the surrogate was fed; the surrogate's class
    probabilities [N, C]; and the logits [N, C] they came from. The surrogate
    runs in inference mode, so each row depends on its own series only and
    one pass serves every generator trained or run on ``x``.
    """
    grad3, y_clean, logits = input_gradient_with_probs(surrogate, as_conv_input(x, dtype),
                                                       target_class)
    return grad3[:, 0, :].astype(dtype), y_clean, logits


def clean_labels(teacher, surrogate: Network, x: np.ndarray,
                 signal: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    """The teacher's labels of ``x``, given ``signal``, its ``surrogate_signal``.

    When the surrogate is the FCN teacher's own network and was fed the
    teacher's input dtype, the surrogate pass was the teacher's forward pass,
    and its logits give the labels by the teacher's own rule with no second
    pass; otherwise the teacher is queried.
    """
    if (isinstance(teacher, FCNTeacher) and teacher.model is surrogate
            and signal[0].dtype == teacher.input_dtype):
        return teacher.labels_from_logits(signal[2])
    return teacher.predict_labels(x)


def generate(run: AttackRun, x: np.ndarray,
             signal: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    """Craft adversarial series for the rows of ``x`` [N, T]; no parameters change.

    The generator maps each series joined with the surrogate's input gradient,
    one [x, x_tilde] row, to the adversarial series x_hat. ``signal`` is
    ``surrogate_signal`` of ``x``.
    """
    joined = np.concatenate([x.astype(run.gatn.parameters()[0].dtype), signal[0]], axis=1)
    return run.gatn.forward(Tensor(joined), training=False).data


def train_gatn(run: AttackRun, x: np.ndarray,
               signal: tuple[np.ndarray, np.ndarray, np.ndarray]) -> AttackRun:
    """Minimize the mean generator loss over the evaluation split's series ``x`` [N, T].

    The surrogate is frozen: its input gradients and clean predictions
    (``signal``, ``surrogate_signal`` of ``x``) are taken once and indexed per
    batch, its parameters are asserted bitwise unchanged afterwards, and only
    ground-truth-free quantities (series values, surrogate predictions) are
    consumed.
    """
    config = run.config
    x_all = x.astype(run.gatn.parameters()[0].dtype)
    surrogate_before = run.surrogate.state_hash()
    x_tilde_all, y_clean_all, _ = signal
    joined = np.concatenate([x_all, x_tilde_all], axis=1)

    def batch_loss(idx):
        x_hat = run.gatn.forward(Tensor(joined[idx]), training=True)
        y_adv = ad.softmax(run.surrogate.forward(
            ad.reshape(x_hat, (len(idx), 1, -1)), training=False), axis=1)
        return gatn_loss(x_all[idx], x_hat, y_clean_all[idx], y_adv, config)

    fit(run.gatn, x_all.shape[0], batch_loss, config)
    if run.surrogate.state_hash() != surrogate_before:
        raise RuntimeError("surrogate parameters changed during generator training")
    return run


def beta_grid_search(base_config: AttackConfig, d_eval: Dataset, teacher, surrogate: Network,
                     betas: tuple[float, ...] = BETA_GRID, pred_clean: np.ndarray | None = None):
    """Train one generator per beta against ``surrogate``, score each on the real
    teacher, pick the best.

    ``pred_clean`` is the teacher's label for each d_eval series, taken by
    :func:`clean_labels` when not given. Returns (runs, reports, best_index,
    outputs); best means most labeled-criterion adversaries on d_eval, ties
    broken by smaller adversary MSE, then by smaller beta. ``outputs`` holds what the teacher was
    shown: "clean_labels" [N], each beta's "x_hat" [n_betas, N, T] in the
    generator's dtype, and the teacher's labels of those, "adv_labels"
    [n_betas, N]; any count on d_eval can be made again from them.
    """
    from .evaluate import count_adversaries

    runs = []
    reports = []
    x_hats = []
    adv_labels = []
    x = d_eval.values
    signal = None
    for beta in betas:
        config = replace(base_config, beta=beta)
        run = make_attack_run(config, x.shape[1], surrogate)
        if signal is None:
            signal = surrogate_signal(run.surrogate, x, config.target_class,
                                      run.gatn.parameters()[0].dtype)
            if pred_clean is None:
                pred_clean = clean_labels(teacher, run.surrogate, x, signal)
        train_gatn(run, x, signal)
        x_hat = generate(run, x, signal)
        pred_adv = teacher.predict_labels(x_hat)
        report = count_adversaries("labeled", x, x_hat, d_eval.labels, pred_clean, pred_adv,
                                   config, d_eval.name, "d_eval")
        runs.append(run)
        reports.append(report)
        x_hats.append(x_hat)
        adv_labels.append(pred_adv)
    best = min(range(len(betas)), key=lambda i: (
        -reports[i].num_adversaries,
        reports[i].mse_adversaries if reports[i].mse_adversaries is not None else np.inf,
        betas[i],
    ))
    outputs = {"clean_labels": pred_clean, "x_hat": np.stack(x_hats),
               "adv_labels": np.stack(adv_labels)}
    return runs, reports, best, outputs
