"""Adversarial attacks on time series classifiers.

Pipeline: train a teacher classifier (1-NN DTW or a fully convolutional
network), optionally distill it into a student network, train a
gradient-augmented adversarial transformation network against the
differentiable surrogate, and evaluate adversary counts and perturbation
MSE on the original teacher.
"""

from .attack import AttackConfig, AttackRun, beta_grid_search, generate, rerank, train_gatn
from .data import Dataset, TimeSeries, load_ucr, preprocess, remap_labels, stratified_split
from .distill import DistillConfig, TeacherOutputs, teacher_outputs, train_student
from .dtw import DistanceMatrix, dtw_distance, dtw_pairwise, nn1_classify, soft_1nn
from .evaluate import (
    AttackReport,
    count_adversaries_labeled,
    count_adversaries_unlabeled,
    generalization_eval,
    wilcoxon_signed_rank,
)
from .models import ArchitectureConfig, TrainConfig, build_fcn, build_gatn, build_lenet5_1d, train_classifier
from .nn import Network, load_model, predict, save_model
from .teachers import DTW1NNTeacher, FCNTeacher

__version__ = "0.1.0"

__all__ = [
    "AttackConfig", "AttackRun", "beta_grid_search", "generate", "rerank", "train_gatn",
    "Dataset", "TimeSeries", "load_ucr", "preprocess", "remap_labels", "stratified_split",
    "DistillConfig", "TeacherOutputs", "teacher_outputs", "train_student",
    "DistanceMatrix", "dtw_distance", "dtw_pairwise", "nn1_classify", "soft_1nn",
    "AttackReport", "count_adversaries_labeled", "count_adversaries_unlabeled",
    "generalization_eval", "wilcoxon_signed_rank",
    "ArchitectureConfig", "TrainConfig", "build_fcn", "build_gatn", "build_lenet5_1d",
    "train_classifier",
    "Network", "load_model", "predict", "save_model",
    "DTW1NNTeacher", "FCNTeacher",
]
