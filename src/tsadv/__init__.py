"""Adversarial attacks on time series classifiers.

Pipeline: train a teacher classifier (1-NN DTW or a fully convolutional
network), optionally distill it into a student network, train a
gradient-augmented adversarial transformation network against the
differentiable surrogate, and evaluate adversary counts and perturbation
MSE on the original teacher.
"""

__version__ = "0.1.0"
