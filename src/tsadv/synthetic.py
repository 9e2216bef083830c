"""Deterministic synthetic datasets for demos and the acceptance suite."""

from __future__ import annotations

import numpy as np

from .data import Dataset


def make_bump_dataset(
    n_per_class: int = 32,
    length: int = 32,
    noise: float = 0.1,
    seed: int = 0,
    name: str = "bumps",
) -> Dataset:
    """Two-class toy set: a half-sine bump (class 0) and its negation (class 1)."""
    rng = np.random.default_rng(seed)
    labels = np.repeat([0, 1], n_per_class)
    signs = np.where(labels == 0, 1.0, -1.0)[:, None]
    values = signs * np.sin(np.linspace(0.0, np.pi, length)) + rng.normal(
        0.0, noise, size=(labels.shape[0], length))
    return Dataset(name, values, labels, {0: 0, 1: 1})


def make_power_profile_rows(n_rows: int, length: int = 24, seed: int = 0) -> list[str]:
    """Rows of a daily power-demand style two-class file with raw labels {1, 2}.

    Class 1 has a single broad midday peak, class 2 a morning and an evening
    peak. Each row is z-normalized, matching how archive data usually ships.
    Returned as tab-separated text rows ready for writing.
    """
    rng = np.random.default_rng(seed)
    h = np.arange(length) / length * 24.0
    rows = []
    for i in range(n_rows):
        label = 1 + (i % 2)
        if label == 1:
            v = np.exp(-0.5 * ((h - 13.0) / 3.5) ** 2)
        else:
            v = np.exp(-0.5 * ((h - 8.0) / 1.8) ** 2) + 0.9 * np.exp(-0.5 * ((h - 19.0) / 2.0) ** 2)
        v = v * rng.uniform(0.8, 1.2) + rng.normal(0.0, 0.08, size=length)
        v = (v - v.mean()) / v.std()
        rows.append("\t".join([str(label)] + [repr(float(x)) for x in v]))
    return rows


def write_power_profile_archive(train_path, test_path, n_train: int = 67, n_test: int = 1029,
                                length: int = 24, seed: int = 7) -> None:
    """Write a small UCR-layout train/test pair (defaults sized like ItalyPowerDemand)."""
    with open(train_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(make_power_profile_rows(n_train, length, seed)) + "\n")
    with open(test_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(make_power_profile_rows(n_test, length, seed + 1)) + "\n")
