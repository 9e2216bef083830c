"""Uniform prediction interface over the two attacked model families.

Both teachers expose hard labels and a probability distribution, and count
their own calls so tests can prove which information an attack consumed.
The DTW teacher keeps no distances between queries. Its probabilities come
from the float64 distance matrix; its hard labels from a float32 filter that
recomputes in float64 only the references it cannot rule out, which gives the
labels of the float64 matrix.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset
from .dtw import dtw_pairwise, nn1_classify, nn1_distances, soft_1nn
from .models import as_conv_input
from .nn import Network, predict
from .util import readonly, softmax_np


class Teacher:
    kind = "?"

    def __init__(self):
        self.calls = {"predict_labels": 0, "predict_proba": 0}

    @property
    def num_classes(self) -> int:
        raise NotImplementedError

    def predict_labels(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class FCNTeacher(Teacher):
    kind = "fcn"

    def __init__(self, model: Network):
        super().__init__()
        self.model = model

    @property
    def num_classes(self) -> int:
        return self.model.layers[-1].units

    @property
    def input_dtype(self):
        return self.model.parameters()[0].dtype

    def predict_labels(self, x):
        return self.labels_from_logits(self._predict(x)[0])

    def labels_from_logits(self, logits: np.ndarray) -> np.ndarray:
        """The labels of the series whose inference-mode logits these are.

        Counts as one ``predict_labels`` query: a caller that already ran the
        model on its ``input_dtype`` input asks the teacher this way.
        """
        self.calls["predict_labels"] += 1
        return np.argmax(softmax_np(logits, axis=1), axis=1)

    def predict_proba(self, x):
        self.calls["predict_proba"] += 1
        return self._predict(x)[1]

    def _predict(self, x):
        return predict(self.model, as_conv_input(x, self.input_dtype))


class DTW1NNTeacher(Teacher):
    kind = "dtw1nn"

    def __init__(self, ref_values: np.ndarray, ref_labels: np.ndarray):
        super().__init__()
        self.ref_values = readonly(ref_values, np.float64)
        self.ref_labels = readonly(ref_labels, np.int64)
        if self.ref_values.ndim != 2 or self.ref_labels.shape[0] != self.ref_values.shape[0]:
            raise ValueError("reference values must be [M, T] with one label per row")

    @classmethod
    def from_dataset(cls, dataset: Dataset) -> "DTW1NNTeacher":
        return cls(dataset.values, dataset.labels)

    @property
    def num_classes(self) -> int:
        return int(self.ref_labels.max()) + 1

    def distance_matrix(self, x: np.ndarray) -> np.ndarray:
        return dtw_pairwise(np.atleast_2d(x), self.ref_values)

    def predict_labels(self, x):
        self.calls["predict_labels"] += 1
        return nn1_classify(nn1_distances(np.atleast_2d(x), self.ref_values), self.ref_labels)

    def predict_proba(self, x):
        self.calls["predict_proba"] += 1
        probs, _ = soft_1nn(self.distance_matrix(x), self.ref_labels)
        return probs
