"""Prediction-quality metrics."""

from dataclasses import dataclass

import numpy as np


def rmse(actual, predicted):
    """Root mean squared error between two equal-length value lists."""
    actual = np.asarray(actual, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    if actual.shape != predicted.shape or actual.ndim != 1:
        raise ValueError(f"length mismatch: {actual.shape} vs {predicted.shape}")
    if actual.size == 0:
        raise ValueError("empty inputs")
    return float(np.sqrt(np.mean((actual - predicted) ** 2)))


def accuracy(actual, predicted):
    """Fraction of positions where the two class lists agree."""
    actual = np.asarray(actual)
    predicted = np.asarray(predicted)
    if actual.shape != predicted.shape or actual.ndim != 1:
        raise ValueError(f"length mismatch: {actual.shape} vs {predicted.shape}")
    if actual.size == 0:
        raise ValueError("empty inputs")
    return float(np.mean(actual == predicted))


@dataclass
class MetricsReport:
    """One evaluation outcome; rmse for regression, accuracy for classes."""

    n: int
    rmse: float | None = None
    rmse_raw: float | None = None
    accuracy: float | None = None

    def to_dict(self):
        out = {"n": self.n}
        if self.rmse is not None:
            out["rmse"] = self.rmse
        if self.rmse_raw is not None:
            out["rmse_raw"] = self.rmse_raw
        if self.accuracy is not None:
            out["accuracy"] = self.accuracy
        return out
