"""Prediction-quality metrics."""

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
