"""Ingestion and preprocessing: normalization, encoding, windowing, splits.

The traffic pipeline takes base-10 logs then min-max scales into [0, 1];
mobility location IDs are mapped through a codebook to 1..m and one-hot
encoded.  Windowing turns a series of n observations into exactly n - T
(window, next value) pairs; the windows are a read-only strided view of
the series, so no window is copied, and splits are a single chronological
cut.
"""

import csv
import sys
import warnings
from dataclasses import dataclass
from datetime import datetime

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .checkpoint import checked_array, read_container, write_container
from .errors import (CheckpointError, DataFormatError, EncodingError,
                     InsufficientDataError)

TRAFFIC_HEADER = ["timestamp", "kbps"]
MOBILITY_HEADER = ["datetime", "latitude", "longitude", "location_id"]


@dataclass
class TimeSeries:
    """Ordered observations: float traffic values or integer location IDs."""

    timestamps: np.ndarray  # datetime64[s], strictly increasing
    values: np.ndarray


@dataclass(frozen=True)
class NormalizationParams:
    min_log: float
    max_log: float

    def __post_init__(self):
        if not self.max_log > self.min_log:
            raise ValueError("max_log must exceed min_log")


@dataclass
class LocationCodebook:
    """Bijection between raw location IDs and the contiguous range 1..m."""

    id_to_index: dict
    index_to_id: list

    @property
    def size(self):
        return len(self.index_to_id)


@dataclass
class WindowedDataset:
    """Stacked (window, next value) samples.

    ``inputs`` is (N, T, F), a read-only view of the series it windows,
    and ``targets`` is an array of its own.
    """

    inputs: np.ndarray
    targets: np.ndarray
    window: int
    classes: int | None = None  # m for classification datasets

    def __len__(self):
        return self.inputs.shape[0]


def log_minmax_normalize(values):
    """log10 then min-max scale to [0, 1]; returns (scaled, params)."""
    values = np.asarray(values, dtype=np.float64)
    if np.any(values <= 0.0):
        raise ValueError("all values must be positive for the log transform")
    logs = np.log10(values)
    lo, hi = float(logs.min()), float(logs.max())
    if hi == lo:
        raise ValueError("degenerate range: series is constant")
    params = NormalizationParams(lo, hi)
    return (logs - lo) / (hi - lo), params


def denormalize(v, params):
    """Invert ``log_minmax_normalize`` back to the raw scale."""
    v = np.asarray(v, dtype=np.float64)
    return 10.0 ** (v * (params.max_log - params.min_log) + params.min_log)


def build_codebook(ids):
    """Codebook over IDs in first-appearance order (training data only)."""
    seen = {}
    for raw in np.asarray(ids).tolist():
        if raw not in seen:
            seen[raw] = len(seen) + 1
    return LocationCodebook(seen, list(seen))


def _window_view(feats, window):
    """The n - T windows of an (n, F) series as a read-only (n - T, T, F)
    view; the last window, which has no next element, is left out."""
    if not window >= 1:
        raise ValueError("window length must be >= 1")
    n = feats.shape[0]
    if n <= window:
        raise InsufficientDataError(
            f"need more than {window} observations, got {n}")
    return sliding_window_view(feats[:-1], window, axis=0).swapaxes(1, 2)


def sliding_window(series, window):
    """All (T-length history, next element) pairs from a sequence.

    ``series`` is (n,) or (n, F); returns a WindowedDataset with exactly
    n - T samples where sample k covers elements k..k+T-1 and its target is
    element k+T.  The inputs are a read-only view of the series.
    """
    series = np.asarray(series, dtype=np.float64)
    feats = series[:, None] if series.ndim == 1 else series
    return WindowedDataset(_window_view(feats, window), series[window:].copy(), window)


def chronological_split(ds, train_fraction):
    """Single cut: first floor(f*N) samples train, the rest test."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    n = len(ds)
    cut = int(np.floor(train_fraction * n))
    if cut == 0 or cut == n:
        raise InsufficientDataError(
            f"split at fraction {train_fraction} leaves an empty side (N={n})")
    train = WindowedDataset(ds.inputs[:cut], ds.targets[:cut], ds.window, ds.classes)
    test = WindowedDataset(ds.inputs[cut:], ds.targets[cut:], ds.window, ds.classes)
    return train, test


def _parse_timestamp(text, path, line_no):
    try:
        stamp = datetime.fromisoformat(text.strip().replace("Z", "+00:00"))
    except ValueError:
        raise DataFormatError(f"{path}:{line_no}: bad timestamp {text!r}") from None
    if stamp.tzinfo is not None:
        stamp = stamp.replace(tzinfo=None)
    return np.datetime64(stamp, "s")


def _read_series(path, header, parse, label, dtype):
    """TimeSeries of a CSV's first column as timestamps and its last column
    read by ``parse``; every error names the file and the line."""
    stamps, values = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != header:
            raise DataFormatError(f"{path}:1: expected header {header}")
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header) or not row[-1].strip():
                raise DataFormatError(f"{path}:{line_no}: malformed row {row!r}")
            stamps.append(_parse_timestamp(row[0], path, line_no))
            try:
                values.append(parse(row[-1]))
            except ValueError:
                raise DataFormatError(
                    f"{path}:{line_no}: bad {label} {row[-1]!r}") from None
    stamps = np.array(stamps, dtype="datetime64[s]")
    values = np.array(values, dtype=dtype)
    order = np.argsort(stamps, kind="stable")
    if not np.array_equal(order, np.arange(len(stamps))):
        warnings.warn(f"{path}: timestamps out of order, sorting")
        stamps, values = stamps[order], values[order]
    if len(stamps) > 1 and np.any(stamps[1:] == stamps[:-1]):
        raise DataFormatError(f"{path}: duplicate timestamps")
    return TimeSeries(stamps, values)


def load_traffic_csv(path):
    """Read ``timestamp,kbps`` rows into a traffic TimeSeries."""
    return _read_series(path, TRAFFIC_HEADER, float, "value", np.float64)


def load_mobility_csv(path):
    """Read ``datetime,latitude,longitude,location_id`` rows; keeps only the
    datetime and location ID columns."""
    return _read_series(path, MOBILITY_HEADER, int, "location ID", np.int64)


@dataclass
class PreparedData:
    """Preprocessing output cached between commands.

    ``features`` is the normalized value series (regression) or the 1-based
    class-index series (classification); windows are rebuilt from it for
    any requested length.
    """

    task: str  # "regression" | "classification"
    features: np.ndarray
    norm: NormalizationParams | None = None
    codebook: LocationCodebook | None = None

    @property
    def feature_dim(self):
        """Features per timestep of the windows, which is also the width of
        a model's output: 1 for regression, the codebook size for classes."""
        return 1 if self.task == "regression" else self.codebook.size

    def windows(self, window):
        if self.task == "regression":
            return sliding_window(self.features, window)
        classes = self.features.astype(np.int64)
        encoded = np.eye(self.codebook.size)[classes - 1]
        return WindowedDataset(_window_view(encoded, window), classes[window:],
                               window, self.codebook.size)


def prepare_traffic(series, normalize_scope="full", train_fraction=0.9):
    """Normalize a traffic series; ``train`` scope fits the min/max on the
    chronological training prefix only (leakage-free mode)."""
    values = np.asarray(series.values, dtype=np.float64)
    if normalize_scope == "train":
        cut = int(np.floor(train_fraction * len(values)))
        _, params = log_minmax_normalize(values[: max(cut, 2)])
        logs = np.log10(values)
        scaled = (logs - params.min_log) / (params.max_log - params.min_log)
    elif normalize_scope == "full":
        scaled, params = log_minmax_normalize(values)
    else:
        raise ValueError(f"unknown normalize_scope: {normalize_scope!r}")
    return PreparedData("regression", scaled, norm=params)


def prepare_mobility(series, window, train_fraction=0.9):
    """Build the codebook on the training prefix, then index the series.

    The prefix covers every observation a training window or target can
    touch; an unseen ID later in the series raises EncodingError.
    """
    ids = np.asarray(series.values)
    n = len(ids)
    if n <= window:
        raise InsufficientDataError(f"need more than {window} observations, got {n}")
    n_train = int(np.floor(train_fraction * (n - window)))
    book = build_codebook(ids[: n_train + window])
    indexed = np.empty(n, dtype=np.int64)
    for j, raw in enumerate(ids.tolist()):
        idx = book.id_to_index.get(raw)
        if idx is None:
            raise EncodingError(
                f"location ID {raw!r} appears only in the test range")
        indexed[j] = idx
    return PreparedData("classification", indexed, codebook=book)


def save_prepared(prepared, path):
    """Cache container: the prepared series, its task, normalization and
    codebook.  Windows are rebuilt from it at whatever length a run asks."""
    meta = {
        "task": prepared.task,
        "norm": None if prepared.norm is None else
                {"min_log": prepared.norm.min_log, "max_log": prepared.norm.max_log},
        "codebook": None if prepared.codebook is None else prepared.codebook.index_to_id,
    }
    data = write_container("dataset", meta, {"features": prepared.features})
    with open(path, "wb") as fh:
        fh.write(data)
    return path


def _finite_number(value):
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def load_prepared(path):
    """Inverse of ``save_prepared``; returns the PreparedData.

    Raises CheckpointError when the cache lacks a key, its metadata is not
    a JSON object, its task is unknown, its ``norm`` is not two finite
    numbers with ``max_log > min_log``, its ``features`` are not a vector
    of ``<f8`` values (regression, finite) or ``<i8`` classes, or a
    classification cache has no codebook or classes outside 1..codebook
    size, or its codebook is not a list of unique integers.  Caches that
    also hold windows (``inputs``, ``targets``, ``window``, ``classes``)
    load; those keys are ignored.
    """
    with open(path, "rb") as fh:
        meta, arrays = read_container(fh.read(), expect_kind="dataset")
    try:
        task, norm, codebook = meta["task"], meta["norm"], meta["codebook"]
        if norm is not None:
            lo, hi = norm["min_log"], norm["max_log"]
            if not (_finite_number(lo) and _finite_number(hi) and hi > lo):
                raise CheckpointError(f"dataset cache norm {norm!r} is not two finite "
                                      "numbers with max_log > min_log")
            norm = NormalizationParams(lo, hi)
        book = None
        if codebook is not None:
            if type(codebook) is not list \
                    or any(type(raw) is not int for raw in codebook) \
                    or len(set(codebook)) != len(codebook):
                raise CheckpointError(f"dataset cache codebook {codebook!r:.80} is not "
                                      "a list of unique integer location IDs")
            book = LocationCodebook({raw: j + 1 for j, raw in enumerate(codebook)},
                                    codebook)
    except KeyError as err:
        raise CheckpointError(f"dataset cache lacks {err}") from None
    except TypeError as err:  # meta or its norm entry is not a JSON object
        raise CheckpointError(f"malformed dataset cache metadata: {err}") from None
    if task not in ("regression", "classification"):
        raise CheckpointError(f"dataset cache has unknown task {task!r}")
    if task == "classification" and book is None:
        raise CheckpointError("classification dataset cache has no codebook")
    features = checked_array(arrays, "features",
                             "<f8" if task == "regression" else "<i8", (None,))
    if task == "classification" and features.size \
            and not 1 <= features.min() <= features.max() <= book.size:
        raise CheckpointError(f"dataset cache holds classes outside 1..{book.size}")
    return PreparedData(task, features, norm=norm, codebook=book)
