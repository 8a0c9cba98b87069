"""Ingestion and preprocessing: normalization, encoding, windowing, splits.

The traffic pipeline takes base-10 logs then min-max scales into [0, 1];
mobility location IDs are mapped through a codebook to 1..m and one-hot
encoded.  Windowing turns a series of n observations into exactly n - T
(window, next value) pairs; the windows are a read-only strided view of
the series, so no window is copied.

One rule, ``cut``, cuts a series: of its n - T windows of length T, the
first floor(f * (n - T)) train and the rest test.  It refuses n <= T,
as the windows do, and a cut that leaves either side empty.
``chronological_split`` cuts by it, and so do the fits that may see only
the training data (the min/max of ``train`` normalize scope and every
codebook): they see the first floor(f * (n - T)) + T observations, every
one that a training window or target touches.  Counting a cut builds no
window.

The CSV loaders read UTF-8 (a leading byte-order mark is skipped) and
keep each timestamp as wall-clock seconds since 1970: a UTC offset is
dropped, not applied, and sub-seconds are truncated.  Every byte, field
or value they cannot read is a ``DataFormatError`` naming its
``path:line``.

``PreparedData`` states what a usable prepared series is, once: every
source of one (``prepare_traffic``, ``prepare_mobility``, a synthetic
generator's output, ``load_prepared``) constructs it, so each is held to
the same rules, and breaking one raises ``DataFormatError``.
"""

import csv
import math
import sys
import warnings
from dataclasses import dataclass
from datetime import date, datetime

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .checkpoint import checked_array, read_container, write_container
from .errors import (CheckpointError, DataFormatError, EncodingError,
                     InsufficientDataError, ShapeError)
from .network import TASKS

TRAFFIC_HEADER = ["timestamp", "kbps"]
MOBILITY_HEADER = ["datetime", "latitude", "longitude", "location_id"]


@dataclass
class TimeSeries:
    """Ordered observations: float traffic values or integer location IDs."""

    timestamps: np.ndarray  # datetime64[s], strictly increasing
    values: np.ndarray


def _finite_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and abs(value) <= sys.float_info.max


@dataclass(frozen=True)
class NormalizationParams:
    """The log10 range a series is min-max scaled by; DataFormatError
    unless both ends are finite numbers and ``max_log > min_log``."""

    min_log: float
    max_log: float

    def __post_init__(self):
        lo, hi = self.min_log, self.max_log
        if not (_finite_number(lo) and _finite_number(hi) and hi > lo):
            raise DataFormatError(f"norm ({lo!r}, {hi!r}) is not two finite numbers "
                                  "with max_log > min_log")


@dataclass
class LocationCodebook:
    """Bijection between raw location IDs and the contiguous range 1..m.

    ``index_to_id`` holds the IDs in index order: ID ``index_to_id[j]`` has
    the index j + 1.  DataFormatError unless the IDs are a list of unique
    integers, the rule a codebook must keep to be saved and loaded."""

    index_to_id: list

    def __post_init__(self):
        ids = self.index_to_id
        if type(ids) is not list or any(type(raw) is not int for raw in ids) \
                or len(set(ids)) != len(ids):
            raise DataFormatError(f"codebook {ids!r:.80} is not a list of unique "
                                  "integer location IDs")

    @property
    def size(self):
        return len(self.index_to_id)


@dataclass
class WindowedDataset:
    """Stacked (window, next value) samples.

    ``inputs`` is (N, T, F), a read-only view of the series it windows,
    and ``targets`` is an array of its own, (N,): one value or class per
    window.  Any other shapes raise ShapeError, so ``fit``,
    ``baselines.ffnn_train`` and ``evaluate_model`` all take only those.
    """

    inputs: np.ndarray
    targets: np.ndarray
    window: int
    classes: int | None = None  # m for classification datasets

    def __post_init__(self):
        inputs, targets = np.shape(self.inputs), np.shape(self.targets)
        if len(inputs) != 3 or targets != inputs[:1]:
            raise ShapeError(f"expected (N, T, F) inputs and (N,) targets, got {inputs} "
                             f"and {targets}")

    def __len__(self):
        return self.inputs.shape[0]


def log_minmax_normalize(values, fit_count=None):
    """log10 then min-max scale; returns (scaled, params).

    The min and max are those of the first ``fit_count`` logs (all of them
    by default), so values past that prefix may land outside [0, 1].
    """
    values = np.asarray(values, dtype=np.float64)
    if np.any(values <= 0.0):
        raise ValueError("all values must be positive for the log transform")
    logs = np.log10(values)
    fitted = logs[:fit_count]
    params = NormalizationParams(float(fitted.min()), float(fitted.max()))
    return (logs - params.min_log) / (params.max_log - params.min_log), params


def denormalize(v, params):
    """Invert ``log_minmax_normalize`` back to the raw scale."""
    v = np.asarray(v, dtype=np.float64)
    return 10.0 ** (v * (params.max_log - params.min_log) + params.min_log)


def build_codebook(ids):
    """Codebook over IDs in first-appearance order (training data only)."""
    return LocationCodebook(list(dict.fromkeys(np.asarray(ids).tolist())))


def _window_count(n, window):
    """How many windows of length T an n-long series holds, each with a
    next observation as its target: n - T.  ValueError unless T >= 1,
    InsufficientDataError unless n > T."""
    if window is None or not window >= 1:
        raise ValueError("window length must be >= 1")
    if n <= window:
        raise InsufficientDataError(f"need more than {window} observations, got {n}")
    return n - window


def cut(n, window, train_fraction):
    """The cut rule: how many of the n - T windows of length T of an
    n-long series train and how many test, as (train, test).  The first
    floor(f * (n - T)) train.  ValueError unless T >= 1 and 0 < f < 1;
    InsufficientDataError when n <= T or a side would be empty."""
    count = _window_count(n, window)
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    train = int(np.floor(train_fraction * count))
    if train == 0 or train == count:
        raise InsufficientDataError(
            f"split at fraction {train_fraction} leaves an empty side (N={count})")
    return train, count - train


def _window_view(feats, window):
    """The n - T windows of an (n, F) series as a read-only (n - T, T, F)
    view; the last window, which has no next element, is left out."""
    _window_count(feats.shape[0], window)
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
    """Single cut of N windows, as ``cut`` counts it for the N + T
    observations they were made from: the first floor(f*N) train, the
    rest test."""
    at, _ = cut(len(ds) + ds.window, ds.window, train_fraction)
    return (WindowedDataset(ds.inputs[:at], ds.targets[:at], ds.window, ds.classes),
            WindowedDataset(ds.inputs[at:], ds.targets[at:], ds.window, ds.classes))


_EPOCH_DAY = date(1970, 1, 1).toordinal()


def _parse_timestamp(text, path, line_no):
    """Wall-clock seconds since 1970 as an int: the UTC offset is dropped,
    not applied, and sub-seconds are truncated, which is how
    ``np.datetime64(stamp.replace(tzinfo=None), "s")`` counts them."""
    try:
        stamp = datetime.fromisoformat(text.strip().replace("Z", "+00:00"))
    except ValueError:
        raise DataFormatError(f"{path}:{line_no}: bad timestamp {text!r}") from None
    return (stamp.toordinal() - _EPOCH_DAY) * 86400 + stamp.hour * 3600 \
        + stamp.minute * 60 + stamp.second


def _undecodable_line(path):
    """The line of a file's first byte that is not UTF-8."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as err:
        return raw.count(b"\n", 0, err.start) + 1
    return 1


def _read_series(path, header, parse, label, expected, dtype):
    """TimeSeries of a CSV's first column as timestamps and its last column
    read by ``parse``, which raises ValueError on a value that is not
    ``expected``; every error names the file and the line."""
    stamps, values = [], []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            if next(reader, None) != header:
                raise DataFormatError(f"{path}:1: expected header {header}")
            for line_no, row in enumerate(reader, start=2):
                if len(row) != len(header) or not row[-1].strip():
                    raise DataFormatError(f"{path}:{line_no}: malformed row {row!r}")
                stamps.append(_parse_timestamp(row[0], path, line_no))
                try:
                    values.append(parse(row[-1]))
                except ValueError:
                    raise DataFormatError(f"{path}:{line_no}: bad {label} {row[-1]!r}, "
                                          f"expected {expected}") from None
        except UnicodeDecodeError:
            raise DataFormatError(f"{path}:{_undecodable_line(path)}: "
                                  "bytes that are not UTF-8") from None
        except csv.Error as err:
            raise DataFormatError(f"{path}:{reader.line_num}: {err}") from None
    if not stamps:
        raise DataFormatError(f"{path}: no data rows after the header")
    stamps = np.array(stamps, dtype=np.int64).view("datetime64[s]")
    values = np.array(values, dtype=dtype)
    order = np.argsort(stamps, kind="stable")
    if not np.array_equal(order, np.arange(len(stamps))):
        warnings.warn(f"{path}: timestamps out of order, sorting")
        stamps, values = stamps[order], values[order]
    repeated = stamps[1:] == stamps[:-1]
    if repeated.any():  # the stable sort keeps the earlier row of a pair first
        k = int(repeated.argmax())
        first, second = order[k : k + 2] + 2  # row index -> line number
        raise DataFormatError(f"{path}:{second}: duplicate timestamp, also on line {first}")
    return TimeSeries(stamps, values)


def _kbps(text):
    value = float(text)
    if not 0.0 < value < math.inf:  # the log transform's domain
        raise ValueError(text)
    return value


def load_traffic_csv(path):
    """Read ``timestamp,kbps`` rows into a traffic TimeSeries; a value that
    is not a positive finite number is a DataFormatError naming its line."""
    return _read_series(path, TRAFFIC_HEADER, _kbps, "value",
                        "a positive finite number", np.float64)


def _location_id(text):
    value = int(text)
    if not -2**63 <= value < 2**63:
        raise ValueError(text)
    return value


def load_mobility_csv(path):
    """Read ``datetime,latitude,longitude,location_id`` rows; keeps only the
    datetime and location ID columns.  An ID that is not an int64 integer
    is a DataFormatError naming its line."""
    return _read_series(path, MOBILITY_HEADER, _location_id, "location ID",
                        "an integer in int64 range", np.int64)


@dataclass
class PreparedData:
    """A usable prepared series, cached between commands.

    ``features`` is the normalized value series (regression) or the 1-based
    class-index series (classification); windows are rebuilt from it for
    any requested length.  Construction is the one check of what a usable
    series is, whatever its source: DataFormatError unless the task is one
    of ``network.TASKS`` and ``features`` is a 1-D array, of finite floats
    for regression, or for classification of integers in 1..codebook size,
    with a codebook.  ``norm`` is optional (a synthetic series has none),
    and only a regression series has one.
    """

    task: str  # "regression" | "classification"
    features: np.ndarray
    norm: NormalizationParams | None = None
    codebook: LocationCodebook | None = None

    def __post_init__(self):
        if self.task not in TASKS:
            raise DataFormatError(f"unknown task {self.task!r}")
        regression = self.task == "regression"
        if not regression and self.codebook is None:
            raise DataFormatError("classification series has no codebook")
        if not regression and self.norm is not None:
            raise DataFormatError("classification series has a normalization")
        f = self.features
        if not (isinstance(f, np.ndarray) and f.ndim == 1
                and f.dtype.kind in ("f" if regression else "iu")):
            got = f"{f.dtype} of shape {f.shape}" if isinstance(f, np.ndarray) \
                else type(f).__name__
            raise DataFormatError(f"{self.task} series must be a 1-D array of "
                                  f"{'floats' if regression else 'integers'}, got {got}")
        if regression and not np.isfinite(f).all():
            raise DataFormatError("regression series holds non-finite values")
        if not regression and f.size and not 1 <= f.min() <= f.max() <= self.codebook.size:
            raise DataFormatError("classification series holds classes outside "
                                  f"1..{self.codebook.size}")

    @property
    def feature_dim(self):
        """Features per timestep of the windows, which is also the width of
        a model's output: 1 for regression, the codebook size for classes."""
        return 1 if self.task == "regression" else self.codebook.size

    def windows(self, window):
        if self.task == "regression":
            return sliding_window(self.features, window)
        classes = self.features.astype(np.int64)
        encoded = np.zeros((classes.size, self.codebook.size))
        encoded[np.arange(classes.size), classes - 1] = 1.0
        return WindowedDataset(_window_view(encoded, window), classes[window:],
                               window, self.codebook.size)


def prepare_traffic(series, normalize_scope="full", train_fraction=0.9, window=None):
    """Normalize a traffic series.  ``train`` scope (leakage-free mode)
    fits the min/max only on the observations that the training windows of
    length ``window`` and their targets touch, so each of them scales into
    [0, 1], and raises ``cut``'s errors; ``full`` scope reads no
    ``window``."""
    if normalize_scope not in ("full", "train"):
        raise ValueError(f"unknown normalize_scope: {normalize_scope!r}")
    fit_count = None if normalize_scope == "full" else \
        cut(len(series.values), window, train_fraction)[0] + window
    scaled, params = log_minmax_normalize(series.values, fit_count)
    return PreparedData("regression", scaled, norm=params)


def prepare_mobility(series, window, train_fraction=0.9):
    """Build the codebook on the training prefix, then index the series.

    The prefix covers every observation a training window or target can
    touch, and a series ``cut`` refuses raises its error; an unseen ID
    later in the series raises EncodingError naming the first one.
    """
    ids = np.asarray(series.values)
    book = build_codebook(ids[: cut(len(ids), window, train_fraction)[0] + window])
    known = np.asarray(book.index_to_id, dtype=ids.dtype)
    order = np.argsort(known)  # ranked[k] has the code order[k] + 1
    ranked = known[order]
    at = np.searchsorted(ranked, ids).clip(max=len(ranked) - 1)
    unseen = ranked[at] != ids
    if unseen.any():
        raw = ids[unseen.argmax()].item()
        raise EncodingError(f"location ID {raw!r} appears only in the test range")
    indexed = order[at].astype(np.int64) + 1
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
    features = np.asarray(prepared.features,
                          dtype="<f8" if prepared.task == "regression" else "<i8")
    data = write_container("dataset", meta, {"features": features})
    with open(path, "wb") as fh:
        fh.write(data)
    return path


def load_prepared(path):
    """Inverse of ``save_prepared``; returns the PreparedData.

    Only parses: raises CheckpointError when the container does not read,
    the cache lacks a key, its metadata is not a JSON object or its
    ``features`` are not a vector of ``<f8`` values (regression) or ``<i8``
    classes (any other task).  A ``norm``, codebook or series that
    ``NormalizationParams``, ``LocationCodebook`` or ``PreparedData``
    refuses comes out as a CheckpointError too.  Caches that also hold
    windows (``inputs``, ``targets``, ``window``, ``classes``) load; those
    keys are ignored.
    """
    with open(path, "rb") as fh:
        meta, arrays = read_container(fh.read(), expect_kind="dataset")
    try:
        task, norm, codebook = meta["task"], meta["norm"], meta["codebook"]
        book = None if codebook is None else LocationCodebook(codebook)
        features = checked_array(arrays, "features",
                                 "<f8" if task == "regression" else "<i8", (None,))
        return PreparedData(task, features, codebook=book, norm=None if norm is None
                            else NormalizationParams(norm["min_log"], norm["max_log"]))
    except KeyError as err:
        raise CheckpointError(f"dataset cache lacks {err}") from None
    except TypeError as err:  # meta or its norm entry is not a JSON object
        raise CheckpointError(f"malformed dataset cache metadata: {err}") from None
    except DataFormatError as err:
        raise CheckpointError(f"dataset cache: {err}") from None
