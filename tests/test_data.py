import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rclstm.data import (LocationCodebook, NormalizationParams, PreparedData,
                         TimeSeries, build_codebook, chronological_split, denormalize,
                         load_mobility_csv, load_prepared, load_traffic_csv,
                         log_minmax_normalize, prepare_mobility, prepare_traffic,
                         save_prepared, sliding_window)
from rclstm.errors import (CheckpointError, DataFormatError, EncodingError,
                           InsufficientDataError)


class TestNormalization:
    def test_decades_map_to_halves(self):
        scaled, params = log_minmax_normalize([10.0, 100.0, 1000.0])
        assert np.max(np.abs(scaled - [0.0, 0.5, 1.0])) < 1e-15
        assert params.min_log == 1.0 and params.max_log == 3.0

    def test_extremes(self):
        rng = np.random.default_rng(1)
        values = rng.uniform(5.0, 5000.0, size=50)
        scaled, _ = log_minmax_normalize(values)
        assert scaled[np.argmin(values)] == 0.0
        assert scaled[np.argmax(values)] == 1.0
        assert np.all((scaled >= 0.0) & (scaled <= 1.0))

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        values = rng.uniform(1.0, 1e6, size=200)
        scaled, params = log_minmax_normalize(values)
        back = denormalize(scaled, params)
        assert np.max(np.abs(back - values) / values) < 1e-9

    def test_monotone(self):
        values = np.array([3.0, 9.0, 27.0, 81.0])
        scaled, _ = log_minmax_normalize(values)
        assert np.all(np.diff(scaled) > 0)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            log_minmax_normalize([1.0, 0.0, 5.0])

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            log_minmax_normalize([7.0, 7.0, 7.0])

    def test_denormalize_endpoints(self):
        p = NormalizationParams(1.0, 3.0)
        assert denormalize(0.0, p) == 10.0
        assert denormalize(1.0, p) == 1000.0
        assert abs(denormalize(0.5, p) - 100.0) < 1e-9


def mobility_series(ids):
    """A TimeSeries of location IDs, one per second."""
    from rclstm.data import TimeSeries
    ids = np.asarray(ids)
    return TimeSeries(np.datetime64("2015-08-06T00:00:00", "s") + np.arange(len(ids)), ids)


class TestOneHot:
    """One-hot encoding as ``prepare_mobility`` and ``PreparedData.windows``
    do it: codebook index k becomes a vector with its single 1 at k - 1."""

    def test_single_class(self):
        prep = prepare_mobility(mobility_series([42, 42, 42]), window=1)
        ds = prep.windows(1)
        assert np.array_equal(ds.inputs[:, 0], [[1.0], [1.0]])
        assert ds.targets.tolist() == [1, 1]

    def test_index_two_of_three(self):
        prep = prepare_mobility(mobility_series([7, 9, 11, 9]), window=1)
        ds = prep.windows(1)
        assert np.array_equal(ds.inputs[1, 0], [0.0, 1.0, 0.0])
        assert ds.targets[-1] == 2

    def test_round_trip_random_codebook(self):
        rng = np.random.default_rng(3)
        ids = rng.permutation(100)[:17]
        series = np.concatenate([ids, ids])
        prep = prepare_mobility(mobility_series(series), window=1)
        ds = prep.windows(1)
        book = prep.codebook
        assert book.size == 17
        decoded = [book.index_to_id[int(np.argmax(v))] for v in ds.inputs[:, 0]]
        assert decoded == series[:-1].tolist()
        assert [book.index_to_id[k - 1] for k in ds.targets] == series[1:].tolist()

    def test_unknown_id(self):
        with pytest.raises(EncodingError):
            prepare_mobility(mobility_series([1, 2, 1, 2, 5]), window=1,
                             train_fraction=0.5)


class TestSlidingWindow:
    def test_enumerated_case(self):
        ds = sliding_window(np.array([10.0, 11.0, 12.0, 13.0, 14.0]), 2)
        assert len(ds) == 3
        assert np.array_equal(ds.inputs[0][:, 0], [10.0, 11.0])
        assert ds.targets[0] == 12.0
        assert np.array_equal(ds.inputs[2][:, 0], [12.0, 13.0])
        assert ds.targets[2] == 14.0

    def test_boundary_single_sample(self):
        ds = sliding_window(np.arange(5.0), 4)
        assert len(ds) == 1

    def test_equal_length_is_error(self):
        with pytest.raises(InsufficientDataError):
            sliding_window(np.arange(4.0), 4)

    def test_count_formula(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = int(rng.integers(3, 60))
            window = int(rng.integers(1, n))
            ds = sliding_window(rng.normal(size=n), window)
            assert len(ds) == n - window


def gathered(series, window):
    """Windows and targets by an index-array gather, which copies every
    window: the reference the strided views must match bit for bit."""
    feats = series[:, None] if series.ndim == 1 else series
    idx = np.arange(window)[None, :] + np.arange(len(series) - window)[:, None]
    return feats[idx], series[window:]


def prepared_series(task, n=200, classes=7):
    rng = np.random.default_rng(6)
    if task == "regression":
        return PreparedData(task, rng.random(n))
    ids = rng.integers(1, classes + 1, size=n)
    return PreparedData(task, ids, codebook=build_codebook(np.arange(1, classes + 1)))


class TestWindowViews:
    @pytest.mark.parametrize("task", ["regression", "classification"])
    @pytest.mark.parametrize("window", [1, 5, 12, 50])
    def test_match_the_index_gather(self, task, window):
        prep = prepared_series(task)
        ds = prep.windows(window)
        if task == "regression":
            inputs, targets = gathered(prep.features, window)
        else:
            inputs, onehot = gathered(np.eye(7)[prep.features - 1], window)
            targets = (np.argmax(onehot, axis=1) + 1).astype(np.int64)
        for got, want in ((ds.inputs, inputs), (ds.targets, targets)):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_read_only_views_of_the_series(self, task):
        prep = prepared_series(task)
        ds = prep.windows(5)
        # consecutive windows overlap in memory: both view one encoded series
        assert np.shares_memory(ds.inputs[0, 1:], ds.inputs[1, :-1])
        if task == "regression":
            assert np.shares_memory(ds.inputs, prep.features)
        with pytest.raises(ValueError, match="read-only"):
            ds.inputs[0, 0, 0] = 1.0
        series = np.arange(10.0)
        view = sliding_window(series, 3).inputs
        assert np.shares_memory(view, series)
        with pytest.raises(ValueError, match="read-only"):
            view[0, 0, 0] = 1.0

    def test_mobility_windows_copy_no_window(self):
        # mobility-shaped: 5,644 observations over 64 locations, T=12
        n, m, window = 5644, 64, 12
        prep = prepared_series("classification", n=n, classes=m)
        tracemalloc.start()
        try:
            prep.windows(window)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (n - window) * window * m * 8 / 2


class TestChronologicalSplit:
    def test_nine_to_one(self):
        ds = sliding_window(np.arange(12.0), 2)  # 10 samples
        train, test = chronological_split(ds, 0.9)
        assert len(train) == 9 and len(test) == 1

    def test_partition_preserves_order(self):
        ds = sliding_window(np.arange(30.0), 3)
        train, test = chronological_split(ds, 0.7)
        joined = np.concatenate([train.targets, test.targets])
        assert np.array_equal(joined, ds.targets)

    def test_sixty_forty(self):
        ds = sliding_window(np.arange(103.0), 3)  # 100 samples
        train, test = chronological_split(ds, 0.6)
        assert len(train) == 60 and len(test) == 40

    def test_empty_side_rejected(self):
        ds = sliding_window(np.arange(4.0), 2)
        with pytest.raises(InsufficientDataError):
            chronological_split(ds, 0.1)


class TestLoaders:
    def write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_traffic_two_rows(self, tmp_path):
        path = self.write(tmp_path, "t.csv",
                          "timestamp,kbps\n"
                          "2005-01-01T00:00:00,120.5\n"
                          "2005-01-01T00:15:00,130.25\n")
        series = load_traffic_csv(path)
        assert len(series.values) == 2
        assert series.values[1] == 130.25

    def test_traffic_malformed_row_names_line(self, tmp_path):
        path = self.write(tmp_path, "bad.csv",
                          "timestamp,kbps\n"
                          "2005-01-01T00:00:00,120.5\n"
                          "2005-01-01T00:15:00,\n")
        with pytest.raises(DataFormatError, match=":3"):
            load_traffic_csv(path)

    def test_traffic_bad_header(self, tmp_path):
        path = self.write(tmp_path, "h.csv", "time,value\n2005-01-01T00:00:00,1\n")
        with pytest.raises(DataFormatError):
            load_traffic_csv(path)

    def test_traffic_duplicate_timestamps(self, tmp_path):
        path = self.write(tmp_path, "dup.csv",
                          "timestamp,kbps\n"
                          "2005-01-01T00:00:00,1\n"
                          "2005-01-01T00:00:00,2\n")
        with pytest.raises(DataFormatError, match="duplicate"):
            load_traffic_csv(path)

    def test_traffic_unsorted_sorts_with_warning(self, tmp_path):
        path = self.write(tmp_path, "u.csv",
                          "timestamp,kbps\n"
                          "2005-01-01T00:15:00,2\n"
                          "2005-01-01T00:00:00,1\n")
        with pytest.warns(UserWarning):
            series = load_traffic_csv(path)
        assert series.values.tolist() == [1.0, 2.0]

    def test_traffic_geant_sized_file(self, tmp_path):
        start = np.datetime64("2005-01-01T00:00:00")
        stamps = start + np.arange(10772) * np.timedelta64(15, "m")
        rng = np.random.default_rng(5)
        rows = "\n".join(f"{str(s)},{v:.3f}"
                         for s, v in zip(stamps, rng.uniform(100, 1e5, 10772)))
        path = self.write(tmp_path, "geant.csv", "timestamp,kbps\n" + rows + "\n")
        series = load_traffic_csv(path)
        assert len(series.values) == 10772

    def test_mobility_round_trip(self, tmp_path):
        path = self.write(tmp_path, "m.csv",
                          "datetime,latitude,longitude,location_id\n"
                          "2015-08-06T00:00:00,60.1,24.9,3\n"
                          "2015-08-06T01:00:00,60.2,24.8,7\n"
                          "2015-08-06T02:00:00,60.3,24.7,3\n")
        series = load_mobility_csv(path)
        assert series.values.tolist() == [3, 7, 3]

    @pytest.mark.parametrize("fmt", ["traffic", "mobility"])
    @pytest.mark.parametrize("case, match", [
        ("bad_header", ":1: expected header"), ("malformed_row", ":3: malformed row"),
        ("bad_value", ":3: bad (value|location ID) 'x'")])
    def test_bad_file_names_the_line(self, tmp_path, fmt, case, match):
        load, header, row = {
            "traffic": (load_traffic_csv, "timestamp,kbps", "2005-01-01T0{}:00:00,120.5"),
            "mobility": (load_mobility_csv, "datetime,latitude,longitude,location_id",
                         "2015-08-06T0{}:00:00,60.1,24.9,3")}[fmt]
        first, cut = row.format(0), row.format(1).rsplit(",", 1)[0]
        lines = {"bad_header": ["time,value", first],
                 "malformed_row": [header, first, cut],
                 "bad_value": [header, first, cut + ",x"]}[case]
        path = self.write(tmp_path, f"{fmt}.csv", "\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match=match):
            load(path)

    def test_mobility_malformed(self, tmp_path):
        path = self.write(tmp_path, "mb.csv",
                          "datetime,latitude,longitude,location_id\n"
                          "2015-08-06T00:00:00,60.1,24.9\n")
        with pytest.raises(DataFormatError, match=":2"):
            load_mobility_csv(path)


def cache_blob(prep):
    """The bytes ``save_prepared`` writes for ``prep``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cache.bin")
        save_prepared(prep, path)
        with open(path, "rb") as fh:
            return fh.read()


#: a traffic cache with its normalization and a mobility cache with its
#: codebook, as the CLI's preprocess step writes them
CACHE_BLOBS = {
    "regression": cache_blob(prepare_traffic(TimeSeries(
        np.arange(12).astype("datetime64[s]"), np.geomspace(1.0, 500.0, 12)))),
    "classification": cache_blob(prepare_mobility(
        mobility_series([3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2]), window=3)),
}

#: the flip that turns the traffic cache's min_log of 0.0 into 9.0, past
#: its max_log
MIN_LOG_FLIP = {"task": "regression", "truncate": False, "flip": ord("0") ^ ord("9"),
                "pos": CACHE_BLOBS["regression"].index(b'"min_log":0.0') + 10}


class TestPrepared:
    def test_traffic_prepare_full_scope(self):
        from rclstm.synth import sine_series
        series = sine_series(100, seed=0)
        raw = 10.0 ** (series.values * 3.0 + 1.0)
        from rclstm.data import TimeSeries
        ts = TimeSeries(series.timestamps, raw)
        prep = prepare_traffic(ts, normalize_scope="full")
        assert prep.features.min() == 0.0 and prep.features.max() == 1.0

    def test_traffic_prepare_train_scope_uses_prefix(self):
        from rclstm.data import TimeSeries
        stamps = np.datetime64("2005-01-01T00:00:00", "s") + np.arange(10)
        values = np.array([10.0] * 9 + [100000.0])
        ts = TimeSeries(stamps, np.array([10, 20, 40, 80, 20, 10, 30, 50, 60, 100000.0]))
        prep = prepare_traffic(ts, normalize_scope="train", train_fraction=0.9)
        assert prep.features[-1] > 1.0  # max outside the training prefix

    def test_mobility_unseen_test_id_is_error(self):
        from rclstm.data import TimeSeries
        n = 30
        ids = np.array([1, 2, 3] * 9 + [1, 2, 99])
        stamps = np.datetime64("2015-08-06T00:00:00", "s") + np.arange(n)
        with pytest.raises(EncodingError):
            prepare_mobility(TimeSeries(stamps, ids), window=3, train_fraction=0.8)

    def test_mobility_windows_shapes(self):
        from rclstm.data import PreparedData
        ids = np.array([1, 2, 3, 1, 2, 3, 1, 2])
        book = build_codebook(ids)
        ds = PreparedData("classification", ids, codebook=book).windows(3)
        assert ds.inputs.shape == (5, 3, 3)
        assert ds.classes == 3
        assert ds.targets.tolist() == [1, 2, 3, 1, 2]

    def test_cache_round_trip(self, tmp_path):
        from rclstm.synth import sine_series
        series = sine_series(60, seed=2)
        prep = prepare_traffic_like(series)
        path = str(tmp_path / "cache.bin")
        save_prepared(prep, path)
        prep2 = load_prepared(path)
        assert np.array_equal(prep.features, prep2.features)
        ds, ds2 = prep.windows(8), prep2.windows(8)
        assert np.array_equal(ds.inputs, ds2.inputs)
        assert np.array_equal(ds.targets, ds2.targets)
        assert ds2.window == 8

    def test_cache_holds_the_series_only(self, tmp_path):
        from rclstm.checkpoint import read_container
        ids = np.array([3, 1, 2, 3, 1, 2, 3, 1, 2, 3])
        prep = prepare_mobility(mobility_series(ids), window=3)
        path = tmp_path / "cache.bin"
        save_prepared(prep, str(path))
        meta, arrays = read_container(path.read_bytes(), expect_kind="dataset")
        assert set(meta) == {"task", "norm", "codebook"} and set(arrays) == {"features"}
        loaded = load_prepared(str(path))
        assert loaded.features.dtype == np.int64
        assert loaded.codebook.index_to_id == [3, 1, 2]
        assert np.array_equal(loaded.windows(3).inputs, prep.windows(3).inputs)

    def test_windowed_cache_loads(self, tmp_path):
        # caches once also held the windows built at one T; those keys are ignored
        from rclstm.checkpoint import write_container
        from rclstm.data import TimeSeries
        values = np.array([1.0, 10.0, 100.0, 1000.0, 10.0, 1.0])
        prep = prepare_traffic(TimeSeries(np.arange(6).astype("datetime64[s]"), values))
        ds = prep.windows(2)
        meta = {"task": "regression", "window": 2, "classes": None, "codebook": None,
                "norm": {"min_log": prep.norm.min_log, "max_log": prep.norm.max_log}}
        path = tmp_path / "cache.bin"
        path.write_bytes(write_container("dataset", meta, {
            "features": prep.features, "inputs": ds.inputs, "targets": ds.targets}))
        loaded = load_prepared(str(path))
        assert np.array_equal(loaded.features, prep.features)
        assert loaded.norm == prep.norm and loaded.codebook is None

    @pytest.mark.parametrize("meta", [{"task": "regression"}, ["task"],
                                      {"task": "regression", "norm": [0, 1]}],
                             ids=["missing_key", "meta", "norm"])
    def test_malformed_cache_rejected(self, tmp_path, meta):
        from rclstm.checkpoint import write_container
        path = tmp_path / "cache.bin"
        path.write_bytes(write_container("dataset", meta, {}))
        with pytest.raises(CheckpointError):
            load_prepared(str(path))

    @pytest.mark.parametrize("case, message", [
        ("norm_reversed", "not two finite numbers"),
        ("norm_equal", "not two finite numbers"),
        ("norm_str", "not two finite numbers"),
        ("norm_bool", "not two finite numbers"),
        ("norm_nan", "not two finite numbers"),
        ("classes_fractional", "features has dtype <f8, expected <i8"),
        ("regression_int", "features has dtype <i8, expected <f8"),
        ("regression_inf", "features holds non-finite entries"),
        ("features_2d", "features has shape"),
        ("codebook_str", "not a list of unique integer location IDs"),
        ("codebook_duplicate", "not a list of unique integer location IDs"),
        ("codebook_float", "not a list of unique integer location IDs"),
        ("codebook_bool", "not a list of unique integer location IDs"),
    ])
    def test_malformed_cache_entry_rejected(self, tmp_path, case, message):
        from rclstm.checkpoint import write_container
        meta = {"task": "regression", "codebook": None,
                "norm": {"min_log": 0.5, "max_log": 2.5}}
        features = np.linspace(0.0, 1.0, 8)
        if case == "norm_reversed":
            meta["norm"]["min_log"] = 3.0
        elif case == "norm_equal":
            meta["norm"]["max_log"] = 0.5
        elif case == "norm_str":
            meta["norm"] = {"min_log": "0.5", "max_log": "2.5"}
        elif case == "norm_bool":
            meta["norm"] = {"min_log": False, "max_log": True}
        elif case == "norm_nan":
            meta["norm"]["max_log"] = float("nan")
        elif case == "classes_fractional":
            meta.update(task="classification", norm=None, codebook=[7, 8, 9])
            features = np.array([1.5, 2.5, 1.0, 3.0])
        elif case.startswith("codebook"):
            codebook = {"codebook_str": "abc", "codebook_duplicate": [5, 5, 7],
                        "codebook_float": [5, 6.0, 7], "codebook_bool": [True, 2, 3]}[case]
            meta.update(task="classification", norm=None, codebook=codebook)
            features = np.array([1, 2, 3, 1])
        elif case == "regression_int":
            features = np.arange(8)
        elif case == "regression_inf":
            features[3] = np.inf
        else:
            features = features.reshape(4, 2)
        path = tmp_path / "cache.bin"
        path.write_bytes(write_container("dataset", meta, {"features": features}))
        with pytest.raises(CheckpointError, match=message):
            load_prepared(str(path))

    @given(task=st.sampled_from(["regression", "classification"]),
           pos=st.integers(0, 1 << 12), flip=st.integers(1, 255), truncate=st.booleans())
    @example(**MIN_LOG_FLIP)
    @settings(max_examples=400, deadline=None)
    def test_corrupt_cache_raises_only_checkpoint_error(self, task, pos, flip, truncate):
        blob = bytearray(CACHE_BLOBS[task])
        pos %= len(blob)
        if truncate:
            del blob[pos:]
        else:
            blob[pos] ^= flip
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cache.bin")
            with open(path, "wb") as fh:
                fh.write(blob)
            try:
                load_prepared(path)
            except CheckpointError:
                pass


def prepare_traffic_like(series):
    """Synthetic series are already in (0, 1); wrap without normalization."""
    from rclstm.data import PreparedData
    return PreparedData("regression", np.asarray(series.values, dtype=np.float64))


def test_codebook_first_appearance_order():
    book = build_codebook([9, 4, 9, 2, 4])
    assert book.id_to_index == {9: 1, 4: 2, 2: 3}
    assert book.index_to_id == [9, 4, 2]
