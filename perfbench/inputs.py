"""Seeded input generators for the benchmark workloads.

Both writers are self-contained (they do not use ``rclstm.synth``), so the
benchmark's inputs cannot change when the engine changes.  The same seed and
row count always produce a byte-identical file.
"""

import numpy as np

TRAFFIC_STEP_MIN = 10  # one row per 10 minutes
TRAFFIC_PERIOD = 24 * 60 // TRAFFIC_STEP_MIN  # rows per day
MOBILITY_STEP_MIN = 30
START = np.datetime64("2024-01-01T00:00:00", "s")


def _stamps(n, step_min):
    return (START + np.arange(n) * np.timedelta64(step_min * 60, "s")).astype(str)


def traffic_series(n_rows, seed):
    """Positive kbps values: a daily cycle with a harmonic, AR(1) noise in
    log space and short multiplicative bursts.

    The log value is clipped to a fixed band that the noise reaches in a few
    days of rows, so the min-max normalisation, and with it the error scale,
    is nearly the same for every seed.
    """
    rng = np.random.default_rng([seed, 1])
    t = np.arange(n_rows)
    phase = 2.0 * np.pi * t / TRAFFIC_PERIOD
    log_kbps = 3.0 - 0.45 * np.cos(phase) + 0.1 * np.sin(2.0 * phase)
    shocks = rng.normal(0.0, 0.06, n_rows)
    noise = np.empty(n_rows)
    level = 0.0
    for j in range(n_rows):
        level = 0.8 * level + shocks[j]
        noise[j] = level
    bursts = np.zeros(n_rows)
    for start in np.flatnonzero(rng.random(n_rows) < 0.02):
        bursts[start : start + int(rng.integers(3, 7))] += 0.3
    return 10.0 ** np.clip(log_kbps + noise + bursts, 2.4, 3.7)


def write_traffic_csv(path, n_rows, seed):
    """``timestamp,kbps`` rows as ``load_traffic_csv`` reads them."""
    lines = ["timestamp,kbps"]
    lines += [f"{s},{v:.3f}" for s, v in zip(_stamps(n_rows, TRAFFIC_STEP_MIN),
                                              traffic_series(n_rows, seed))]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def mobility_ids(n_rows, n_locations, seed):
    """Raw location IDs of one user: a tour of every location in seeded
    order, then a Markov chain where each location has three successors
    with probabilities 0.7, 0.2 and 0.1.

    The opening tour puts every location in the training prefix, so
    ``prepare_mobility`` never meets an ID it has no code for.
    """
    if n_rows < n_locations:
        raise ValueError("need at least one row per location")
    rng = np.random.default_rng([seed, 2])
    raw_ids = rng.choice(np.arange(1000, 10000), size=n_locations, replace=False)
    successors = np.stack([rng.choice(n_locations, size=3, replace=False)
                           for _ in range(n_locations)])
    states = np.empty(n_rows, dtype=np.int64)
    states[:n_locations] = rng.permutation(n_locations)
    picks = rng.choice(3, size=n_rows, p=[0.7, 0.2, 0.1])
    for j in range(n_locations, n_rows):
        states[j] = successors[states[j - 1], picks[j]]
    coords = np.round(np.array([39.9, 116.4]) + rng.normal(0.0, 0.05, (n_locations, 2)), 6)
    return raw_ids[states], coords[states]


def write_mobility_csv(path, n_rows, n_locations, seed):
    """``datetime,latitude,longitude,location_id`` rows as
    ``load_mobility_csv`` reads them."""
    ids, coords = mobility_ids(n_rows, n_locations, seed)
    lines = ["datetime,latitude,longitude,location_id"]
    lines += [f"{s},{lat:.6f},{lon:.6f},{loc}"
              for s, (lat, lon), loc in zip(_stamps(n_rows, MOBILITY_STEP_MIN),
                                            coords, ids)]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return path
