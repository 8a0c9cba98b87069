"""Typed INI run configuration.

Every hyperparameter has a named key with its conventional default (cell
size 300, window 100, 9:1 split, and so on); unknown sections or keys are
rejected outright so typos fail fast.
"""

import configparser
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields

from .errors import ConfigError
from .training import TrainingConfig


def _bool(text):
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _int_list(text):
    return tuple(int(v) for v in text.split(",") if v.strip())


def _float_list(text):
    return tuple(float(v) for v in text.split(",") if v.strip())


@dataclass
class RunSection:
    task: str = "synthetic"  # traffic | mobility | synthetic
    data: str = ""
    output_dir: str = "runs"


@dataclass
class SyntheticSection:
    kind: str = "sine"  # sine | ar | longrange
    n: int = 800
    period: float = 25.0
    amplitude: float = 0.4
    offset: float = 0.5
    noise: float = 0.0
    lag: int = 25
    growth: float = 3.9
    mix: float = 0.0
    mix_period: float = 40.0
    ar_coeffs: tuple = (0.3, -0.2, 0.15, -0.1, 0.05)
    ar_intercept: float = 0.0
    ar_noise: float = 0.1
    ar_integrate: int = 1
    seed: int = 0


@dataclass
class ModelSection:
    hidden: tuple = (300, 300, 300)
    density: float = 1.0
    seed: int = 0


@dataclass
class DataSection:
    window: int = 100
    train_fraction: float = 0.9
    normalize_scope: str = "full"  # full | train


@dataclass
class SweepSection:
    axis: str = "connectivity"
    points: tuple = (0.01, 0.05, 0.1, 0.2, 0.5, 1.0)
    seeds: tuple = (0, 1, 2)
    include_baselines: bool = False
    timing_reps: int = 10


@dataclass
class BenchSection:
    reps: int = 100
    warmup: int = 5


@dataclass
class RunConfig:
    run: RunSection = field(default_factory=RunSection)
    synthetic: SyntheticSection = field(default_factory=SyntheticSection)
    model: ModelSection = field(default_factory=ModelSection)
    data: DataSection = field(default_factory=DataSection)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    sweep: SweepSection = field(default_factory=SweepSection)
    bench: BenchSection = field(default_factory=BenchSection)

    def digest(self):
        """Hash of what determines a trained model: the task and data, the
        synthetic series, model, data split and training settings.  The
        output directory and the [sweep] and [bench] sections are left out."""
        payload = {"run": {"task": self.run.task, "data": self.run.data}}
        for name in ("synthetic", "model", "data", "training"):
            payload[name] = asdict(getattr(self, name))
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


# sweep axis -> the apply_overrides argument each of its points sets
SWEEP_AXES = {"connectivity": "density", "train_fraction": "train_fraction",
              "window_length": "window"}


_CHOICES = {
    ("run", "task"): ("traffic", "mobility", "synthetic"),
    ("synthetic", "kind"): ("sine", "ar", "longrange"),
    ("data", "normalize_scope"): ("full", "train"),
    ("sweep", "axis"): tuple(SWEEP_AXES),
}

_CONVERTERS = {
    ("synthetic", "ar_coeffs"): _float_list,
    ("model", "hidden"): _int_list,
    ("sweep", "points"): _float_list,
    ("sweep", "seeds"): _int_list,
}


def _convert(section_name, key, text, current):
    converter = _CONVERTERS.get((section_name, key))
    if converter is None:
        kind = type(current)
        if kind is bool:
            converter = _bool
        elif kind is int:
            converter = int
        elif kind is float:
            converter = float
        else:
            converter = str
    try:
        value = converter(text)
    except ValueError as err:
        raise ConfigError(f"[{section_name}] {key}: {err}") from None
    values = value if isinstance(value, tuple) else (value,)
    if not all(math.isfinite(v) for v in values if isinstance(v, float)):
        raise ConfigError(f"[{section_name}] {key} must be finite")
    choices = _CHOICES.get((section_name, key))
    if choices and value not in choices:
        raise ConfigError(f"[{section_name}] {key} must be one of {choices}")
    return value


def load_config(path=None):
    """Parse an INI file into a RunConfig; ``None`` gives pure defaults."""
    cfg = RunConfig()
    if path is None:
        return cfg
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as err:
        raise ConfigError(str(err)) from None
    if not read:
        raise ConfigError(f"config file not found: {path}")
    for section_name in parser.sections():
        if not hasattr(cfg, section_name):
            raise ConfigError(f"unknown config section [{section_name}]")
        section = getattr(cfg, section_name)
        known = {f.name for f in fields(section)}
        for key, text in parser.items(section_name):
            if key not in known:
                raise ConfigError(f"unknown key {key!r} in section [{section_name}]")
            setattr(section, key, _convert(section_name, key, text, getattr(section, key)))
    try:
        # re-run the invariant checks with the parsed values
        cfg.training = TrainingConfig(**asdict(cfg.training))
    except ValueError as err:
        raise ConfigError(str(err)) from None
    if not 0.0 <= cfg.model.density <= 1.0:
        raise ConfigError("[model] density must lie in [0, 1]")
    if not 0.0 < cfg.data.train_fraction < 1.0:
        raise ConfigError("[data] train_fraction must lie in (0, 1)")
    if cfg.data.window < 1:
        raise ConfigError("[data] window must be >= 1")
    if not cfg.model.hidden or min(cfg.model.hidden) < 1:
        raise ConfigError("[model] hidden must list one or more sizes >= 1")
    if cfg.bench.warmup < 0:
        raise ConfigError("[bench] warmup must be >= 0")
    for name in ("model", "training", "synthetic"):
        if getattr(cfg, name).seed < 0:
            raise ConfigError(f"[{name}] seed must be >= 0")
    _check_synthetic(cfg.synthetic)
    _check_sweep(cfg.sweep)
    return cfg


def _check_synthetic(s):
    """Reject series parameters no generator can use."""
    if s.period == 0 or s.mix_period == 0:
        raise ConfigError("[synthetic] period and mix_period must be non-zero")
    if s.kind == "longrange" and not 1 <= s.lag < s.n:
        raise ConfigError("[synthetic] lag must lie in [1, n)")
    if s.noise < 0 or s.ar_noise < 0:
        raise ConfigError("[synthetic] noise and ar_noise must be >= 0")


def _check_sweep(sweep):
    """Reject a sweep that could not run; window points become ints."""
    if not sweep.seeds:
        raise ConfigError("[sweep] seeds: a sweep needs at least one seed")
    if min(sweep.seeds) < 0:
        raise ConfigError("[sweep] seeds must be >= 0")
    if sweep.timing_reps < 1:
        raise ConfigError("[sweep] timing_reps must be >= 1")
    points = sweep.points
    if len(points) < 2:
        raise ConfigError("[sweep] points: a sweep needs at least two points")
    if sweep.axis == "connectivity" and not all(0.0 < p <= 1.0 for p in points):
        raise ConfigError("[sweep] connectivity points must lie in (0, 1]")
    if sweep.axis == "train_fraction" and not all(0.0 < p < 1.0 for p in points):
        raise ConfigError("[sweep] train_fraction points must lie in (0, 1)")
    if sweep.axis == "window_length":
        if not all(float(p).is_integer() and p >= 1 for p in points):
            raise ConfigError("[sweep] window_length points must be whole numbers >= 1")
        sweep.points = tuple(int(p) for p in points)


def apply_overrides(cfg, seed=None, density=None, window=None, train_fraction=None):
    """Apply CLI flag overrides; ``seed`` overrides every per-section seed."""
    if seed is not None:
        if seed < 0:
            raise ConfigError("--seed must be >= 0")
        cfg.model.seed = seed
        cfg.training.seed = seed
        cfg.synthetic.seed = seed
    if density is not None:
        if not 0.0 <= density <= 1.0:
            raise ConfigError("--density must lie in [0, 1]")
        cfg.model.density = density
    if window is not None:
        if window < 1:
            raise ConfigError("--window must be >= 1")
        cfg.data.window = window
    if train_fraction is not None:
        if not 0.0 < train_fraction < 1.0:
            raise ConfigError("--train-fraction must lie in (0, 1)")
        cfg.data.train_fraction = train_fraction
    return cfg
