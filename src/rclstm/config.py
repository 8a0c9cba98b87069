"""Typed INI run configuration.

Every hyperparameter has a named key with its conventional default (cell
size 300, window 100, 9:1 split, and so on); unknown sections or keys are
rejected outright so typos fail fast.  ``RunConfig.validate`` states each
value rule once, for INI keys, CLI flags and sweep points alike.
"""

import configparser
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields

from .errors import ConfigError
from .network import is_count
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

    def validate(self):
        """ConfigError naming the ``[section] key`` at fault unless the
        config can run: the one statement of the run-config rules, for a
        value from an INI key, a CLI flag or a sweep point alike."""
        try:
            TrainingConfig(**asdict(self.training))  # re-run its own checks
        except ValueError as err:
            raise ConfigError(f"[training] {err}") from None
        for section, key in _RULES:
            _check_field(section, key, getattr(getattr(self, section), key))
        s = self.synthetic
        if s.kind == "longrange" and not 1 <= s.lag < s.n:
            raise ConfigError("[synthetic] lag must lie in [1, n)")
        if self.run.task != "synthetic" and not self.run.data:
            raise ConfigError(f"[run] data path is required for task {self.run.task!r}")
        sweep = self.sweep
        if not sweep.seeds:
            raise ConfigError("[sweep] seeds: a sweep needs at least one seed")
        if len(sweep.points) < 2:
            raise ConfigError("[sweep] points: a sweep needs at least two points")
        # a sweep seed sets the model seed, a point the key of its axis
        for name, (section, key), values in (
                ("seeds", ("model", "seed"), sweep.seeds),
                ("points", SWEEP_AXES[sweep.axis], sweep.points)):
            try:
                for value in values:
                    _check_field(section, key, value)
            except ConfigError as err:
                raise ConfigError(f"[sweep] {name}: {err}") from None


# sweep axis -> the [section] key each of its points sets
SWEEP_AXES = {"connectivity": ("model", "density"),
              "train_fraction": ("data", "train_fraction"),
              "window_length": ("data", "window")}


def _one_of(*options):
    return lambda v: v in options, f"must be one of {options}"


_NON_NEGATIVE = (lambda v: v >= 0, "must be >= 0")
_NON_ZERO = (lambda v: v != 0, "must be non-zero")

# [section] key -> (test, rule) for each key whose type alone does not make
# it runnable; no range test holds for NaN
_RULES = {
    ("run", "task"): _one_of("traffic", "mobility", "synthetic"),
    ("synthetic", "kind"): _one_of("sine", "ar", "longrange"),
    ("synthetic", "n"): (is_count, "must be a whole number >= 1"),
    ("synthetic", "period"): _NON_ZERO,
    ("synthetic", "mix_period"): _NON_ZERO,
    ("synthetic", "mix"): (lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]"),
    # the logistic map leaves (0, 1) for growth above 4
    ("synthetic", "growth"): (lambda v: 0.0 < v <= 4.0, "must lie in (0, 4]"),
    ("synthetic", "noise"): _NON_NEGATIVE,
    ("synthetic", "ar_noise"): _NON_NEGATIVE,
    ("synthetic", "ar_integrate"): _NON_NEGATIVE,
    **{(name, "seed"): _NON_NEGATIVE for name in ("model", "training", "synthetic")},
    ("model", "hidden"): (lambda v: len(v) > 0 and all(map(is_count, v)),
                          "must list one or more sizes >= 1"),
    ("model", "density"): (lambda v: 0.0 < v <= 1.0, "must lie in (0, 1]"),
    ("data", "window"): (is_count, "must be a whole number >= 1"),
    ("data", "train_fraction"): (lambda v: 0.0 < v < 1.0, "must lie in (0, 1)"),
    ("data", "normalize_scope"): _one_of("full", "train"),
    ("sweep", "axis"): _one_of(*SWEEP_AXES),
    ("sweep", "timing_reps"): (lambda v: v >= 1, "must be >= 1"),
    ("bench", "reps"): (lambda v: v >= 30, "must be >= 30 for reported numbers"),
    ("bench", "warmup"): _NON_NEGATIVE,
}


def _check_field(section, key, value):
    """ConfigError unless ``value`` keeps the rule of ``[section] key``."""
    test, rule = _RULES[section, key]
    if not test(value):
        raise ConfigError(f"[{section}] {key} {rule}, got {value!r}")


_CONVERTERS = {
    ("synthetic", "ar_coeffs"): _float_list,
    ("model", "hidden"): _int_list,
    ("sweep", "points"): _float_list,
    ("sweep", "seeds"): _int_list,
}


def _convert(section_name, key, text, current):
    converter = _CONVERTERS.get((section_name, key)) \
        or {bool: _bool, int: int, float: float}.get(type(current), str)
    try:
        value = converter(text)
    except ValueError as err:
        raise ConfigError(f"[{section_name}] {key}: {err}") from None
    values = value if isinstance(value, tuple) else (value,)
    if not all(math.isfinite(v) for v in values if isinstance(v, float)):
        raise ConfigError(f"[{section_name}] {key} must be finite")
    return value


def load_config(path=None):
    """Parse an INI file into a RunConfig and ``validate`` it; ``None``
    gives pure defaults.  Whole-number window points become ints."""
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
    if cfg.sweep.axis == "window_length":
        cfg.sweep.points = tuple(int(p) if p.is_integer() else p for p in cfg.sweep.points)
    cfg.validate()
    return cfg


def apply_overrides(cfg, seed=None, density=None, window=None, train_fraction=None):
    """Set the fields of the CLI flags given, ``seed`` every per-section
    seed, then ``cfg.validate()``, so a flag keeps its INI key's rule."""
    if seed is not None:
        cfg.model.seed = cfg.training.seed = cfg.synthetic.seed = seed
    if density is not None:
        cfg.model.density = density
    if window is not None:
        cfg.data.window = window
    if train_fraction is not None:
        cfg.data.train_fraction = train_fraction
    cfg.validate()
    return cfg
