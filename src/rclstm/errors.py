"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operand dimensions are inconsistent."""


class DataFormatError(ValueError):
    """A data file could not be parsed, or a series breaks the rules of a
    usable one (``PreparedData``, ``NormalizationParams``); a file's message
    names the offending line."""


class InsufficientDataError(ValueError):
    """Not enough observations to build the requested windows or split."""


class EncodingError(ValueError):
    """A location ID is not present in the codebook."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss, gradient or state.

    ``epoch``, ``batch``, ``layer`` and ``timestep`` locate the failure
    where known (None otherwise); the message names each one that is set.
    """

    def __init__(self, reason, epoch=None, batch=None, layer=None, timestep=None):
        self.reason = reason
        self.epoch, self.batch, self.layer, self.timestep = epoch, batch, layer, timestep
        where = ", ".join(f"{name} {value}" for name, value in self.location().items()
                          if value is not None)
        super().__init__(f"{reason} at {where}" if where else reason)

    def location(self):
        return {"epoch": self.epoch, "batch": self.batch, "layer": self.layer,
                "timestep": self.timestep}

    def at(self, **where):
        """The same failure with more of its location filled in."""
        return DivergenceError(self.reason, **{**self.location(), **where})


class CheckpointError(ValueError):
    """A checkpoint or cache stream is corrupt, truncated or has the wrong version."""


class ConfigError(ValueError):
    """A run configuration is malformed (unknown key, bad type or range)."""
