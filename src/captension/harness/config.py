"""Experiment configuration: flat key = value files, typed per field."""

import math
from typing import NamedTuple

from ..errors import ConfigError

__all__ = ["ExperimentConfig"]

# file/CLI spellings that differ from the attribute name
_ALIASES = {"t_final": "T"}


class _Fields(NamedTuple):
    n_theta: int = 32
    n_r: int = 16
    T: float = 0.1
    k_list: tuple = (100.0, 200.0, 400.0, 800.0)
    stream_mode: int = 2
    amplitude: float = 0.05
    n_outputs: int = 21
    dt_fixed: float = 1e-3
    out_dir: str = "out"


class ExperimentConfig(_Fields):
    """Everything a run needs; defaults are the reference desk scale.

    dt_fixed is the largest step of both flows in run and sweep (the
    free flow's is also capped by dt_free_max).  Every construction is
    checked, the copies of `_replace` too (through `_make`).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.n_theta < 8 or self.n_theta % 2:
            raise ConfigError("n_theta must be an even integer >= 8")
        if self.n_r < 8:
            raise ConfigError("n_r must be >= 8")
        if not _positive(self.T):
            raise ConfigError("T must be finite and positive")
        if not self.k_list:
            raise ConfigError("k_list must not be empty")
        ks = tuple(float(k) for k in self.k_list)
        if not all(_positive(k) for k in ks):
            raise ConfigError("every k must be finite and positive")
        if any(b <= a for a, b in zip(ks, ks[1:])):
            raise ConfigError("k_list must be strictly increasing")
        if not 0 <= self.stream_mode < self.n_theta // 2:
            raise ConfigError("stream_mode must be >= 0 and < n_theta / 2")
        if not (self.amplitude >= 0 and math.isfinite(self.amplitude)):
            raise ConfigError("amplitude must be finite and >= 0")
        if self.n_outputs < 2:
            raise ConfigError("n_outputs must be >= 2")
        if not _positive(self.dt_fixed):
            raise ConfigError("dt_fixed must be finite and positive")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @classmethod
    def from_file(cls, path, unread=()):
        """Build from a flat key = value file, each value typed as its
        field's default.  Rejected: an unknown key, a key given twice (T
        and t_final are one key), and a key in `unread`, which the
        command never reads."""
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        kwargs, first_line = {}, {}
        for lineno, line in enumerate(lines, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            raw_key, _, value = (s.strip() for s in line.partition("="))
            key = _ALIASES.get(raw_key, raw_key)
            if key not in _DEFAULTS:
                raise ConfigError(f"unknown configuration key {raw_key!r}")
            if key in first_line:
                raise ConfigError(
                    f"{path}:{lineno}: key {raw_key!r} sets {key!r} again, "
                    f"first set on line {first_line[key]}")
            if key in unread:
                raise ConfigError(
                    f"configuration key {raw_key!r} is not read by this "
                    "command and would change nothing")
            first_line[key] = lineno
            kwargs[key] = _coerce(key, value)
        return cls(**kwargs)


_DEFAULTS = ExperimentConfig._field_defaults


def _positive(x):
    return 0 < x < math.inf


def _coerce(key, value):
    """A string typed as the field's default: int, float or str, and the
    comma list of k for the tuple k_list."""
    default = _DEFAULTS[key]
    try:
        if isinstance(default, tuple):
            return tuple(float(v) for v in value.split(","))
        return type(default)(value)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {value!r}") from exc
