"""Training configuration: flat ``key = value`` files plus overrides.

Lines starting with ``#`` and blank lines are ignored. Every key has a typed
default; unknown keys and type mismatches raise ConfigError naming the key.
``auto`` is accepted where the annotation admits None (ramp_epochs tracks
epochs, sinkhorn_reg scales with the data). TrainConfig is the one settings
object; it is frozen and checks every key's range when built, so no invalid
config exists (``dataclasses.replace`` checks again).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import get_args, get_type_hints

from .augment import check_semantics
from .curriculum import MODES
from .errors import ConfigError
from .graph import check_split_fractions, data_lines

@dataclass(frozen=True)
class TrainConfig:
    seed: int = 0
    data_dir: str = ""

    # sampling
    subgraph_size: int = 20
    teleport: float = 0.15

    # encoder
    embedding_dim: int = 64
    gcn_layers: int = 1

    # optimization
    learning_rate: float = 0.001
    batch_size: int = 500
    inner_steps: int = 10
    epochs: int = 50
    patience: int = 20

    # curriculum
    theta0: float = 15.0
    max_difficulty: float = 50.0
    ramp_epochs: int | None = None      # None: equal to epochs
    acl_mode: str = "soft_acl"
    eta1: float = 1.05
    eta2: float = 0.95

    # losses
    alpha: float = 1.0
    beta: float = 1.0
    xi: float = 1.0
    epsilon_margin: float = 0.1

    # augmentation
    semantics: str = "label"
    degree_buckets: int = 4

    # balance loss
    balance_max_points: int = 256
    sinkhorn_reg: float | None = None   # None: 0.05 * median cost
    sinkhorn_iters: int = 200

    # probe
    probe_l2: float = 1e-4

    # default node split when the dataset carries none
    split_train: float = 0.3
    split_val: float = 0.2

    def __post_init__(self):
        """Every range check of a run setting; raises ConfigError naming the key."""
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name}: must be finite")
        if "\0" in self.data_dir:     # no file system path holds one
            raise ConfigError("data_dir: must not contain a NUL character")
        positive_ints = ("subgraph_size", "embedding_dim", "batch_size", "inner_steps",
                         "epochs", "degree_buckets", "balance_max_points", "sinkhorn_iters")
        for name in positive_ints:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name}: must be >= 1")
        if self.batch_size < 2:
            raise ConfigError("batch_size: must be >= 2 (shuffled negatives need two summaries)")
        non_negative = ("seed", "patience", "alpha", "beta", "xi", "epsilon_margin")
        for name in non_negative:
            if getattr(self, name) < 0:
                raise ConfigError(f"{name}: must be >= 0")
        # probe_l2 = 0 leaves a separable train split with no probe minimiser
        for name in ("learning_rate", "probe_l2"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name}: must be positive")
        if not (0.0 < self.teleport < 1.0):
            raise ConfigError("teleport: must be in (0, 1)")
        if self.gcn_layers not in (1, 2):
            raise ConfigError("gcn_layers: must be 1 or 2")
        if self.acl_mode not in MODES:
            raise ConfigError(f"acl_mode: unknown mode {self.acl_mode!r}, expected one of {MODES}")
        check_semantics(self.semantics)
        check_split_fractions(self.split_train, self.split_val)
        if not (0.0 < self.theta0 <= self.max_difficulty <= 100.0):
            raise ConfigError("theta0/max_difficulty: need 0 < theta0 <= max_difficulty <= 100")
        if self.ramp_epochs is not None and self.ramp_epochs < 1:
            raise ConfigError("ramp_epochs: must be >= 1 or auto")
        if self.eta1 <= 1.0:
            raise ConfigError("eta1: must be > 1")
        if not (0.0 < self.eta2 < 1.0):
            raise ConfigError("eta2: must be in (0, 1)")
        if self.sinkhorn_reg is not None and self.sinkhorn_reg <= 0:
            raise ConfigError("sinkhorn_reg: must be positive (or auto)")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "TrainConfig":
        """The config of typed values, e.g. a checkpoint's echo."""
        annotations = get_type_hints(cls)
        unknown = set(raw) - set(annotations)
        if unknown:
            raise ConfigError(f"unknown config key: {sorted(unknown)[0]!r}")
        return cls(**{key: _typed(key, value, annotations[key]) for key, value in raw.items()})


def _typed(key: str, value: object, annotation) -> object:
    """``value`` as the type of ``annotation``: an int field takes an int, a
    float field an int or float, neither a bool; None where it is admitted."""
    target_type, *rest = get_args(annotation) or (annotation,)
    if value is None and type(None) in rest:
        return None
    accepted = {int: int, float: (int, float)}.get(target_type, target_type)
    if isinstance(value, accepted) and not isinstance(value, bool):
        return target_type(value)
    raise ConfigError(f"{key}: expected {target_type.__name__}, got {value!r}")


def _convert(key: str, text: str, annotation) -> object:
    """``text`` as the type of ``annotation``; ``auto`` or ``none`` is None
    where the annotation admits it."""
    text = text.strip()
    target_type, *rest = get_args(annotation) or (annotation,)
    if type(None) in rest and text.lower() in ("auto", "none"):
        return None
    try:
        return target_type(text)
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {text!r} as {target_type.__name__}") from None


def parse_config(path=None, overrides=()) -> TrainConfig:
    """Build a TrainConfig from an optional file plus ``key=value`` overrides,
    which win over the file."""
    entries = []    # (where, "key = value")
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        entries += data_lines(path)
    entries += [("--set", pair) for pair in overrides]
    annotations = get_type_hints(TrainConfig)
    raw: dict = {}
    for where, text in entries:
        if "=" not in text:
            raise ConfigError(f"{where}: expected 'key = value', got {text!r}")
        key, _, value = text.partition("=")
        key = key.strip()
        if key not in annotations:
            raise ConfigError(f"{where}: unknown config key: {key!r}")
        raw[key] = _convert(key, value, annotations[key])
    return TrainConfig.from_dict(raw)
