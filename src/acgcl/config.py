"""Training configuration: flat ``key = value`` files plus overrides.

Lines starting with ``#`` and blank lines are ignored. Every key has a typed
default; unknown keys and type mismatches raise ConfigError naming the key.
``auto`` is accepted where noted (ramp_epochs tracks epochs, sinkhorn_reg
scales with the data).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .augment import check_metric
from .curriculum import MODES, PacingConfig
from .errors import ConfigError
from .graph import check_split_fractions
from .losses import LossWeights, SinkhornConfig


@dataclass
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
    improvement_tol: float = 1e-4

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
    normalize_weighted_loss: bool = False

    # augmentation
    distance_metric: str = "euclidean"
    semantics: str = "label"
    degree_buckets: int = 4
    dis_sample_budget: int = 50000

    # balance loss
    balance_max_points: int = 256
    sinkhorn_reg: float | None = None   # None: 0.05 * median cost
    sinkhorn_iters: int = 200
    sinkhorn_tol: float = 1e-6

    # probe
    probe_iters: int = 500
    probe_l2: float = 1e-4
    probe_lr: float = 0.5

    # default node split when the dataset carries none
    split_train: float = 0.3
    split_val: float = 0.2

    def validate(self) -> None:
        positive_ints = ("subgraph_size", "embedding_dim", "batch_size", "inner_steps",
                         "epochs", "degree_buckets", "dis_sample_budget",
                         "balance_max_points", "sinkhorn_iters", "probe_iters")
        for name in positive_ints:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name}: must be >= 1")
        if self.batch_size < 2:
            raise ConfigError("batch_size: must be >= 2 (shuffled negatives need two summaries)")
        if self.patience < 0:
            raise ConfigError("patience: must be >= 0")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate: must be positive")
        if self.probe_lr <= 0:
            raise ConfigError("probe_lr: must be positive")
        if self.probe_l2 < 0:
            raise ConfigError("probe_l2: must be >= 0")
        if not (0.0 < self.teleport < 1.0):
            raise ConfigError("teleport: must be in (0, 1)")
        if self.gcn_layers not in (1, 2):
            raise ConfigError("gcn_layers: must be 1 or 2")
        if self.acl_mode not in MODES:
            raise ConfigError(f"acl_mode: unknown mode {self.acl_mode!r}, expected one of {MODES}")
        if self.semantics not in ("label", "degree-bucket"):
            raise ConfigError("semantics: must be 'label' or 'degree-bucket'")
        check_metric(self.distance_metric)
        check_split_fractions(self.split_train, self.split_val)
        if self.ramp_epochs is not None and self.ramp_epochs < 1:
            raise ConfigError("ramp_epochs: must be >= 1 or auto")
        # delegate range checks to the dataclasses they feed
        self.pacing()
        self.loss_weights()
        self.sinkhorn()
        if self.eta1 <= 1.0:
            raise ConfigError("eta1: must be > 1")
        if not (0.0 < self.eta2 < 1.0):
            raise ConfigError("eta2: must be in (0, 1)")

    def pacing(self) -> PacingConfig:
        return PacingConfig(
            theta0=self.theta0,
            max_difficulty=self.max_difficulty,
            ramp_epochs=self.ramp_epochs if self.ramp_epochs is not None else self.epochs,
        )

    def loss_weights(self) -> LossWeights:
        return LossWeights(alpha=self.alpha, beta=self.beta, xi=self.xi, epsilon=self.epsilon_margin)

    def sinkhorn(self) -> SinkhornConfig:
        return SinkhornConfig(reg=self.sinkhorn_reg, max_iters=self.sinkhorn_iters, tol=self.sinkhorn_tol)

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "TrainConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config key: {sorted(unknown)[0]}")
        config = cls(**raw)
        config.validate()
        return config


_OPTIONAL_INT = ("ramp_epochs",)
_OPTIONAL_FLOAT = ("sinkhorn_reg",)


def _convert(key: str, text: str, target_type) -> object:
    text = text.strip()
    if key in _OPTIONAL_INT or key in _OPTIONAL_FLOAT:
        if text.lower() in ("auto", "none"):
            return None
        target_type = int if key in _OPTIONAL_INT else float
    try:
        if target_type is bool:
            lowered = text.lower()
            if lowered in ("true", "1", "yes", "on"):
                return True
            if lowered in ("false", "0", "no", "off"):
                return False
            raise ValueError(text)
        if target_type is int:
            return int(text)
        if target_type is float:
            return float(text)
        return text
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {text!r} as {target_type.__name__}") from None


def _field_types() -> dict[str, type]:
    types: dict[str, type] = {}
    for f in fields(TrainConfig):
        if f.name in _OPTIONAL_INT:
            types[f.name] = int
        elif f.name in _OPTIONAL_FLOAT:
            types[f.name] = float
        else:
            types[f.name] = type(f.default)
    return types


def parse_overrides(pairs) -> dict:
    """Parse ["key=value", ...] into typed config values."""
    types = _field_types()
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override {pair!r} is not of the form key=value")
        key, _, text = pair.partition("=")
        key = key.strip()
        if key not in types:
            raise ConfigError(f"unknown config key: {key}")
        out[key] = _convert(key, text, types[key])
    return out


def parse_config(path=None, overrides=()) -> TrainConfig:
    """Build a TrainConfig from an optional file plus key=value overrides."""
    types = _field_types()
    raw: dict = {}
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {text!r}")
            key, _, value = text.partition("=")
            key = key.strip()
            if key not in types:
                raise ConfigError(f"{path}:{lineno}: unknown config key: {key}")
            raw[key] = _convert(key, value, types[key])
    raw.update(parse_overrides(overrides))
    config = TrainConfig(**raw)
    config.validate()
    return config
