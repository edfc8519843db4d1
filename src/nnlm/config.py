"""Line-oriented ``key = value`` run configuration with dotted sections.

The format is diff-friendly on purpose: one experiment knob per line, ``#``
comments, canonical serialization so parse -> serialize -> parse is a fixed
point.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .caching import CacheConfig
from .training import TrainingConfig

ARCHS = ("fnn", "rnn", "lstm")
STRATEGIES = ("full", "class", "hier")
ASSIGN_RULES = ("uniform", "freq", "sqrt_freq")
EVAL_MODES = ("static", "dynamic", "reversed")


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    # model
    arch: str = "lstm"
    n: int = 5
    m: int = 100
    n_h: int = 200
    direct: bool = False
    bias: bool = False
    peepholes: bool = True
    # output layer
    strategy: str = "class"
    classes: int = 0              # 0 means ceil(sqrt(k))
    levels: int = 1
    assign: str = "sqrt_freq"
    energy: bool = False
    # corpus
    corpus_path: str = ""
    lowercase: bool = True
    min_count: int = 1
    n_train: int = 800000
    n_valid: int = 200000
    reverse: bool = False         # train on reversed sentences
    # training
    alpha: float = 0.1
    beta: float = 1e-06
    max_epochs: int = 50
    decay: float = 0.5
    improve: float = 1.0
    patience: int = 3
    clip: float = 5.0
    seed: int = 1
    mode: str = "exact"
    block_size: int = 100
    min_ess: float = 50.0
    max_samples: int = 2000
    # evaluation
    eval_mode: str = "static"
    alpha_dyn: float = 0.05
    beta_dyn: float = 0.0
    # cache
    lam: float = 1.0
    cache_length: int = 100
    cache_decay: str = "constant"
    gamma: float = 0.9
    cache_mode: str = "word"
    carryover: bool = False

    def validate(self):
        checks = [
            ("model.arch", self.arch, ARCHS),
            ("output.strategy", self.strategy, STRATEGIES),
            ("output.assign", self.assign, ASSIGN_RULES),
            ("eval.mode", self.eval_mode, EVAL_MODES),
        ]
        for key, value, allowed in checks:
            if value not in allowed:
                raise ConfigError(f"{key} must be one of {allowed}, got {value!r}")
        if self.arch == "fnn" and self.n < 2:
            raise ConfigError("model.n must be >= 2 for the feed-forward model")
        minima = (("model.m", self.m, 1), ("model.n_h", self.n_h, 1),
                  ("output.classes", self.classes, 0), ("output.levels", self.levels, 1),
                  ("corpus.n_valid", self.n_valid, 1))
        for key, value, least in minima:
            if value < least:
                raise ConfigError(f"{key} must be >= {least}, got {value}")
        if not 0.0 <= self.alpha_dyn < float("inf"):
            raise ConfigError(f"eval.alpha_dyn must be finite and >= 0, got {self.alpha_dyn}")
        if not 0.0 <= self.beta_dyn < 1.0:
            raise ConfigError(f"eval.beta_dyn must be in [0, 1), got {self.beta_dyn}")
        if self.strategy == "hier" and self.assign != "uniform" and self.levels != 1:
            raise ConfigError(
                f"output.levels = {self.levels} needs output.assign = uniform; "
                f"{self.assign} gives one level of classes")
        if self.mode == "importance" and self.arch != "fnn":
            raise ConfigError("train.mode = importance requires model.arch = fnn")
        if self.mode == "importance" and not (self.strategy == "full" and self.energy):
            raise ConfigError(
                "train.mode = importance requires output.strategy = full and "
                "output.energy = true")
        for section, check in (("train", self.training_config),
                               ("cache", self._cache_section)):
            try:
                check()
            except ValueError as exc:
                raise ConfigError(f"{section}: {exc}") from None

    def training_config(self) -> TrainingConfig:
        return TrainingConfig(
            alpha=self.alpha, beta=self.beta, max_epochs=self.max_epochs,
            decay=self.decay, improve_threshold=self.improve,
            patience=self.patience, seed=self.seed, clip=self.clip,
            mode=self.mode, block_size=self.block_size, min_ess=self.min_ess,
            max_samples=self.max_samples)

    def _cache_section(self) -> CacheConfig:
        return CacheConfig(lam=self.lam, length=self.cache_length,
                           decay=self.cache_decay, gamma=self.gamma,
                           mode=self.cache_mode)

    def cache_config(self) -> CacheConfig | None:
        """The cache to score with; None at cache.lambda = 1, which keeps
        the model's probabilities unchanged."""
        return None if self.lam == 1.0 else self._cache_section()


# dotted key -> dataclass field
KEYS = {
    "model.arch": "arch",
    "model.n": "n",
    "model.m": "m",
    "model.n_h": "n_h",
    "model.direct": "direct",
    "model.bias": "bias",
    "model.peepholes": "peepholes",
    "output.strategy": "strategy",
    "output.classes": "classes",
    "output.levels": "levels",
    "output.assign": "assign",
    "output.energy": "energy",
    "corpus.path": "corpus_path",
    "corpus.lowercase": "lowercase",
    "corpus.min_count": "min_count",
    "corpus.n_train": "n_train",
    "corpus.n_valid": "n_valid",
    "corpus.reverse": "reverse",
    "train.alpha": "alpha",
    "train.beta": "beta",
    "train.max_epochs": "max_epochs",
    "train.decay": "decay",
    "train.improve": "improve",
    "train.patience": "patience",
    "train.clip": "clip",
    "train.seed": "seed",
    "train.mode": "mode",
    "train.block_size": "block_size",
    "train.min_ess": "min_ess",
    "train.max_samples": "max_samples",
    "eval.mode": "eval_mode",
    "eval.alpha_dyn": "alpha_dyn",
    "eval.beta_dyn": "beta_dyn",
    "cache.lambda": "lam",
    "cache.length": "cache_length",
    "cache.decay": "cache_decay",
    "cache.gamma": "gamma",
    "cache.mode": "cache_mode",
    "cache.carryover": "carryover",
}

_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _parse_value(key: str, raw: str, kind: str):
    if kind == "bool":
        if raw not in ("true", "false"):
            raise ConfigError(f"{key}: expected true/false, got {raw!r}")
        return raw == "true"
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {raw!r} as {kind}") from None
    return raw


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_config(text: str) -> RunConfig:
    cfg = RunConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in KEYS:
            raise ConfigError(f"line {lineno}: unknown configuration key {key!r}")
        attr = KEYS[key]
        setattr(cfg, attr, _parse_value(key, raw, _FIELD_TYPES[attr]))
    cfg.validate()
    return cfg


def serialize_config(cfg: RunConfig) -> str:
    lines = [
        f"{key} = {_format_value(getattr(cfg, attr))}"
        for key, attr in sorted(KEYS.items())
    ]
    return "\n".join(lines) + "\n"


def load_config(path: str | Path) -> RunConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"))
