"""Line-oriented ``key = value`` run configuration with dotted sections.

The format is diff-friendly on purpose: one experiment knob per line, ``#``
comments, canonical serialization so parse -> serialize -> parse is a fixed
point.  Each setting is declared once, as a ``RunConfig`` field that names
its key, its default, the range ``validate`` holds it to and the command-line
flag that sets it, if any; the key table, the parser, the per-key checks,
the training section and the CLI flags are all derived from those fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

from .caching import CacheConfig
from .training import TrainingConfig


class ConfigError(ValueError):
    pass


def setting(key: str, default, *, choices=(), least=None, below=float("inf"),
            flag=None):
    """A RunConfig field set by ``key``.  ``validate`` holds it to
    ``choices``, or to [least, below) when ``least`` is given; ``flag`` is
    the command-line option of ``nnlm eval`` (eval.* and cache.* keys) or
    ``nnlm reproduce`` (the others) that sets it."""
    return field(default=default, metadata=dict(
        key=key, choices=choices, least=least, below=below, flag=flag))


@dataclass
class RunConfig:
    # model
    arch: str = setting("model.arch", "lstm", choices=("fnn", "rnn", "lstm"))
    n: int = setting("model.n", 5, least=1)
    m: int = setting("model.m", 100, least=1, flag="--m")
    n_h: int = setting("model.n_h", 200, least=1, flag="--n-h")
    direct: bool = setting("model.direct", False)
    bias: bool = setting("model.bias", False)
    peepholes: bool = setting("model.peepholes", True)
    # output layer
    strategy: str = setting("output.strategy", "class",
                            choices=("full", "class", "hier"))
    classes: int = setting("output.classes", 0, least=0)  # 0 means ceil(sqrt(k))
    levels: int = setting("output.levels", 1, least=1)
    assign: str = setting("output.assign", "sqrt_freq",
                          choices=("uniform", "freq", "sqrt_freq"))
    energy: bool = setting("output.energy", False)
    # corpus
    corpus_path: str = setting("corpus.path", "")
    lowercase: bool = setting("corpus.lowercase", True)
    min_count: int = setting("corpus.min_count", 1, least=1, flag="--min-count")
    n_train: int = setting("corpus.n_train", 800000, least=1, flag="--n-train")
    n_valid: int = setting("corpus.n_valid", 200000, least=1, flag="--n-valid")
    reverse: bool = setting("corpus.reverse", False)  # train on reversed sentences
    # training: TrainingConfig, which shares these field names, checks them
    alpha: float = setting("train.alpha", 0.1)
    beta: float = setting("train.beta", 1e-06)
    max_epochs: int = setting("train.max_epochs", 50, flag="--max-epochs")
    decay: float = setting("train.decay", 0.5)
    improve_threshold: float = setting("train.improve", 1.0)
    patience: int = setting("train.patience", 3)
    clip: float = setting("train.clip", 5.0)
    seed: int = setting("train.seed", 1, flag="--seed")
    mode: str = setting("train.mode", "exact")
    block_size: int = setting("train.block_size", 100)
    min_ess: float = setting("train.min_ess", 50.0)
    max_samples: int = setting("train.max_samples", 2000)
    # evaluation
    eval_mode: str = setting("eval.mode", "static", flag="--mode",
                             choices=("static", "dynamic", "reversed"))
    alpha_dyn: float = setting("eval.alpha_dyn", 0.05, least=0.0, flag="--alpha-dyn")
    beta_dyn: float = setting("eval.beta_dyn", 0.0, least=0.0, below=1.0,
                              flag="--beta-dyn")
    # cache: CacheConfig checks these
    lam: float = setting("cache.lambda", 1.0, flag="--cache-lambda")
    cache_length: int = setting("cache.length", 100, flag="--cache-length")
    cache_decay: str = setting("cache.decay", "constant", flag="--cache-decay")
    gamma: float = setting("cache.gamma", 0.9, flag="--gamma")
    cache_mode: str = setting("cache.mode", "word", flag="--cache-mode")
    carryover: bool = setting("cache.carryover", False, flag="--carryover")

    def validate(self):
        for f in fields(self):
            meta, value = f.metadata, getattr(self, f.name)
            if meta["choices"] and value not in meta["choices"]:
                raise ConfigError(
                    f"{meta['key']} must be one of {meta['choices']}, got {value!r}")
            if meta["least"] is not None and not meta["least"] <= value < meta["below"]:
                raise ConfigError(f"{meta['key']} must be in "
                                  f"[{meta['least']}, {meta['below']}), got {value!r}")
        if self.arch == "fnn" and self.n < 2:
            raise ConfigError("model.n must be >= 2 for the feed-forward model")
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
        return TrainingConfig(**{f.name: getattr(self, f.name)
                                 for f in fields(TrainingConfig)})

    def _cache_section(self) -> CacheConfig:
        return CacheConfig(lam=self.lam, length=self.cache_length,
                           decay=self.cache_decay, gamma=self.gamma,
                           mode=self.cache_mode)

    def cache_config(self) -> CacheConfig | None:
        """The cache to score with; None at cache.lambda = 1, which keeps
        the model's probabilities unchanged."""
        return None if self.lam == 1.0 else self._cache_section()


# dotted key -> the RunConfig field it sets
KEYS = {f.metadata["key"]: f for f in fields(RunConfig)}


def parse_value(key: str, raw: str):
    """``raw`` as a value of ``key``, typed as the key's field is."""
    kind = KEYS[key].type
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
        setattr(cfg, KEYS[key].name, parse_value(key, raw))
    cfg.validate()
    return cfg


def serialize_config(cfg: RunConfig) -> str:
    lines = [f"{key} = {_format_value(getattr(cfg, f.name))}"
             for key, f in sorted(KEYS.items())]
    return "\n".join(lines) + "\n"


def load_config(path: str | Path) -> RunConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"))
