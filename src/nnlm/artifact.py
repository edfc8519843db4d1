"""Model persistence: a JSON manifest followed by named, length-prefixed,
CRC32-checked little-endian tensor blocks.  Saving is deterministic, so a
load/save round trip is byte-identical; loading a file that is not one whole
artifact raises ArtifactError."""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, parse_config, serialize_config
from .corpus import Vocabulary
from .models import (FnnCore, FnnParameters, LstmCore, LstmParameters,
                     RnnCore, RnnParameters, model_arrays)
from .numerics import make_rng
from .output_layer import (ClassAssignment, ClassSoftmax, FullSoftmax,
                           HierarchicalCode, HierarchicalSoftmax,
                           assign_by_frequency, assign_by_sqrt_frequency,
                           assign_uniform_random, default_num_classes,
                           hierarchy_from_classes, hierarchy_uniform_random)

MAGIC = b"NNLMART1"
FORMAT_VERSION = 1
_DTYPES = {0: "<f8", 1: "<i8"}
_DTYPE_CODES = {"float64": 0, "int64": 1}


class ArtifactError(RuntimeError):
    pass


def vocab_sha256(vocab: Vocabulary) -> str:
    return hashlib.sha256(vocab.to_tsv().encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Model construction
# ---------------------------------------------------------------------------

def build_assignment(cfg: RunConfig, vocab: Vocabulary, rng):
    """Class assignment or hierarchy described by the config, or None for
    the full softmax."""
    if cfg.strategy == "full":
        return None
    k = vocab.size
    if cfg.strategy == "hier" and cfg.assign == "uniform":
        return hierarchy_uniform_random(k, cfg.levels, rng)
    r = cfg.classes if cfg.classes > 0 else default_num_classes(k)
    if r > k:
        raise ConfigError(f"output.classes = {r} exceeds the vocabulary's {k} words")
    if cfg.assign == "uniform":
        return assign_uniform_random(k, r, rng)
    flat = (assign_by_frequency if cfg.assign == "freq"
            else assign_by_sqrt_frequency)(vocab, r)
    # a frequency rule gives one flat level, so its hierarchy has depth 1
    return flat if cfg.strategy == "class" else hierarchy_from_classes(flat)


def build_model(cfg: RunConfig, vocab: Vocabulary, partition=None):
    """(core, strategy, partition) for a run config; deterministic in the seed."""
    rng = make_rng(cfg.seed)
    if partition is None:
        partition = build_assignment(cfg, vocab, rng)
    k, m, n_h = vocab.size, cfg.m, cfg.n_h
    n_i = m * (cfg.n - 1) if cfg.arch == "fnn" else m

    def full_softmax():
        return FullSoftmax.create(k, n_h, rng, n_i, cfg.direct, cfg.bias, cfg.energy)

    # The full softmax's weights were once stored with the core's and drawn
    # before the FNN's and RNN's arrays but after the LSTM's; drawing them
    # at the same point keeps every seed's numbers and artifact bytes.
    early = cfg.strategy == "full" and cfg.arch != "lstm"
    strategy = full_softmax() if early else None
    if cfg.arch == "fnn":
        core = FnnCore(FnnParameters.create(k, m, n_h, cfg.n, rng, bias=cfg.bias))
    elif cfg.arch == "rnn":
        core = RnnCore(RnnParameters.create(k, m, n_h, rng, bias=cfg.bias))
    else:
        core = LstmCore(LstmParameters.create(k, m, n_h, rng, bias=cfg.bias,
                                              peepholes=cfg.peepholes))
    if strategy is None:
        if cfg.strategy == "full":
            strategy = full_softmax()
        elif cfg.strategy == "class":
            strategy = ClassSoftmax.create(partition, n_h, rng, bias=cfg.bias)
        else:
            strategy = HierarchicalSoftmax.create(partition, n_h, rng, bias=cfg.bias)
    return core, strategy, partition


def _structure_tensors(partition) -> dict[str, np.ndarray]:
    if partition is None:
        return {}
    if isinstance(partition, ClassAssignment):
        return {"struct.order": partition.order, "struct.bounds": partition.bounds}
    out = {"struct.order": partition.order}
    for j, b in enumerate(partition.levels):
        out[f"struct.level{j + 1}"] = b
    return out


def _rebuild_partition(cfg: RunConfig, tensors) -> object | None:
    if cfg.strategy == "full":
        return None
    depth = 1
    while f"struct.level{depth + 1}" in tensors:
        depth += 1
    names = (["struct.bounds"] if cfg.strategy == "class"
             else [f"struct.level{j}" for j in range(1, depth + 1)])
    lacking = [name for name in ("struct.order", *names) if name not in tensors]
    if lacking:
        raise ArtifactError(f"artifact lacks tensor {lacking[0]!r}")
    order, bounds = tensors["struct.order"], [tensors[name] for name in names]
    try:
        if cfg.strategy == "class":
            return ClassAssignment(order, bounds[0])
        return HierarchicalCode(order, bounds)
    except ValueError as exc:   # the partition names its arrays as they are stored
        raise ArtifactError(f"tensor struct.{exc}") from None


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

def _write_block(fh, name: str, arr: np.ndarray):
    if arr.dtype.name not in _DTYPE_CODES:
        arr = arr.astype(np.int64 if arr.dtype.kind == "i" else np.float64)
    code = _DTYPE_CODES[arr.dtype.name]
    data = np.ascontiguousarray(arr, dtype=_DTYPES[code]).tobytes()
    nb = name.encode("utf-8")
    fh.write(struct.pack("<H", len(nb)))
    fh.write(nb)
    fh.write(struct.pack("<BB", code, arr.ndim))
    fh.write(struct.pack(f"<{arr.ndim}q", *arr.shape))
    fh.write(struct.pack("<Q", len(data)))
    fh.write(data)
    fh.write(struct.pack("<I", zlib.crc32(data)))


class _Reader:
    """Front-to-back reads that refuse any length the rest of the file
    cannot hold, so a truncated file or a corrupt length field ends as
    ArtifactError before anything is allocated for it."""

    def __init__(self, fh):
        self.fh = fh
        self.left = os.fstat(fh.fileno()).st_size - fh.tell()

    def take(self, n: int, what: str) -> bytes:
        if n > self.left:
            raise ArtifactError(
                f"artifact is truncated: {what} needs {n} bytes, {self.left} remain")
        self.left -= n
        return self.fh.read(n)

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))


def _read_block(r: _Reader):
    (name_len,) = r.unpack("<H", "a tensor name length")
    name = r.take(name_len, "a tensor name").decode("utf-8", "replace")
    what = f"tensor block {name!r}"
    code, ndim = r.unpack("<BB", what)
    shape = r.unpack(f"<{ndim}q", what)
    (data_len,) = r.unpack("<Q", what)
    data = r.take(data_len, what)
    (crc,) = r.unpack("<I", what)
    if zlib.crc32(data) != crc:
        raise ArtifactError(f"checksum mismatch in tensor block {name!r}")
    if (code not in _DTYPES or min(shape, default=0) < 0
            or data_len != 8 * math.prod(shape)):
        raise ArtifactError(f"malformed header in tensor block {name!r}")
    arr = np.frombuffer(data, dtype=_DTYPES[code]).reshape(shape)
    return name, arr.astype(arr.dtype.newbyteorder("="))


_MANIFEST_KEYS = ("format_version", "config", "vocab_words", "vocab_freqs",
                  "vocab_sha256", "tensors")


def _parse_manifest(blob: bytes) -> dict:
    try:
        manifest = json.loads(blob)
    except ValueError as exc:   # JSONDecodeError and UnicodeDecodeError
        raise ArtifactError(f"unreadable artifact manifest: {exc}") from None
    lacking = [key for key in _MANIFEST_KEYS if key not in manifest]
    if lacking:
        raise ArtifactError(f"artifact manifest lacks {lacking}")
    if manifest["format_version"] != FORMAT_VERSION:
        raise ArtifactError(f"unsupported artifact version {manifest['format_version']}")
    return manifest


def save_artifact(path: str | Path, cfg: RunConfig, vocab: Vocabulary,
                  core, strategy, partition=None):
    tensors = {**model_arrays(core, strategy), **_structure_tensors(partition)}
    manifest = {
        "format_version": FORMAT_VERSION,
        "config": serialize_config(cfg),
        "seed": cfg.seed,
        "vocab_words": vocab.words,
        "vocab_freqs": [int(f) for f in vocab.frequencies],
        "vocab_sha256": vocab_sha256(vocab),
        "tensors": sorted(tensors),
    }
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for name in sorted(tensors):
            _write_block(fh, name, tensors[name])


def load_artifact(path: str | Path):
    """(config, vocab, core, strategy, partition); integrity-checked."""
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise ArtifactError(f"{path} is not a model artifact")
        r = _Reader(fh)
        (mlen,) = r.unpack("<I", "the manifest length")
        manifest = _parse_manifest(r.take(mlen, "the manifest"))
        tensors = dict(_read_block(r) for _ in manifest["tensors"])
        if r.left:
            raise ArtifactError(f"{r.left} bytes follow the last tensor block")
    cfg = parse_config(manifest["config"])
    words = manifest["vocab_words"]
    freqs = np.array(manifest["vocab_freqs"], dtype=np.int64)
    vocab = Vocabulary(words, freqs, {w: i for i, w in enumerate(words)})
    if vocab_sha256(vocab) != manifest["vocab_sha256"]:
        raise ArtifactError("vocabulary hash mismatch; refusing to load")
    missing = set(manifest["tensors"]) - set(tensors)
    if missing:
        raise ArtifactError(f"artifact is missing tensor blocks: {sorted(missing)}")
    partition = _rebuild_partition(cfg, tensors)
    core, strategy, partition = build_model(cfg, vocab, partition=partition)
    for name, arr in model_arrays(core, strategy).items():
        loaded = tensors.get(name)
        if loaded is None:
            raise ArtifactError(f"artifact lacks tensor {name!r}")
        if loaded.shape != arr.shape:
            raise ArtifactError(
                f"tensor {name!r} has shape {loaded.shape}, expected {arr.shape}")
        arr[...] = loaded
    return cfg, vocab, core, strategy, partition
