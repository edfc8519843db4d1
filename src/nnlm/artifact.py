"""Model persistence: a JSON manifest followed by named, length-prefixed,
CRC32-checked little-endian tensor blocks.  Saving is deterministic, so a
load/save round trip is byte-identical."""

from __future__ import annotations

import hashlib
import json
import struct
import zlib
from pathlib import Path

import numpy as np

from .config import RunConfig, parse_config, serialize_config
from .corpus import Vocabulary
from .models import (FnnCore, FnnParameters, LstmCore, LstmParameters,
                     RnnCore, RnnParameters)
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
    r = cfg.classes if cfg.classes > 0 else default_num_classes(k)
    if cfg.strategy == "class":
        if cfg.assign == "uniform":
            return assign_uniform_random(k, r, rng)
        if cfg.assign == "freq":
            return assign_by_frequency(vocab, r)
        return assign_by_sqrt_frequency(vocab, r)
    # hierarchical: frequency rules only make sense flat, depth 1
    if cfg.assign == "uniform":
        return hierarchy_uniform_random(k, cfg.levels, rng)
    flat = (assign_by_frequency if cfg.assign == "freq"
            else assign_by_sqrt_frequency)(vocab, r)
    return hierarchy_from_classes(flat)


def build_model(cfg: RunConfig, vocab: Vocabulary, partition=None):
    """(core, strategy, partition) for a run config; deterministic in the seed."""
    rng = make_rng(cfg.seed)
    if partition is None:
        partition = build_assignment(cfg, vocab, rng)
    k, m, n_h = vocab.size, cfg.m, cfg.n_h
    full = cfg.strategy == "full"
    kw = dict(direct=cfg.direct, bias=cfg.bias, output=full)
    if cfg.arch == "fnn":
        params = FnnParameters.create(k, m, n_h, cfg.n, rng, **kw)
        core = FnnCore(params)
    elif cfg.arch == "rnn":
        params = RnnParameters.create(k, m, n_h, rng, **kw)
        core = RnnCore(params)
    else:
        params = LstmParameters.create(k, m, n_h, rng, peepholes=cfg.peepholes, **kw)
        core = LstmCore(params)
    if full:
        strategy = FullSoftmax.for_model(params, energy=cfg.energy)
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
    order = tensors["struct.order"]
    if cfg.strategy == "class":
        return ClassAssignment(order, tensors["struct.bounds"])
    levels = []
    j = 1
    while f"struct.level{j}" in tensors:
        levels.append(tensors[f"struct.level{j}"])
        j += 1
    return HierarchicalCode(order, levels)


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


def _read_block(fh):
    head = fh.read(2)
    if not head:
        return None
    (name_len,) = struct.unpack("<H", head)
    name = fh.read(name_len).decode("utf-8")
    code, ndim = struct.unpack("<BB", fh.read(2))
    shape = struct.unpack(f"<{ndim}q", fh.read(8 * ndim))
    (data_len,) = struct.unpack("<Q", fh.read(8))
    data = fh.read(data_len)
    (crc,) = struct.unpack("<I", fh.read(4))
    if zlib.crc32(data) != crc:
        raise ArtifactError(f"checksum mismatch in tensor block {name!r}")
    arr = np.frombuffer(data, dtype=_DTYPES[code]).reshape(shape)
    return name, arr.astype(arr.dtype.newbyteorder("="))


def save_artifact(path: str | Path, cfg: RunConfig, vocab: Vocabulary,
                  core, strategy, partition=None):
    tensors = dict(core.params.arrays())
    tensors.update(strategy.params())
    tensors.update(_structure_tensors(partition))
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
        (mlen,) = struct.unpack("<I", fh.read(4))
        manifest = json.loads(fh.read(mlen).decode("utf-8"))
        tensors = {}
        while True:
            block = _read_block(fh)
            if block is None:
                break
            name, arr = block
            tensors[name] = arr
    if manifest.get("format_version") != FORMAT_VERSION:
        raise ArtifactError(f"unsupported artifact version {manifest.get('format_version')}")
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
    arrays = dict(core.params.arrays())
    arrays.update(strategy.params())
    for name, arr in arrays.items():
        loaded = tensors.get(name)
        if loaded is None:
            raise ArtifactError(f"artifact lacks tensor {name!r}")
        if loaded.shape != arr.shape:
            raise ArtifactError(
                f"tensor {name!r} has shape {loaded.shape}, expected {arr.shape}")
        arr[...] = loaded
    return cfg, vocab, core, strategy, partition
