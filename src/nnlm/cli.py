"""Experiment runner: ``nnlm train``, ``nnlm eval``, and ``nnlm reproduce``.

Exit codes: 0 success, 1 runtime failure, 2 configuration/usage error,
3 acceptance-band failure in ``reproduce``.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import evaluation, training
from .artifact import ArtifactError, build_model, load_artifact, save_artifact
from .config import (KEYS, ConfigError, RunConfig, load_config, parse_value,
                     serialize_config)
from .corpus import build_vocabulary, load_documents, split_corpus
from .evaluation import reverse_sentences

CORPUS_ROOT_ENV = "NNLM_CORPUS_ROOT"


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _provenance(cfg: RunConfig, corpus_path: Path) -> str:
    lines = [f"# corpus_sha256: {_sha256_file(corpus_path)}",
             f"# seed: {cfg.seed}"]
    lines += [f"# {line}" for line in serialize_config(cfg).splitlines()]
    return "\n".join(lines) + "\n"


def _read_sentences(path, lowercase: bool):
    """The corpus's sentences and the index of each one's document, which
    carryover resets on."""
    docs = load_documents(path, lowercase=lowercase)
    return ([s for doc in docs for s in doc],
            [i for i, doc in enumerate(docs) for _ in doc])


def _load_split(cfg: RunConfig):
    sentences, doc_ids = _read_sentences(cfg.corpus_path, cfg.lowercase)
    split = split_corpus(sentences, cfg.n_train, cfg.n_valid)
    return split, doc_ids[len(split.train) + len(split.validation):]


def _train(cfg: RunConfig, outdir: Path, echo=None) -> list:
    """Train a model under ``cfg`` and save it, its vocabulary and its epoch
    log, headed by the run's provenance, in ``outdir``."""
    outdir.mkdir(parents=True, exist_ok=True)
    split, _ = _load_split(cfg)
    if cfg.reverse:
        split.train = reverse_sentences(split.train)
        split.validation = reverse_sentences(split.validation)
    vocab = build_vocabulary(split.train, min_count=cfg.min_count)
    core, strategy, partition = build_model(cfg, vocab)
    epochs_path = outdir / "epochs.tsv"
    epochs_path.write_text(
        _provenance(cfg, Path(cfg.corpus_path)) + training.TSV_HEADER,
        encoding="utf-8")
    (outdir / "vocab.tsv").write_text(vocab.to_tsv(), encoding="utf-8")
    reports = training.train(core, strategy, split, vocab, cfg.training_config(),
                             log_path=epochs_path, echo=echo)
    save_artifact(outdir / "model.nnlm", cfg, vocab, core, strategy, partition)
    return reports


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    if not cfg.corpus_path:
        raise ConfigError("corpus.path is required for training")

    def echo(rep):
        print(f"epoch {rep.epoch}: train_nll={rep.train_nll:.4f} "
              f"valid_ppl={rep.valid_ppl:.2f} words/s={rep.words_per_s:.0f} "
              f"lr={rep.alpha:.4g}")

    outdir = Path(args.outdir)
    _train(cfg, outdir, echo=echo if not args.quiet else None)
    print(f"saved {outdir / 'model.nnlm'}")
    return 0


def _add_flags(p: argparse.ArgumentParser, *sections: str):
    """A flag for each RunConfig key in ``sections`` that declares one, as
    ``args.flags``; a bool key's flag takes no value and sets it true."""
    flags = []
    for key, f in KEYS.items():
        if f.metadata["flag"] and key.split(".")[0] in sections:
            extra = (dict(action="store_const", const="true", help=f"sets {key} = true")
                     if f.type == "bool" else dict(help=f"sets {key}"))
            p.add_argument(f.metadata["flag"], dest=f.name, **extra)
            flags.append((key, f.name))
    p.set_defaults(flags=flags)


def _flag_values(args) -> dict:
    """RunConfig field -> value for each flag given, parsed as the key's
    value in a config file is; an absent flag keeps the key as it is."""
    return {name: parse_value(key, getattr(args, name))
            for key, name in args.flags if getattr(args, name) is not None}


def cmd_eval(args) -> int:
    flags = _flag_values(args)
    cfg, vocab, core, strategy, _ = load_artifact(args.artifact)
    cfg = replace(cfg, **flags)
    cfg.validate()
    sentences, doc_ids = _read_sentences(args.corpus, cfg.lowercase)
    if cfg.eval_mode == "dynamic":
        rep = training.dynamic_evaluate(core, strategy, sentences, vocab,
                                        cfg.alpha_dyn, cfg.beta_dyn, cfg.clip)
    else:
        if cfg.eval_mode == "reversed":
            sentences = reverse_sentences(sentences)
        rep = evaluation.perplexity(core, strategy, sentences, vocab,
                                    cache=cfg.cache_config(),
                                    carryover=cfg.carryover, doc_ids=doc_ids)
    out = _provenance(cfg, Path(args.corpus)) + rep.to_tsv()
    if args.out:
        Path(args.out).write_text(out, encoding="utf-8")
    wps = "-" if rep.words_per_s is None else f"{rep.words_per_s:.0f}"
    print(f"tokens={rep.tokens}  PPL={rep.ppl:.2f}  words/s={wps}  mode={cfg.eval_mode}")
    return 0


# ---------------------------------------------------------------------------
# Reference-table reproduction recipes
# ---------------------------------------------------------------------------

def _corpus_file(args) -> Path:
    root = args.corpus_root or os.environ.get(CORPUS_ROOT_ENV)
    if not root:
        raise ConfigError(
            f"no corpus available: pass --corpus-root or set {CORPUS_ROOT_ENV} "
            "to a directory containing brown.txt (newline-delimited sentences)")
    path = Path(root) / "brown.txt"
    if not path.exists():
        raise ConfigError(f"corpus file not found: {path}")
    return path


def _run_cached(name: str, cfg: RunConfig, args):
    """Train (or reuse) one configuration; returns (test PPL report, words/s).
    A directory is reused only under the same configuration, and only if its
    epoch log is headed by this corpus's provenance and records an epoch."""
    outdir = Path(args.outdir) / name
    artifact = outdir / "model.nnlm"
    if not artifact.exists():
        t0 = time.perf_counter()
        reports = _train(cfg, outdir)
        print(f"[{name}] trained {len(reports)} epochs in "
              f"{time.perf_counter() - t0:.0f}s")
    cfg2, vocab, core, strategy, _ = load_artifact(artifact)
    if serialize_config(cfg2) != serialize_config(cfg):
        raise ConfigError(f"{artifact} was trained under another configuration; "
                          "remove it or choose another --outdir")
    log = outdir / "epochs.tsv"
    lines = log.read_text(encoding="utf-8").splitlines(True) if log.exists() else []
    header = "".join(l for l in lines if l.startswith("#"))
    rows = [l for l in lines if l.strip() and not l.startswith(("#", "epoch\t"))]
    if header != _provenance(cfg, Path(cfg.corpus_path)) or not rows:
        raise ConfigError(f"{outdir} holds no finished run on this corpus (its "
                          "epochs.tsv header differs or records no epoch); "
                          "remove it or choose another --outdir")
    split, doc_ids = _load_split(cfg2)
    test = reverse_sentences(split.test) if cfg2.reverse else split.test
    rep = evaluation.perplexity(core, strategy, test, vocab)
    wps = float(rows[-1].split("\t")[3])   # training throughput of the last epoch
    return rep, wps, (core, strategy, vocab, split, doc_ids)


def _band_row(label, reference, measured, lo, hi):
    ok = lo <= measured <= hi
    return ok, (f"| {label} | {reference} | {measured:.2f} | "
                f"[{lo:.2f}, {hi:.2f}] | {'pass' if ok else 'FAIL'} |")


def cmd_reproduce(args) -> int:
    table = args.table
    rows = ["| run | reference | measured | band | status |",
            "|---|---|---|---|---|"]
    failures = 0

    def record(ok_row):
        nonlocal failures
        ok, row = ok_row
        rows.append(row)
        if not ok:
            failures += 1

    if table not in ("1", "2", "3", "4", "dynamic"):
        raise ConfigError(f"unknown table id {table!r}; use 1, 2, 3, 4 or dynamic")
    flags = _flag_values(args)
    base = RunConfig(corpus_path=str(_corpus_file(args)), **flags)
    base.validate()
    if table == "1":
        for arch, ref, band in (("fnn", 223.85, (223.85 * 0.8, 223.85 * 1.2)),
                                  ("rnn", 221.10, (221.10 * 0.8, 221.10 * 1.2)),
                                  ("lstm", 237.93, (200.0, 280.0))):
            cfg = replace(base, arch=arch)
            rep, _, _ = _run_cached(f"t1_{arch}", cfg, args)
            record(_band_row(arch.upper(), ref, rep.ppl, *band))
    elif table == "2":
        ppl = {}
        wps = {}
        for levels, ref in ((1, 227.51), (3, 312.82), (5, 438.58)):
            cfg = replace(base, strategy="hier", assign="uniform", levels=levels)
            rep, w, _ = _run_cached(f"t2_uniform_l{levels}", cfg, args)
            ppl[levels] = rep.ppl
            wps[levels] = w
            rows.append(f"| uniform l={levels} | {ref} | {rep.ppl:.2f} | trend | - |")
        mono = ppl[1] < ppl[3] < ppl[5]
        record((mono, f"| PPL monotone in depth | yes | {mono} | l1<l3<l5 | "
                f"{'pass' if mono else 'FAIL'} |"))
        for rule, ref in (("freq", 248.99), ("sqrt_freq", 237.93)):
            cfg = replace(base, strategy="class", assign=rule)
            rep, w, _ = _run_cached(f"t2_{rule}", cfg, args)
            ppl[rule] = rep.ppl
            wps[rule] = w
            rows.append(f"| {rule} l=1 | {ref} | {rep.ppl:.2f} | trend | - |")
        ok = ppl["sqrt_freq"] <= ppl["freq"]
        record((ok, f"| sqrt-freq <= freq | yes | {ok} | - | "
                f"{'pass' if ok else 'FAIL'} |"))
        _, w_full, _ = _run_cached("t2_full", replace(base, strategy="full"), args)
        ratio = wps["sqrt_freq"] / w_full
        record((ratio >= 1.5, f"| class/full train speed | >1 | {ratio:.2f}x "
                f"| >=1.5x | {'pass' if ratio >= 1.5 else 'FAIL'} |"))
    elif table == "3":
        rep, _, extras = _run_cached("baseline", base, args)
        core, strategy, vocab, split, doc_ids = extras
        carry = evaluation.perplexity(core, strategy, split.test, vocab,
                                      carryover=True, doc_ids=doc_ids)
        record(_band_row("carryover", 241.45, carry.ppl,
                         rep.ppl * 0.95, rep.ppl * 1.05))
        rows.append(f"| baseline | 237.93 | {rep.ppl:.2f} | - | - |")
    elif table == "4":
        rep, _, _ = _run_cached("baseline", base, args)
        rrep, _, _ = _run_cached("t4_reversed", replace(base, reverse=True), args)
        record(_band_row("reversed", 240.48, rrep.ppl,
                         rep.ppl * 0.95, rep.ppl * 1.05))
    else:
        rep, _, extras = _run_cached("baseline", base, args)
        core, strategy, vocab, split, _ = extras
        dyn = training.dynamic_evaluate(core, strategy, split.test, vocab,
                                        base.alpha_dyn, base.beta_dyn, base.clip)
        record(_band_row("dynamic", 174.57, dyn.ppl, 1.0, rep.ppl * 0.90))
        rows.append(f"| static | 237.93 | {rep.ppl:.2f} | - | - |")

    report = "\n".join(rows) + "\n"
    print(report)
    out = Path(args.outdir) / f"table_{table}.md"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(report, encoding="utf-8")
    return 3 if failures else 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nnlm",
                                     description="Neural language-model lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("config")
    p.add_argument("--outdir", default="run")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a saved model on a corpus")
    p.add_argument("artifact")
    p.add_argument("corpus")
    _add_flags(p, "eval", "cache")  # an absent flag keeps the artifact's key
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("reproduce", help="rerun a reference experiment table and check bands")
    p.add_argument("table", help="1, 2, 3, 4 or dynamic")
    p.add_argument("--corpus-root", default=None)
    p.add_argument("--outdir", default="reproduce")
    _add_flags(p, "model", "corpus", "train")  # scale-down flags
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Overflow is reported once, as the tensor clip_gradients names, not
        # as numpy warnings from inside the model.
        with np.errstate(all="ignore"):
            return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ArtifactError, OSError, ValueError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
