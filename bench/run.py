#!/usr/bin/env python3
"""nnlm-lab benchmark: trains and scores one workload through the library.

Usage (from the repository root):

    python3 bench/run.py --workload lstm-hier-3k --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

The run drives the calls ``nnlm train`` and ``nnlm eval`` make, in one
process: corpus loading, vocabulary, model construction, training epochs,
static, cached and dynamic evaluation, and artifact save and load.  With
``--trace 0`` the last line of standard output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run.  Other lines describe the environment, the corpus and every
metric with its unit.  See bench/README.md for the metric definitions.
"""

from __future__ import annotations

import os
import sys

# A multi-threaded BLAS pool distorts the small products these models make,
# so the thread count is pinned before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import filecmp  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".nnlm_bench"

ROUND_S = 3.5           # nominal length of one timed round; see workloads.py
CACHE = dict(lam=0.9, length=500, decay="exponential", gamma=0.9)
ALPHA_DYN = 0.05
# training must take the static PPL to at most this share of the PPL of the
# untrained model at the same seed
TRAINED_PPL_MAX = 0.8
PRETRAIN_SEED = 0


def _import_library():
    """Import ``nnlm`` from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import nnlm
    except ImportError as exc:
        sys.exit(f"bench: cannot import nnlm from {SRC}: {exc}")
    if Path(nnlm.__file__).resolve().parent != SRC / "nnlm":
        sys.exit(f"bench: nnlm was imported from {nnlm.__file__}, not {SRC}")


class Ops:
    """Counts operations; an exception is a failed operation, not a crash."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, what, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # any library failure is counted, not raised
            self.failed += 1
            print(f"FAILED {what}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None


def _finite(value, what):
    if not math.isfinite(value):
        raise FloatingPointError(f"{what} is not finite: {value}")
    return value


def _tokens(sentences):
    """Scored tokens: every word plus the end mark."""
    return sum(len(s) + 1 for s in sentences)


def _prefix(sentences, tokens):
    """Shortest leading run of sentences holding at least ``tokens``."""
    out, n = [], 0
    for s in sentences:
        if n >= tokens:
            break
        out.append(s)
        n += len(s) + 1
    return out


def _median(values):
    return statistics.median(values) if values else None


def _digest(*values):
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


def _read_split(corpus_file):
    from nnlm import corpus

    docs = corpus.load_documents(corpus_file.path)
    sentences = [s for doc in docs for s in doc]
    split = corpus.split_corpus(sentences, corpus_file.n_train,
                                corpus_file.n_valid)
    doc_ids = [i for i, doc in enumerate(docs) for _ in doc]
    return split, doc_ids[len(split.train) + len(split.validation):]


def pretrained(wl):
    """The artifact a workload with ``pretrain_tokens`` starts from.

    It is trained once per checkout, by the checkout's own code, on the
    workload's corpus at PRETRAIN_SEED, and kept in OUT.  Runs at every seed
    fine-tune the same model.  A change that breaks training leaves this
    model near its uniform start, and ``eval_ppl`` shows it.
    """
    from nnlm import artifact, corpus, training
    from nnlm.config import RunConfig
    from nnlm.numerics import make_rng
    from workloads import make_corpus

    path = OUT / f"{wl.name}.pretrained.nnlm"
    if path.exists():
        return path
    OUT.mkdir(exist_ok=True)
    corpus_file = make_corpus(wl, PRETRAIN_SEED,
                              OUT / f"{wl.name}-pretrain-{os.getpid()}.txt")
    split, _ = _read_split(corpus_file)
    corpus_file.path.unlink()
    cfg = RunConfig(**wl.config, seed=PRETRAIN_SEED)
    tc = cfg.training_config()
    vocab = corpus.build_vocabulary(split.train, min_count=cfg.min_count)
    core, strategy, partition = artifact.build_model(cfg, vocab)
    proposal = (training.ProposalDistribution.unigram(vocab)
                if cfg.mode == "importance" else None)
    t0 = perf_counter()
    rep = training.train_epoch(core, strategy,
                               _prefix(split.train, wl.pretrain_tokens),
                               split.validation, vocab, tc,
                               make_rng(PRETRAIN_SEED), wl.pretrain_alpha, 1,
                               proposal)
    print(f"pretrained {wl.name} on {wl.pretrain_tokens} tokens in "
          f"{perf_counter() - t0:.1f} s: validation PPL {rep.valid_ppl:.1f}")
    tmp = path.with_name(f"{path.stem}-{os.getpid()}.tmp")
    artifact.save_artifact(tmp, cfg, vocab, core, strategy, partition)
    os.replace(tmp, path)
    return path


def pipeline(wl, seed, seconds, corpus_file, ops, tracer=None):
    """One pass through every phase; returns the end-to-end figures, the
    scored tokens per phase and a digest of the trained model's results."""
    from nnlm import artifact, caching, corpus, evaluation, training
    from nnlm.config import RunConfig
    from nnlm.numerics import make_rng

    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    cfg = RunConfig(**wl.config, seed=seed)
    tc = cfg.training_config()
    out = {}
    tokens = {}

    def timed(fn, *args, **kwargs):
        t0 = perf_counter()
        result = fn(*args, **kwargs)
        return perf_counter() - t0, result

    # -- set-up: what every `nnlm train` pays before its first epoch --------
    def setup():
        t0 = perf_counter()
        split, test_ids = _read_split(corpus_file)
        vocab = corpus.build_vocabulary(split.train, min_count=cfg.min_count)
        model = artifact.build_model(cfg, vocab)
        return perf_counter() - t0, (split, test_ids, vocab, model)

    setup_times = []

    def set_up():
        with span("bench.setup"):
            r = ops.run("setup", setup)
        if r is None:
            return None
        setup_times.append(r[0])
        return r[1]

    state = set_up()
    samples = out["samples"] = {"setup_s": setup_times}
    if state is None:
        out["setup_s"] = _median(setup_times)
        return out, tokens, None
    split, test_ids, vocab, model = state
    del state
    test = split.test

    def score(m, v, sentences, **kwargs):
        dt, rep = timed(evaluation.perplexity, m[0], m[1], sentences, v,
                        **kwargs)
        return dt, _finite(rep.ppl, "PPL")

    # the untrained model's PPL, which training must clearly improve on
    with span("bench.check"):
        r = ops.run("untrained eval", score, model, vocab, test)
    untrained_ppl = r[1] if r is not None else None

    def fresh_model():
        """The model the timed training starts from, built anew."""
        if not wl.pretrain_tokens:
            return vocab, artifact.build_model(cfg, vocab)
        _, v, c, s, p = artifact.load_artifact(pretrained(wl))
        return v, (c, s, p)

    if wl.pretrain_tokens:
        with span("bench.check"):
            r = ops.run("pretrained load", fresh_model)
        if r is None:
            return out, tokens, None
        vocab, model = r
    proposal = (training.ProposalDistribution.unigram(vocab)
                if cfg.mode == "importance" else None)
    unk = vocab.unknown
    out["oov_rate"] = (sum(int((corpus.encode(s, vocab) == unk).sum())
                           for s in test) / sum(len(s) for s in test))

    # -- the timed rounds ---------------------------------------------------
    # Each round sets up afresh, trains one epoch, scores the test split
    # statically and with the cache, saves, reloads and saves again, and
    # adapts the pre-reload copy by dynamic evaluation.  Interleaving
    # spreads every metric's samples over the whole run, so a slow spell on
    # a shared machine does not land on one phase only.
    rounds = max(2, round(seconds / ROUND_S))
    chunks, rest = [], split.train
    for _ in range(rounds):
        chunks.append(_prefix(rest, wl.train_tokens))
        rest = rest[len(chunks[-1]):]
    short = [split.train[0][:5]]    # the warm-up sentence
    dyn_set = _prefix(test, wl.dyn_tokens)
    cache_set = _prefix(test, wl.cache_tokens or _tokens(test))
    cache_ids = test_ids[:len(cache_set)]
    cache = caching.CacheConfig(mode=wl.cache_mode, **CACHE)
    rng = make_rng(seed)
    OUT.mkdir(exist_ok=True)
    paths = [OUT / f"{wl.name}-{seed}-{os.getpid()}.{i}.nnlm" for i in (1, 2)]

    def epoch(m, r, sentences, valid, number):
        dt, rep = timed(training.train_epoch, m[0], m[1], sentences, valid,
                        vocab, tc, r, tc.alpha, number, proposal)
        _finite(rep.valid_ppl, "validation PPL")
        _finite(rep.train_nll, "training NLL")
        return dt, rep

    def save(m, path):
        dt, _ = timed(artifact.save_artifact, path, cfg, vocab, *m)
        return dt

    def same_bytes():
        if not filecmp.cmp(*paths, shallow=False):
            raise AssertionError("save -> load -> save is not byte-identical")

    def load():
        dt, (_, _, c, s, p) = timed(artifact.load_artifact, paths[0])
        return dt, (c, s, p)

    def dynamic(m, sentences):
        dt, rep = timed(training.dynamic_evaluate, m[0], m[1], sentences,
                        vocab, ALPHA_DYN, 0.0, tc.clip)
        _finite(rep.ppl, "dynamic PPL")
        return dt

    times = {"save": [], "load": []}
    rates = {"train": [], "eval": [], "cache_eval": [], "dyn_eval": []}
    n_test, n_cache, n_dyn = _tokens(test), _tokens(cache_set), _tokens(dyn_set)
    nlls, ppls = [], []
    first_round = []    # train NLL, validation PPL and static PPL of round 1

    def round_trip(sample):
        """save -> load -> save, ``wl.trips`` times; then dynamic eval
        adapts the model as it stood before the first reload."""
        nonlocal model
        old = model
        for _ in range(wl.trips if sample else 1):
            with span("bench.save" if sample else "bench.warmup"):
                dt_a = ops.run("artifact save", save, model, paths[0])
            if model is not old:
                model = None    # hold at most two models while loading
            with span("bench.load" if sample else "bench.warmup"):
                r = ops.run("artifact load", load)
            if r is None:
                if model is None:
                    model = old
                break
            dt_l, model = r
            del r
            with span("bench.save" if sample else "bench.warmup"):
                dt_b = ops.run("artifact save", save, model, paths[1])
            with span("bench.check"):
                ops.run("artifact bytes check", same_bytes)
            if sample:
                times["save"] += [t for t in (dt_a, dt_b) if t is not None]
                times["load"].append(dt_l)
        with span("bench.dyn_eval" if sample else "bench.warmup"):
            dt_d = ops.run("dynamic eval", dynamic, old,
                           dyn_set if sample else dyn_set[:1])
        del old
        if sample and dt_d is not None:
            rates["dyn_eval"].append(n_dyn / dt_d)

    with span("bench.warmup"):
        ops.run("training warm-up", epoch, model, rng, short, short, 0)
        ops.run("eval warm-up", score, model, vocab, test[:2])
        ops.run("cached eval warm-up", score, model, vocab, test[:2],
                cache=cache)
    round_trip(sample=False)

    for number, chunk in enumerate(chunks, start=1):
        # models dropped in the last round are freed now, whether or not they
        # sit in reference cycles, so peak_rss_mb does not depend on when the
        # collector happens to run
        gc.collect()
        set_up()            # timed for setup_s; the result is dropped
        with span("bench.train"):
            r = ops.run("training epoch", epoch, model, rng, chunk,
                        split.validation, number)
        if r is not None:
            rates["train"].append(_tokens(chunk) / r[0])
            nlls.append(r[1].train_nll)
        with span("bench.eval"):
            s = ops.run("static eval", score, model, vocab, test)
        if s is not None:
            rates["eval"].append(n_test / s[0])
            ppls.append(s[1])
        if number == 1 and r is not None and s is not None:
            first_round += [r[1].train_nll, r[1].valid_ppl, s[1]]
        with span("bench.cache_eval"):
            r = ops.run("cached eval", score, model, vocab, cache_set,
                        cache=cache, carryover=True, doc_ids=cache_ids)
        if r is not None:
            rates["cache_eval"].append(n_cache / r[0])
        round_trip(sample=True)

    # -- checks on the trained model ------------------------------------------
    def reload_check():
        ppl = score(model, vocab, test)[1]
        if not ppls or ppl != ppls[-1]:
            raise AssertionError(f"reloaded static PPL {ppl!r} differs from "
                                 f"the in-memory model's {ppls[-1:]!r}")

    def trained_check():
        if not ppls or untrained_ppl is None:
            raise AssertionError("no PPL to compare")
        if not ppls[-1] <= TRAINED_PPL_MAX * untrained_ppl:
            raise AssertionError(
                f"trained PPL {ppls[-1]:.2f} is not below {TRAINED_PPL_MAX} x "
                f"the untrained PPL {untrained_ppl:.2f}")

    def determinism():
        """Replay round 1 on a model built anew at the same seed: the same
        warm-up, the same chunk and a static eval must give the same
        figures, bit for bit."""
        v, m = fresh_model()
        if v.words != vocab.words:
            raise AssertionError("the replay's vocabulary differs")
        r = make_rng(seed)
        epoch(m, r, short, short, 0)
        rep = epoch(m, r, chunks[0], split.validation, 1)[1]
        replay = [rep.train_nll, rep.valid_ppl, score(m, v, test)[1]]
        if replay != first_round:
            raise AssertionError(f"one seed gave two results for round 1: "
                                 f"{first_round} != {replay}")

    with span("bench.check"):
        ops.run("reload check", reload_check)
        ops.run("trained check", trained_check)
        ops.run("determinism check", determinism)

    tokens["bench.train"] = sum(_tokens(c) for c in chunks[:len(rates["train"])])
    tokens["bench.eval"] = n_test * len(rates["eval"])
    tokens["bench.cache_eval"] = n_cache * len(rates["cache_eval"])
    tokens["bench.dyn_eval"] = n_dyn * len(rates["dyn_eval"])
    for phase, values in rates.items():
        out[f"{phase}_wps"] = _median(values)
    out["setup_s"] = _median(setup_times)
    out["save_s"] = _median(times["save"])
    out["load_s"] = _median(times["load"])
    out["eval_ppl"] = ppls[-1] if ppls else None
    out["untrained_ppl"] = untrained_ppl
    if paths[0].exists():
        out["artifact_bytes"] = paths[0].stat().st_size
    for path in paths:
        path.unlink(missing_ok=True)
    samples.update({f"{k}_s": v for k, v in times.items()})
    samples.update({f"{k}_wps": v for k, v in rates.items()})
    return out, tokens, _digest(nlls, ppls)


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

END_TO_END = {  # name -> unit
    "setup_s": "s", "train_wps": "words/s", "eval_wps": "words/s",
    "cache_eval_wps": "words/s", "dyn_eval_wps": "words/s", "save_s": "s",
    "load_s": "s", "peak_rss_mb": "MB", "eval_ppl": "ppl",
}


def environment():
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def run_workload(wl, seed, seconds, trace):
    from workloads import make_corpus

    OUT.mkdir(exist_ok=True)
    ops = Ops()
    if wl.pretrain_tokens:
        ops.run("pretraining", pretrained, wl)
    corpus_file = make_corpus(wl, seed, OUT / f"{wl.name}-{seed}-{os.getpid()}.txt")
    e2e, _, digest = pipeline(wl, seed, seconds, corpus_file, ops)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record = {"workload": wl.name, "seed": seed, "seconds": seconds,
              "corpus": corpus_file.stats, "digest": digest,
              "untrained_ppl": e2e.get("untrained_ppl"),
              "samples": e2e.pop("samples", None)}
    if not trace:
        metrics = {n: e2e.get(n) for n in END_TO_END}
        units = END_TO_END
    else:
        from layers import PER_LAYER, layer_metrics, phase_table
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced, tokens, traced_digest = pipeline(wl, seed, seconds,
                                                     corpus_file, ops, tracer)
        finally:
            tracer.restore()
        if traced_digest != digest:
            ops.failed += 1
            print(f"FAILED traced run: digest {traced_digest} != {digest}",
                  file=sys.stderr)
        prof = tracer.profile()
        metrics = layer_metrics(prof, tracer.counts, tokens, e2e, traced)
        units = PER_LAYER
        print(phase_table(prof))
        tracer.write(OUT / f"{wl.name}-{seed}.spans.tsv")
        record["end_to_end"] = e2e
    corpus_file.path.unlink()
    correct = ops.failed == 0 and all(v is not None for v in metrics.values())
    record.update(metrics=metrics, attempted=ops.attempted, failed=ops.failed,
                  environment=environment())
    (OUT / f"{wl.name}-{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, default=str), encoding="utf-8")
    return metrics, units, ops, correct, record


def run_all(args):
    """Every workload in its own process, so memory peaks stay apart."""
    from workloads import WORKLOADS

    metrics, attempted, failed, correct = {}, 0, 0, True
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if child.returncode != 0:
            sys.exit(f"bench: {name} exited with {child.returncode}")
        result = json.loads(lines[-1])
        metrics.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=list(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    _import_library()
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0

    metrics, units, ops, correct, record = run_workload(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(f"== {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("environment: " + json.dumps(record["environment"]))
    print("corpus: " + json.dumps(record["corpus"]))
    print("samples per metric: " + json.dumps(
        {k: len(v) for k, v in record["samples"].items()}))
    for key, value in metrics.items():
        print(f"  {key:40s} {value!r:>24} {units[key]}")
    print(f"  {'(untrained PPL, for the check)':40s} "
          f"{record['untrained_ppl']!r:>24} ppl")
    print(f"  {'fail_share':40s} {ops.failed / ops.attempted!r:>24} "
          f"({ops.failed} of {ops.attempted} operations failed)")
    print(f"  digest {record['digest']}")
    print(json.dumps({"correct": correct, "attempted": ops.attempted,
                      "failed": ops.failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
