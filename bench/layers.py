"""Per-layer metrics computed from a traced run.

The layers are the ``nnlm`` modules.  Every figure is taken from the timed
phases only (warm-ups and checks are traced but left out), and each names
the end-to-end metric it should move in bench/README.md.
"""

from __future__ import annotations

import statistics

PER_LAYER = {  # name -> unit
    "models.run_us_per_tok": "us",
    "models.backward_us_per_tok": "us",
    "models.share_train": "share",
    "models.share_eval": "share",
    "training.update_share_train": "share",
    "training.clip_share_train": "share",
    "training.update_useful_row_ratio": "ratio",
    "training.clip_rate": "ratio",
    "training.is_us_per_tok": "us",
    "training.is_samples_mean": "count",
    "training.is_ess_mean": "count",
    "training.is_fallback_rate": "ratio",
    "output_layer.zero_grads_share_train": "share",
    "output_layer.logprob_grad_us_per_tok": "us",
    "output_layer.logprob_us_per_tok": "us",
    "output_layer.factor_logprobs_us_per_tok": "us",
    "output_layer.scores_at_calls_per_tok": "count",
    "numerics.log_softmax_calls_per_tok": "count",
    "numerics.log_softmax_elems_per_tok": "count",
    "caching.cache_prob_us_per_call": "us",
    "caching.share_eval": "share",
    "caching.carryover_us_per_sent": "us",
    "evaluation.self_share_eval": "share",
    "corpus.load_s": "s",
    "corpus.vocab_s": "s",
    "corpus.encode_us_per_tok": "us",
    "corpus.oov_rate": "ratio",
    "artifact.build_model_s": "s",
    "artifact.bytes": "B",
    "artifact.save_mb_s": "MB/s",
    "artifact.load_mb_s": "MB/s",
    "trace.overhead": "share",
    "trace.unaccounted_share": "share",
}

TIMED = ("bench.train", "bench.eval", "bench.cache_eval", "bench.dyn_eval",
         "bench.save", "bench.load")
SCORING = ("bench.train", "bench.eval", "bench.cache_eval", "bench.dyn_eval")


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _ratio(num, den):
    return float(num / den) if den else 0.0


def layer_metrics(prof, counts, tokens, untraced, traced):
    """Per-layer metrics from a profile (see ``Tracer.profile``), telemetry
    counts, scored tokens per phase and the end-to-end figures of the
    untraced and traced runs."""

    def total(phases, name, field="total"):
        return sum(prof[(p, name)][field] for p in phases if (p, name) in prof)

    def us_per(phases, name, per="calls"):
        return 1e6 * _ratio(total(phases, name), total(phases, name, per))

    def wall(phase):
        return total((phase,), phase)

    def share(phase, *names):
        return _ratio(sum(total((phase,), n, "self") for n in names), wall(phase))

    def layer_share(phase, layer):
        return _ratio(sum(v["self"] for (p, n), v in prof.items()
                          if p == phase and _layer(n) == layer), wall(phase))

    def median_dur(phase, name):
        durs = prof[(phase, name)]["durs"] if (phase, name) in prof else []
        return statistics.median(durs) if durs else 0.0

    def count(phase, key):
        return counts.get((phase, key), 0.0)

    train = ("bench.train",)
    is_calls = count("bench.train", "is_calls")
    n_bytes = untraced.get("artifact_bytes") or 0
    mb = n_bytes / 1e6
    unaccounted = max(
        (_ratio(sum(v["self"] for (p, n), v in prof.items()
                    if p == phase and _layer(n) in ("bench", "trace")),
                wall(phase))
         for phase in TIMED if wall(phase)), default=0.0)
    return {
        "models.run_us_per_tok": us_per(SCORING, "models.run", "units"),
        "models.backward_us_per_tok": us_per(SCORING, "models.backward", "units"),
        "models.share_train": layer_share("bench.train", "models"),
        "models.share_eval": layer_share("bench.eval", "models"),
        "training.update_share_train":
            share("bench.train", "training.update_parameters"),
        "training.clip_share_train":
            share("bench.train", "training.clip_gradients"),
        "training.update_useful_row_ratio":
            _ratio(count("bench.train", "rows_nonzero"),
                   count("bench.train", "rows_updated")),
        "training.clip_rate":
            _ratio(count("bench.train", "clipped"),
                   total(train, "training.clip_gradients", "calls")),
        "training.is_us_per_tok":
            us_per(train, "training.importance_sampling_gradient"),
        "training.is_samples_mean":
            _ratio(count("bench.train", "is_samples"), is_calls),
        "training.is_ess_mean": _ratio(count("bench.train", "is_ess"), is_calls),
        "training.is_fallback_rate":
            _ratio(count("bench.train", "is_exact"), is_calls),
        "output_layer.zero_grads_share_train":
            share("bench.train", "output_layer.zero_grads"),
        "output_layer.logprob_grad_us_per_tok":
            us_per(("bench.train", "bench.dyn_eval"), "output_layer.logprob_grad"),
        "output_layer.logprob_us_per_tok":
            us_per(("bench.eval",), "output_layer.logprob"),
        "output_layer.factor_logprobs_us_per_tok":
            us_per(("bench.eval", "bench.cache_eval"),
                   "output_layer.factor_logprobs"),
        "output_layer.scores_at_calls_per_tok":
            _ratio(total(train, "output_layer.scores_at", "calls"),
                   tokens.get("bench.train", 0)),
        "numerics.log_softmax_calls_per_tok":
            _ratio(count("bench.eval", "log_softmax_calls"),
                   tokens.get("bench.eval", 0)),
        "numerics.log_softmax_elems_per_tok":
            _ratio(count("bench.eval", "log_softmax_elems"),
                   tokens.get("bench.eval", 0)),
        "caching.cache_prob_us_per_call": 1e6 * _ratio(
            total(("bench.cache_eval",), "caching.cache_probability")
            + total(("bench.cache_eval",), "caching.class_cache_probability"),
            total(("bench.cache_eval",), "caching.cache_probability", "calls")
            + total(("bench.cache_eval",), "caching.class_cache_probability",
                    "calls")),
        "caching.share_eval": layer_share("bench.cache_eval", "caching"),
        "caching.carryover_us_per_sent":
            us_per(("bench.cache_eval",), "caching.carryover_initial_state"),
        "evaluation.self_share_eval":
            share("bench.eval", "evaluation.perplexity"),
        "corpus.load_s": median_dur("bench.setup", "corpus.load_documents"),
        "corpus.vocab_s": median_dur("bench.setup", "corpus.build_vocabulary"),
        "corpus.encode_us_per_tok": us_per(SCORING, "corpus.encode", "units"),
        "corpus.oov_rate": untraced.get("oov_rate", 0.0),
        "artifact.build_model_s": median_dur("bench.setup", "artifact.build_model"),
        "artifact.bytes": n_bytes,
        "artifact.save_mb_s":
            _ratio(mb, median_dur("bench.save", "artifact.save_artifact")),
        "artifact.load_mb_s":
            _ratio(mb, median_dur("bench.load", "artifact.load_artifact")),
        "trace.overhead": 1.0 - _ratio(traced.get("train_wps", 0.0),
                                       untraced.get("train_wps", 0.0)),
        "trace.unaccounted_share": unaccounted,
    }


def phase_table(prof) -> str:
    """Self-time share of every layer within each timed phase."""
    layers = sorted({_layer(n) for (_, n) in prof})
    lines = ["self-time share by phase and layer (sums to 1 per phase):",
             f"  {'phase':18s}{'wall_s':>9s}" + "".join(f"{l:>13s}" for l in layers)]
    for phase in TIMED:
        wall = prof[(phase, phase)]["total"] if (phase, phase) in prof else 0.0
        if not wall:
            continue
        shares = {l: 0.0 for l in layers}
        for (p, n), v in prof.items():
            if p == phase:
                shares[_layer(n)] += v["self"] / wall
        lines.append(f"  {phase:18s}{wall:9.3f}"
                     + "".join(f"{shares[l]:13.4f}" for l in layers))
    return "\n".join(lines)
