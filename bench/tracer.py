"""Span tracer installed from outside the library.

Tracing wraps public functions and methods of the ``nnlm`` modules: module
attributes (looked up by the library at call time) and per-instance methods
of the models, output layers and vocabularies the benchmark builds.  Nothing
under ``src/`` is edited.  Each span records its name, start, end, parent and
a unit count (tokens for whole-sentence calls, 1 otherwise); spans stay in
memory and are written out when the run ends.  The first part of a span name
is the layer, which is the ``nnlm`` module the call belongs to.

A wrapper's own work (clock reads, span bookkeeping, telemetry) falls inside
its caller's span.  It is timed and charged to the ``trace`` layer instead, so
the library layers' self times hold only library work.  What the clock cannot
see is the Python call into and out of the wrapper, a fraction of a
microsecond per call, which stays with the caller.
"""

from __future__ import annotations

import contextlib
import functools
import weakref
from collections import defaultdict
from time import perf_counter

import numpy as np

from nnlm import artifact, caching, corpus, evaluation, output_layer, training

ROOT = -1


class Tracer:
    def __init__(self):
        # (name, parent, start, end, units); the index is the span id
        self.spans: list[tuple] = []
        self._stack = [ROOT]
        self.phase = None
        # (phase, counter) -> value, for telemetry measured where it happens
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        # span id -> seconds of wrapper work done inside that span
        self.cost: dict[int, float] = defaultdict(float)
        self._undo: list[tuple] = []

    # -- spans -----------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1]
        if parent == ROOT:
            self.phase = name
        self.spans.append(None)
        self._stack.append(sid)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, parent, t0, t1, 1)

    def count(self, key: str, value: float = 1.0):
        self.counts[(self.phase, key)] += value

    def _traced(self, fn, name, units=None, after=None, owner=None):
        """Wrap ``fn`` in a span.  ``owner``, if given, is a weak reference to
        the instance ``fn`` is a method of; it is resolved before the clock
        starts, so the span times the method alone."""
        spans, stack, cost = self.spans, self._stack, self.cost

        def wrapper(*args, **kwargs):
            e0 = perf_counter()
            call = args if owner is None else (owner(),) + args
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*call, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                n = 1 if units is None else units(args, kwargs)
                spans[sid] = (name, parent, t0, t1, n)
            if after is not None:
                after(args, result)
            cost[parent] += t0 - e0 + perf_counter() - t1
            return result

        return wrapper

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr, replacement):
        had = attr in vars(owner)
        self._undo.append((owner, attr, getattr(owner, attr), had))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr, name, units=None, after=None):
        self._patch(owner, attr,
                    self._traced(getattr(owner, attr), name, units, after))

    def install(self):
        """Wrap the module-level entry points of every layer."""
        w = self.wrap
        w(corpus, "load_documents", "corpus.load_documents")
        w(corpus, "split_corpus", "corpus.split_corpus")
        w(corpus, "build_vocabulary", "corpus.build_vocabulary",
          after=lambda a, vocab: self.instrument_vocab(vocab))
        w(artifact, "build_model", "artifact.build_model",
          after=lambda a, r: self.instrument_model(r[0], r[1]))
        w(artifact, "save_artifact", "artifact.save_artifact")
        w(artifact, "load_artifact", "artifact.load_artifact",
          after=lambda a, r: (self.instrument_vocab(r[1]),
                              self.instrument_model(r[2], r[3])))
        w(training, "train_epoch", "training.train_epoch")
        w(training, "dynamic_evaluate", "training.dynamic_evaluate")
        w(training, "sentence_gradients", "training.sentence_gradients",
          units=lambda a, k: len(a[2]) - 1)
        w(training, "clip_gradients", "training.clip_gradients",
          after=lambda a, clipped: self.count("clipped", float(clipped)))
        self._patch(training, "update_parameters",
                    self._useful_rows(training.update_parameters))
        w(training, "importance_sampling_gradient",
          "training.importance_sampling_gradient", after=self._sampling_info)
        w(training, "_fnn_hidden", "models.fnn_hidden")
        w(evaluation, "perplexity", "evaluation.perplexity")
        w(caching, "cache_probability", "caching.cache_probability")
        w(caching, "class_cache_probability", "caching.class_cache_probability")
        w(caching, "carryover_initial_state", "caching.carryover_initial_state")
        self._patch(output_layer, "log_softmax",
                    self._counted(output_layer.log_softmax))

    def wrap_method(self, obj, attr, name, units=None):
        """Trace one instance's method.  The wrapper holds the instance only
        weakly, so a traced model is freed as soon as the benchmark drops it
        and is never restored."""
        setattr(obj, attr, self._traced(getattr(type(obj), attr), name, units,
                                        owner=weakref.ref(obj)))

    def instrument_vocab(self, vocab):
        self.wrap_method(vocab, "encode", "corpus.encode",
                         units=lambda a, k: len(a[0]) + 1)

    def instrument_model(self, core, strategy):
        self.wrap_method(core, "run", "models.run",
                         units=lambda a, k: len(a[0]))
        self.wrap_method(core, "backward", "models.backward",
                         units=lambda a, k: len(a[1]))
        for method in ("logprob_grad", "logprob", "factor_logprobs",
                       "zero_grads", "scores_at"):
            if hasattr(strategy, method):
                self.wrap_method(strategy, method, f"output_layer.{method}")

    def restore(self):
        for owner, attr, original, had in reversed(self._undo):
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()

    # -- telemetry -------------------------------------------------------

    def _counted(self, fn):
        @functools.wraps(fn)
        def wrapper(y):
            e0 = perf_counter()
            self.count("log_softmax_calls")
            self.count("log_softmax_elems", np.size(y))
            self.cost[self._stack[-1]] += perf_counter() - e0
            return fn(y)
        return wrapper

    def _sampling_info(self, args, result):
        info = result[1]
        self.count("is_calls")
        self.count("is_samples", info.n_samples)
        self.count("is_ess", info.ess)
        self.count("is_exact", float(info.exact))

    def _useful_rows(self, fn):
        """update_parameters, plus a count of the matrix rows it decays and
        updates against the rows whose gradient is non-zero.  The count is
        wrapper work, charged to ``trace``, not to the update."""
        traced = self._traced(fn, "training.update_parameters")

        def wrapper(arrays, grads, alpha, beta):
            e0 = perf_counter()
            for g in grads.values():
                if g.ndim == 2:
                    self.count("rows_updated", g.shape[0])
                    self.count("rows_nonzero", int(np.count_nonzero(
                        np.any(g != 0.0, axis=1))))
            self.cost[self._stack[-1]] += perf_counter() - e0
            return traced(arrays, grads, alpha, beta)

        return wrapper

    # -- analysis --------------------------------------------------------

    def profile(self):
        """Self and total time, calls and units per (phase, span name).

        Self time is a span's duration minus the durations of its children
        and minus the wrapper work done inside it, which is charged to
        ``trace.instrumentation`` in the same phase.  The phase of a span is
        the name of its root ancestor.
        """
        n = len(self.spans)
        child = np.zeros(n)
        phase = [None] * n
        for sid, (name, parent, t0, t1, _) in enumerate(self.spans):
            if parent == ROOT:
                phase[sid] = name
            else:
                child[parent] += t1 - t0
                phase[sid] = phase[parent]
        prof = defaultdict(lambda: {"self": 0.0, "total": 0.0, "calls": 0,
                                    "units": 0, "durs": []})
        for sid, seconds in self.cost.items():
            if sid != ROOT:
                child[sid] += seconds
                p = prof[(phase[sid], "trace.instrumentation")]
                p["self"] += seconds
                p["total"] += seconds
        for sid, (name, parent, t0, t1, units) in enumerate(self.spans):
            p = prof[(phase[sid], name)]
            p["self"] += t1 - t0 - child[sid]
            p["total"] += t1 - t0
            p["calls"] += 1
            p["units"] += units
            p["durs"].append(t1 - t0)
        return prof

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart\tend\tunits\n")
            for sid, (name, parent, t0, t1, units) in enumerate(self.spans):
                fh.write(f"{sid}\t{parent}\t{name}\t{t0:.9f}\t{t1:.9f}\t{units}\n")
