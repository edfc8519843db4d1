"""Sentence-wise SGD with full-sequence backpropagation, validation-driven
learning-rate scheduling, importance-sampling gradient estimation, and
dynamic (test-time) adaptation."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import evaluation
from .corpus import CorpusSplit, Vocabulary
from .models import FnnCore, _fnn_hidden, model_arrays
from .numerics import make_rng, softmax
from .output_layer import FullSoftmax

Arrays = dict[str, np.ndarray]

LOG2E = evaluation.LOG2E


@dataclass
class TrainingConfig:
    alpha: float = 0.1            # learning rate
    beta: float = 1e-6            # L2 weight decay, matrices only
    max_epochs: int = 50
    decay: float = 0.5            # lr multiplier on a stalled epoch
    improve_threshold: float = 1.0  # min validation PPL gain to count as progress
    patience: int = 3             # consecutive stalled epochs before stopping
    seed: int = 1
    clip: float = 5.0             # global gradient-norm ceiling per sentence
    mode: str = "exact"           # "exact" or "importance"
    block_size: int = 100         # importance sampling: words drawn per block
    min_ess: float = 50.0         # stop sampling once the effective size reaches this
    max_samples: int = 2000       # past this, fall back to exact backpropagation

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"learning rate must be positive and finite, got {self.alpha}")
        if not 0 <= self.beta < 1:
            raise ValueError(f"weight decay must be in [0, 1), got {self.beta}")
        if not 0 < self.decay <= 1:
            raise ValueError(f"learning-rate decay must be in (0, 1], got {self.decay}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if not math.isfinite(self.improve_threshold):
            raise ValueError(f"improve threshold must be finite, got {self.improve_threshold}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.block_size < 1:
            raise ValueError(f"block size must be >= 1, got {self.block_size}")
        if self.mode not in ("exact", "importance"):
            raise ValueError(f"mode must be exact or importance, got {self.mode!r}")
        if not (math.isfinite(self.clip) and self.clip > 0):
            raise ValueError(f"gradient clip must be positive and finite, got {self.clip}")
        if not (math.isfinite(self.min_ess) and self.min_ess > 0):
            raise ValueError(f"min_ess must be positive and finite, got {self.min_ess}")
        if self.max_samples < 1:
            raise ValueError(f"max_samples must be >= 1, got {self.max_samples}")


@dataclass
class EpochReport:
    epoch: int
    train_nll: float              # mean per-token negative log-likelihood, nats
    valid_ppl: float
    words_per_s: float
    clip_events: int
    alpha: float

    def tsv_row(self) -> str:
        return (f"{self.epoch}\t{self.train_nll:.6f}\t{self.valid_ppl:.4f}\t"
                f"{self.words_per_s:.2f}\t{self.alpha:.6g}\t{self.clip_events}\n")


TSV_HEADER = "epoch\ttrain_nll\tvalid_ppl\twords_per_s\tlr\tclip_events\n"


# rows of a factored gradient multiplied out at a time: a few hundred KB to
# a few MB of product, reused block after block, in place of the whole
# k x n matrix and its temporaries
FACTOR_BLOCK = 1024


def update_parameters(arrays: Arrays, grads: Arrays, alpha: float, beta: float):
    """One SGD step descending the negative log-likelihood.

    Weight decay shrinks every row of every matrix by (1-beta) and leaves
    biases undecayed; a row-compact gradient (see ``Gradients``) then moves
    only its own rows, and a factored one is multiplied out and subtracted
    one block of ``FACTOR_BLOCK`` rows at a time.  The decay is eager, over
    every row, except for the matrices a ``LazyDecay`` defers: their
    gradient rows, which ``sync`` brought up to date, decay and move as one
    gather and one scatter, with the arithmetic of the eager step, and every
    other row's decay waits.  A non-finite gradient raises before any
    parameter moves.
    """
    rows = getattr(grads, "rows", {})
    factors = getattr(grads, "factors", {})
    for name, g in grads.items():
        if name in factors:
            _squared_norm(name, g, factors[name])
        elif not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient in {name!r}")
    lazy = getattr(arrays, "last", {})
    for name, g in grads.items():
        theta = arrays[name]
        if name in lazy:
            arrays.step(name, rows[name], alpha * g)
            continue
        if name in factors:
            _factored_step(theta, g, alpha * factors[name], beta)
            continue
        if theta.ndim == 2 and beta != 0.0:
            theta *= 1.0 - beta
        if name in rows:
            theta[rows[name]] -= alpha * g
        else:
            theta -= alpha * g
    if lazy:
        arrays.steps += 1


def _factored_step(theta, left, right, beta):
    """theta <- theta (1-beta) - left @ right, one block of rows at a time."""
    buf = np.empty((min(FACTOR_BLOCK, len(theta)), theta.shape[1]))
    for lo in range(0, len(theta), FACTOR_BLOCK):
        rows = theta[lo:lo + FACTOR_BLOCK]
        step = np.matmul(left[lo:lo + FACTOR_BLOCK], right, out=buf[:len(rows)])
        if beta != 0.0:
            rows *= 1.0 - beta
        rows -= step


class LazyDecay(dict):
    """Model arrays by name, the L2 decay of the word-indexed matrices
    deferred (Carpenter 2008; Bottou 2012, "Stochastic Gradient Descent
    Tricks").

    A row of a matrix named in ``last`` owes (1-beta) for every step since
    step ``last[name][row]``.  ``sync`` pays that as one power just before a
    step reads the row, ``update_parameters`` decays and moves the rows of
    the step's gradient and counts the step, and ``flush`` brings every row
    up to date.  A power is not bit-identical to repeated products: a row
    that skipped steps lands within a few ulps of the eager trajectory.
    Until ``flush`` the matrices hold stale rows, so nothing but the
    training loop may read them.
    """

    def __init__(self, arrays: Arrays, names, beta: float):
        super().__init__(arrays)
        self.beta = beta
        self.steps = 0
        self.last = {name: np.zeros(len(arrays[name]), np.int64) for name in names}

    def sync(self, reads: dict[str, np.ndarray]):
        """Bring the rows ``reads`` names (distinct ids per matrix) up to
        date before the step reads them."""
        for name, rows in reads.items():
            last = self.last[name]
            stale = rows[last[rows] < self.steps]
            if len(stale):
                owed = (1.0 - self.beta) ** (self.steps - last[stale])
                self[name][stale] *= owed[:, None]
                last[stale] = self.steps

    def step(self, name: str, rows: np.ndarray, delta: np.ndarray):
        """Decay the synced ``rows`` of one matrix by this step's (1-beta)
        and subtract ``delta`` from them."""
        theta = self[name]
        theta[rows] = theta[rows] * (1.0 - self.beta) - delta
        self.last[name][rows] = self.steps + 1

    def flush(self):
        """Apply every pending decay, one scalar pass per run of rows that
        owe the same power.  Most rows owe the whole pass, and under the
        frequency-binned assignments a class's words are neighbours in id
        order, so the runs are few and long."""
        keep = 1.0 - self.beta
        for name, last in self.last.items():
            theta = self[name]
            starts = np.flatnonzero(np.diff(last, prepend=-1))
            ends = np.append(starts[1:], len(last))
            owed = self.steps - last[starts]
            for lo, hi, n in zip(starts.tolist(), ends.tolist(), owed.tolist()):
                theta[lo:hi] *= keep ** n
            last[:] = 0
        self.steps = 0


def read_rows(strategy, enc: np.ndarray) -> dict[str, np.ndarray]:
    """The rows of the word-indexed matrices that training on the encoded
    sentence ``enc`` reads: the same rows its gradients hold.  ``emb`` reads
    the inputs, which every FNN context window draws from too."""
    reads = {"emb": np.unique(enc[:-1])}
    if hasattr(strategy, "word_rows"):
        reads["w_word"] = strategy.word_rows(enc[1:])
    return reads


def _squared_norm(name: str, g: np.ndarray, right=None) -> float:
    """The squared L2 norm of gradient ``name``: of ``g``, or of the
    product ``g @ right`` of a factored gradient, which is the sum of the
    product of the two factors' T x T Gram matrices and never forms it.
    Raises FloatingPointError naming the tensor when the gradient is not
    finite; a factored one is checked on both factors and on that sum, so a
    product that overflows raises too."""
    if right is None:
        sq = float(np.sum(g * g))
        if not math.isfinite(sq) and not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient in {name!r}")
        return sq
    sq = float(np.sum((g.T @ g) * (right @ right.T)))
    if not (math.isfinite(sq) and np.all(np.isfinite(g))
            and np.all(np.isfinite(right))):
        raise FloatingPointError(f"non-finite gradient in {name!r}")
    return sq


def clip_gradients(grads: Arrays, max_norm: float) -> bool:
    """Scale all gradients so the global L2 norm is at most max_norm; a
    factored gradient is scaled through its left factor.

    A non-finite gradient raises FloatingPointError naming its tensor before
    anything is scaled.
    """
    factors = getattr(grads, "factors", {})
    total = math.sqrt(sum(_squared_norm(name, g, factors.get(name))
                          for name, g in grads.items()))
    if total <= max_norm or total == 0.0:
        return False
    scale = max_norm / total
    for g in grads.values():
        g *= scale
    return True


def sentence_gradients(core, strategy, enc: np.ndarray):
    """(per-step log-probs, merged gradient dict) for one encoded sentence."""
    inputs, targets = enc[:-1], enc[1:]
    tape = core.run(inputs)
    logps, d_states, d_inputs = strategy.score_sentence(tape.states, tape.xs,
                                                        targets, grad=True)
    grads = core.backward(tape, d_states, d_inputs)
    grads.update(strategy.grads())
    return logps.tolist(), grads


def train_epoch(core, strategy, train_sentences, valid_sentences,
                vocab: Vocabulary, config: TrainingConfig, rng,
                alpha: float, epoch: int = 1,
                proposal: "ProposalDistribution | None" = None) -> EpochReport:
    """One shuffled pass with per-sentence update, then validation PPL.

    With ``beta`` > 0, ``emb`` and ``w_word`` decay lazily (``LazyDecay``);
    the pass flushes them before it returns or raises, so no caller sees a
    pending decay."""
    if not train_sentences:
        raise ValueError("cannot train on an empty sentence list")
    arrays = model_arrays(core, strategy)
    lazy = config.beta != 0.0
    if lazy:
        arrays = LazyDecay(arrays, [n for n in ("emb", "w_word") if n in arrays],
                           config.beta)
    order = rng.permutation(len(train_sentences))
    total_nll, tokens, clip_events = 0.0, 0, 0
    t0 = time.perf_counter()
    try:
        for idx in order:
            enc = vocab.encode(train_sentences[idx])
            if lazy:
                arrays.sync(read_rows(strategy, enc))
            if config.mode == "importance":
                logps, grads = _importance_sentence(core, strategy, enc,
                                                    proposal, rng, config)
            else:
                logps, grads = sentence_gradients(core, strategy, enc)
            if clip_gradients(grads, config.clip):
                clip_events += 1
            update_parameters(arrays, grads, alpha, config.beta)
            total_nll -= sum(logps)
            tokens += len(logps)
    finally:
        if lazy:
            arrays.flush()
    elapsed = time.perf_counter() - t0
    valid = evaluation.perplexity(core, strategy, valid_sentences, vocab)
    return EpochReport(
        epoch=epoch,
        train_nll=total_nll / tokens,
        valid_ppl=valid.ppl,
        words_per_s=tokens / max(elapsed, 1e-9),
        clip_events=clip_events,
        alpha=alpha,
    )


def train(core, strategy, split: CorpusSplit, vocab: Vocabulary,
          config: TrainingConfig, log_path=None, echo=None) -> list[EpochReport]:
    """Full training run with the validation-driven schedule: the learning
    rate is multiplied by ``decay`` whenever validation PPL improves by less
    than ``improve_threshold``; training stops after ``patience`` consecutive
    stalled epochs."""
    rng = make_rng(config.seed)
    proposal = None
    if config.mode == "importance":
        if not isinstance(core, FnnCore):
            raise ValueError(
                "importance sampling applies to the feed-forward model only; "
                "recurrent models need exact backpropagation")
        proposal = ProposalDistribution.unigram(vocab)
    alpha = config.alpha
    best = math.inf
    stalled = 0
    reports: list[EpochReport] = []
    log = open(log_path, "a") if log_path is not None else None
    try:
        if log is not None and log.tell() == 0:
            log.write(TSV_HEADER)
        for epoch in range(1, config.max_epochs + 1):
            rep = train_epoch(core, strategy, split.train, split.validation,
                              vocab, config, rng, alpha, epoch, proposal)
            reports.append(rep)
            if log is not None:
                log.write(rep.tsv_row())
                log.flush()
            if echo is not None:
                echo(rep)
            if best - rep.valid_ppl < config.improve_threshold:
                alpha *= config.decay
                stalled += 1
            else:
                stalled = 0
            best = min(best, rep.valid_ppl)
            if stalled >= config.patience:
                break
    finally:
        if log is not None:
            log.close()
    return reports


# ---------------------------------------------------------------------------
# Importance sampling
# ---------------------------------------------------------------------------

@dataclass
class ProposalDistribution:
    """Cheap distribution the sampler draws negative words from.

    Draws invert a CDF built once.  ``Generator.choice(k, size, p=probs)``
    builds the same CDF on every call and inverts it the same way, so both
    give the same words and leave the generator in the same state.
    """

    probs: np.ndarray
    cdf: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError(f"proposal must be a non-empty vector, got shape {probs.shape}")
        total = probs.sum()
        if not np.isfinite(total):
            raise ValueError("proposal must be finite, with a finite sum")
        if np.any(probs <= 0):
            raise ValueError("proposal must be positive everywhere")
        self.probs = probs / total
        self.cdf = self.probs.cumsum()
        self.cdf /= self.cdf[-1]

    @classmethod
    def unigram(cls, vocab: Vocabulary) -> "ProposalDistribution":
        """Add-one smoothed training unigram."""
        return cls(vocab.frequencies.astype(np.float64) + 1.0)

    def sample(self, rng, size: int) -> np.ndarray:
        return self.cdf.searchsorted(rng.random(size), side="right")


def energy_normalize(scores: np.ndarray) -> np.ndarray:
    """Distribution proportional to e^{-score}: lower energy, higher mass."""
    return softmax(-np.asarray(scores, dtype=np.float64))


@dataclass
class SamplingInfo:
    n_samples: int
    ess: float
    exact: bool


def importance_sampling_gradient(core: FnnCore, strategy: FullSoftmax, context,
                                 target: int, proposal: ProposalDistribution,
                                 rng, config: TrainingConfig, hidden=None):
    """Estimated NLL gradient on the output scores of one (context, target)
    example.

    The positive term is the exact target-score gradient; the negative term
    self-normalizes weights e^{-y}/Q over words drawn block by block from the
    proposal until the effective sample size reaches ``min_ess``.  Past
    ``max_samples`` draws the estimator gives up and takes the exact
    gradient.  ``hidden`` is the context's ``(x, h)`` when the caller already
    has it.  Returns ``((rows, dy), SamplingInfo)``: ``dy`` estimates dL/dy
    on the scores of the distinct words ``rows``, the sampled words and the
    target (every word after a fallback); the caller backpropagates it.
    """
    if not isinstance(core, FnnCore):
        raise ValueError("importance sampling applies to the feed-forward model only")
    if not isinstance(strategy, FullSoftmax) or not strategy.energy:
        raise ValueError("importance sampling requires the energy-normalized softmax")
    context = np.asarray(context, dtype=np.int64)
    x, h = _fnn_hidden(core.params, context) if hidden is None else hidden

    words_blocks, logu_blocks = [], []
    n, ess, exact = 0, 0.0, False
    while True:
        block = proposal.sample(rng, config.block_size)
        y_b = strategy.scores_at(block, h, x)
        logu_blocks.append(-y_b - np.log(proposal.probs[block]))
        words_blocks.append(block)
        n += len(block)
        r = softmax(np.concatenate(logu_blocks))
        ess = 1.0 / float(np.sum(r * r))
        if ess >= config.min_ess:
            break
        if n >= config.max_samples:
            exact = True
            break

    if exact:
        rows = np.arange(strategy.k)
        dy = -energy_normalize(strategy.scores(h, x))
        dy[target] += 1.0
    else:
        if not np.all(np.isfinite(r)):
            raise FloatingPointError("non-finite importance weight")
        rows, slot = np.unique(np.append(np.concatenate(words_blocks), target),
                               return_inverse=True)
        dy = np.zeros(len(rows))
        np.subtract.at(dy, slot[:-1], r)
        dy[slot[-1]] += 1.0

    return (rows, dy), SamplingInfo(n, ess, exact)


def _importance_sentence(core, strategy, enc, proposal, rng, config):
    """Sampled gradient of one sentence, and its exact log-probs for the
    reported NLL.  Each position's estimate goes back to its hidden state
    and input at once; the output-weight gradients are then products over
    the sentence, row-compact over the union of the positions' rows, and
    the core gradients one backward pass."""
    inputs, targets = enc[:-1], enc[1:]
    tape = core.run(inputs)
    S, X = tape.states, tape.xs
    direct = strategy.w_direct is not None
    dS = np.empty_like(S)
    dX = np.empty_like(X) if direct else None
    rows_t, dy_t = [], []
    for t, target in enumerate(targets):
        (rows, dy), _ = importance_sampling_gradient(
            core, strategy, tape.contexts[t], int(target), proposal, rng,
            config, hidden=(X[t], S[t]))
        dS[t] = strategy.w_out[rows].T @ dy
        if direct:
            dX[t] = strategy.w_direct[rows].T @ dy
        rows_t.append(rows)
        dy_t.append(dy)
    # column t of D is position t's dy over the union of rows; a position's
    # rows are distinct, so each entry is written once
    union, slot = np.unique(np.concatenate(rows_t), return_inverse=True)
    cols = np.repeat(np.arange(len(targets)), [len(r) for r in rows_t])
    D = np.zeros((len(union), len(targets)))
    D[slot, cols] = np.concatenate(dy_t)
    grads = core.backward(tape, dS, dX)
    grads.set_rows("w_out", union, D @ S)
    if direct:
        grads.set_rows("w_direct", union, D @ X)
    if strategy.b_out is not None:
        grads.set_rows("b_out", union, D.sum(axis=1))
    logps, _, _ = strategy.score_sentence(S, X, targets)
    return logps.tolist(), grads


# ---------------------------------------------------------------------------
# Dynamic evaluation
# ---------------------------------------------------------------------------

def dynamic_evaluate(core, strategy, sentences, vocab: Vocabulary,
                     alpha_dyn: float, beta_dyn: float = 0.0,
                     clip: float = 5.0) -> evaluation.EvalReport:
    """Score sentences in corpus order, adapting parameters after each one.

    Every sentence is scored with the parameters as they stood *before* its
    own update, so no token ever influences its own probability.  With
    ``alpha_dyn=0`` and ``beta_dyn=0`` this reproduces static evaluation
    bit-exactly.
    """
    if not sentences:
        raise ValueError("cannot evaluate an empty sentence list")
    adapt = alpha_dyn != 0.0 or beta_dyn != 0.0
    arrays = model_arrays(core, strategy)
    sent_log2: list[float] = []
    tokens = 0
    t0 = time.perf_counter()
    for sent in sentences:
        enc = vocab.encode(sent)
        logps, grads = sentence_gradients(core, strategy, enc)
        # convert per token, matching the static scorer operation for
        # operation so alpha_dyn=0 reproduces it bit-exactly
        sent_log2.append(sum(lp * LOG2E for lp in logps))
        tokens += len(logps)
        if adapt:
            clip_gradients(grads, clip)
            update_parameters(arrays, grads, alpha_dyn, beta_dyn)
    elapsed = time.perf_counter() - t0
    return evaluation.report_from_log2(sent_log2, tokens, elapsed)
