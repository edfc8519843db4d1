"""Corpus ingestion, vocabulary construction, and token-count splits.

Sentences are plain lists of word strings, one sentence per input line,
whitespace tokenized.  Vocabularies map words to dense indices with the
three special marks (sentence start, sentence end, unknown) always present.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

START = "<s>"
END = "</s>"
UNKNOWN = "<unk>"

Sentence = list[str]


def load_documents(path: str | Path, lowercase: bool = True) -> list[list[Sentence]]:
    """Read newline-delimited sentences, grouped into the documents that
    blank lines delimit.

    A file without blank lines comes back as a single document.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise OSError(f"cannot read corpus file {path}: {exc}") from exc
    documents: list[list[Sentence]] = []
    current: list[Sentence] = []
    for lineno, line in enumerate(raw.split(b"\n"), start=1):
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: invalid UTF-8 on line {lineno}") from exc
        if lowercase:
            text = text.lower()
        tokens = text.split()
        if tokens:
            current.append(tokens)
        elif current:
            documents.append(current)
            current = []
    if current:
        documents.append(current)
    return documents


@dataclass
class Vocabulary:
    """Word <-> index bijection with training frequencies.

    Order is fixed: the three marks first, then words by descending training
    frequency with lexicographic tie-break, so identical input always yields
    the identical vocabulary.
    """

    words: list[str]
    frequencies: np.ndarray
    index: dict[str, int] = field(repr=False)

    def __post_init__(self):
        self.frequencies = np.asarray(self.frequencies, dtype=np.int64)

    @property
    def size(self) -> int:
        return len(self.words)

    @property
    def start(self) -> int:
        return self.index[START]

    @property
    def end(self) -> int:
        return self.index[END]

    @property
    def unknown(self) -> int:
        return self.index[UNKNOWN]

    def encode(self, sentence: Sentence) -> np.ndarray:
        return encode(sentence, self)

    def to_tsv(self) -> str:
        lines = [
            f"{w}\t{i}\t{f}"
            for i, (w, f) in enumerate(zip(self.words, self.frequencies))
        ]
        return "\n".join(lines) + "\n"


def build_vocabulary(train: list[Sentence], min_count: int = 1) -> Vocabulary:
    """Vocabulary from the training split; rare words fold into the unknown mark."""
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    if not train:
        raise ValueError("cannot build a vocabulary from an empty training set")
    counts: dict[str, int] = {}
    for sentence in train:
        for token in sentence:
            counts[token] = counts.get(token, 0) + 1
    kept = sorted(
        (w for w, c in counts.items() if c >= min_count),
        key=lambda w: (-counts[w], w),
    )
    folded = sum(c for w, c in counts.items() if c < min_count)
    n_sent = len(train)
    words = [START, END, UNKNOWN] + kept
    freqs = np.array([n_sent, n_sent, folded] + [counts[w] for w in kept], dtype=np.int64)
    return Vocabulary(words, freqs, {w: i for i, w in enumerate(words)})


def encode(sentence: Sentence, vocab: Vocabulary) -> np.ndarray:
    """[start] + mapped tokens + [end]; out-of-vocabulary words map to unknown."""
    unk = vocab.unknown
    body = [vocab.index.get(t, unk) for t in sentence]
    return np.array([vocab.start] + body + [vocab.end], dtype=np.int64)


@dataclass
class CorpusSplit:
    train: list[Sentence]
    validation: list[Sentence]
    test: list[Sentence]

    @staticmethod
    def _tokens(part: list[Sentence]) -> int:
        return sum(len(s) for s in part)

    @property
    def counts(self) -> tuple[int, int, int]:
        return (
            self._tokens(self.train),
            self._tokens(self.validation),
            self._tokens(self.test),
        )


def split_corpus(sentences: list[Sentence], n_train: int, n_valid: int) -> CorpusSplit:
    """Greedy sentence-boundary split by cumulative token counts.

    Train takes whole sentences until it holds at least ``n_train`` tokens,
    validation likewise with ``n_valid``; the remainder is test.
    """
    total = sum(len(s) for s in sentences)
    if n_train + n_valid > total:
        raise ValueError(
            f"requested {n_train}+{n_valid} tokens but the corpus has only {total}"
        )

    def take(start: int, wanted: int) -> int:
        i, cum = start, 0
        while i < len(sentences) and cum < wanted:
            cum += len(sentences[i])
            i += 1
        return i

    a = take(0, n_train)
    b = take(a, n_valid)
    return CorpusSplit(sentences[:a], sentences[a:b], sentences[b:])
