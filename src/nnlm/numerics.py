"""Numerics shared by every model core: activations, softmax, seeded init,
and the gradient container."""

from __future__ import annotations

import numpy as np

__all__ = [
    "Gradients",
    "make_rng",
    "softmax",
    "log_softmax",
    "log_softmax_rows",
    "sigmoid",
    "sigmoid_deriv",
    "tanh_deriv",
    "init_matrix",
]


class Gradients(dict):
    """Gradient arrays keyed by parameter name, some of them compact.

    A name listed in ``rows`` holds a row-compact gradient: row ``i`` of
    ``self[name]`` is the gradient of parameter row ``self.rows[name][i]``,
    the ids in ``self.rows[name]`` are distinct, and every row not listed has
    a zero gradient.  A name listed in ``factors`` holds a factored
    gradient: ``self[name]`` is the left factor L, one row per parameter
    row, ``self.factors[name]`` the right factor R, and the gradient is the
    product L @ R, which is never formed whole.  A name listed in both is
    row-compact and factored: L has one row per listed id, and L @ R gives
    those rows' gradient (a grouped layer's ``w_word``, whose L has one
    column per position, nonzero on that position's leaf only).  Every
    other name holds a gradient of its parameter's full shape.  Tensors
    with one row per word use a compact form, so a sentence costs work in
    the rows it touched or in its length, not in the vocabulary size times
    the row width.  Scaling a factored gradient scales its left factor, so
    no two entries may share one.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.rows: dict[str, np.ndarray] = {}
        self.factors: dict[str, np.ndarray] = {}

    def __setitem__(self, name, value):
        super().__setitem__(name, value)
        self.rows.pop(name, None)
        self.factors.pop(name, None)

    def set_rows(self, name: str, rows: np.ndarray, values: np.ndarray):
        """Store a row-compact gradient; ``rows`` must be distinct."""
        self[name] = values
        self.rows[name] = rows

    def set_factors(self, name: str, left: np.ndarray, right: np.ndarray,
                    rows: np.ndarray | None = None):
        """Store the gradient ``left @ right`` as its two factors; with
        ``rows`` (distinct), a row-compact one of those rows only."""
        self[name] = left
        self.factors[name] = right
        if rows is not None:
            self.rows[name] = rows

    def update(self, other):
        """Merge another gradient mapping, carrying its row ids and right
        factors along."""
        super().update(other)
        for kind in ("rows", "factors"):
            mine, theirs = getattr(self, kind), getattr(other, kind, {})
            for name in other:
                if name in theirs:
                    mine[name] = theirs[name]
                else:
                    mine.pop(name, None)


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; identical seed gives an identical stream."""
    return np.random.default_rng(seed)


def softmax(y: np.ndarray) -> np.ndarray:
    """Numerically stable softmax (max subtraction); preserves the argmax."""
    y = np.asarray(y, dtype=np.float64)
    z = y - y.max()
    e = np.exp(z)
    return e / e.sum()


def log_softmax(y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    z = y - y.max()
    return z - np.log(np.exp(z).sum())


# past this many entries log_softmax_rows sums its exponentials a row at a
# time (the same sums, bit for bit)
ROWS_AT_ONCE = 1 << 16


def log_softmax_rows(y: np.ndarray) -> np.ndarray:
    """``log_softmax`` of every row of a float64 matrix, in place.  A large
    matrix's exponentials are summed a row at a time: a temporary the size
    of ``y`` (3.4 MB for 21 rows at k=20k) would be page-faulted in on every
    call, while a small one's row loop would cost more than its sums."""
    y -= y.max(axis=1, keepdims=True)
    if y.size <= ROWS_AT_ONCE:
        y -= np.log(np.exp(y).sum(axis=1))[:, None]
    else:
        y -= np.log([np.exp(row).sum() for row in y])[:, None]
    return y


def sigmoid(x):
    """Logistic function, stable for large |x|."""
    x = np.asarray(x, dtype=np.float64)
    t = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, t) / (1.0 + t)


def sigmoid_deriv(s):
    """Derivative expressed through the output: s * (1 - s)."""
    return s * (1.0 - s)


def tanh_deriv(h):
    """Derivative expressed through the output: 1 - h^2."""
    return 1.0 - h * h


def init_matrix(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """I.i.d. uniform entries on [-0.1, 0.1]."""
    if rows <= 0 or cols <= 0:
        raise ValueError(f"matrix dimensions must be positive, got {rows}x{cols}")
    return rng.uniform(-0.1, 0.1, size=(rows, cols))
