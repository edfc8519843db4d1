"""Numerics shared by every model core: activations, softmax, seeded init,
and the gradient container."""

from __future__ import annotations

import numpy as np

__all__ = [
    "Gradients",
    "make_rng",
    "matvec",
    "softmax",
    "log_softmax",
    "sigmoid",
    "sigmoid_deriv",
    "tanh_act",
    "tanh_deriv",
    "init_matrix",
]


class Gradients(dict):
    """Gradient arrays keyed by parameter name.

    A name listed in ``rows`` holds a row-compact gradient: row ``i`` of
    ``self[name]`` is the gradient of parameter row ``self.rows[name][i]``,
    the ids in ``self.rows[name]`` are distinct, and every row not listed has
    a zero gradient.  Every other name holds a gradient of its parameter's
    full shape.  Tensors with one row per word use the compact form, so a
    sentence costs work in the rows it touched, not in the vocabulary size.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.rows: dict[str, np.ndarray] = {}

    def __setitem__(self, name, value):
        super().__setitem__(name, value)
        self.rows.pop(name, None)

    def set_rows(self, name: str, rows: np.ndarray, values: np.ndarray):
        """Store a row-compact gradient; ``rows`` must be distinct."""
        super().__setitem__(name, values)
        self.rows[name] = rows

    def update(self, other):
        """Merge another gradient mapping, carrying its row ids along."""
        super().update(other)
        other_rows = getattr(other, "rows", {})
        for name in other:
            if name in other_rows:
                self.rows[name] = other_rows[name]
            else:
                self.rows.pop(name, None)


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; identical seed gives an identical stream."""
    return np.random.default_rng(seed)


def matvec(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Dense matrix-vector product with an explicit shape check."""
    m = np.asarray(m, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if m.ndim != 2 or x.ndim != 1 or m.shape[1] != x.shape[0]:
        raise ValueError(f"matvec shape mismatch: matrix {m.shape} vs vector {x.shape}")
    return m @ x


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


def sigmoid(x):
    """Logistic function, stable for large |x|."""
    x = np.asarray(x, dtype=np.float64)
    t = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + t), t / (1.0 + t))


def sigmoid_deriv(s):
    """Derivative expressed through the output: s * (1 - s)."""
    return s * (1.0 - s)


def tanh_act(x):
    return np.tanh(x)


def tanh_deriv(h):
    """Derivative expressed through the output: 1 - h^2."""
    return 1.0 - h * h


def init_matrix(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """I.i.d. uniform entries on [-0.1, 0.1]."""
    if rows <= 0 or cols <= 0:
        raise ValueError(f"matrix dimensions must be positive, got {rows}x{cols}")
    return rng.uniform(-0.1, 0.1, size=(rows, cols))
