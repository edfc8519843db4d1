"""Neural language-model laboratory: FNN/RNN/LSTM cores with exact manual
backpropagation, factored softmax output layers, caching, and perplexity
experiments driven from a small CLI.

``cli`` is not imported here: ``python -m nnlm.cli`` must find it not yet
imported, or runpy prints a warning before the command's own output."""

from . import (artifact, caching, config, corpus, evaluation, models,
               numerics, output_layer, training)

__all__ = [
    "artifact", "caching", "config", "corpus", "evaluation",
    "models", "numerics", "output_layer", "training",
]

__version__ = "0.1.0"
