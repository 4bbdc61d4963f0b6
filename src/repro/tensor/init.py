"""Parameter initializers (Glorot/Xavier uniform, zeros)."""

from __future__ import annotations

import math

import numpy as np


def xavier_uniform(shape: tuple, rng: np.random.Generator, gain: float = 1.0) -> np.ndarray:
    """Glorot & Bengio (2010) uniform initializer.

    ``fan_in``/``fan_out`` are the first/second axis sizes for 2-D shapes;
    for higher-rank shapes the trailing axes are treated as receptive field.
    """
    if len(shape) < 2:
        fan_in = fan_out = int(np.prod(shape))
    else:
        receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
        fan_in = shape[0] * receptive
        fan_out = shape[1] * receptive
    bound = gain * math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def zeros(shape: tuple) -> np.ndarray:
    """All-zeros initializer (biases)."""
    return np.zeros(shape)
