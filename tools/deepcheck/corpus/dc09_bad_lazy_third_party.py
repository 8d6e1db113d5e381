"""Corpus DC09 bad: a lazy third-party import inside a simulator function."""

import math


def render(n: int, step: float) -> list:
    import numpy as np

    return list(np.sin(np.arange(n) * step + math.pi))
