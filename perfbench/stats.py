"""Summary statistics with the benchmark's sample-count rules."""

from __future__ import annotations

import math
from typing import Sequence

#: A reported tail percentile must leave at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def nearest_rank(samples: Sequence[float], quantile: float) -> float:
    """The nearest-rank ``quantile`` (0 < q <= 1) of ``samples``."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(quantile * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, quantile: float) -> int:
    """How many of ``count`` samples lie strictly above the nearest rank."""
    return count - max(1, math.ceil(quantile * count))


def tail_percentile(samples: Sequence[float], quantile: float) -> float:
    """``nearest_rank`` that refuses a tail with fewer than ten samples."""
    beyond = samples_beyond(len(samples), quantile)
    if beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{quantile * 100:g} of {len(samples)} samples leaves {beyond} "
            f"beyond it; at least {MIN_TAIL_SAMPLES} are required")
    return nearest_rank(samples, quantile)
