"""Percentiles of timing samples."""

from __future__ import annotations

# candidate percentiles in basis points (1/100 of a percent), lowest first
PERCENTILE_LADDER_BP = (5000, 9000, 9900, 9990, 9999)
MIN_BEYOND = 10


def _rank(bp: int, n: int) -> int:
    """1-based nearest rank of the percentile ``bp`` (in basis points) among
    n samples: ceil(p * n / 100), in exact integer arithmetic."""
    return -(-bp * n // 10_000)


def percentile(samples, bp: int) -> float:
    """Nearest-rank percentile; ``bp`` in basis points, 5000 = the 50th."""
    xs = sorted(samples)
    return float(xs[max(_rank(bp, len(xs)), 1) - 1])


def tail_percentile(samples, min_beyond: int = MIN_BEYOND) -> tuple[float, float]:
    """The highest ladder percentile with at least ``min_beyond`` samples
    ranked beyond it, as (percentile, value).

    Nearest rank: the p-th percentile of n sorted samples is the one at
    1-based rank ceil(p * n / 100), and the samples beyond it are the
    n - rank that follow.  Raises ValueError when even the median has fewer
    than ``min_beyond`` samples beyond it.
    """
    n = len(samples)
    fits = [bp for bp in PERCENTILE_LADDER_BP if n - _rank(bp, n) >= min_beyond]
    if not fits:
        raise ValueError(
            f"{n} samples: no percentile has {min_beyond} samples beyond it"
        )
    return fits[-1] / 100, percentile(samples, fits[-1])
