"""The quiet-host estimators: block minima, per-transaction minima, percentiles.

This host runs identical deterministic replays 1.1-1.5x apart in wall
time, in slow phases that last from milliseconds to minutes.  A replay is
therefore never trusted as a whole.  It is cut into blocks of ``BLOCK``
consecutive completions, and each block takes the fastest duration any
replay of the run achieved for it; a slow phase has to cover the same block
in every replay to leak into the estimate.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

BLOCK = 32


def block_durations(completions_ns: Sequence[int], block: int = BLOCK) -> list[int]:
    """Durations of consecutive blocks of ``block`` completions.

    ``completions_ns[k]`` is when the k-th transaction of a replay
    completed (committed or aborted), measured from the replay's start.
    The trailing partial block, if any, is kept: its work is real.
    """
    durations = []
    previous = 0
    for end in range(block, len(completions_ns) + block, block):
        last = completions_ns[min(end, len(completions_ns)) - 1]
        durations.append(last - previous)
        previous = last
    return durations


def quiet_duration_ns(replays: Sequence[Sequence[int]], block: int = BLOCK) -> int:
    """Sum over blocks of the minimum duration across replays.  Different
    blocks may take their minimum from different replays.  Replays must
    complete the same number of transactions."""
    per_replay = [block_durations(completions, block) for completions in replays]
    if len({len(durations) for durations in per_replay}) != 1:
        raise ValueError("replays completed different numbers of transactions")
    return sum(min(column) for column in zip(*per_replay))


def throughput_per_s(replays: Sequence[Sequence[int]],
                     commits: Sequence[int], block: int = BLOCK) -> float:
    """Committed transactions per second of quiet time.  ``commits[r]`` is
    the commit count of replay r; replays that disagree (the wire
    workload) contribute their median."""
    return statistics.median(commits) / (quiet_duration_ns(replays, block) / 1e9)


def minimum_latencies(replays: Sequence[Sequence[int | None]]) -> list[int | None]:
    """Per transaction, the minimum latency over the replays that
    committed it (``None`` where a replay did not); ``None`` if none did."""
    result: list[int | None] = []
    for samples in zip(*replays):
        committed = [sample for sample in samples if sample is not None]
        result.append(min(committed) if committed else None)
    return result


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest value with at least
    ``fraction`` of the sample at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, fraction: float) -> int:
    """How many samples lie strictly beyond the nearest-rank percentile."""
    return count - max(1, math.ceil(fraction * count))


def spread(values: Sequence[float]) -> float:
    """Interquartile range over median, as the driver computes it."""
    first, _median, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)
