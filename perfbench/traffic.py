"""Traffic generator for the ``serve-mixed`` workload.

The benchmark seed picks the order of every submit; the program under
test only ever sees the resulting submits.  Popularity follows the key
order and does not depend on the seed: the keys' warm-hit costs differ
(their ledgers range from 9 to 89 regions), so a seed-chosen hottest key
would move throughput by 20% from one seed to the next.
"""

from __future__ import annotations

import random
from typing import Iterator, Sequence

#: Zipf exponent over the key set: the hottest key takes about a third of
#: the submits, so nearly every submit is a warm hit or an in-flight
#: duplicate and only the first submit of each key is cold.
SKEW = 1.1


def submits(seed: int, keys: Sequence[str]) -> Iterator[str]:
    """Endless, seed-determined stream of *keys*, the first the most
    popular, drawn with Zipf skew :data:`SKEW`."""
    if not keys:
        raise ValueError("no release keys to draw from")
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) ** SKEW for rank in range(len(keys))]
    while True:
        yield rng.choices(keys, weights)[0]
