"""Seeded, named random-number streams.

Every stochastic component of the simulation draws from its own named
stream derived from a single master seed. Adding a new component (a new
house, a new application model) therefore never perturbs the draws of
existing components, which keeps experiments comparable across code
changes and makes ablations honest.
"""

from __future__ import annotations

import hashlib
import random
from math import exp, log
from random import NV_MAGICCONST
from typing import Iterator


def derive_seed(master_seed: int, *names: str | int) -> int:
    """A stable 64-bit seed derived from *master_seed* and a name path."""
    hasher = hashlib.sha256()
    hasher.update(str(master_seed).encode("utf-8"))
    for name in names:
        hasher.update(b"/")
        hasher.update(str(name).encode("utf-8"))
    return int.from_bytes(hasher.digest()[:8], "big")


class RandomStreams:
    """Factory for independent :class:`random.Random` streams."""

    def __init__(self, master_seed: int = 0):
        self.master_seed = master_seed
        self._streams: dict[tuple[str | int, ...], random.Random] = {}

    def stream(self, *names: str | int) -> random.Random:
        """The stream for the given name path (created on first use)."""
        key = tuple(names)
        rng = self._streams.get(key)
        if rng is None:
            rng = random.Random(derive_seed(self.master_seed, *names))
            self._streams[key] = rng
        return rng

    def spawn(self, *names: str | int) -> "RandomStreams":
        """A child factory whose streams are namespaced under *names*."""
        return RandomStreams(derive_seed(self.master_seed, *names, "spawn"))


def lognormal(rng: random.Random, mu: float, sigma: float) -> float:
    """``rng.lognormvariate(mu, sigma)``, draw for draw and bit for bit.

    CPython 3.11's ``normalvariate`` loop (Kinderman and Monahan's ratio
    of uniforms) inlined: the same ``rng.random()`` calls and the same
    float operations in the same order, in one frame instead of the two
    that ``lognormvariate`` and ``normalvariate`` cost. The simulator's
    lognormal draws all come through here; ``tests/test_draw_exactness.py``
    pins the equality against the interpreter's own method.
    """
    draw = rng.random
    while True:
        u1 = draw()
        u2 = 1.0 - draw()
        z = NV_MAGICCONST * (u1 - 0.5) / u2
        if z * z / 4.0 <= -log(u2):
            return exp(mu + z * sigma)


def poisson_arrivals(rng: random.Random, rate_per_second: float, start: float, end: float) -> Iterator[float]:
    """Yield Poisson-process arrival times in ``[start, end)``.

    ``rate_per_second`` may be zero, in which case nothing is yielded.
    """
    if rate_per_second < 0:
        raise ValueError(f"rate must be non-negative, got {rate_per_second}")
    if rate_per_second == 0:
        return
    now = start
    while True:
        now += rng.expovariate(rate_per_second)
        if now >= end:
            return
        yield now


def weighted_choice(rng: random.Random, weighted_items: dict[str, float]) -> str:
    """Pick one key of *weighted_items* proportionally to its weight."""
    if not weighted_items:
        raise ValueError("cannot choose from an empty mapping")
    items = list(weighted_items.items())
    total = sum(weight for _, weight in items)
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    target = rng.random() * total
    acc = 0.0
    for key, weight in items:
        acc += weight
        if target < acc:
            return key
    return items[-1][0]


def zipf_weights(count: int, exponent: float = 1.0) -> list[float]:
    """Zipf popularity weights for ranks ``1..count`` (unnormalised)."""
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    if exponent < 0:
        raise ValueError(f"exponent must be non-negative, got {exponent}")
    return [1.0 / (rank ** exponent) for rank in range(1, count + 1)]
