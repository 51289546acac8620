"""Sampler settings for the forecast model.

Kept apart from ``contagion.forecast`` (which re-exports ``SamplerConfig``)
so that the CLI parser can read the defaults without importing numpy.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SamplerConfig:
    seed: int = 0
    chains: int = 4
    warmup: int = 5000
    draws: int = 5000
    eta: float = 2.0  # LKJ concentration for the walk stage
    points_per_draw: int = 10  # synthetic volume points per forecast draw

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.chains < 1 or self.warmup < 0 or self.draws < 1:
            raise ValueError("bad sampler size settings")
        if self.chains * self.draws < 1000:
            raise ValueError("need at least 1000 post-warmup draws")
        if self.eta <= 0 or self.points_per_draw < 1:
            raise ValueError("eta and points_per_draw must be positive")
