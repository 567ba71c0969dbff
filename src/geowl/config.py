"""Run configuration shared by the CLI and the pipelines, and every library default."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

DEFAULT_TOL = 1e-9
DEFAULT_MAX_TUPLES = 100_000
DEFAULT_MAX_CANDIDATES = 4096
DEFAULT_MAX_DEPTH = 10
DEFAULT_SELECT_SAMPLES = 4096
DEFAULT_VERIFY_SNAP = 1e-6
SEED_ENV_VAR = "GEOWL_SEED"


def default_seed() -> int:
    return int(os.environ.get(SEED_ENV_VAR, "0"))


@dataclass
class RunConfig:
    """Knobs for a coloring or reconstruction run.

    mode sets the arithmetic of `color` and `compare`: None selects exact
    arithmetic for rational inputs and float mode (with distance snapping at
    step tol) otherwise.  `reconstruct` runs exact only: it reads a float
    cloud as the dyadic rationals its floats are, and mode "float" makes it
    raise ValueError.  tol is also the rank and ranking tolerance of the
    pipelines.  select_samples and verify_snap are not read: they sized the
    Monte Carlo cone-angle order and the float certificate's own grid, which
    `wlnd` no longer uses, and stay while perfbench/workloads.py passes them on.
    """

    ell: int = 1
    iters: int = 3
    mode: str | None = None
    tol: float = DEFAULT_TOL
    seed: int = 0
    jobs: int = 1
    max_tuples: int = DEFAULT_MAX_TUPLES
    max_candidates: int = DEFAULT_MAX_CANDIDATES
    max_depth: int = DEFAULT_MAX_DEPTH
    select_samples: int = DEFAULT_SELECT_SAMPLES
    verify_snap: float = DEFAULT_VERIFY_SNAP

    def __post_init__(self):
        if self.ell < 1:
            raise ValueError("ell must be at least 1")
        if self.iters < 0:
            raise ValueError("iters must be non-negative")
        if self.mode not in (None, "exact", "float"):
            raise ValueError(f"unknown mode {self.mode!r}")
        for name in ("tol", "verify_snap"):
            if not 0 < getattr(self, name) < math.inf:  # also rejects NaN
                raise ValueError(f"{name} must be positive and finite")
        for cap in (self.max_tuples, self.max_candidates, self.max_depth,
                    self.select_samples, self.jobs):
            if cap < 1:
                raise ValueError("caps and jobs must be positive")
