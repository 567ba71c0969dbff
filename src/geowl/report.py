"""The reconstruction entry point and the result record of every pipeline."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import oracle, wl
from .config import RunConfig
from .geometry import PointCloud


@dataclass
class ReconstructionReport:
    """Recovered cloud, the method that produced it and per-phase counters.

    `reconstruct` fills the alignment by running the isometry oracle against
    the source cloud; the cloud is verified exactly when it has one.
    """

    cloud: PointCloud
    method: str
    counters: dict
    alignment: oracle.Alignment | None = None

    @property
    def verified(self) -> bool:
        return self.alignment is not None


def reconstruct(cloud: PointCloud, algorithm: str,
                cfg: RunConfig | None = None) -> ReconstructionReport:
    """Color the cloud, rebuild it from the colors alone and check the result.

    `wl2d` rebuilds a planar cloud from 3 iterations of the point coloring,
    `wlnd` a cloud in R^d (d >= 3) from 3 iterations of the (d-1)-tuple
    coloring, and `oneshot` any cloud from 1 iteration of the d-tuple
    coloring.  The algorithm fixes the coloring, so `cfg.ell`, `cfg.iters`
    and `cfg.jobs` are not read.  Every pipeline runs in exact arithmetic
    only: the cloud is colored as the rationals its coordinates are (a float
    is the dyadic rational it holds), and `cfg.mode` "float" is a
    ValueError.  The isometry oracle then compares the reconstruction with
    the input cloud and fills `alignment`.  The pipelines take floats of
    squared distances, so ValueError is raised before coloring a cloud whose
    bounding box has a squared diagonal past the float range.
    """
    cfg = cfg or RunConfig()
    try:  # math.isfinite of an int or Fraction past the float range raises
        finite = math.isfinite(sum((max(c) - min(c)) ** 2 for c in zip(*cloud.points)))
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError("the cloud's squared extent is past the float range")

    exact = PointCloud(cloud.dim, tuple(tuple(map(Fraction, p)) for p in cloud.points))

    def colored(ell: int, iters: int) -> wl.ColorStore:
        return wl.run_wl(exact, ell, iters, mode=cfg.mode, snap=cfg.tol,
                         max_tuples=cfg.max_tuples)

    if algorithm == "wl2d":
        if cloud.dim != 2:
            raise ValueError("wl2d needs a two-dimensional cloud")
        report = recon2d.reconstruct_planar(colored(1, 3), tol=cfg.tol)
    elif algorithm == "wlnd":
        if cloud.dim < 3:
            raise ValueError("wlnd needs dimension at least 3")
        report = recon_nd.reconstruct_nd(colored(cloud.dim - 1, 3), tol=cfg.tol,
                                         max_depth=cfg.max_depth)
    elif algorithm == "oneshot":
        report = oneshot.reconstruct_one_iter(colored(cloud.dim, 1), tol=cfg.tol,
                                              cap=cfg.max_candidates)
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    report.alignment = oracle.is_isometric(report.cloud, cloud)
    return report


# The pipelines import ReconstructionReport from this module, so they are
# imported only once it is defined.
from . import oneshot, recon2d, recon_nd  # noqa: E402
