"""Rebuilding a 3D cloud from three refinements of its pair coloring.

Pairs of points are enough in three dimensions: the refined pair colors
determine, for every pair, the distances of both members to the barycenter,
then full distance profiles, and finally enhanced profiles whose anchors can
be embedded and used to chase down every point by mirror elimination inside
a growing forbidden region.
"""

from fractions import Fraction as F

from geowl import reconstruct
from geowl.geometry import PointCloud
from geowl.oracle import is_isometric, random_cloud
from geowl.recon_nd import (enhanced_profiles_from_wl3, reconstruct_nd,
                            select_cone_tuple)
from geowl.wl import run_wl

cloud = PointCloud(3, ((F(0), F(0), F(0)), (F(1), F(0), F(0)),
                       (F(0), F(1), F(0)), (F(0), F(0), F(1)),
                       (F(1), F(1), F(2)), (F(2), F(1, 2), F(1))),
                   label="tetrahedron plus two")
print(f"source: {cloud.label}, n={cloud.n}")

store = run_wl(cloud, ell=2, iters=3)
print("pair-color classes per iteration:", store.class_counts())

table = enhanced_profiles_from_wl3(store)
print(f"{len(table)} distinct enhanced profiles extracted"
      f" (multiset size {table.counts.sum()} = n^3)")

candidates = select_cone_tuple(table)
print(f"{len(candidates)} full-dimensional candidates,"
      " ordered by the elimination depth bound")

# reconstruct_nd returns only a cloud whose re-coloring reproduces the input
# fingerprint; reconstruct colors the cloud, calls it, and runs the oracle
report = reconstruct(cloud, "wlnd")
print(f"\nmethod: {report.method}, counters: {report.counters}")
print(f"verified by the isometry oracle: {report.verified}")
print(f"oracle alignment residual: {report.alignment.residual:.2e}")

print("\ndegenerate clouds route through subspace trilateration:")
flat = PointCloud(3, ((F(0), F(0), F(0)), (F(1), F(0), F(0)),
                      (F(0), F(1), F(0)), (F(1), F(1), F(0))), label="flat")
rep = reconstruct_nd(run_wl(flat, 2, 3))
print(f"  {flat.label}: method {rep.method},"
      f" residual {is_isometric(rep.cloud, flat).residual:.2e}")

print("\nbatch check on random rational clouds in R^3:")
worst = 0.0
for seed in range(10):
    c = random_cloud(4 + seed % 3, 3, seed=100 + seed, grid=4, span=2)
    rep = reconstruct_nd(run_wl(c, 2, 3))
    worst = max(worst, is_isometric(rep.cloud, c).residual)
print(f"  10/10 recovered, worst residual {worst:.2e}")
