"""Distance-based tuple colorings of Euclidean point clouds, and algorithms
that rebuild a cloud, up to isometry, from the color multisets alone."""

from .errors import (CapExceededError, GeowlError, InconsistentDataError,
                     NotRealizableError, ParameterMismatchError, ReconstructionError)
from .geometry import (ConeSpec, Hyperplane, PointCloud, SquaredDistanceMatrix,
                       affine_dim, anchor_embed, barycenter, barycenter_sq_norms,
                       cone_coefficients, mirror_pair, reflect, solid_angle_mc,
                       sq_dist, squared_distance_matrix, trilaterate)
from .wl import (ColorStore, Fingerprint, Interner, compare, fingerprint,
                 initial_coloring, refine, run_wl)
from .oracle import Alignment, apply_random_isometry, is_isometric, random_cloud, \
    search_indistinguishable
from .recon2d import InitData2D, init2d, reconstruct2d, reconstruct_planar
from .recon_nd import EnhancedProfile, ForbiddenRegion, enhanced_profiles_from_wl3, \
    reconstruct_nd, select_cone_tuple
from .oneshot import CandidateCloud, enumerate_candidates, reconstruct_one_iter, \
    supporting_tuple_scan, total_distance_sum
from .report import ReconstructionReport, reconstruct
from .config import RunConfig

__version__ = "0.1.0"

__all__ = [
    "Alignment", "CandidateCloud", "CapExceededError", "ColorStore", "ConeSpec",
    "EnhancedProfile", "Fingerprint", "ForbiddenRegion", "GeowlError",
    "Hyperplane", "InconsistentDataError", "InitData2D", "Interner",
    "NotRealizableError", "ParameterMismatchError", "PointCloud",
    "ReconstructionError", "ReconstructionReport", "RunConfig",
    "SquaredDistanceMatrix", "affine_dim", "anchor_embed",
    "apply_random_isometry", "barycenter", "barycenter_sq_norms", "compare",
    "cone_coefficients", "enhanced_profiles_from_wl3", "enumerate_candidates",
    "fingerprint", "init2d", "initial_coloring", "is_isometric", "mirror_pair",
    "random_cloud", "reconstruct", "reconstruct2d", "reconstruct_nd",
    "reconstruct_one_iter", "reconstruct_planar", "refine", "reflect", "run_wl",
    "search_indistinguishable", "select_cone_tuple", "solid_angle_mc", "sq_dist",
    "squared_distance_matrix", "supporting_tuple_scan", "total_distance_sum",
    "trilaterate",
]
