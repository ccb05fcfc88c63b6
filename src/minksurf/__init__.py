"""Surfaces in Minkowski 4-space from holomorphic data.

From a meromorphic function and a holomorphic 1-form the package builds
the closed lightcone-valued connection form, transports SL(2,C) frames
along grid staircases, and produces surfaces in seven target geometries
(minimal / maximal / isotropic-zero-mean-curvature in affine hyperplanes,
CMC in hyperbolic and de Sitter space, intrinsically flat in the
lightcone, and linear Weingarten of Bryant type), together with a
finite-difference verifier for every curvature property the construction
promises.
"""

from .domain import BasePointMaskedError, DomainGrid, SampledData, sample_data
from .expr import ExprSyntaxError, differentiate, evaluate, parse_expr, print_expr
from .forms import XiField, build_xi, zeta_density_fn
from .integrate import (FrameField, FrameSide, PathOrder, integrate_closed_form,
                        iteration_law_defect, path_independence_check, solve_psi)
from .minkowski import E0, E1, E2, E3, causal_type, herm_from_vec, ip31
from .surfaces import (GeometryKind, SurfaceSample, TargetGeometry, gauss_lift,
                       make_affine_surface, make_lw_bryant, make_quadric_surface,
                       secondary_form, secondary_gauss, uy_perturb)
from .verify import (CurvatureReport, christoffel_residual, conformality_residual,
                     curvatures, fundamental_forms, intrinsic_curvature,
                     lw_residual, marginally_trapped_residual, verify_surface)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
