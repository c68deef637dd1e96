"""heatlab: heat content of bounded sets under radial kernels.

Evaluates rotationally invariant stable-type heat kernels, set-covariance
profiles of balls and boxes, the heat content H(t) through the covariance
representation, and the small-time limits and perimeter-type bounds of its
deficit -- each cross-checked against closed forms and Monte Carlo oracles.
"""

from .errors import (
    DivergentMomentError,
    HeatlabError,
    QuadratureError,
    RegimeError,
    SamplingEfficiencyError,
    UnsupportedShapeError,
)
from .geometry import (
    Ball,
    Box,
    CovarianceProfile,
    Indicator,
    alpha_perimeter,
    covariance,
    covariance_ball,
    covariance_box,
    covariance_mc,
    diameter,
    directional_variation,
    perimeter,
    perimeter_via_directional,
    radial_profile,
    theta,
    volume,
)
from .content import (
    AsymptoticReport,
    BoundCheckReport,
    HeatContentResult,
    asymptotic_sweep,
    ball_poisson_decomposition,
    bound_check_part_i,
    bound_check_part_ii,
    heat_content,
    heat_sweep,
    poly_lambda,
    regime_of,
    regime_scaling,
    scaled_deficit,
    stable_limit_constant,
    theoretical_constant,
)
from .kernel import (
    KernelSpec,
    QuadratureConfig,
    ScalingExponents,
    eval_p1,
    eval_pt,
    l1_norm,
    l1_norm_closed_form,
    moment_d,
    moment_d_closed_form,
    poisson_constant,
    stable_tail_constant,
    tail_mass,
    unit_ball_volume,
    unit_sphere_area,
)
from .oracle import McEstimate, mc_alpha_perimeter, mc_heat_content
from .stable import StableDensity, density

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
