"""Spectrum, nodal solutions and bifurcation branches of the radial
p-Laplacian with sign-changing weight on the unit ball."""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    IntegrationError,
    NegativeSequenceAbsent,
    PreconditionError,
    PspectError,
    SpectrumIncomplete,
)
from .greens import GpProfile, SourceTerm, apply_Gp, as_source
from .nodal import (
    Branch,
    BranchPoint,
    GammaInterval,
    NodalSearch,
    NodalSolution,
    Nonlinearity,
    Perturbation,
    find_nodal,
    gamma_intervals,
    solution_residual,
    trace_branch,
    verify_bifurcation_points,
)
from .pfuncs import pi_p
from .radial_ivp import Problem, Trajectory, shoot
from .report import CheckReport
from .spectrum import (
    Eigenpair,
    EigenResult,
    Spectrum,
    closed_form_mu,
    compute_spectrum,
    crossing_index,
    find_eigenvalues,
    verify_p_continuity,
    verify_sturm,
    verify_weight_monotonicity,
    verify_zero_proliferation,
)
from .weights import Weight
