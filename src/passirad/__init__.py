"""Robustness analysis of passive discrete-time LTI systems.

Certificates of passivity (KYP-style linear matrix inequalities and
their Riccati extremal solutions), normalized realizations, passivity
radii with explicit minimal destabilizing perturbations, shift margins,
and distances to passivity and stability for models that fail the test.

The package namespace holds the entry points; every other public name is
imported from its module, for example ``from passirad.xi import
frequency_scan``.
"""

from .errors import (
    ConditioningError,
    ConvergenceError,
    DefinitenessError,
    DomainError,
    PassiradError,
    SpectralSplittingError,
)
from .kernels import DEFAULT_TOL, Tolerances
from .system_model import StateSpaceModel
from .kyp import build_W
from .riccati import extremal_solutions
from .normalization import normalize
from .radius import dual_certificate, x_passivity_radius
from .xi import optimal_certificate, xi_star, xi_sup_bisection, xi_sup_eigenvalue
from .passify import analyze_distance, distance_to_stability
from .experiments import ensemble_experiment, random_passive_system

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "PassiradError",
    "DomainError",
    "DefinitenessError",
    "SpectralSplittingError",
    "ConditioningError",
    "ConvergenceError",
    "Tolerances",
    "DEFAULT_TOL",
    "StateSpaceModel",
    "build_W",
    "extremal_solutions",
    "normalize",
    "x_passivity_radius",
    "dual_certificate",
    "xi_sup_bisection",
    "xi_sup_eigenvalue",
    "optimal_certificate",
    "xi_star",
    "analyze_distance",
    "distance_to_stability",
    "random_passive_system",
    "ensemble_experiment",
]
