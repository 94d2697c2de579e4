"""Distance to passivity for non-passive models, and the stability analogue.

The backward-shifted family M_{-xi} = {A, B, C, D + xi*I} / (1 + xi) is
passive for all xi past some smallest value; that value is found by a
level-set search on the frequency-pinned pencil of xi.py and realized as
the structured perturbation Delta = (diag(0, xi*I) - xi*S) / (1 + xi) of
the assembled system matrix S, which maps M exactly onto M_{-xi}.  For a
stable A the least shift of D alone, {A, B, C, D + c*I} with the spectral
function Phi + 2cI, is found by a level-set search on lambda_min Phi and
returned instead whenever it is smaller (Boyd & Balakrishnan 1990,
Bruinsma & Steinbuch 1990).  Both searches return only scan-verified
passive levels.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .errors import ConvergenceError, DomainError
from .kernels import DEFAULT_TOL, Tolerances, as_complex_matrix
from .kyp import Certificate, classify_certificate
from .riccati import _stabilizing_solution
from .system_model import StateSpaceModel, _semi_simple, validate_minimal
from .xi import FrequencyScan, _bracket_width, _pinned_roots, frequency_scan, shift_model, xi_upper_bound

__all__ = [
    "DistanceReport",
    "StabilityDistance",
    "constrained_distance",
    "pick_certificate",
    "refine_distance",
    "distance_to_stability",
    "analyze_distance",
]


@dataclass(frozen=True)
class DistanceReport:
    """Distance-to-passivity bundle: delta_constrained realizes the shift
    xi_big, delta_refined (None for a passive model) is the smaller of it and
    the least D-only shift, with norms sigma2 and sigma_frob.
    refinement_converged is always True and keeps the CLI report's schema."""

    xi_big: float
    delta_constrained: np.ndarray
    X_cert: Certificate
    delta_refined: Optional[np.ndarray]
    sigma2: float
    sigma_frob: float
    refinement_converged: bool


@dataclass(frozen=True)
class StabilityDistance:
    """Smallest uniform shrink making A/(1+xi) stable."""

    xi: float
    attained: bool
    relative_error: float
    spectral_radius: float


def _root_bound(model: StateSpaceModel, scan: FrequencyScan, level: float) -> float:
    """Least, over the scan's violation-arc midpoints, of the largest pinned
    root below level (level itself when there is none).  At such a midpoint
    every forward level between that root and level fails."""
    bound = level
    for omega, _, _ in scan.violations:
        roots = _pinned_roots(model, omega)
        below = roots[roots < level]
        if below.size:
            bound = min(bound, float(below[-1]))
    return bound


def constrained_distance(
    model: StateSpaceModel,
    tau: Optional[float] = None,
    tol: Tolerances = DEFAULT_TOL,
) -> Tuple[float, np.ndarray]:
    """Smallest backward shift making the model passive, with its
    realizing perturbation of the system matrix.

    Returns (0, 0) for an already-passive model.  The backward shift by xi
    is the forward shift by -xi, so the search runs on forward levels,
    where the passing ones are the lower.  An upper bound on them starts at
    min(0, 1 - rho(A)) and the level-0 scan's root bound; each step scans
    the probe upper - tau/2 (tau is tol.bisect_tau when None), returns
    xi_big = -probe when it is passive, and else lowers upper to the
    probe's root bound, which is at least tau/2 lower.
    """
    report = validate_minimal(model, tol)
    if not report.minimal:
        raise DomainError(
            "model is not minimal "
            f"(controllable rank {report.ctrl_rank}, observable rank {report.obs_rank})"
        )
    t = _bracket_width(tau, tol)
    nm = model.n + model.m
    scan = frequency_scan(model, tol)
    if scan.passive:
        return 0.0, np.zeros((nm, nm), dtype=np.complex128)
    upper = _root_bound(model, scan, min(0.0, xi_upper_bound(model)))
    for _ in range(100):
        level = upper - 0.5 * t
        scan = frequency_scan(shift_model(model, level).model, tol)
        if scan.passive:
            break
        upper = _root_bound(model, scan, level)
    else:
        raise ConvergenceError(f"level-set iteration cap reached at backward shift {-upper:.12e}")
    xi_big = -level
    S = model.system_matrix()
    target = np.zeros((nm, nm), dtype=np.complex128)
    target[model.n :, model.n :] = xi_big * np.eye(model.m)
    delta = (target - xi_big * S) / (1.0 + xi_big)
    return float(xi_big), delta


def pick_certificate(
    model: StateSpaceModel,
    xi_big: float,
    tau: Optional[float] = None,
    tol: Tolerances = DEFAULT_TOL,
) -> Certificate:
    """Certificate for the passified model: the stabilizing solution of
    the strictly passive side M_{-(xi+tau)}, the forward shift at level
    -(xi+tau) (tau is tol.bisect_tau when None), for every xi >= 0."""
    shifted = shift_model(model, -(float(xi_big) + _bracket_width(tau, tol))).model
    return classify_certificate(shifted, _stabilizing_solution(shifted, tol)[0], tol)


def _norm_of(delta: np.ndarray, norm: str) -> float:
    return float(np.linalg.norm(delta, "fro" if norm == "fro" else 2))


def refine_distance(
    model: StateSpaceModel,
    delta0: np.ndarray,
    norm: str = "2",
    tol: Tolerances = DEFAULT_TOL,
) -> Tuple[np.ndarray, float, bool]:
    """(Delta, ||Delta||, True) for the smaller of delta0 and the least D-only
    shift diag(0, c*I), which is the least perturbation of D alone in both
    norms, since {A, B, C, D + cI} has the spectral function Phi + 2cI.

    Hence c = level - lambda/2, with lambda the least lambda_min Phi over a
    scan's violation-arc midpoints at the level D + level*I, is a lower
    bound on c*.  Starting from level 0, each step scans c + tau/2 (tau is
    tol.bisect_tau) and realizes c + tau once that scan is passive.  delta0
    comes back as is for an unstable A, once c + tau exceeds ||delta0||
    (over sqrt(m) for "fro"), or when the D-only shift is not smaller.
    """
    if norm not in ("2", "fro"):
        raise DomainError(f"norm must be '2' or 'fro', got {norm!r}")
    delta0 = as_complex_matrix(delta0, "delta0")
    n, m = model.n, model.m
    if delta0.shape != (n + m, n + m):
        raise DomainError(f"delta0 must be {n + m}x{n + m}, got {delta0.shape}")
    sigma0 = _norm_of(delta0, norm)
    if model.spectral_radius >= 1.0:
        return delta0, sigma0, True

    def d_shifted(c: float) -> StateSpaceModel:
        # same A, so the same spectrum: reuse the base model's cached one
        shifted = StateSpaceModel(model.A, model.B, model.C, model.D + c * np.eye(m))
        object.__setattr__(shifted, "eigenvalues", model.eigenvalues)
        return shifted

    hi = sigma0 / np.sqrt(m) if norm == "fro" else sigma0
    t = tol.bisect_tau
    level, scan = 0.0, frequency_scan(model, tol)
    for _ in range(100):
        c = level - 0.5 * min((lam for _, _, lam in scan.violations), default=0.0)
        if c + t > hi:
            return delta0, sigma0, True
        level = c + 0.5 * t
        scan = frequency_scan(d_shifted(level), tol)
        if scan.passive:
            break
    else:
        raise ConvergenceError(f"level-set iteration cap reached at D-only shift {level:.12e}")
    delta_d = np.zeros_like(delta0)
    delta_d[n:, n:] = (c + t) * np.eye(m)
    sigma_d = _norm_of(delta_d, norm)
    return (delta_d, sigma_d, True) if sigma_d < sigma0 else (delta0, sigma0, True)


def distance_to_stability(A, tol: Tolerances = DEFAULT_TOL) -> StabilityDistance:
    """Infimal xi >= 0 with A/(1+xi) stable: max(0, rho(A) - 1).

    The infimum is attained iff the peripheral eigenvalues are
    semi-simple; the uniform shrink has relative error xi/(1+xi).
    """
    M = as_complex_matrix(A, "A")
    if M.shape[0] != M.shape[1]:
        raise DomainError(f"A must be square, got {M.shape}")
    eigs = np.linalg.eigvals(M)
    rho = float(np.max(np.abs(eigs)))
    xi = max(0.0, rho - 1.0)
    if rho < 1.0 - tol.circle_tol:
        return StabilityDistance(0.0, True, 0.0, rho)
    # defective eigenvalues split numerically by roughly eps^(1/order), so
    # the band of peripheral eigenvalues must be at least that coarse
    band = max(1e-8, 10.0 * np.finfo(float).eps ** (1.0 / M.shape[0])) * max(rho, 1.0)
    return StabilityDistance(xi, _semi_simple(M, eigs, rho, band, tol.rank_tol), xi / (1.0 + xi), rho)


def analyze_distance(
    model: StateSpaceModel,
    tau: Optional[float] = None,
    norm: str = "2",
    tol: Tolerances = DEFAULT_TOL,
) -> DistanceReport:
    """Constrained shift, refine_distance, and one certificate: that of
    pick_certificate when delta0 is kept, else the stabilizing solution of
    S + delta_refined.  A given tau replaces tol.bisect_tau throughout."""
    tol = replace(tol, bisect_tau=_bracket_width(tau, tol))
    xi_big, delta0 = constrained_distance(model, tol=tol)
    if xi_big == 0.0:
        return DistanceReport(0.0, delta0, pick_certificate(model, 0.0, tol=tol), None, 0.0, 0.0, True)
    refined, _, converged = refine_distance(model, delta0, norm=norm, tol=tol)
    if np.array_equal(refined, delta0):
        cert = pick_certificate(model, xi_big, tol=tol)
    else:
        passified = StateSpaceModel(model.A, model.B, model.C, model.D + refined[model.n :, model.n :])
        cert = classify_certificate(passified, _stabilizing_solution(passified, tol)[0], tol)
    return DistanceReport(
        xi_big=xi_big,
        delta_constrained=delta0,
        X_cert=cert,
        delta_refined=refined,
        sigma2=float(np.linalg.norm(refined, 2)),
        sigma_frob=float(np.linalg.norm(refined, "fro")),
        refinement_converged=converged,
    )
