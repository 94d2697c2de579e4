"""Distance to passivity for non-passive models, and the stability analogue.

The backward-shifted family M_{-xi} = {A, B, C, D + xi*I} / (1 + xi) is
passive for all xi past some smallest value; that value is found by a
doubling-plus-bisection search and realized as the structured
perturbation Delta = (diag(0, xi*I) - xi*S) / (1 + xi) of the assembled
system matrix S, which maps M exactly onto M_{-xi}.  A fixed-certificate
LMI refinement then tries to shrink the perturbation norm.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .errors import ConvergenceError, DomainError
from .kernels import DEFAULT_TOL, Tolerances, as_complex_matrix, lambda_min, psd_margin
from .kyp import (
    Certificate,
    _read_perturbation,
    apply_perturbation,
    build_What,
    classify_certificate,
    perturbation_frame,
)
from .riccati import _stabilizing_solution, extremal_solutions
from .system_model import StateSpaceModel, _semi_simple, validate_minimal
from .xi import _bracket_width, _shift_bisection, frequency_scan, shift_model

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
    """Distance-to-passivity bundle: shift level, perturbations, norms."""

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


def constrained_distance(
    model: StateSpaceModel,
    tau: Optional[float] = None,
    tol: Tolerances = DEFAULT_TOL,
) -> Tuple[float, np.ndarray]:
    """Smallest backward shift making the model passive, with its
    realizing perturbation of the system matrix.

    Returns (0, 0) for an already-passive model.  Otherwise brackets the
    shift by doubling, bisects the monotone passivity predicate to width
    tau (tol.bisect_tau when None), and returns the certified-passing
    bracket end.  The backward shift by xi is the forward shift by -xi, so
    both phases run on forward levels, where the passing end is the lower.
    """
    report = validate_minimal(model, tol)
    if not report.minimal:
        raise DomainError(
            "model is not minimal "
            f"(controllable rank {report.ctrl_rank}, observable rank {report.obs_rank})"
        )
    t = _bracket_width(tau, tol)
    nm = model.n + model.m
    if frequency_scan(model, tol).passive:
        return 0.0, np.zeros((nm, nm), dtype=np.complex128)
    lo = 0.0
    hi = max(t, model.spectral_radius - 1.0 + t)
    doublings = 0
    while not frequency_scan(shift_model(model, -hi).model, tol).passive:
        lo = hi
        hi *= 2.0
        doublings += 1
        if doublings > 80:
            raise ConvergenceError(f"no passive backward shift found up to {hi:.3e}")
    level, _, _, _ = _shift_bisection(model, -hi, -lo, t, tol, lambda scan: scan.passive)
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
    -(xi+tau) (tau is tol.bisect_tau when None), or the extremal midpoint
    when no shift was needed."""
    x = float(xi_big)
    if x > 0.0:
        shifted = shift_model(model, -(x + _bracket_width(tau, tol))).model
        return classify_certificate(shifted, _stabilizing_solution(shifted, tol)[0], tol)
    sols = extremal_solutions(model, tol)
    return classify_certificate(model, 0.5 * (sols.X_min + sols.X_max), tol)


def _norm_of(delta: np.ndarray, norm: str) -> float:
    if norm == "fro":
        return float(np.linalg.norm(delta, "fro"))
    return float(np.linalg.norm(delta, 2))


def _ball_projection(delta: np.ndarray, sigma: float, norm: str) -> np.ndarray:
    if norm == "fro":
        nrm = np.linalg.norm(delta, "fro")
        if nrm <= sigma or nrm == 0.0:
            return delta
        return delta * (sigma / nrm)
    U, s, V = np.linalg.svd(delta, full_matrices=False)
    return (U * np.minimum(s, sigma)) @ V.conj().T


def _psd_readback(delta: np.ndarray, What0: np.ndarray, frame) -> np.ndarray:
    """Clip the assembled certificate matrix to the PSD cone and read the
    perturbation blocks back through the embedding frame."""
    G = What0 + apply_perturbation(frame, delta)
    w, V = np.linalg.eigh(G)
    Gplus = (V * np.maximum(w, 0.0)) @ V.conj().T
    return _read_perturbation(Gplus - What0, frame.n)


def refine_distance(
    model: StateSpaceModel,
    X,
    delta0: np.ndarray,
    norm: str = "2",
    budget: int = 2000,
    tol: Tolerances = DEFAULT_TOL,
) -> Tuple[np.ndarray, float, bool]:
    """Shrink a feasible perturbation at a fixed certificate.

    Bisects the norm level sigma and tests each level for a Delta with
    ||Delta|| <= sigma keeping the bordered certificate matrix PSD, via
    alternating projections with Dykstra corrections (norm ball one way,
    eigenvalue clipping plus block readback the other).  Never returns a
    worse perturbation than delta0; converged=False flags a stalled
    search with the best feasible point so far.
    """
    if norm not in ("2", "fro"):
        raise DomainError(f"norm must be '2' or 'fro', got {norm!r}")
    delta0 = as_complex_matrix(delta0, "delta0")
    nm = model.n + model.m
    if delta0.shape != (nm, nm):
        raise DomainError(f"delta0 must be {nm}x{nm}, got {delta0.shape}")
    frame = perturbation_frame(model.n, model.m)
    What0 = build_What(model, X)
    _, scale = psd_margin(What0)
    band = max(tol.psd_tol, 10.0 * tol.bisect_tau) * scale

    def defect(delta: np.ndarray) -> float:
        return -min(0.0, lambda_min(What0 + apply_perturbation(frame, delta)))

    if defect(delta0) > band:
        raise DomainError(
            f"starting perturbation is infeasible (PSD defect {defect(delta0):.3e} > {band:.3e})"
        )
    sigma0 = _norm_of(delta0, norm)
    if sigma0 == 0.0:
        return delta0, 0.0, True

    def try_level(sigma: float, start: np.ndarray, sweeps: int) -> Tuple[Optional[np.ndarray], int]:
        x = _ball_projection(start, sigma, norm)
        p = np.zeros_like(x)
        q = np.zeros_like(x)
        best_defect = np.inf
        stall = 0
        used = 0
        for _ in range(sweeps):
            used += 1
            y = _ball_projection(x + p, sigma, norm)
            p = x + p - y
            d = defect(y)
            if d <= band:
                return y, used
            if d < best_defect - 1e-12:
                best_defect = d
                stall = 0
            else:
                stall += 1
                if stall >= 50:
                    break
            z = _psd_readback(y + q, What0, frame)
            q = y + q - z
            x = z
        return None, used

    lo, hi = 0.0, sigma0
    best = delta0
    remaining = int(budget)
    converged = True
    while hi - lo > max(1e-3 * sigma0, 1e-12):
        if remaining <= 0:
            converged = False
            break
        mid = 0.5 * (lo + hi)
        candidate, used = try_level(mid, best, min(300, remaining))
        remaining -= used
        if candidate is not None:
            hi = mid
            best = candidate
        else:
            lo = mid
    if defect(best) > band or _norm_of(best, norm) > sigma0 + band:
        return delta0, sigma0, False
    return best, _norm_of(best, norm), converged


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
    budget: int = 2000,
    tol: Tolerances = DEFAULT_TOL,
) -> DistanceReport:
    """Full distance-to-passivity pipeline: constrained shift, certificate,
    and norm refinement.  A given tau replaces tol.bisect_tau throughout, so
    the refinement's feasibility band matches the shift bracket width."""
    tol = replace(tol, bisect_tau=_bracket_width(tau, tol))
    xi_big, delta0 = constrained_distance(model, tol=tol)
    cert = pick_certificate(model, xi_big, tol=tol)
    if xi_big == 0.0:
        return DistanceReport(0.0, delta0, cert, None, 0.0, 0.0, True)
    refined, _, converged = refine_distance(
        model, cert.X, delta0, norm=norm, budget=budget, tol=tol
    )
    return DistanceReport(
        xi_big=xi_big,
        delta_constrained=delta0,
        X_cert=cert,
        delta_refined=refined,
        sigma2=float(np.linalg.norm(refined, 2)),
        sigma_frob=float(np.linalg.norm(refined, "fro")),
        refinement_converged=converged,
    )
