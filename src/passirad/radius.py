"""Passivity radius at a fixed interior certificate.

With What(X) = R^H R and the embedding frame (E1, E2), set
F1 = R^{-H} E1 and F2 = R^{-H} E2.  The largest eigenvalue of

    M(gamma) = gamma^2 F1 F1^H + gamma^{-2} F2 F2^H

is unimodal in gamma > 0; at its minimizer the top eigenvector
z = [u; v] of the Gram companion (blocks rescaled to unit norm) yields
the smallest structured perturbation Delta = -u v^H / lambda_star that
makes the perturbed certificate matrix singular, in both the 2-norm and
the Frobenius norm, and the radius is rho = 1 / lambda_star.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np
import scipy.linalg

from .errors import ConvergenceError, DefinitenessError, DomainError
from .kernels import (
    DEFAULT_TOL,
    Tolerances,
    as_complex_matrix,
    cholesky,
    golden_section_min,
    lambda_max,
    lambda_min,
    spectral_norm,
)
from .kyp import (
    CertificateKind,
    PerturbationFrame,
    _ds_scaled,
    apply_perturbation,
    build_What,
    classify_certificate,
    perturbation_frame,
)
from .system_model import StateSpaceModel

__all__ = [
    "GammaSearch",
    "RadiusReport",
    "gamma_objective",
    "minimize_gamma",
    "x_passivity_radius",
    "dual_certificate",
    "geometric_mean_estimate",
]


@dataclass(frozen=True)
class GammaSearch:
    """Result of minimizing the unimodal objective over gamma.

    u, v are the unit-norm halves of the top eigenvector at the
    minimizer; alpha and beta are the spectral norms of F1 and F2.
    """

    gamma_star: float
    lambda_star: float
    alpha: float
    beta: float
    u: np.ndarray
    v: np.ndarray
    F1: np.ndarray
    F2: np.ndarray
    bracket: Tuple[float, float]
    f_evals: int


@dataclass(frozen=True)
class RadiusReport:
    """Passivity radius at one certificate with its witnesses and bounds."""

    rho: float
    search: GammaSearch
    delta: np.ndarray
    singularity_residual: float
    bound_lower: float
    bound_upper_overlap: float
    bound_upper: float
    overlap: float
    ds_lower: float


def _validate_frames(F1, F2) -> Tuple[np.ndarray, np.ndarray]:
    A1 = as_complex_matrix(F1, "F1")
    A2 = as_complex_matrix(F2, "F2")
    if A1.shape[0] != A2.shape[0]:
        raise DomainError(f"F1 and F2 must share row count, got {A1.shape} and {A2.shape}")
    return A1, A2


def gamma_objective(F1, F2, gamma: float) -> float:
    """lambda_max(gamma^2 F1 F1^H + gamma^{-2} F2 F2^H)."""
    A1, A2 = _validate_frames(F1, F2)
    g = float(gamma)
    if not (np.isfinite(g) and g > 0.0):
        raise DomainError(f"gamma must be finite and > 0, got {gamma}")
    return lambda_max(g * g * (A1 @ A1.conj().T) + (A2 @ A2.conj().T) / (g * g))


def _balanced_top_eigenvector(
    M: np.ndarray, k: int, tol: Tolerances
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Top eigenvector of the Hermitian Gram companion, chosen inside the top
    eigenspace so that its two k-blocks have equal norm, then block-normalized."""
    w, V = np.linalg.eigh(M)
    lam = float(w[-1])
    scale = max(abs(lam), 1.0)
    # the search places gamma within golden_tol of the minimizer, where
    # crossing eigenvalue branches are still split by O(golden_tol)
    cluster_tol = max(
        tol.eig_tol * scale,
        10.0 * tol.golden_tol * scale,
        64 * np.finfo(float).eps * scale,
    )
    idx = np.nonzero(w >= lam - cluster_tol)[0]
    Z = V[:, idx]
    Zu, Zv = Z[:k, :], Z[k:, :]
    H = Zu.conj().T @ Zu - Zv.conj().T @ Zv
    mu, Cvecs = np.linalg.eigh(0.5 * (H + H.conj().T))
    if mu[0] >= 0.0 or mu[-1] <= 0.0:
        # no sign change: take the most balanced direction available
        c = Cvecs[:, int(np.argmin(np.abs(mu)))]
    else:
        t = mu[-1] / (mu[-1] - mu[0])
        c = np.sqrt(t) * Cvecs[:, 0] + np.sqrt(1.0 - t) * Cvecs[:, -1]
    z = Z @ c
    u, v = z[:k], z[k:]
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if min(nu, nv) < 1e-12:
        raise ConvergenceError(
            "top eigenvector collapsed onto one block; no balanced witness found"
        )
    return u / nu, v / nv, lam


def minimize_gamma(F1, F2, tol: Tolerances = DEFAULT_TOL) -> GammaSearch:
    """Golden-section minimization of gamma_objective over its provable bracket.

    The bracket [sqrt(beta/(2 alpha)), sqrt(2 beta/alpha)] always contains
    a global minimizer of the unimodal objective, where alpha = ||F1|| and
    beta = ||F2||.
    """
    A1, A2 = _validate_frames(F1, F2)
    alpha = spectral_norm(A1)
    beta = spectral_norm(A2)
    if alpha <= 0.0 or beta <= 0.0:
        raise DomainError("F1 and F2 must both be nonzero")
    lo = np.sqrt(beta / (2.0 * alpha))
    hi = np.sqrt(2.0 * beta / alpha)
    G1 = A1 @ A1.conj().T
    G2 = A2 @ A2.conj().T

    def objective(g: float) -> float:
        return lambda_max(g * g * G1 + G2 / (g * g))

    width = max(tol.golden_tol, 1e-14 * (hi - lo))
    gamma_star, lam_star, evals = golden_section_min(objective, lo, hi, width)

    k = A1.shape[1]
    stack = np.hstack([gamma_star * A1, A2 / gamma_star])
    M = stack.conj().T @ stack
    u, v, lam_eig = _balanced_top_eigenvector(M, k, tol)
    return GammaSearch(
        gamma_star=float(gamma_star),
        lambda_star=float(lam_eig),
        alpha=float(alpha),
        beta=float(beta),
        u=u,
        v=v,
        F1=A1,
        F2=A2,
        bracket=(float(lo), float(hi)),
        f_evals=evals,
    )


def _bordered_frames(
    model: StateSpaceModel, X: np.ndarray, tol: Tolerances
) -> Tuple[np.ndarray, PerturbationFrame, np.ndarray, np.ndarray]:
    """What(X) = R^H R, the embedding frame, and F1 = R^{-H} E1, F2 = R^{-H} E2."""
    What = build_What(model, X)
    R = cholesky(What, tol)
    frame = perturbation_frame(model.n, model.m)
    F1 = scipy.linalg.solve_triangular(R, frame.E1.astype(np.complex128), trans="C", lower=False)
    F2 = scipy.linalg.solve_triangular(R, frame.E2.astype(np.complex128), trans="C", lower=False)
    return What, frame, F1, F2


def x_passivity_radius(
    model: StateSpaceModel, X, tol: Tolerances = DEFAULT_TOL
) -> RadiusReport:
    """Passivity radius of the model at an interior certificate X.

    Returns the radius rho = 1 / lambda_star, the rank-1 minimal
    perturbation of the system matrix (norm rho in both the 2-norm and
    the Frobenius norm), the singularity residual of the perturbed
    bordered certificate, and the closed-form bounds
    1/(2 alpha beta) <= rho <= 1/((1 + overlap) alpha beta) <= 1/(alpha beta).
    """
    cert = classify_certificate(model, X, tol)
    if cert.kind is not CertificateKind.INTERIOR:
        raise DefinitenessError(
            f"certificate is {cert.kind.value}, radius needs an interior one "
            f"(lambda_min W = {cert.lambda_min_W:.6e})",
            lambda_min=cert.lambda_min_W,
        )
    What, frame, F1, F2 = _bordered_frames(model, cert.X, tol)
    search = minimize_gamma(F1, F2, tol)

    rho = 1.0 / search.lambda_star
    delta = -np.outer(search.u, search.v.conj()) / search.lambda_star
    perturbed = What + apply_perturbation(frame, delta)
    sing = np.linalg.svd(perturbed, compute_uv=False)
    residual = float(sing[-1] / sing[0]) if sing[0] > 0 else 0.0

    U1, _, _ = np.linalg.svd(search.F1)
    U2, _, _ = np.linalg.svd(search.F2)
    overlap = float(np.abs(U2[:, 0].conj() @ U1[:, 0]))
    ab = search.alpha * search.beta
    return RadiusReport(
        rho=float(rho),
        search=search,
        delta=delta,
        singularity_residual=residual,
        bound_lower=1.0 / (2.0 * ab),
        bound_upper_overlap=1.0 / ((1.0 + overlap) * ab),
        bound_upper=1.0 / ab,
        overlap=overlap,
        ds_lower=lambda_min(_ds_scaled(What, model.m)),
    )


def dual_certificate(search: GammaSearch) -> Tuple[np.ndarray, float]:
    """Unitary Q with Q v = u and Q^H u = v, certifying the radius from below.

    For any unitary Q, || F1 Q F2^H + F2 Q^H F1^H || is at most lambda_star;
    the returned Q attains it, and the achieved value is returned with it.
    """
    Qu = _unitary_with_first_column(search.u)
    Qv = _unitary_with_first_column(search.v)
    Q = Qu @ Qv.conj().T
    Mq = search.F1 @ Q @ search.F2.conj().T
    value = spectral_norm(Mq + Mq.conj().T)
    return Q, float(value)


def _unitary_with_first_column(x: np.ndarray) -> np.ndarray:
    """Unitary U with U e1 = x (x must be a unit vector)."""
    k = x.shape[0]
    e1 = np.zeros(k, dtype=np.complex128)
    e1[0] = 1.0
    x0 = x[0]
    alpha = -x0 / abs(x0) if abs(x0) > 0 else -1.0
    w = x - alpha * e1
    nw2 = float(np.real(w.conj() @ w))
    if nw2 < 1e-30:
        U = np.eye(k, dtype=np.complex128)
        U[:, 0] = x
        return U
    P = np.eye(k, dtype=np.complex128) - 2.0 * np.outer(w, w.conj()) / nw2
    return alpha * P


def geometric_mean_estimate(
    model: StateSpaceModel, tol: Tolerances = DEFAULT_TOL
) -> Tuple[float, float]:
    """Cheap radius estimate for a realization normalized at X = I.

    Evaluates the gamma objective once at the geometric-mean point
    gamma_gm = sqrt(||N2|| / ||N1||) of its bracket, where N1, N2 come
    from the identity-certificate factorization.  Returns (est, gamma_gm);
    est >= lambda_star always, so 1/est is a lower bound for the radius.
    """
    _, _, N1, N2 = _bordered_frames(model, np.eye(model.n), tol)
    a = spectral_norm(N1)
    b = spectral_norm(N2)
    if a <= 0.0 or b <= 0.0:
        raise DomainError("degenerate identity certificate factors")
    gamma_gm = float(np.sqrt(b / a))
    est = gamma_objective(N1, N2, gamma_gm)
    return float(est), gamma_gm
