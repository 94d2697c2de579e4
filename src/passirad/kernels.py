"""Dense linear-algebra kernels and the shared tolerance bundle.

The Hermitian matrices the package builds itself (W, What, Wtilde, Phi, the
Gram companions of the radius search) are Hermitian by construction, so they
go straight to LAPACK without a copy or a check; only their lower triangle is
read.  Extreme-eigenvalue queries and the psd_tol dead band are values-only
(``eigvalsh``); ``hermitian_eig`` is the validated eigendecomposition for
matrices from outside the package.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Tuple

import numpy as np

from .errors import DefinitenessError, DomainError

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "as_complex_matrix",
    "hermitian_part",
    "hermitian_eig",
    "psd_margin",
    "lambda_min",
    "lambda_max",
    "spectral_norm",
    "svd",
    "cholesky",
    "golden_section_min",
]

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0  # 1/phi, golden bracket shrink factor


@dataclass(frozen=True)
class Tolerances:
    """Tolerance bundle behind the numerical yes/no decisions.

    Each field names the decisions that read it.  A function that makes no
    tolerance decision takes no ``tol``.

    rank_tol    relative singular-value cutoff: Krylov ranks and the
                semi-simplicity test (validate_minimal, distance_to_stability),
                D^H + D invertible (build_symplectic), the closed-loop solve
                (closed_loop), the phase pivot of canonical_form
    psd_tol     relative definiteness dead band, against the scale of
                psd_margin: cholesky, classify_certificate, verify_normalized,
                the positivity test of frequency_scan, the feasibility band
                of refine_distance
    eig_tol     relative width of the top eigenspace in minimize_gamma
    circle_tol  dead band around the unit circle: asymptotic stability and
                the peripheral band of validate_minimal, asymptotic stability
                in distance_to_stability, unimodular pencil eigenvalues
                (frequency_scan, the Riccati solves)
    golden_tol  golden-section bracket width (minimize_gamma), also a floor on
                its top-eigenspace width
    bisect_tau  bracket width of xi_sup_bisection, xi_sup_eigenvalue,
                constrained_distance, pick_certificate and analyze_distance
                when their tau is None; the feasibility band of refine_distance
    """

    rank_tol: float = 1e-10
    psd_tol: float = 1e-10
    eig_tol: float = 1e-12
    circle_tol: float = 1e-8
    golden_tol: float = 1e-10
    bisect_tau: float = 1e-8

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if not (np.isfinite(value) and value > 0.0):
                raise DomainError(f"tolerance {field.name} must be finite and > 0, got {value}")


DEFAULT_TOL = Tolerances()


def as_complex_matrix(M, name="matrix") -> np.ndarray:
    """Validate and return a finite 2-D complex128 copy of ``M``."""
    A = np.array(M, dtype=np.complex128, copy=True)
    if A.ndim != 2:
        raise DomainError(f"{name} must be 2-D, got shape {A.shape}")
    if not np.all(np.isfinite(A.real)) or not np.all(np.isfinite(A.imag)):
        raise DomainError(f"{name} has non-finite entries")
    return A


def hermitian_part(M) -> np.ndarray:
    """Return (M + M^H)/2."""
    A = as_complex_matrix(M)
    if A.shape[0] != A.shape[1]:
        raise DomainError(f"hermitian_part needs a square matrix, got {A.shape}")
    return 0.5 * (A + A.conj().T)


def hermitian_eig(H) -> Tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix given from outside the package.

    Rejects input that is not square, not finite or not Hermitian (asymmetry
    above 1e-8 of its largest entry); only the lower triangle of an accepted
    matrix is read.  Returns (w, V) with real eigenvalues ``w`` ascending and
    orthonormal columns of ``V``, such that H V = V diag(w).
    """
    A = as_complex_matrix(H, "hermitian_eig input")
    if A.shape[0] != A.shape[1]:
        raise DomainError(f"hermitian_eig input must be square, got {A.shape}")
    scale = max(np.abs(A).max(initial=0.0), 1.0)
    skew = np.abs(A - A.conj().T).max(initial=0.0)
    if skew > 1e-8 * scale:
        raise DomainError(
            f"hermitian_eig input is not Hermitian: asymmetry {skew:.3e} at scale {scale:.3e}"
        )
    return np.linalg.eigh(A)


def psd_margin(H) -> Tuple[float, float]:
    """(lambda_min, scale) of a Hermitian matrix from one values-only eigensolve.

    ``scale`` is max(|lambda|, 1), i.e. max(||H||_2, 1): every psd_tol dead
    band compares lambda_min against psd_tol * scale.  H must be Hermitian;
    only its lower triangle is read.
    """
    w = np.linalg.eigvalsh(H)
    return float(w[0]), float(max(-w[0], w[-1], 1.0))


def lambda_min(H) -> float:
    """Smallest eigenvalue of a Hermitian H, values only; reads its lower triangle."""
    return float(np.linalg.eigvalsh(H)[0])


def lambda_max(H) -> float:
    """Largest eigenvalue of a Hermitian H, values only; reads its lower triangle."""
    return float(np.linalg.eigvalsh(H)[-1])


def spectral_norm(M) -> float:
    """Largest singular value; 0.0 for an empty matrix."""
    A = as_complex_matrix(M, "spectral_norm input")
    if A.size == 0:
        return 0.0
    return float(np.linalg.norm(A, 2))


def svd(M) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular value decomposition M = U diag(s) V^H.

    Returns (U, s, V) with ``s`` nonnegative descending and V the matrix
    of right singular vectors (not its conjugate transpose).
    """
    A = as_complex_matrix(M, "svd input")
    U, s, Vh = np.linalg.svd(A, full_matrices=True)
    return U, s, Vh.conj().T


def cholesky(H, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Upper-triangular factor T with positive real diagonal and H = T^H T.

    H must be Hermitian; only its lower triangle is read.  Raises
    DefinitenessError (carrying lambda_min) when H is not positive definite
    beyond the psd_tol dead band of psd_margin.
    """
    lam, scale = psd_margin(H)
    if lam <= tol.psd_tol * scale:
        raise DefinitenessError(
            f"matrix is not positive definite: lambda_min = {lam:.6e} "
            f"(threshold {tol.psd_tol * scale:.6e})",
            lambda_min=lam,
        )
    return np.linalg.cholesky(H).conj().T


def golden_section_min(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol_width: float,
) -> Tuple[float, float, int]:
    """Golden-section minimization of a unimodal scalar function on [a, b].

    Shrinks the bracket by the golden ratio until its width is at most
    ``tol_width``.  Returns (x_best, f_best, evaluation_count); the number
    of evaluations is O(log((b - a) / tol_width)).
    """
    if not (np.isfinite(a) and np.isfinite(b)) or b <= a:
        raise DomainError(f"invalid bracket [{a}, {b}]")
    if not (np.isfinite(tol_width) and tol_width > 0.0):
        raise DomainError(f"invalid tolerance {tol_width}")

    evals = 0

    def call(x: float) -> float:
        nonlocal evals
        evals += 1
        return float(f(x))

    lo, hi = float(a), float(b)
    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    fc, fd = call(c), call(d)
    while hi - lo > tol_width:
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - _INVPHI * (hi - lo)
            fc = call(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INVPHI * (hi - lo)
            fd = call(d)
    if fc <= fd:
        return c, fc, evals
    return d, fd, evals
