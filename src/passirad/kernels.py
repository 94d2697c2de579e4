"""Dense linear-algebra kernels and the shared tolerance bundle.

The Hermitian matrices the package builds itself (W, What, Wtilde, Phi, the
Gram companions of the radius search) are Hermitian by construction, so they
go straight to LAPACK without a copy or a check; only their lower triangle is
read.  Extreme-eigenvalue queries and the psd_tol dead band are values-only
(``eigvalsh``); ``hermitian_eig`` is the validated eigendecomposition for
matrices from outside the package.
"""

from __future__ import annotations

import math
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

_CGOLD = (3.0 - np.sqrt(5.0)) / 2.0  # 1 - 1/phi, the golden step into the larger side
_EPS = float(np.finfo(float).eps)
_SQRT_EPS = float(np.sqrt(_EPS))


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
                the positivity test of frequency_scan
    eig_tol     relative width of the top eigenspace in minimize_gamma
    circle_tol  dead band around the unit circle: asymptotic stability and
                the peripheral band of validate_minimal, asymptotic stability
                in distance_to_stability, unimodular pencil eigenvalues
                (frequency_scan, the Riccati solves); sqrt(circle_tol) is the
                band of frequency_scan's real-arithmetic screen
    golden_tol  bracket width of minimize_gamma's golden section with Brent's
                parabolic steps: a smooth minimum is found to sqrt(eps), a
                kink to golden_tol; also a floor on its top-eigenspace width
    bisect_tau  bracket width of xi_sup_bisection and xi_sup_eigenvalue,
                the probe step of the constrained_distance and D-only level
                sets (each probes tau/2 past its bound), and the level gap of
                pick_certificate, when their tau is None
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
    """Minimize a unimodal scalar function on [a, b] by golden section with
    Brent's parabolic steps (Brent, Algorithms for Minimization without
    Derivatives, 1973).

    A parabola through the three best points proposes each step; a golden
    step replaces it when it leaves the bracket or does not halve the step
    before last.  The search stops when the bracket is at most ``tol_width``
    wide, or earlier when Brent's test holds (the best point within about
    sqrt(eps)|x| of both bracket ends) and f at the three best points agrees
    to 4 eps |f(x)|: a smooth minimum is found to sqrt(eps), where values no
    longer separate, and a kink, whose values still differ to first order,
    to ``tol_width``.  Returns (x_best, f_best, evaluation_count).
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
    x = w = v = lo + _CGOLD * (hi - lo)
    fx = fw = fv = call(x)
    d = e = 0.0  # the last step and the one before it
    while hi - lo > tol_width:
        # no step is shorter than tol1; where Brent's test holds but f is not
        # flat (a kink), tol1 drops to tol_width / 4 so the bracket can reach it
        tol1 = _SQRT_EPS * abs(x) + 0.25 * tol_width
        if max(x - lo, hi - x) <= 2.0 * tol1:
            if evals >= 3 and max(abs(fw - fx), abs(fv - fx)) <= 4.0 * _EPS * abs(fx):
                break
            tol1 = 0.25 * tol_width
        mid = 0.5 * (lo + hi)
        golden = True
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            p, q = (-p, q) if q > 0.0 else (p, -q)
            if abs(p) < abs(0.5 * q * e) and q * (lo - x) < p < q * (hi - x):
                golden = False
                e, d = d, p / q
                if min(x + d - lo, hi - x - d) < 2.0 * tol1:
                    d = tol1 if x < mid else -tol1
        if golden:
            e = (lo if x >= mid else hi) - x
            d = _CGOLD * e
        u = x + d if abs(d) >= tol1 else x + math.copysign(tol1, d)
        fu = call(u)
        if fu <= fx:
            lo, hi = (x, hi) if u >= x else (lo, x)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            lo, hi = (u, hi) if u < x else (lo, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx, evals
