"""Extremal certificate solutions via the symplectic pencil.

The boundary solutions of the certificate LMI solve the Riccati equation

    Ricc(X) = X - A^H X A
              - (C^H - A^H X B)(D^H + D - B^H X B)^{-1}(C - B^H X A) = 0.

They are recovered from deflating subspaces of a 2n x 2n pencil z L - K
whose finite eigenvalues are the zeros of the spectral density Phi(z).
With G = (D^H + D)^{-1} and A0 = A - B G C,

    L = [[I, B G B^H], [0, A0^H]],   K = [[A0, 0], [C^H G C, I]].

Zeros of Phi are also the finite eigenvalues of the inversion-free
extended (2n+m) pencil z L_ext - K_ext built directly from {A, B, C, D};
that form is used whenever D^H + D may be singular.  Its eigenvalues are
computed without Schur vectors, since only their moduli and phases are
used; the reduced pencil goes through ordered QZ, whose vectors span the
deflating subspaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
import scipy.linalg

from .errors import ConditioningError, DomainError, SpectralSplittingError
from .kernels import DEFAULT_TOL, Tolerances, hermitian_part
from .kyp import build_W
from .system_model import StateSpaceModel

__all__ = [
    "SymplecticPencil",
    "ExtremalSolutions",
    "extended_pencil",
    "build_symplectic",
    "pencil_eigenvalues",
    "extremal_solutions",
    "riccati_residual",
    "closed_loop",
]

_MAX_SUBSPACE_COND = 1e10


@dataclass(frozen=True)
class SymplecticPencil:
    """Reduced pencil data for the spectral-density zeros of one model.

    L, K     2n x 2n factors of z L - K (None when D^H + D is singular)
    reduced_available  whether L, K could be formed
    """

    L: Optional[np.ndarray]
    K: Optional[np.ndarray]
    reduced_available: bool


@dataclass(frozen=True)
class ExtremalSolutions:
    """Extremal Riccati solutions X_min <= X_max with their closed loops."""

    X_min: np.ndarray
    X_max: np.ndarray
    eigenvalues: np.ndarray
    cond_min: float
    cond_max: float


def extended_pencil(model: StateSpaceModel) -> Tuple[np.ndarray, np.ndarray]:
    """Inversion-free (2n+m) pencil (K_ext, L_ext) with det(z L_ext - K_ext) = 0
    exactly at the finite zeros of Phi(z)."""
    A, B, C, D = model.A, model.B, model.C, model.D
    n, m = model.n, model.m
    Zn = np.zeros((n, n), dtype=np.complex128)
    Znm = np.zeros((n, m), dtype=np.complex128)
    Zmn = np.zeros((m, n), dtype=np.complex128)
    Zm = np.zeros((m, m), dtype=np.complex128)
    I = np.eye(n, dtype=np.complex128)
    K_ext = np.block(
        [
            [Zn, A, B],
            [-I, Zn, C.conj().T],
            [Zmn, C, D.conj().T + D],
        ]
    )
    L_hat = np.block(
        [
            [Zn, -I, Znm],
            [A.conj().T, Zn, Znm],
            [B.conj().T, Zmn, Zm],
        ]
    )
    # det(K_ext + z L_hat) = 0 at zeros; rewrite as z L_ext - K_ext with L_ext = -L_hat
    return K_ext, -L_hat


def build_symplectic(model: StateSpaceModel, tol: Tolerances = DEFAULT_TOL) -> SymplecticPencil:
    """Assemble the reduced 2n pencil when it is well posed.

    The reduced factors need D^H + D invertible at rank_tol; when it is
    not, the result is flagged unavailable and carries no factors
    (extended_pencil needs no inversion).  No hard error is raised.
    """
    A, B, C, D = model.A, model.B, model.C, model.D
    n = model.n
    G_mat = D.conj().T + D
    s = np.linalg.svd(G_mat, compute_uv=False)
    invertible = s.size > 0 and s[-1] > tol.rank_tol * max(s[0], 1.0)
    if not invertible:
        return SymplecticPencil(L=None, K=None, reduced_available=False)
    G = np.linalg.inv(G_mat)
    A0 = A - B @ G @ C
    I = np.eye(n, dtype=np.complex128)
    Zn = np.zeros((n, n), dtype=np.complex128)
    L = np.block([[I, B @ G @ B.conj().T], [Zn, A0.conj().T]])
    K = np.block([[A0, Zn], [C.conj().T @ G @ C, I]])
    return SymplecticPencil(L=L, K=K, reduced_available=True)


def pencil_eigenvalues(model: StateSpaceModel) -> np.ndarray:
    """All generalized eigenvalues of the extended pencil (zeros of Phi plus
    structural infinities), with indeterminate 0/0 pairs dropped.

    The pencil is solved in complex arithmetic for eigenvalues only.  A pair
    (alpha, beta) is 0/0 when both sit below 1e-12 times the Frobenius norm
    (at least 1) of their factor.
    """
    return _pencil_spectrum(*extended_pencil(model))


def _pencil_spectrum(K_ext: np.ndarray, L_ext: np.ndarray) -> np.ndarray:
    """Eigenvalues of z L_ext - K_ext in the arithmetic of the factors, with
    the 0/0 pairs of pencil_eigenvalues dropped and beta = 0 read as inf."""
    scale_a = max(float(np.linalg.norm(K_ext)), 1.0)
    scale_b = max(float(np.linalg.norm(L_ext)), 1.0)
    # det(beta K - alpha L) = 0 in homogeneous form, lambda = alpha/beta
    alpha, beta = scipy.linalg.eig(
        K_ext, L_ext, left=False, right=False, homogeneous_eigvals=True
    )
    keep = ~((np.abs(alpha) <= 1e-12 * scale_a) & (np.abs(beta) <= 1e-12 * scale_b))
    alpha, beta = alpha[keep], beta[keep]
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = alpha / beta
    lam[beta == 0] = np.inf
    return lam


def _split_check(alpha: np.ndarray, beta: np.ndarray, n: int, tol: Tolerances) -> None:
    with np.errstate(divide="ignore", invalid="ignore"):
        mod = np.abs(alpha) / np.abs(beta)
    mod[np.abs(beta) == 0.0] = np.inf
    on_circle = np.abs(mod - 1.0) <= tol.circle_tol
    if np.any(on_circle):
        raise SpectralSplittingError(
            "pencil has unit-circle eigenvalues; the certificate LMI has no "
            "strictly separated extremal solutions"
        )
    inside = int(np.count_nonzero(mod < 1.0))
    if inside != n:
        raise SpectralSplittingError(
            f"expected {n} eigenvalues inside the unit circle, found {inside}"
        )


def _solution_from_subspace(Z1: np.ndarray, n: int) -> Tuple[np.ndarray, float]:
    U1 = Z1[:n, :]
    U2 = Z1[n:, :]
    s = np.linalg.svd(U1, compute_uv=False)
    cond = float(s[0] / s[-1]) if s[-1] > 0 else np.inf
    if not np.isfinite(cond) or cond > _MAX_SUBSPACE_COND:
        raise ConditioningError(
            f"deflating subspace basis has condition number {cond:.3e}; "
            "the Riccati solution cannot be recovered reliably"
        )
    X = -np.linalg.solve(U1.conj().T, U2.conj().T).conj().T
    return hermitian_part(X), cond


def _stabilizing_solution(
    model: StateSpaceModel, tol: Tolerances
) -> Tuple[np.ndarray, float, np.ndarray, SymplecticPencil]:
    """The stabilizing solution X_min from the deflating subspace of the
    in-disc pencil spectrum, with its basis condition number, the pencil
    eigenvalues and the reduced pencil."""
    pencil = build_symplectic(model, tol)
    if not pencil.reduced_available:
        raise DomainError(
            "D^H + D is singular at rank_tol; extremal solutions need the "
            "reduced pencil (the extended pencil is available via extended_pencil)"
        )
    n = model.n
    _, _, alpha, beta, _, Z = scipy.linalg.ordqz(pencil.K, pencil.L, sort="iuc", output="complex")
    _split_check(alpha, beta, n, tol)
    X_min, cond_min = _solution_from_subspace(Z[:, :n], n)
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = alpha / beta
    lam[np.abs(beta) == 0.0] = np.inf
    return X_min, cond_min, lam, pencil


def extremal_solutions(
    model: StateSpaceModel, tol: Tolerances = DEFAULT_TOL
) -> ExtremalSolutions:
    """Extremal solutions of the certificate Riccati equation.

    X_min comes from the deflating subspace of the in-disc pencil spectrum
    (the stabilizing solution), X_max from the complementary spectrum.
    Requires D^H + D invertible and a spectrum with no unit-circle
    eigenvalues; subspace bases with condition number above 1e10 are
    rejected.
    """
    X_min, cond_min, lam, pencil = _stabilizing_solution(model, tol)
    _, _, _, _, _, Z = scipy.linalg.ordqz(pencil.K, pencil.L, sort="ouc", output="complex")
    X_max, cond_max = _solution_from_subspace(Z[:, : model.n], model.n)
    return ExtremalSolutions(
        X_min=X_min, X_max=X_max, eigenvalues=lam, cond_min=cond_min, cond_max=cond_max
    )


def riccati_residual(model: StateSpaceModel, X) -> float:
    """Frobenius norm of Ricc(X) = W11 - W12 W22^{-1} W21, from the blocks of W(X)."""
    W, n = build_W(model, X), model.n
    try:
        inner = np.linalg.solve(W[n:, n:], W[n:, :n])
    except np.linalg.LinAlgError as exc:
        raise DomainError("D^H + D - B^H X B is singular; residual undefined") from exc
    return float(np.linalg.norm(W[:n, :n] - W[:n, n:] @ inner, "fro"))


def closed_loop(
    model: StateSpaceModel, X, tol: Tolerances = DEFAULT_TOL
) -> Tuple[np.ndarray, np.ndarray]:
    """Feedback F = (D^H + D - B^H X B)^{-1}(C - B^H X A) and A_F = A - B F,
    with both factors read from the blocks W22 and W21 of W(X)."""
    W, n = build_W(model, X), model.n
    W22 = W[n:, n:]
    s = np.linalg.svd(W22, compute_uv=False)
    if s[-1] <= tol.rank_tol * max(s[0], 1.0):
        raise DomainError("D^H + D - B^H X B is singular at rank_tol; no closed loop")
    F = np.linalg.solve(W22, W[n:, :n])
    return F, model.A - model.B @ F
