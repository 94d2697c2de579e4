"""Discrete-time state-space models and their basic analysis.

A model {A, B, C, D} has a square m x m transfer function
T(z) = C (zI - A)^{-1} B + D; its spectral density on the unit circle is
Phi(e^{iw}) = T(e^{iw})^H + T(e^{iw}).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from .errors import DomainError
from .kernels import DEFAULT_TOL, Tolerances, as_complex_matrix, hermitian_part

__all__ = [
    "StateSpaceModel",
    "MinimalityReport",
    "validate_minimal",
    "transfer_eval",
    "phi_eval",
    "simulate_dissipation",
]


@dataclass(frozen=True)
class StateSpaceModel:
    """Immutable discrete-time model {A, B, C, D} with m inputs = m outputs.

    The spectrum of A is computed on first use and cached on the instance;
    it is not a field, so equality and hashing still see only A, B, C, D.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        A = as_complex_matrix(np.atleast_2d(self.A), "A")
        B = as_complex_matrix(np.atleast_2d(self.B), "B")
        C = as_complex_matrix(np.atleast_2d(self.C), "C")
        D = as_complex_matrix(np.atleast_2d(self.D), "D")
        n = A.shape[0]
        if A.shape != (n, n):
            raise DomainError(f"A must be square, got {A.shape}")
        m = D.shape[0]
        if D.shape != (m, m):
            raise DomainError(f"D must be square (m inputs = m outputs), got {D.shape}")
        if B.shape != (n, m):
            raise DomainError(f"B must be {n}x{m}, got {B.shape}")
        if C.shape != (m, n):
            raise DomainError(f"C must be {m}x{n}, got {C.shape}")
        for name, M in (("A", A), ("B", B), ("C", C), ("D", D)):
            M.setflags(write=False)
            object.__setattr__(self, name, M)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.D.shape[0]

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of A (read-only, computed once per model)."""
        eigs = np.linalg.eigvals(self.A)
        eigs.setflags(write=False)
        return eigs

    @property
    def spectral_radius(self) -> float:
        """rho(A), 0.0 for an empty state."""
        return float(np.max(np.abs(self.eigenvalues), initial=0.0))

    def system_matrix(self) -> np.ndarray:
        """The assembled (n+m) x (n+m) block matrix [[A, B], [C, D]]."""
        return np.block([[self.A, self.B], [self.C, self.D]])


@dataclass(frozen=True)
class MinimalityReport:
    controllable: bool
    observable: bool
    minimal: bool
    ctrl_rank: int
    obs_rank: int
    spectral_radius: float
    asymptotically_stable: bool
    stable: bool


def _krylov_rank(A: np.ndarray, B: np.ndarray, rank_tol: float) -> int:
    n = A.shape[0]
    blocks = [B]
    for _ in range(n - 1):
        blocks.append(A @ blocks[-1])
    K = np.hstack(blocks)
    s = np.linalg.svd(K, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rank_tol * s[0]))


def _semi_simple(A: np.ndarray, eigs: np.ndarray, radius: float, band: float, rank_tol: float) -> bool:
    """True when every eigenvalue of A within ``band`` of |z| = radius is semi-simple.

    Eigenvalues within max(band, 1e-6 * scale) of each other count as one
    eigenvalue split numerically.  Their mean is accurate to O(eps * cond),
    so the rank cutoff stays fine; a mean that is no eigenvalue groups
    distinct eigenvalues, and each of them is then judged alone.
    """
    n = A.shape[0]
    scale = max(float(np.abs(A).max()), 1.0)
    peripheral = eigs[np.abs(np.abs(eigs) - radius) <= band]
    for lam in peripheral:
        for cluster in (np.abs(peripheral - lam) <= max(band, 1e-6 * scale), peripheral == lam):
            s = np.linalg.svd(A - np.mean(peripheral[cluster]) * np.eye(n), compute_uv=False)
            geo = n - int(np.count_nonzero(s > max(rank_tol * max(s[0], 1.0), 1e-12 * scale)))
            if geo:
                break
        if geo < np.count_nonzero(cluster):
            return False
    return True


def validate_minimal(model: StateSpaceModel, tol: Tolerances = DEFAULT_TOL) -> MinimalityReport:
    """Controllability/observability ranks, spectral radius and stability flags.

    ``asymptotically_stable`` means spectral radius < 1 - circle_tol;
    ``stable`` additionally admits unit-circle eigenvalues provided they
    are semi-simple.
    """
    A, B, C = model.A, model.B, model.C
    ctrl = _krylov_rank(A, B, tol.rank_tol)
    obs = _krylov_rank(A.conj().T, C.conj().T, tol.rank_tol)
    eigs = model.eigenvalues
    rho = model.spectral_radius
    asym = rho < 1.0 - tol.circle_tol
    inside_ok = bool(np.all(np.abs(eigs) <= 1.0 + tol.circle_tol))
    stable = asym or (inside_ok and _semi_simple(A, eigs, 1.0, tol.circle_tol, tol.rank_tol))
    return MinimalityReport(
        controllable=ctrl == model.n,
        observable=obs == model.n,
        minimal=(ctrl == model.n and obs == model.n),
        ctrl_rank=ctrl,
        obs_rank=obs,
        spectral_radius=rho,
        asymptotically_stable=asym,
        stable=stable,
    )


def transfer_eval(model: StateSpaceModel, z: complex) -> np.ndarray:
    """Evaluate T(z) = C (zI - A)^{-1} B + D.

    Raises DomainError when z sits at (or numerically indistinguishable
    from) an eigenvalue of A.
    """
    n = model.n
    R = z * np.eye(n, dtype=np.complex128) - model.A
    try:
        X = np.linalg.solve(R, model.B)
    except np.linalg.LinAlgError as exc:
        raise DomainError(f"resolvent is singular at z = {z}") from exc
    # catch near-singular solves the LU did not flag
    resid = np.linalg.norm(R @ X - model.B)
    scale = np.linalg.norm(model.B) + np.linalg.norm(X) * np.linalg.norm(R)
    if scale > 0 and resid > 1e-8 * scale:
        raise DomainError(f"resolvent is numerically singular at z = {z}")
    return model.C @ X + model.D


def phi_eval(model: StateSpaceModel, omega: float) -> np.ndarray:
    """Spectral density Phi(e^{iw}) = T(e^{iw})^H + T(e^{iw}), exactly Hermitian."""
    T = transfer_eval(model, np.exp(1j * float(omega)))
    return hermitian_part(T.conj().T + T)


def simulate_dissipation(
    model: StateSpaceModel,
    X,
    U: np.ndarray,
    x0: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-step supply balance along a trajectory driven by inputs ``U``.

    U has one column per step (m x K).  For each step k the balance
    s_k = x_k^H X x_k - x_{k+1}^H X x_{k+1} + y_k^H u_k + u_k^H y_k
    is returned together with the quadratic form q_k = z_k^H W(X) z_k of
    the stacked vector z_k = [x_k; u_k]; the two sequences agree exactly
    in arithmetic for any Hermitian X.
    """
    from .kyp import _check_X, build_W  # local import to avoid a module cycle

    Xh = _check_X(model, X)
    Uarr = np.atleast_2d(np.asarray(U, dtype=np.complex128))
    if Uarr.shape[0] != model.m:
        raise DomainError(f"U must have {model.m} rows, got {Uarr.shape[0]}")
    K = Uarr.shape[1]
    x = np.zeros(model.n, dtype=np.complex128) if x0 is None else np.asarray(x0, np.complex128)
    W = build_W(model, Xh)
    s_seq = np.empty(K)
    q_seq = np.empty(K)
    for k in range(K):
        u = Uarr[:, k]
        y = model.C @ x + model.D @ u
        x_next = model.A @ x + model.B @ u
        s = (
            x.conj() @ Xh @ x
            - x_next.conj() @ Xh @ x_next
            + y.conj() @ u
            + u.conj() @ y
        )
        z = np.concatenate([x, u])
        q = z.conj() @ W @ z
        s_seq[k] = s.real
        q_seq[k] = q.real
        x = x_next
    return s_seq, q_seq
