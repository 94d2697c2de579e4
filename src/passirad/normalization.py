"""Normalized realizations of passive models.

Factoring a certificate X = T^H T and changing state coordinates by T
gives the realization {T A T^{-1}, T B, C T^{-1}, D} whose certificate
at the identity equals the original one at X:

    [[I, C_T^H], [C_T, D^H + D]] - [A_T  B_T]^H [A_T  B_T]  =  W(I, M_T)

which is congruent to W(X, M).  Among all factorizations of X the
Cholesky factor is used; the residual unitary freedom is spent only by
canonical_form, which rotates the state basis so that A takes the polar
form Sigma (V^H U) with a deterministic phase convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np
import scipy.linalg

from .kernels import (
    DEFAULT_TOL,
    Tolerances,
    cholesky,
    psd_margin,
    svd,
)
from .kyp import _check_X, build_W
from .system_model import StateSpaceModel

__all__ = [
    "NormalizedRealization",
    "normalize",
    "canonical_form",
    "verify_normalized",
]


@dataclass(frozen=True)
class NormalizedRealization:
    """A realization together with the transformation that produced it.

    model      the transformed realization
    T          state transformation (x_new = T x); X = T^H T holds
    X_source   the certificate the transformation factors
    """

    model: StateSpaceModel
    T: np.ndarray
    X_source: np.ndarray


def normalize(
    model: StateSpaceModel, X, tol: Tolerances = DEFAULT_TOL
) -> NormalizedRealization:
    """Transform by the upper-triangular Cholesky factor T of X (X = T^H T)."""
    Xh = _check_X(model, X)
    T = cholesky(Xh, tol)
    Tinv = scipy.linalg.solve_triangular(T, np.eye(model.n), lower=False)
    transformed = StateSpaceModel(
        A=T @ model.A @ Tinv,
        B=T @ model.B,
        C=model.C @ Tinv,
        D=model.D.copy(),
    )
    return NormalizedRealization(model=transformed, T=T, X_source=Xh)


def _fix_column_phases(U: np.ndarray, V: np.ndarray, rank_tol: float) -> Tuple[np.ndarray, np.ndarray]:
    """Rotate paired columns so the first significant entry of each U column
    is real positive.  Leaves U Sigma V^H invariant."""
    Uf = U.copy()
    Vf = V.copy()
    for j in range(U.shape[1]):
        col = Uf[:, j]
        norms = np.abs(col)
        idx = np.nonzero(norms > rank_tol * max(norms.max(), 1.0))[0]
        if idx.size == 0:
            continue
        pivot = col[idx[0]]
        phase = pivot / abs(pivot)
        Uf[:, j] = col / phase
        Vf[:, j] = Vf[:, j] / phase
    return Uf, Vf


def canonical_form(
    realization: NormalizedRealization, tol: Tolerances = DEFAULT_TOL
) -> NormalizedRealization:
    """Rotate the state basis of a normalized realization so A = Sigma (V^H U).

    Uses the SVD A = U Sigma V^H of the current A and applies the unitary
    U^H as an extra state transformation; Sigma stays the singular value
    profile of A and the transfer function is unchanged.  Column phases
    of U are fixed (first significant entry real positive) to make the
    output deterministic.
    """
    M = realization.model
    U, s, V = svd(M.A)
    U, V = _fix_column_phases(U, V, tol.rank_tol)
    A_new = np.diag(s).astype(np.complex128) @ (V.conj().T @ U)
    transformed = StateSpaceModel(
        A=A_new,
        B=U.conj().T @ M.B,
        C=M.C @ U,
        D=M.D.copy(),
    )
    return NormalizedRealization(
        model=transformed,
        T=U.conj().T @ realization.T,
        X_source=realization.X_source,
    )


def verify_normalized(
    model: StateSpaceModel, tol: Tolerances = DEFAULT_TOL
) -> Tuple[bool, float]:
    """Check the normalization inequality at the identity certificate.

    Returns (flag, lambda_min) where lambda_min is the smallest eigenvalue
    of [[I, C^H], [C, D^H + D]] - [A B]^H [A B], which equals W(I, model);
    the flag is True when that matrix is positive semidefinite within the
    psd_tol dead band (which also forces ||A|| <= 1 up to the same band).
    """
    W = build_W(model, np.eye(model.n))
    lam, scale = psd_margin(W)
    return lam >= -tol.psd_tol * scale, lam
