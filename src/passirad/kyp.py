"""Passivity certificate matrices and their classification.

For a model {A, B, C, D} and a Hermitian candidate X the certificate
matrix is

    W(X) = [ X - A^H X A      C^H - A^H X B ]
           [ C - B^H X A      D^H + D - B^H X B ]

X > 0 with W(X) >= 0 certifies passivity; W(X) > 0 certifies strict
passivity.  Two bordered forms of the same certificate are used by the
radius and margin computations:

    What(X)   = [[X^{-1}, A, B], [A^H, X, C^H], [B^H, C, D^H + D]]
    Wtilde(X) = [[X, XA, XB], [A^H X, X, C^H], [B^H X, C, D^H + D]]

Wtilde = diag(X, I, I) What diag(X, I, I), and the Schur complement of
the leading block of Wtilde is W(X).  The (n, n, m) row split of these forms,
the perturbation embedding and the Ds scaling live only here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .kernels import (
    DEFAULT_TOL,
    Tolerances,
    as_complex_matrix,
    hermitian_part,
    psd_margin,
)
from .system_model import StateSpaceModel

__all__ = [
    "CertificateKind",
    "Certificate",
    "PerturbationFrame",
    "build_W",
    "build_What",
    "build_Wtilde",
    "perturbation_frame",
    "apply_perturbation",
    "classify_certificate",
]


class CertificateKind(enum.Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


@dataclass(frozen=True)
class Certificate:
    """Classification of a candidate X against the certificate LMI."""

    X: np.ndarray
    kind: CertificateKind
    lambda_min_W: float
    lambda_min_X: float


def _check_X(model: StateSpaceModel, X) -> np.ndarray:
    """Hermitian part of a candidate certificate, checked to be n x n."""
    Xc = as_complex_matrix(np.atleast_2d(X), "X")
    if Xc.shape != (model.n, model.n):
        raise DomainError(f"X must be {model.n}x{model.n}, got {Xc.shape}")
    return hermitian_part(Xc)


def build_W(model: StateSpaceModel, X) -> np.ndarray:
    """The (n+m) certificate matrix W(X), exactly Hermitian."""
    Xh = _check_X(model, X)
    A, B, C, D = model.A, model.B, model.C, model.D
    XA = Xh @ A
    XB = Xh @ B
    top_left = Xh - A.conj().T @ XA
    top_right = C.conj().T - A.conj().T @ XB
    bottom_right = D.conj().T + D - B.conj().T @ XB
    W = np.block([[top_left, top_right], [top_right.conj().T, bottom_right]])
    return hermitian_part(W)


def _bordered(P, Q, A, B, C, S) -> np.ndarray:
    """Hermitian part of [[P, A, B], [A^H, Q, C^H], [B^H, C, S]], the (n, n, m)
    layout shared by What, Wtilde and the frequency-pinned shift fields."""
    return hermitian_part(
        np.block([[P, A, B], [A.conj().T, Q, C.conj().T], [B.conj().T, C, S]])
    )


def build_What(model: StateSpaceModel, X) -> np.ndarray:
    """The bordered (2n+m) form with an X^{-1} leading block (needs X > 0)."""
    Xh = _check_X(model, X)
    try:
        Xinv = np.linalg.inv(Xh)
    except np.linalg.LinAlgError as exc:
        raise DomainError("X is singular; the bordered certificate needs X > 0") from exc
    return _bordered(Xinv, Xh, model.A, model.B, model.C, model.D.conj().T + model.D)


def build_Wtilde(model: StateSpaceModel, X) -> np.ndarray:
    """The inversion-free bordered (2n+m) form, congruent to diag(X, W(X))."""
    Xh = _check_X(model, X)
    return _bordered(Xh, Xh, Xh @ model.A, Xh @ model.B, model.C, model.D.conj().T + model.D)


@dataclass(frozen=True)
class PerturbationFrame:
    """Embedding frame for structured perturbations of the bordered certificate.

    E1 places a block Delta (acting on [x; u]) into rows {1..n, 2n+1..2n+m};
    E2 places it into rows {n+1..2n, 2n+1..2n+m}.  The weighted frame
    Ds [E1 E2] has orthonormal rows.
    """

    E1: np.ndarray
    E2: np.ndarray
    Ds: np.ndarray
    n: int
    m: int


def perturbation_frame(n: int, m: int) -> PerturbationFrame:
    if n < 1 or m < 1:
        raise DomainError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    eye, zero = np.eye(n + m), np.zeros((n, n + m))
    E1 = np.vstack([eye[:n], zero, eye[n:]])
    E2 = np.vstack([zero, eye])
    Ds = np.diag(np.concatenate([np.ones(2 * n), np.full(m, 1.0 / np.sqrt(2.0))]))
    return PerturbationFrame(E1=E1, E2=E2, Ds=Ds, n=n, m=m)


def apply_perturbation(frame: PerturbationFrame, delta) -> np.ndarray:
    """Hermitian update E1 Delta E2^T + E2 Delta^H E1^T of the bordered certificate.

    With Delta = [[dA, dB], [dC, dD]] this equals the exact change of
    What(X, .) under {A, B, C, D} -> {A + dA, B + dB, C + dC, D + dD}.
    """
    Delta = as_complex_matrix(delta, "delta")
    n, k = frame.n, frame.n + frame.m
    if Delta.shape != (k, k):
        raise DomainError(f"delta must be {k}x{k}, got {Delta.shape}")
    P = np.zeros((n + k, n + k), dtype=np.complex128)
    P[:n, n:] = Delta[:n]
    P[2 * n :, n:] = Delta[n:]
    return P + P.conj().T


def _ds_scaled(H: np.ndarray, m: int) -> np.ndarray:
    """Ds H Ds with Ds = diag(I, I, I/sqrt 2), the frame weight on the last m
    rows and columns, applied as a row and a column scaling."""
    d = np.ones(H.shape[0])
    d[-m:] = 1.0 / np.sqrt(2.0)
    return H * d[:, None] * d


def classify_certificate(
    model: StateSpaceModel, X, tol: Tolerances = DEFAULT_TOL
) -> Certificate:
    """Classify X against the certificate LMI with a psd_tol dead band.

    Interior:  X > 0 and lambda_min W(X) >  psd_tol * max(||W||, 1)
    Boundary:  X > 0 and |lambda_min W(X)| <= psd_tol * max(||W||, 1)
    Outside:   anything else

    X > 0 carries the same dead band, psd_tol * max(||X||, 1).
    """
    Xh = _check_X(model, X)
    W = build_W(model, Xh)
    wmin, w_scale = psd_margin(W)
    xmin, x_scale = psd_margin(Xh)
    x_pd = xmin > tol.psd_tol * x_scale
    if x_pd and wmin > tol.psd_tol * w_scale:
        kind = CertificateKind.INTERIOR
    elif x_pd and abs(wmin) <= tol.psd_tol * w_scale:
        kind = CertificateKind.BOUNDARY
    else:
        kind = CertificateKind.OUTSIDE
    return Certificate(X=Xh, kind=kind, lambda_min_W=wmin, lambda_min_X=xmin)
