"""Random passive-system generation, the ensemble accuracy experiment,
and the scalar balancing sweep.

The generator draws a complex Gaussian system matrix, rescales [A B] to
pull the state dynamics strictly inside the unit disc, then grows a real
diagonal boost on D until the identity certificate holds with the
requested margin.  Every sample is therefore normalized at X = I by
construction and strictly passive with a quantified interior margin.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConvergenceError, DomainError, PassiradError
from .kernels import DEFAULT_TOL, Tolerances, lambda_min
from .kyp import _ds_scaled, build_W, build_Wtilde
from .normalization import NormalizedRealization
from .radius import _geometric_mean, x_passivity_radius
from .system_model import StateSpaceModel, validate_minimal

__all__ = [
    "EnsembleRow",
    "EnsembleResult",
    "SweepRow",
    "SweepResult",
    "random_passive_system",
    "ensemble_experiment",
    "scalar_sweep",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class EnsembleRow:
    """One sample's radius and its four cheap estimates, with ratios."""

    rho: float
    lam_w: float
    lam_wt: float
    lam_ds: float
    est: float
    ratio_w: float
    ratio_wt: float
    ratio_ds: float
    est_times_rho: float


@dataclass(frozen=True)
class EnsembleResult:
    rows: Tuple[EnsembleRow, ...]
    skipped: int
    summary: dict


@dataclass(frozen=True)
class SweepRow:
    t: float
    b_t: float
    c_t: float
    rho_t: float
    lam_w_t: float
    lam_ds_t: float


@dataclass(frozen=True)
class SweepResult:
    rows: Tuple[SweepRow, ...]
    balanced_index: int


def _draw_system(rng: np.random.Generator, n: int, m: int, margin: float) -> StateSpaceModel:
    k = n + m
    S = (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))) / np.sqrt(2.0)
    A, B = S[:n, :n], S[:n, n:]
    C, D = S[n:, :n], S[n:, n:]
    top = np.hstack([A, B])
    s = np.linalg.norm(top, 2)
    if s > 1.0 - margin:
        scale = (1.0 - margin) / s
        A, B = A * scale, B * scale
    delta = margin
    for _ in range(80):
        model = StateSpaceModel(A, B, C, D + delta * np.eye(m))
        if lambda_min(build_W(model, np.eye(n))) >= margin:
            return model
        delta *= 2.0
    raise ConvergenceError("diagonal boost failed to reach the requested margin")


def random_passive_system(
    n: int,
    m: int,
    seed: int,
    margin: float = 0.25,
    tol: Tolerances = DEFAULT_TOL,
) -> NormalizedRealization:
    """Deterministic strictly passive sample, normalized at X = I.

    Minimality is checked; a failing draw is retried with seeds spawned
    from the given one (at most 5 retries, deterministic schedule).
    """
    if n < 1 or m < 1:
        raise DomainError(f"need n, m >= 1, got n={n}, m={m}")
    if not (0.0 < margin < 1.0):
        raise DomainError(f"margin must be in (0, 1), got {margin}")
    root = np.random.SeedSequence(seed)
    sequences = [root] + list(root.spawn(5))
    for seq in sequences:
        model = _draw_system(np.random.default_rng(seq), n, m, margin)
        if validate_minimal(model, tol).minimal:
            eye = np.eye(n)
            return NormalizedRealization(model=model, T=eye, X_source=eye)
    raise ConvergenceError("no minimal sample found in 6 deterministic draws")


def ensemble_experiment(
    count: int,
    n: int,
    m: int,
    seed: int,
    *,
    margin: float = 0.25,
    tol: Tolerances = DEFAULT_TOL,
) -> EnsembleResult:
    """Radius-estimate accuracy over a random normalized passive ensemble.

    Each row compares the true radius at X = I, from one solve by golden
    section with Brent's parabolic steps (a smooth minimum is found to
    sqrt(eps), a kink to tol.golden_tol), against lambda_min of the plain,
    bordered, and scaled certificate matrices and the single-point
    geometric-mean estimate.  Degenerate samples are skipped and logged.
    """
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    rows: List[EnsembleRow] = []
    skipped = 0
    children = np.random.SeedSequence(seed).spawn(count)
    for i, child in enumerate(children):
        child_seed = int(child.generate_state(1)[0])
        try:
            realization = random_passive_system(n, m, child_seed, margin, tol)
            model = realization.model
            eye = np.eye(n)
            rep = x_passivity_radius(model, eye, tol)
            # Wtilde(I) = What(I): the solve's ds_lower and frames give lam_ds and est
            rho, lam_ds, search = rep.rho, rep.ds_lower, rep.search
            lam_w = lambda_min(build_W(model, eye))
            lam_wt = lambda_min(build_Wtilde(model, eye))
            est, _ = _geometric_mean(search.F1, search.F2, search.alpha, search.beta)
            rows.append(
                EnsembleRow(
                    rho=rho,
                    lam_w=lam_w,
                    lam_wt=lam_wt,
                    lam_ds=lam_ds,
                    est=est,
                    ratio_w=lam_w / rho,
                    ratio_wt=lam_wt / rho,
                    ratio_ds=lam_ds / rho,
                    est_times_rho=est * rho,
                )
            )
        except PassiradError as exc:
            skipped += 1
            logger.warning("sample %d skipped: %s", i, exc)
    summary = {}
    if rows:
        ratios = {
            "ratio_w": np.array([r.ratio_w for r in rows]),
            "ratio_wt": np.array([r.ratio_wt for r in rows]),
            "ratio_ds": np.array([r.ratio_ds for r in rows]),
            "est_error": np.abs(np.array([r.est_times_rho for r in rows]) - 1.0),
        }
        for key, vals in ratios.items():
            summary[key] = {
                "min": float(vals.min()),
                "median": float(np.median(vals)),
                "max": float(vals.max()),
            }
    return EnsembleResult(rows=tuple(rows), skipped=skipped, summary=summary)


def _scalar_certificate_range(a: float, b: float, c: float, d: float) -> Tuple[float, float]:
    """Interval [x_minus, x_plus] of scalar certificates: the roots of
    det W(x) = -b^2 x^2 + 2 beta x - c^2 with beta = (1-a^2)d + abc."""
    beta = (1.0 - a * a) * d + a * b * c
    disc = beta * beta - (b * c) ** 2
    if disc <= 0.0:
        raise DomainError(
            f"model is not strictly passive: |beta| = {abs(beta):.6g} "
            f"must exceed |b c| = {abs(b * c):.6g}"
        )
    root = np.sqrt(disc)
    return (beta - root) / (b * b), (beta + root) / (b * b)


def scalar_sweep(
    a: float,
    b: float,
    c: float,
    d: float,
    t_grid: Optional[Sequence[float]] = None,
    tol: Tolerances = DEFAULT_TOL,
) -> SweepResult:
    """Radius of the state-scaled family {a, b*t, c/t, d} at X = 1.

    The product b_t * c_t is invariant; the sweep shows the radius
    peaking where b_t = c_t.  The returned index flags that grid point.
    """
    for name, v in (("a", a), ("b", b), ("c", c), ("d", d)):
        if not np.isfinite(v):
            raise DomainError(f"{name} must be finite, got {v}")
    if b == 0.0 or c == 0.0:
        raise DomainError("sweep needs b != 0 and c != 0")
    x_minus, x_plus = _scalar_certificate_range(a, b, c, d)
    if x_minus <= 0.0:
        raise DomainError(f"certificate interval [{x_minus:.6g}, {x_plus:.6g}] not positive")
    if t_grid is None:
        t_grid = np.linspace(np.sqrt(x_minus), np.sqrt(x_plus), 41)
    ts = np.asarray([float(t) for t in t_grid], dtype=np.float64)
    if np.any(ts <= 0.0):
        raise DomainError("grid points must be positive")
    rows: List[SweepRow] = []
    for t in ts:
        model = StateSpaceModel(
            np.array([[a]]), np.array([[b * t]]), np.array([[c / t]]), np.array([[d]])
        )
        eye = np.eye(1)
        lam_w = lambda_min(build_W(model, eye))
        lam_ds = lambda_min(_ds_scaled(build_Wtilde(model, eye), 1))
        try:
            rho_t = x_passivity_radius(model, eye, tol).rho
        except PassiradError:
            rho_t = 0.0
        rows.append(
            SweepRow(
                t=float(t),
                b_t=float(b * t),
                c_t=float(c / t),
                rho_t=rho_t,
                lam_w_t=lam_w,
                lam_ds_t=lam_ds,
            )
        )
    imbalance = np.array([abs(r.b_t - r.c_t) for r in rows])
    return SweepResult(rows=tuple(rows), balanced_index=int(np.argmin(imbalance)))
