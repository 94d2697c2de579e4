"""Shift margins: xi*(X) at one certificate and the supremum Xi over all.

The forward-shifted model M_xi = {A, B, C, D - xi*I} / (1 - xi) stays
strictly passive exactly for xi below a margin Xi; the backward family
M_{-xi} divides by (1 + xi) instead and is used for non-passive models.
Two procedures locate Xi: plain bisection on the strict-passivity
predicate, and a level-set iteration that pulls the upper bound down to
the smallest real eigenvalue of a frequency-pinned Hermitian pencil.

The bisection tries cheap evidence first: a level is failed by a negative
spectral function at the violation arcs of the last failing scan, and only
otherwise scanned.  A scan of real data solves the extended pencil in real
arithmetic first and makes the complex solve only when an eigenvalue lies
within sqrt(circle_tol) of the circle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
import scipy.linalg

from .errors import ConvergenceError, DefinitenessError, DomainError
from .kernels import DEFAULT_TOL, Tolerances, lambda_min, psd_margin
from .kyp import CertificateKind, _bordered, _ds_scaled, build_Wtilde, classify_certificate
from .normalization import normalize
from .riccati import _pencil_spectrum, _stabilizing_solution, extended_pencil, pencil_eigenvalues
from .system_model import StateSpaceModel, phi_eval, validate_minimal

__all__ = [
    "ShiftDirection",
    "ShiftedModel",
    "XiMethod",
    "XiResult",
    "FrequencyScan",
    "shift_model",
    "xi_upper_bound",
    "xi_star",
    "has_unit_circle_zeros",
    "frequency_scan",
    "gamma_xi_omega",
    "xi_roots_at_omega",
    "xi_sup_bisection",
    "xi_sup_eigenvalue",
    "optimal_certificate",
]

_TWO_PI = 2.0 * np.pi


class ShiftDirection(enum.Enum):
    FORWARD = "forward"
    BACKWARD = "backward"


class XiMethod(enum.Enum):
    BISECTION = "bisection"
    EIGENVALUE = "eigenvalue"


@dataclass(frozen=True)
class ShiftedModel:
    base: StateSpaceModel
    xi: float
    direction: ShiftDirection
    model: StateSpaceModel


@dataclass(frozen=True)
class XiResult:
    """Bracket [xi_lo, xi_hi] for the margin, with the method that found it."""

    xi_lo: float
    xi_hi: float
    iterations: int
    method: XiMethod
    witness_frequencies: Tuple[float, ...]


@dataclass(frozen=True)
class FrequencyScan:
    """Unit-circle picture of a model's spectral function.

    zeros are the circle frequencies where the extended pencil has a
    unimodular eigenvalue; violations lists (midpoint, width, lambda_min)
    for the arcs between consecutive zeros on which the spectral function
    has a negative eigenvalue.
    """

    stable: bool
    spectral_radius: float
    zeros: Tuple[float, ...]
    violations: Tuple[Tuple[float, float, float], ...]
    strictly_passive: bool
    passive: bool


def shift_model(
    model: StateSpaceModel,
    xi: float,
    direction: ShiftDirection = ShiftDirection.FORWARD,
) -> ShiftedModel:
    """Forward: {A,B,C,D-xi*I}/(1-xi); backward: {A,B,C,D+xi*I}/(1+xi).

    A backward shift by xi is the forward shift by -xi, and both are
    computed by the forward formula.
    """
    x = float(xi)
    if not np.isfinite(x):
        raise DomainError(f"shift must be finite, got {xi}")
    if direction is ShiftDirection.FORWARD:
        if x >= 1.0:
            raise DomainError(f"forward shift requires xi < 1, got {x}")
        f = x
    else:
        if x <= -1.0:
            raise DomainError(f"backward shift requires xi > -1, got {x}")
        f = -x
    s = 1.0 - f
    shifted = StateSpaceModel(
        model.A / s, model.B / s, model.C / s, (model.D - f * np.eye(model.m)) / s
    )
    return ShiftedModel(base=model, xi=x, direction=direction, model=shifted)


def xi_upper_bound(model: StateSpaceModel) -> float:
    """1 - rho(A): forward shifts at or past this lose stability."""
    return 1.0 - model.spectral_radius


def xi_star(model: StateSpaceModel, X, tol: Tolerances = DEFAULT_TOL) -> float:
    """Largest feasible shift at a fixed certificate X.

    Equals lambda_min(Ds Wtilde(I, M_T) Ds) for the realization normalized
    with X.  Boundary certificates give exactly 0; outside ones are
    rejected.
    """
    cert = classify_certificate(model, X, tol)
    if cert.kind is CertificateKind.BOUNDARY:
        return 0.0
    if cert.kind is CertificateKind.OUTSIDE:
        raise DefinitenessError(
            f"X is not a certificate (lambda_min W = {cert.lambda_min_W:.6e})",
            lambda_min=cert.lambda_min_W,
        )
    realization = normalize(model, cert.X, tol)
    mt = realization.model
    return lambda_min(_ds_scaled(build_Wtilde(mt, np.eye(mt.n)), mt.m))


def _safe_frequency(model: StateSpaceModel) -> float:
    """A circle frequency far from the phases of A's eigenvalues."""
    eigs = model.eigenvalues
    candidates = [0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi]
    phases = np.sort(np.mod(np.angle(eigs[np.abs(eigs) > 1e-14]), _TWO_PI))
    if phases.size:
        mids = 0.5 * (phases + np.roll(phases, -1))
        mids[-1] = np.mod(0.5 * (phases[-1] + phases[0] + _TWO_PI), _TWO_PI)
        candidates.extend(float(m) for m in mids)
    best, best_dist = 0.0, -1.0
    for om in candidates:
        dist = float(np.min(np.abs(np.exp(1j * om) - eigs))) if eigs.size else 1.0
        if dist > best_dist:
            best, best_dist = om, dist
    return best


def _circle_zero_frequencies(model: StateSpaceModel, tol: Tolerances) -> np.ndarray:
    if not any(M.imag.any() for M in (model.A, model.B, model.C, model.D)):
        # real screen: a unimodular eigenvalue of multiplicity k moves by about
        # eps^(1/k) in a backward-stable solve, far inside sqrt(circle_tol)
        K_ext, L_ext = extended_pencil(model)
        screen = _pencil_spectrum(K_ext.real, L_ext.real)
        screen = screen[np.isfinite(screen)]
        if not np.any(np.abs(np.abs(screen) - 1.0) <= np.sqrt(tol.circle_tol)):
            return np.zeros(0)
    lams = pencil_eigenvalues(model)
    finite = lams[np.isfinite(lams)]
    on_circle = finite[np.abs(np.abs(finite) - 1.0) <= tol.circle_tol]
    if on_circle.size == 0:
        return np.zeros(0)
    omegas = np.sort(np.mod(np.angle(on_circle), _TWO_PI))
    keep = [omegas[0]]
    for om in omegas[1:]:
        if om - keep[-1] > 1e-9:
            keep.append(om)
    # merge a duplicate pair straddling the 0 / 2*pi seam
    if len(keep) > 1 and (keep[0] + _TWO_PI) - keep[-1] <= 1e-9:
        keep.pop()
    return np.asarray(keep)


def frequency_scan(model: StateSpaceModel, tol: Tolerances = DEFAULT_TOL) -> FrequencyScan:
    """Classify a model's circle behavior: stability, spectral-function
    zeros, and the arcs on which positivity fails.  Real data skips the
    complex pencil solve when a real-arithmetic solve finds no eigenvalue
    within sqrt(circle_tol) of the circle."""
    rho_a = model.spectral_radius
    if rho_a >= 1.0:
        return FrequencyScan(
            stable=False,
            spectral_radius=rho_a,
            zeros=(),
            violations=(),
            strictly_passive=False,
            passive=False,
        )
    zeros = _circle_zero_frequencies(model, tol)
    violations: List[Tuple[float, float, float]] = []
    if zeros.size == 0:
        om = _safe_frequency(model)
        lam = lambda_min(phi_eval(model, om))
        if lam > 0.0:
            return FrequencyScan(True, rho_a, (), (), True, True)
        violations.append((om, _TWO_PI, lam))
        return FrequencyScan(True, rho_a, (), tuple(violations), False, False)
    oms = zeros
    for i in range(oms.size):
        lo = oms[i]
        hi = oms[(i + 1) % oms.size] + (_TWO_PI if i + 1 == oms.size else 0.0)
        mid = np.mod(0.5 * (lo + hi), _TWO_PI)
        width = hi - lo
        lam, scale = psd_margin(phi_eval(model, mid))
        if lam < -tol.psd_tol * scale:
            violations.append((float(mid), float(width), lam))
    passive = not violations
    return FrequencyScan(
        stable=True,
        spectral_radius=rho_a,
        zeros=tuple(float(z) for z in zeros),
        violations=tuple(violations),
        strictly_passive=False,
        passive=passive,
    )


def has_unit_circle_zeros(
    shifted, tol: Tolerances = DEFAULT_TOL
) -> Tuple[bool, np.ndarray, bool]:
    """(flag, offending frequencies, stable) for a shifted or plain model.

    flag is true iff the extended pencil has a unimodular eigenvalue
    within circle_tol; stable reports rho(A) < 1.
    """
    model = getattr(shifted, "model", shifted)
    zeros = _circle_zero_frequencies(model, tol)
    return zeros.size > 0, zeros, model.spectral_radius < 1.0


def gamma_xi_omega(model: StateSpaceModel, xi: float, omega: float) -> float:
    """lambda_min of the displayed Hermitian field Gamma(xi, omega)."""
    x = float(xi)
    if x >= 1.0:
        raise DomainError(f"requires xi < 1, got {x}")
    z = np.exp(1j * float(omega))
    M = model.A + z * (x - 1.0) * np.eye(model.n)
    Z = np.zeros((model.n, model.n))
    G = _bordered(Z, Z, M, model.B, model.C, model.D.conj().T + model.D - x * np.eye(model.m))
    return lambda_min(G)


def _pinned_roots(model: StateSpaceModel, omega: float) -> np.ndarray:
    """Every real eigenvalue, ascending, of the pencil of xi_roots_at_omega:
    the forward levels (backward ones are negative) at which e^{i omega}
    is a zero or pole of the shifted model's spectral function."""
    n, m = model.n, model.m
    z = np.exp(1j * float(omega))
    Z = np.zeros((n, n))
    r = np.sqrt(2.0)
    G0 = _bordered(
        Z, Z, model.A - z * np.eye(n), model.B / r, model.C / r, 0.5 * (model.D.conj().T + model.D)
    )
    K = _bordered(Z, Z, z * np.eye(n), np.zeros((n, m)), np.zeros((m, n)), -np.eye(m))
    lams = scipy.linalg.eig(G0, -K, right=False)
    return np.sort(lams[np.abs(lams.imag) <= 1e-8 * (1.0 + np.abs(lams))].real)


def xi_roots_at_omega(model: StateSpaceModel, omega: float) -> np.ndarray:
    """Ascending real roots in (0, 1) of the frequency-pinned shift pencil.

    The pencil Gamma0(omega) + xi*K(omega) is Hermitian with K^2 = I; its
    real eigenvalues are the shifts at which e^{i omega} becomes a zero
    (or pole) of the shifted model's spectral function, because the
    bordered form's Schur complement is (1 - xi)/2 times that function.
    """
    roots = _pinned_roots(model, omega)
    return roots[(roots > 1e-12) & (roots < 1.0 - 1e-10)]


def _require_minimal(model: StateSpaceModel, tol: Tolerances) -> None:
    """Reject realizations whose hidden modes could falsify the margin.

    The margin analysis works on the realization itself, so a non-minimal
    realization is still acceptable when it is asymptotically stable: any
    hidden modes then sit strictly inside the unit circle and contribute no
    unit-circle pencil eigenvalues.  A non-minimal realization that is not
    stable may owe its instability entirely to hidden modes, and the computed
    margin would then be wrong, so it is rejected.
    """
    report = validate_minimal(model, tol)
    if not report.minimal and not report.asymptotically_stable:
        raise DomainError(
            "model is not minimal and not asymptotically stable "
            f"(controllable rank {report.ctrl_rank}, observable rank {report.obs_rank}, "
            f"order {model.n}, spectral radius {report.spectral_radius:.6g})"
        )


def _bracket_width(tau: Optional[float], tol: Tolerances) -> float:
    """The bisection width: tau, or tol.bisect_tau when tau is None."""
    t = float(tol.bisect_tau if tau is None else tau)
    if not (np.isfinite(t) and t > 0.0):
        raise DomainError(f"tau must be finite and > 0, got {t}")
    return t


def xi_sup_bisection(
    model: StateSpaceModel,
    tau: Optional[float] = None,
    tol: Tolerances = DEFAULT_TOL,
) -> XiResult:
    """Margin bracket by bisection on the strict-passivity predicate, to
    width tau (tol.bisect_tau when None).  The witness frequencies are the
    circle zeros of the last level that failed (empty when none did).

    Cheap steps first: the violation-arc midpoints of the last failing scan
    are probed at each new level, and a probe reading lambda_min Phi below
    the psd_tol dead band fails the level without a scan.  When the last
    failure was such a shortcut, the final upper level is scanned once for
    its witness frequencies."""
    _require_minimal(model, tol)
    t = _bracket_width(tau, tol)
    scan0 = frequency_scan(model, tol)
    if not scan0.strictly_passive:
        return XiResult(0.0, 0.0, 0, XiMethod.BISECTION, scan0.zeros)
    lo, hi = 0.0, xi_upper_bound(model)
    witness: Optional[Tuple[float, ...]] = ()
    probes: Tuple[float, ...] = ()
    steps = 0
    while hi - lo > t:
        steps += 1
        if steps > 200:
            raise ConvergenceError(f"bisection stalled at bracket [{lo:.12e}, {hi:.12e}]")
        mid = 0.5 * (lo + hi)
        shifted = shift_model(model, mid).model
        if _violated_at(shifted, probes, tol):
            hi, witness = mid, None
            continue
        scan = frequency_scan(shifted, tol)
        if scan.strictly_passive:
            lo = mid
        else:
            hi, witness = mid, scan.zeros
            probes = tuple(rec[0] for rec in scan.violations)
    if witness is None:
        witness = frequency_scan(shift_model(model, hi).model, tol).zeros
    return XiResult(lo, hi, steps, XiMethod.BISECTION, witness)


def _violated_at(model: StateSpaceModel, probes: Tuple[float, ...], tol: Tolerances) -> bool:
    """Whether lambda_min Phi falls below the psd_tol dead band of
    frequency_scan at any probe frequency (false when Phi cannot be read)."""
    for om in probes:
        try:
            H = phi_eval(model, om)
        except DomainError:
            return False
        lam, scale = psd_margin(H)
        if lam < -tol.psd_tol * scale:
            return True
    return False


def xi_sup_eigenvalue(
    model: StateSpaceModel,
    tau: Optional[float] = None,
    tol: Tolerances = DEFAULT_TOL,
) -> XiResult:
    """Margin bracket by the level-set iteration.

    Probe xi_hat = upper - tau (tau is tol.bisect_tau when None).  If the probed shift is strictly passive,
    [xi_hat, upper] is the answer.  Otherwise take the midpoint of the
    widest circle arc where positivity fails and pull the upper bound
    down to the smallest real pencil root at that frequency; any such
    root bounds the margin from above.
    """
    _require_minimal(model, tol)
    t = _bracket_width(tau, tol)
    scan0 = frequency_scan(model, tol)
    if not scan0.strictly_passive:
        raise DomainError("level-set margin search needs a strictly passive model")
    upper = xi_upper_bound(model)
    iterations = 0
    while True:
        iterations += 1
        if iterations > 100:
            raise ConvergenceError(
                f"level-set iteration cap reached at bracket [0, {upper:.12e}]"
            )
        xi_hat = upper - t
        if xi_hat <= 0.0:
            return XiResult(0.0, upper, iterations, XiMethod.EIGENVALUE, ())
        scan = frequency_scan(shift_model(model, xi_hat).model, tol)
        if scan.strictly_passive:
            return XiResult(xi_hat, upper, iterations, XiMethod.EIGENVALUE, scan.zeros)
        if scan.stable and not scan.violations:
            # tangential zeros only: the probe sits on the margin itself
            return XiResult(xi_hat, xi_hat, iterations, XiMethod.EIGENVALUE, scan.zeros)
        if scan.violations:
            widest = max(scan.violations, key=lambda rec: rec[1])
            om_hat = widest[0]
        else:
            om_hat = _safe_frequency(model)
        roots = xi_roots_at_omega(model, om_hat)
        below = roots[roots < xi_hat]
        upper = float(below.min()) if below.size else xi_hat


def optimal_certificate(
    model: StateSpaceModel, xi_lo: float, tol: Tolerances = DEFAULT_TOL
) -> np.ndarray:
    """Certificate whose xi* is at least xi_lo: the stabilizing solution
    of the model shifted to the certified strictly passive level."""
    x = float(xi_lo)
    if x < 0.0:
        raise DomainError(f"xi_lo must be >= 0, got {xi_lo}")
    return _stabilizing_solution(shift_model(model, x).model, tol)[0]
