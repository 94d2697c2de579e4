"""Seeded workloads: input generators, the per-model analysis, output checks.

Each workload turns a seed into a pool of validated models and analyses one
model per loop iteration with the same library calls as the matching CLI
command.  Library entry points are looked up on the ``passirad`` package at
call time, so a tracer that patches the package sees every call.

A failed check or a raised exception marks the operation failed; it is
counted, reported, and never retried, re-seeded or filtered out.  A failure
that is not one of the workload's documented ``KNOWN_DEFECTS`` makes the
run incorrect.
"""

from __future__ import annotations

import hashlib
import re
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Pattern, Tuple

import numpy as np

import passirad as pr

TAU = 1e-8  # bracket width of every margin and shift search (the CLI default)
GRID = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)  # passify depth grid
CHECK_GRID = np.linspace(0.0, 2.0 * np.pi, 2048, endpoint=False)  # passivity check


class InputError(RuntimeError):
    """A generated model does not have the property its workload needs."""


@dataclass(frozen=True)
class Task:
    """One pool entry: a model, and for radius the seed of the ensemble
    batch that follows it (None when no batch follows)."""

    model: object
    batch_seed: Optional[int] = None


@dataclass
class Outcome:
    """Timings and check results of one operation (one loop iteration part)."""

    kind: str
    seconds: Dict[str, float] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)
    samples: int = 0  # ensemble samples produced, for the samples/s rate
    call: str = ""  # the library function running, to name an exception


def _timed(out: Outcome, stage: str, fn: Callable, *args, **kwargs):
    out.call = fn.__name__
    t0 = time.perf_counter()
    try:
        return fn(*args, **kwargs)
    finally:
        out.seconds[stage] = out.seconds.get(stage, 0.0) + time.perf_counter() - t0


def _run(out: Outcome, body: Callable[[Outcome], None]) -> Outcome:
    # The loop must survive any failure of the code under test, so every
    # exception is recorded as a failed operation with the call that raised
    # it, its type and its message.
    try:
        body(out)
    except Exception as exc:  # noqa: BLE001 - boundary that keeps the loop running
        out.failures.append(f"{out.call}: {type(exc).__name__}: {exc}")
    return out


def digest(pool: List[Task]) -> str:
    """Hash of every input of a pool, printed so that two runs can be seen
    to have analysed the same inputs."""
    h = hashlib.sha256()
    for task in pool:
        for M in (task.model.A, task.model.B, task.model.C, task.model.D):
            h.update(np.ascontiguousarray(M).tobytes())
        h.update(repr(task.batch_seed).encode())
    return h.hexdigest()[:16]


def _child_seeds(key: Tuple[int, ...], count: int) -> List[int]:
    seq = np.random.SeedSequence(list(key))
    return [int(s.generate_state(1)[0]) for s in seq.spawn(count)]


# ---------------------------------------------------------------- inputs


def _w_identity_min(A, B, C, D) -> float:
    """lambda_min of the certificate matrix W(I), computed with NumPy alone."""
    n = A.shape[0]
    top = np.hstack([np.eye(n) - A.conj().T @ A, C.conj().T - A.conj().T @ B])
    bottom = np.hstack([C - B.conj().T @ A, D.conj().T + D - B.conj().T @ B])
    W = np.vstack([top, bottom])
    return float(np.linalg.eigvalsh(0.5 * (W + W.conj().T))[0])


def _spectral_radius(A) -> float:
    return float(np.abs(np.linalg.eigvals(A)).max())


def _phi_min(A, B, C, D, omegas) -> float:
    """Smallest eigenvalue of T(z)^H + T(z) over the circle points e^{i omega}."""
    n = A.shape[0]
    z = np.exp(1j * omegas)[:, None, None]
    R = z * np.eye(n) - A
    T = C @ np.linalg.solve(R, np.broadcast_to(B, (omegas.size,) + B.shape)) + D
    Phi = T + np.conj(np.swapaxes(T, 1, 2))
    return float(np.linalg.eigvalsh(0.5 * (Phi + np.conj(np.swapaxes(Phi, 1, 2))))[:, 0].min())


def real_passive_model(rng: np.random.Generator, n: int, m: int, margin: float):
    """Real Gaussian variant of the package's recipe: scale [A B] to norm
    1 - margin, then double a diagonal boost of D until W(I) >= margin."""
    S = rng.standard_normal((n + m, n + m))
    A, B, C, D = S[:n, :n], S[:n, n:], S[n:, :n], S[n:, n:]
    s = np.linalg.norm(np.hstack([A, B]), 2)
    if s > 1.0 - margin:
        A, B = A * ((1.0 - margin) / s), B * ((1.0 - margin) / s)
    boost = margin
    for _ in range(80):
        Dk = D + boost * np.eye(m)
        if _w_identity_min(A, B, C, Dk) >= margin:
            return pr.StateSpaceModel(A, B, C, Dk)
        boost *= 2.0
    raise InputError("diagonal boost did not reach the requested margin")


def lowered_model(base, depth: float):
    """Lower D by c*I so that min over GRID of lambda_min Phi is exactly -depth.

    Phi(D - cI) = Phi(D) - 2c I, so c follows from one grid evaluation."""
    c = 0.5 * (_phi_min(base.A, base.B, base.C, base.D, GRID) + depth)
    return pr.StateSpaceModel(base.A, base.B, base.C, base.D - c * np.eye(base.m))


def check_strictly_passive(model) -> None:
    """W(I) > 0 certifies strict passivity, since X = I is positive definite."""
    lam = _w_identity_min(model.A, model.B, model.C, model.D)
    if not lam > 0.0:
        raise InputError(f"model is not strictly passive at X = I (lambda_min W = {lam:.3e})")


def check_stable_nonpassive(model) -> None:
    rho = _spectral_radius(model.A)
    lam = _phi_min(model.A, model.B, model.C, model.D, GRID)
    if not rho < 1.0:
        raise InputError(f"model is not stable (spectral radius {rho:.6f})")
    if not lam < 0.0:
        raise InputError(f"model is passive on the grid (min lambda Phi = {lam:.3e})")


# ------------------------------------------------------------- workloads


def unexpected(work, out: Outcome) -> List[str]:
    """The failures of ``out`` that are not documented defects of the code."""
    return [f for f in out.failures if not any(p.match(f) for p in work.KNOWN_DEFECTS)]


class Radius:
    """radius n=40, m=4 at X = I; every 4th model is followed by an ensemble
    batch at the CLI defaults (50 samples, n=5, m=2)."""

    name = "radius"
    n, m, pool_size = 40, 4, 48
    ensemble_n, ensemble_m, ensemble_count, batch_every = 5, 2, 50, 4
    KNOWN_DEFECTS: Tuple[Pattern, ...] = ()

    def __init__(self, seed: int):
        self.seed = seed

    def make(self, seed: int, tag: int, count: int) -> List[Task]:
        models = [pr.random_passive_system(self.n, self.m, seed=s).model for s in _child_seeds((seed, tag), count)]
        batches = _child_seeds((seed, tag, 1), count)
        for model in models:
            check_strictly_passive(model)
        return [
            Task(model, batch if j % self.batch_every == 0 else None)
            for j, (model, batch) in enumerate(zip(models, batches))
        ]

    def analyse(self, task: Task) -> List[Outcome]:
        outs = [self._radius(task.model)]
        if task.batch_seed is not None:
            outs.append(self._ensemble(task.batch_seed))
        return outs

    def _radius(self, model) -> Outcome:
        def body(out: Outcome) -> None:
            rep = _timed(out, "radius", pr.x_passivity_radius, model, np.eye(model.n))
            _, value = _timed(out, "radius", pr.dual_certificate, rep.search)
            rel = 1e-9 * rep.rho
            if not (
                rep.bound_lower <= rep.rho + rel
                and rep.rho <= rep.bound_upper_overlap + rel
                and rep.bound_upper_overlap <= rep.bound_upper + rel
            ):
                out.failures.append(
                    f"bound chain broken: {rep.bound_lower!r} <= {rep.rho!r} <= "
                    f"{rep.bound_upper_overlap!r} <= {rep.bound_upper!r}"
                )
            if not rep.singularity_residual <= 1e-10:
                out.failures.append(f"singularity residual {rep.singularity_residual:.3e}")
            lam = rep.search.lambda_star
            if not abs(value - lam) <= 1e-9 * lam:
                out.failures.append(f"dual certificate value {value!r} != lambda_star {lam!r}")

        return _run(Outcome("radius"), body)

    def _ensemble(self, seed: int) -> Outcome:
        def body(out: Outcome) -> None:
            res = _timed(
                out, "ensemble", pr.ensemble_experiment,
                self.ensemble_count, self.ensemble_n, self.ensemble_m, seed,
            )
            out.samples = len(res.rows)
            if res.skipped:
                out.failures.append(f"ensemble skipped {res.skipped} samples")
            for row in res.rows:
                # 1/est is a lower bound on the radius, rho is stable to 4 digits
                if not (np.isfinite(row.rho) and row.rho > 0.0 and row.est_times_rho >= 1.0 - 1e-3):
                    out.failures.append(f"ensemble row out of range: rho {row.rho!r}, est*rho {row.est_times_rho!r}")

        return _run(Outcome("ensemble"), body)


class Margin:
    """xi by bisection and by level sets, then the optimal certificate, on real n=30, m=3."""

    name = "margin"
    n, m, pool_size, margin = 30, 3, 36, 0.25
    # Failures of the certificate step that the code under test has today
    # (see CHANGES.md): xi_star reads the valid optimal certificate as
    # BOUNDARY (0.0) or indefinite, and extremal_solutions refuses some
    # shifted pencils as ill-conditioned.  They are counted, never filtered.
    KNOWN_DEFECTS: Tuple[Pattern, ...] = (
        re.compile(r"optimal_certificate: ConditioningError: "),
        re.compile(r"xi_star: DefinitenessError: "),
        re.compile(r"xi_star 0\.0 at the certificate is below xi_lo "),
    )

    def __init__(self, seed: int):
        self.seed = seed

    def make(self, seed: int, tag: int, count: int) -> List[Task]:
        rng = np.random.default_rng(np.random.SeedSequence([seed, tag]))
        pool = [real_passive_model(rng, self.n, self.m, self.margin) for _ in range(count)]
        for model in pool:
            check_strictly_passive(model)
        return [Task(model) for model in pool]

    def analyse(self, task: Task) -> List[Outcome]:
        model = task.model

        def body(out: Outcome) -> None:
            bis = _timed(out, "xi_bisection", pr.xi_sup_bisection, model, TAU)
            eig = _timed(out, "xi_eigenvalue", pr.xi_sup_eigenvalue, model, TAU)
            X = _timed(out, "certificate", pr.optimal_certificate, model, bis.xi_lo)
            xs = _timed(out, "certificate", pr.xi_star, model, X)
            if not bis.xi_lo > 0.0:
                out.failures.append(f"strictly passive model got xi_lo = {bis.xi_lo!r}")
            if not abs(bis.xi_lo - eig.xi_lo) <= 2.0 * TAU:
                out.failures.append(f"xi_lo disagree: bisection {bis.xi_lo!r}, level set {eig.xi_lo!r}")
            if not xs >= bis.xi_lo - TAU:
                out.failures.append(f"xi_star {xs!r} at the certificate is below xi_lo {bis.xi_lo!r}")

        return [_run(Outcome("margin"), body)]


class Passify:
    """distance to passivity and to stability of complex stable non-passive n=10, m=2."""

    name = "passify"
    n, m, pool_size, depth = 10, 2, 44, 0.1
    KNOWN_DEFECTS: Tuple[Pattern, ...] = ()

    def __init__(self, seed: int):
        self.seed = seed

    def make(self, seed: int, tag: int, count: int) -> List[Task]:
        pool = [
            lowered_model(pr.random_passive_system(self.n, self.m, seed=s).model, self.depth)
            for s in _child_seeds((seed, tag), count)
        ]
        for model in pool:
            check_stable_nonpassive(model)
        return [Task(model) for model in pool]

    def analyse(self, task: Task) -> List[Outcome]:
        model = task.model

        def body(out: Outcome) -> None:
            rep = _timed(out, "passify", pr.analyze_distance, model, TAU, "2")
            stab = _timed(out, "passify", pr.distance_to_stability, model.A)
            constrained = float(np.linalg.norm(rep.delta_constrained, 2))
            if not rep.xi_big > 0.0:
                out.failures.append(f"non-passive model got xi_big = {rep.xi_big!r}")
            if not rep.sigma2 <= constrained * (1.0 + 1e-12):
                out.failures.append(f"refined norm {rep.sigma2!r} above constrained {constrained!r}")
            s = 1.0 + rep.xi_big
            shifted = (model.A / s, model.B / s, model.C / s, (model.D + rep.xi_big * np.eye(model.m)) / s)
            lam = _phi_min(*shifted, CHECK_GRID)
            if not lam >= -1e-7:
                out.failures.append(f"backward shift at xi_big is not passive: min lambda Phi = {lam:.3e}")
            if not (stab.xi == 0.0 and stab.attained):
                out.failures.append(f"stable A got distance to stability {stab.xi!r}")

        return [_run(Outcome("passify"), body)]


WORKLOADS = {w.name: w for w in (Radius, Margin, Passify)}
