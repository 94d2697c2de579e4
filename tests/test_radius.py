"""Passivity radius at a fixed interior certificate: the two-parameter
search, the rank-one worst perturbation, the bound chain, and the dual
optimality certificate."""

import numpy as np
import pytest

from passirad.errors import DefinitenessError
from passirad.experiments import ensemble_experiment, random_passive_system
from passirad.kyp import (
    CertificateKind,
    apply_perturbation,
    build_What,
    classify_certificate,
    perturbation_frame,
)
from passirad.radius import (
    dual_certificate,
    gamma_objective,
    geometric_mean_estimate,
    minimize_gamma,
    x_passivity_radius,
)
from passirad.system_model import StateSpaceModel
from passirad.xi import optimal_certificate, xi_sup_eigenvalue

# margin sup of {0.5, 1, 1, 1}: with s = 1 - xi, the boundary condition is
# s^3 - 1.25 s + 0.5 = 0, whose relevant root gives xi = (2.5 - sqrt(4.25))/2.
# X = I is the optimal certificate here (by the b = c symmetry), so the
# radius at I equals that margin.
RHO_M0_AT_I = (2.5 - np.sqrt(4.25)) / 2.0


def _perturbed_bordered(model, X, delta):
    frame = perturbation_frame(model.n, model.m)
    return build_What(model, X) + apply_perturbation(frame, delta)


def test_static_model_radius_is_one(m_flat):
    rep = x_passivity_radius(m_flat, np.eye(1))
    assert rep.rho == pytest.approx(1.0, abs=1e-8)
    assert np.linalg.matrix_rank(rep.delta, tol=1e-8) == 1
    assert np.linalg.norm(rep.delta, 2) == pytest.approx(1.0, abs=1e-8)
    What_pert = _perturbed_bordered(m_flat, np.eye(1), rep.delta)
    s = np.linalg.svd(What_pert, compute_uv=False)
    assert s[-1] <= 1e-8 * s[0]


def test_scalar_radius_closed_form(m0):
    rep = x_passivity_radius(m0, np.eye(1))
    assert rep.rho == pytest.approx(RHO_M0_AT_I, abs=1e-9)
    assert rep.search.lambda_star == pytest.approx(1.0 / RHO_M0_AT_I, rel=1e-9)
    assert rep.singularity_residual <= 1e-10
    # b = c makes the scaled-factor norms match and the lower bound tight
    assert rep.search.alpha == pytest.approx(rep.search.beta, rel=1e-9)
    assert rep.ds_lower == pytest.approx(rep.rho, rel=1e-9)


def test_search_witness_is_balanced_and_normalized(m0):
    rep = x_passivity_radius(m0, np.eye(1))
    assert np.linalg.norm(rep.search.u) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(rep.search.v) == pytest.approx(1.0, abs=1e-12)
    lo, hi = rep.search.bracket
    assert lo <= rep.search.gamma_star <= hi
    assert rep.search.f_evals > 0
    np.testing.assert_allclose(
        rep.delta,
        -np.outer(rep.search.u, rep.search.v.conj()) / rep.search.lambda_star,
        atol=1e-12,
    )


def test_gamma_objective_is_minimal_at_the_search_point(m0):
    rep = x_passivity_radius(m0, np.eye(1))
    F1, F2 = rep.search.F1, rep.search.F2
    g = rep.search.gamma_star
    val = gamma_objective(F1, F2, g)
    assert val == pytest.approx(rep.search.lambda_star, rel=1e-12)
    for factor in (0.9, 0.99, 1.01, 1.1):
        assert gamma_objective(F1, F2, g * factor) >= val - 1e-9


def test_minimize_gamma_needs_few_evaluations_and_attains_the_dual_value():
    model = random_passive_system(40, 4, seed=1).model
    rep = x_passivity_radius(model, np.eye(40))
    search = minimize_gamma(rep.search.F1, rep.search.F2)
    assert search.f_evals <= 25
    # the unitary dual certificate reaches lambda_star only at the minimum
    _, value = dual_certificate(search)
    assert value == pytest.approx(search.lambda_star, rel=1e-9)


def _assert_radius_workload_checks(model):
    rep = x_passivity_radius(model, np.eye(model.n))
    rel = 1e-9 * rep.rho
    assert rep.bound_lower <= rep.rho + rel
    assert rep.rho <= rep.bound_upper_overlap + rel
    assert rep.bound_upper_overlap <= rep.bound_upper + rel
    assert rep.singularity_residual <= 1e-10
    _, value = dual_certificate(rep.search)
    assert abs(value - rep.search.lambda_star) <= 1e-9 * rep.search.lambda_star


def test_search_stops_only_where_the_witness_checks_hold(m0, m_flat):
    # an early stop of the gamma search, on a gap in f or at sqrt(eps) on a
    # kink, shows as a broken bound chain, a non-singular perturbed matrix or
    # a dual value short of lambda_star
    for n, m in ((10, 2), (20, 3), (40, 4)):
        for seed in range(4):
            _assert_radius_workload_checks(random_passive_system(n, m, seed).model)
    flat = [
        StateSpaceModel(np.zeros((n, n)), np.zeros((n, m)), np.zeros((m, n)), np.eye(m))
        for n, m in ((1, 1), (2, 2))
    ]
    for model in (m0, m_flat, *flat):
        _assert_radius_workload_checks(model)
    res = ensemble_experiment(50, 5, 2, 1)
    assert res.skipped == 0
    assert all(row.est_times_rho >= 1.0 - 1e-3 for row in res.rows)


def test_minimize_gamma_matches_dense_grid():
    rng = np.random.default_rng(64)
    F1 = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    F2 = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    search = minimize_gamma(F1, F2)
    grid = np.geomspace(search.bracket[0], search.bracket[1], 4001)
    grid_best = min(gamma_objective(F1, F2, g) for g in grid)
    assert search.lambda_star <= grid_best + 1e-6 * abs(grid_best)


def test_perturbation_verification_on_random_ensemble():
    # the worst perturbation lands exactly on the singularity, and backing
    # it off by 10% stays strictly inside the certified region
    for i, (n, m) in enumerate([(2, 1), (3, 2), (4, 3), (5, 1), (6, 2)]):
        nr = random_passive_system(n, m, seed=900 + i)
        model = nr.model
        X = np.eye(n)
        rep = x_passivity_radius(model, X)
        What = build_What(model, X)
        scale = np.linalg.norm(What, 2)
        pert = _perturbed_bordered(model, X, rep.delta)
        assert abs(np.linalg.eigvalsh(pert)[0]) <= 1e-6 * scale, (n, m)
        backed = _perturbed_bordered(model, X, 0.9 * rep.delta)
        assert np.linalg.eigvalsh(backed)[0] > 0, (n, m)
        assert np.linalg.matrix_rank(rep.delta, tol=1e-6 * rep.rho) == 1
        assert np.linalg.norm(rep.delta, 2) == pytest.approx(rep.rho, rel=1e-8)


def test_bound_chain_on_random_ensemble():
    for i, (n, m) in enumerate([(2, 2), (3, 1), (4, 2), (5, 3), (6, 1)]):
        nr = random_passive_system(n, m, seed=300 + i)
        rep = x_passivity_radius(nr.model, np.eye(n))
        assert rep.bound_lower - 1e-9 <= rep.rho <= rep.bound_upper_overlap + 1e-9
        assert rep.bound_upper_overlap <= rep.bound_upper + 1e-9
        assert rep.ds_lower <= rep.rho + 1e-9
        # definitions of the chain endpoints
        a, b = rep.search.alpha, rep.search.beta
        assert rep.bound_lower == pytest.approx(1.0 / (2 * a * b), rel=1e-12)
        assert rep.bound_upper == pytest.approx(1.0 / (a * b), rel=1e-12)
        assert rep.bound_upper_overlap == pytest.approx(
            1.0 / ((1.0 + rep.overlap) * a * b), rel=1e-12
        )


def test_dual_certificate_attains_the_optimum(m0):
    rep = x_passivity_radius(m0, np.eye(1))
    Q, value = dual_certificate(rep.search)
    k = Q.shape[0]
    np.testing.assert_allclose(Q.conj().T @ Q, np.eye(k), atol=1e-12)
    assert value == pytest.approx(rep.search.lambda_star, rel=1e-8)
    # the certified value is the norm the definition says it is
    F1, F2 = rep.search.F1, rep.search.F2
    h = np.linalg.norm(
        F1 @ Q @ F2.conj().T + F2 @ Q.conj().T @ F1.conj().T, 2
    )
    assert h == pytest.approx(value, rel=1e-12)


def test_geometric_mean_estimate_bounds_the_inverse_radius(m_flat, m0):
    est, gamma = geometric_mean_estimate(m_flat)
    assert est == pytest.approx(1.0, abs=1e-12)
    assert gamma == pytest.approx(1.0, abs=1e-12)
    est0, _ = geometric_mean_estimate(m0)
    rep = x_passivity_radius(m0, np.eye(1))
    # the estimate evaluates the objective at a feasible gamma, so it can
    # only overestimate the minimal value 1/rho
    assert est0 * rep.rho >= 1.0 - 1e-9


def test_radius_rejects_non_interior_certificates(m0):
    with pytest.raises(DefinitenessError):
        x_passivity_radius(m0, np.array([[0.5]]))  # boundary
    with pytest.raises(DefinitenessError):
        x_passivity_radius(m0, np.array([[3.0]]))  # outside


@pytest.mark.parametrize("n, m, count", [(10, 2, 12), (20, 2, 6), (30, 3, 6)])
def test_radius_accepts_every_certificate_classified_interior(n, m, count, real_passive_system):
    # optimal certificates below the margin are badly conditioned, so
    # ||What(X)|| ~ ||X^{-1}|| is large; the radius takes classify_certificate's
    # verdict and meets the benchmark's checks on every interior one
    interior = 0
    for seed in range(3):
        for model in (random_passive_system(n, m, seed).model, real_passive_system(n, m, seed)):
            xi_lo = xi_sup_eigenvalue(model).xi_lo
            for f in (0.5, 0.9):
                X = optimal_certificate(model, f * xi_lo)
                if classify_certificate(model, X).kind is not CertificateKind.INTERIOR:
                    continue
                interior += 1
                rep = x_passivity_radius(model, X)
                rel = 1e-9 * rep.rho
                assert rep.bound_lower <= rep.rho + rel
                assert rep.rho <= rep.bound_upper_overlap + rel
                assert rep.bound_upper_overlap <= rep.bound_upper + rel
                assert rep.singularity_residual <= 1e-10
                _, value = dual_certificate(rep.search)
                assert abs(value - rep.search.lambda_star) <= 1e-9 * rep.search.lambda_star
    assert interior == count
