"""Extremal certificate computation via the spectral pencil."""

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from passirad import StateSpaceModel
from passirad.errors import ConditioningError, DomainError, SpectralSplittingError
from passirad.kyp import CertificateKind, classify_certificate
from passirad.experiments import random_passive_system
from passirad.riccati import (
    build_symplectic,
    closed_loop,
    extended_pencil,
    extremal_solutions,
    pencil_eigenvalues,
    riccati_residual,
)
from passirad.xi import optimal_certificate


def test_scalar_certificate_interval_endpoints(m0):
    # det W(x) = -x^2 + 2.5 x - 1 has roots 0.5 and 2
    ex = extremal_solutions(m0)
    assert ex.X_min[0, 0].real == pytest.approx(0.5, abs=1e-10)
    assert ex.X_max[0, 0].real == pytest.approx(2.0, abs=1e-10)
    for X in (ex.X_min, ex.X_max):
        cert = classify_certificate(m0, X)
        assert cert.kind is CertificateKind.BOUNDARY
        assert abs(cert.lambda_min_W) <= 1e-10


def test_riccati_consistency_second_scalar_model(m1):
    ex = extremal_solutions(m1)
    assert ex.X_min[0, 0].real == pytest.approx((2 - math.sqrt(3)) / 2, abs=1e-10)
    assert ex.X_max[0, 0].real == pytest.approx((2 + math.sqrt(3)) / 2, abs=1e-10)
    assert riccati_residual(m1, ex.X_min) <= 1e-12
    assert riccati_residual(m1, ex.X_max) <= 1e-12
    lams = np.sort(np.abs(ex.eigenvalues))
    np.testing.assert_allclose(lams, [2 - math.sqrt(3), 2 + math.sqrt(3)], atol=1e-10)
    _, AF = closed_loop(m1, ex.X_min)
    assert AF[0, 0].real == pytest.approx(2 - math.sqrt(3), abs=1e-10)
    assert np.max(np.abs(np.linalg.eigvals(AF))) < 1.0


def test_residual_positive_off_the_extremal_surface(m0):
    # x = 1 is interior to the LMI but does not solve the equation:
    # |x - a^2 x - (c - a b x)^2 / (2d - b^2 x)| = |1 - 0.25 - 0.25| = 0.5
    assert riccati_residual(m0, np.eye(1)) == pytest.approx(0.5, abs=1e-12)


def test_symplectic_pencil_structure(m0):
    p = build_symplectic(m0)
    assert p.reduced_available
    # A0 = A - B (D^H+D)^{-1} C = 0.5 - 0.5 = 0
    np.testing.assert_allclose(p.K, [[0.0, 0.0], [0.5, 1.0]], atol=1e-14)
    np.testing.assert_allclose(p.L, [[1.0, 0.5], [0.0, 0.0]], atol=1e-14)


def test_optimal_certificate_needs_only_the_stabilizing_solution():
    # X_max's subspace basis is ill-conditioned here (cond ~1e12), so the
    # extremal pair is refused; X_min alone is well conditioned
    model = random_passive_system(20, 2, seed=0).model
    X = optimal_certificate(model, 0.0)
    assert riccati_residual(model, X) <= 1e-12
    _, A_F = closed_loop(model, X)
    assert np.max(np.abs(np.linalg.eigvals(A_F))) < 1.0
    with pytest.raises(ConditioningError):
        extremal_solutions(model)


def test_extremal_ordering_and_closed_loop_on_random_systems():
    rng = np.random.default_rng(2024)
    for trial in range(12):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 4))
        model = random_passive_system(n, m, seed=trial).model
        ex = extremal_solutions(model)
        gap = np.linalg.eigvalsh(ex.X_max - ex.X_min)
        assert gap[0] >= -1e-9, f"trial {trial}: ordering violated by {gap[0]}"
        assert np.linalg.eigvalsh(ex.X_min)[0] > 0
        # the residual is an absolute Frobenius norm; forming X from a
        # deflating-subspace basis with condition number cond and plugging it
        # into the quadratic residual amplifies rounding by about eps * cond^2
        eps = np.finfo(float).eps
        for X, cond in ((ex.X_min, ex.cond_min), (ex.X_max, ex.cond_max)):
            scale = max(1.0, float(np.linalg.norm(X, "fro")))
            rel_tol = 1e-10 if cond <= 1e2 else 100 * eps * cond**2
            assert riccati_residual(model, X) <= rel_tol * scale, (trial, cond)
        _, AF = closed_loop(model, ex.X_min)
        assert np.max(np.abs(np.linalg.eigvals(AF))) <= 1.0 + 1e-9


def test_pencil_eigenvalues_pair_reciprocally():
    rng = np.random.default_rng(77)
    model = random_passive_system(4, 2, seed=77).model
    lams = pencil_eigenvalues(model)
    assert lams.size == 2 * model.n + model.m
    finite = lams[np.isfinite(lams)]
    nonzero = finite[np.abs(finite) > 1e-8]
    for lam in nonzero:
        partner = 1.0 / np.conj(lam)
        assert np.min(np.abs(nonzero - partner)) <= 1e-6 * max(1.0, abs(partner))
    # each zero pairs with an infinity, and m structural infinities remain
    n_zero = np.sum(np.abs(finite) <= 1e-8)
    n_inf = np.sum(~np.isfinite(lams))
    assert n_inf == n_zero + model.m


def test_extended_pencil_matches_reduced_spectrum(m1):
    lams = pencil_eigenvalues(m1)
    finite = np.sort(np.abs(lams[np.isfinite(lams)]))
    np.testing.assert_allclose(
        finite, [2 - math.sqrt(3), 2 + math.sqrt(3)], atol=1e-10
    )
    K_ext, L_ext = extended_pencil(m1)
    assert K_ext.shape == L_ext.shape == (3, 3)


def test_static_model_pencil_is_all_indeterminate(m_flat):
    lams = pencil_eigenvalues(m_flat)
    finite = lams[np.isfinite(lams)]
    # the hidden origin mode pairs with one infinity; the input channel
    # contributes one structural infinity on top
    assert np.sum(np.abs(finite) <= 1e-12) == 1
    assert np.sum(~np.isfinite(lams)) == 2


def test_unit_circle_spectrum_raises(m_neg):
    with pytest.raises(SpectralSplittingError):
        extremal_solutions(m_neg)


def test_singular_symmetric_part_of_D_raises():
    skew = StateSpaceModel([[0.5]], [[1.0]], [[1.0]], [[0.0]])
    assert not build_symplectic(skew).reduced_available
    with pytest.raises(DomainError):
        extremal_solutions(skew)


def _qz_reference(model):
    """Pencil eigenvalues by full complex QZ, with 0/0 pairs dropped at
    1e-12 times the spectral norm of each factor."""
    K, L = extended_pencil(model)
    AA, BB, _, _ = scipy.linalg.qz(K, L, output="complex")
    alpha, beta = np.diag(AA), np.diag(BB)
    keep = ~(
        (np.abs(alpha) <= 1e-12 * max(np.linalg.norm(K, 2), 1.0))
        & (np.abs(beta) <= 1e-12 * max(np.linalg.norm(L, 2), 1.0))
    )
    alpha, beta = alpha[keep], beta[keep]
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = alpha / beta
    lam[beta == 0] = np.inf
    return lam


def _assert_same_pencil_spectrum(got, expected):
    assert np.sum(~np.isfinite(got)) == np.sum(~np.isfinite(expected))
    g, e = got[np.isfinite(got)], expected[np.isfinite(expected)]
    assert g.size == e.size
    # match the two multisets by a minimum-cost assignment
    cost = np.abs(g[:, None] - e[None, :]) / np.maximum(np.abs(e[None, :]), 1.0)
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    assert cost[rows, cols].max(initial=0.0) <= 1e-10


@pytest.mark.parametrize("n, m", [(1, 1), (5, 1), (5, 5), (20, 3), (20, 20)])
@pytest.mark.parametrize("data", ["complex", "real"])
def test_pencil_eigenvalues_match_full_qz(n, m, data, real_passive_system):
    for seed in range(2):
        if data == "complex":
            model = random_passive_system(n, m, seed=seed).model
        else:
            model = real_passive_system(n, m, seed)
        _assert_same_pencil_spectrum(pencil_eigenvalues(model), _qz_reference(model))


def test_pencil_eigenvalues_match_full_qz_on_static_model(m_flat):
    _assert_same_pencil_spectrum(pencil_eigenvalues(m_flat), _qz_reference(m_flat))
