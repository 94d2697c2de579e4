"""State-space container, minimality/stability report, frequency evaluations,
and the trajectory dissipation identity."""

import dataclasses

import numpy as np
import pytest

from passirad import StateSpaceModel, build_W
from passirad.errors import ConvergenceError, DomainError
from passirad.experiments import random_passive_system
from passirad.passify import distance_to_stability
from passirad.system_model import (
    phi_eval,
    simulate_dissipation,
    transfer_eval,
    validate_minimal,
)


def test_dimensions_and_system_matrix(m0):
    assert (m0.n, m0.m) == (1, 1)
    S = m0.system_matrix()
    np.testing.assert_array_equal(S, np.array([[0.5, 1.0], [1.0, 1.0]], dtype=complex))


def test_rejects_inconsistent_shapes():
    with pytest.raises(DomainError, match="B"):
        StateSpaceModel([[0.5]], [[1.0], [2.0]], [[1.0]], [[1.0]])
    with pytest.raises(DomainError, match="C"):
        StateSpaceModel([[0.5]], [[1.0]], np.ones((2, 2)), [[1.0]])
    # m is inferred from D, so an oversized D surfaces as a B-width mismatch
    with pytest.raises(DomainError, match="B must be 1x2"):
        StateSpaceModel([[0.5]], [[1.0]], [[1.0]], np.ones((2, 2)))


def test_rejects_nonsquare_A():
    with pytest.raises(DomainError, match="square"):
        StateSpaceModel(np.ones((1, 2)), np.ones((2, 1)), np.ones((1, 1)), [[1.0]])


def test_validate_minimal_on_scalar_model(m0):
    rep = validate_minimal(m0)
    assert rep.minimal and rep.controllable and rep.observable
    assert (rep.ctrl_rank, rep.obs_rank) == (1, 1)
    assert rep.spectral_radius == pytest.approx(0.5, abs=1e-15)
    assert rep.asymptotically_stable and rep.stable


def test_validate_minimal_flags_unreachable_state(m_flat):
    rep = validate_minimal(m_flat)
    assert not rep.minimal
    assert rep.ctrl_rank == 0 and rep.obs_rank == 0
    assert rep.asymptotically_stable


def test_validate_minimal_distinguishes_marginal_from_unstable():
    marginal = StateSpaceModel([[1.0]], [[1.0]], [[1.0]], [[1.0]])
    rep = validate_minimal(marginal)
    assert rep.stable and not rep.asymptotically_stable
    unstable = StateSpaceModel([[1.5]], [[1.0]], [[1.0]], [[1.0]])
    rep = validate_minimal(unstable)
    assert not rep.stable and not rep.asymptotically_stable


def _jordan(lam: complex, k: int) -> np.ndarray:
    return lam * np.eye(k) + np.diag(np.ones(k - 1), 1)


def _similar(A: np.ndarray, seed: int) -> np.ndarray:
    S = np.random.default_rng(seed).standard_normal(A.shape)
    return S @ A @ np.linalg.inv(S)


_ROTATION = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])


@pytest.mark.parametrize(
    "A, semi_simple",
    [
        (_jordan(1.0, 2), False),
        (_jordan(-1.0, 3), False),
        (_jordan(1j, 2), False),
        (_similar(_jordan(1.0, 2), seed=1), False),
        (_similar(_jordan(1.0, 3), seed=1), False),
        (_similar(_jordan(1.0, 2), seed=3), False),
        (_jordan(1.0, 8), False),
        (_ROTATION, True),
        (np.eye(2), True),
        (np.diag([1.0, 1.0 - 1e-7]), True),
    ],
    ids=[
        "J(1)", "J3(-1)", "J(i)", "SJS^-1 k=2", "SJS^-1 k=3", "SJS^-1 k=2 cond 124",
        "J8(1)", "rotation", "diag(1,1)", "diag(1,1-1e-7)",
    ],
)
def test_stability_flag_and_distance_to_stability_share_one_semi_simplicity_test(A, semi_simple):
    k = A.shape[0]
    model = StateSpaceModel(A, np.ones((k, 1)), np.ones((1, k)), np.eye(1))
    assert validate_minimal(model).stable is semi_simple
    assert distance_to_stability(A).attained is semi_simple


def test_cached_spectrum_is_eig_of_A_and_read_only():
    model = random_passive_system(6, 2, seed=5).model
    eigs = model.eigenvalues
    np.testing.assert_array_equal(eigs, np.linalg.eigvals(model.A))
    assert model.eigenvalues is eigs  # computed once
    assert not eigs.flags.writeable
    with pytest.raises(ValueError):
        eigs[0] = 0.0
    assert model.spectral_radius == float(np.max(np.abs(eigs)))


def test_cached_spectrum_leaves_the_model_frozen_and_comparable(m0):
    twin = StateSpaceModel([[0.5]], [[1.0]], [[1.0]], [[1.0]])
    assert m0.spectral_radius == pytest.approx(0.5, abs=1e-15)
    # the cache is not a field: equality still compares A, B, C, D only
    assert [f.name for f in dataclasses.fields(m0)] == ["A", "B", "C", "D"]
    assert m0 == twin and twin == m0
    assert m0 != StateSpaceModel([[0.25]], [[1.0]], [[1.0]], [[1.0]])
    with pytest.raises(dataclasses.FrozenInstanceError):
        m0.A = np.eye(1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        m0.eigenvalues = np.zeros(1)
    # array fields make the model unhashable, with or without the cache
    for model in (m0, twin):
        with pytest.raises(TypeError):
            hash(model)
    np.testing.assert_array_equal(dataclasses.replace(m0, A=[[0.25]]).eigenvalues, [0.25])


def test_transfer_eval_closed_form(m0):
    # C (z I - A)^{-1} B + D at z = 2:  1/(2 - 0.5) + 1 = 5/3
    val = transfer_eval(m0, 2.0)
    np.testing.assert_allclose(val, [[5.0 / 3.0]], atol=1e-14)


def test_transfer_eval_rejects_eigenvalue_of_A(m0):
    with pytest.raises(DomainError):
        transfer_eval(m0, 0.5)


def test_phi_eval_closed_form(m_neg):
    # Phi(e^{i pi}) = T(-1)^H + T(-1) with T(-1) = -0.2 + 1/(-1.5)  ->  -26/15
    val = phi_eval(m_neg, np.pi)
    np.testing.assert_allclose(val, [[-26.0 / 15.0]], atol=1e-14)


def test_phi_eval_is_hermitian_at_generic_frequency():
    rng = np.random.default_rng(21)
    A = 0.4 * rng.standard_normal((3, 3))
    model = StateSpaceModel(
        A,
        rng.standard_normal((3, 2)),
        rng.standard_normal((2, 3)),
        rng.standard_normal((2, 2)) + 3 * np.eye(2),
    )
    P = phi_eval(model, 0.7)
    np.testing.assert_allclose(P, P.conj().T, atol=1e-12)


def test_dissipation_identity_on_random_trajectories():
    # the per-step supply balance equals the certificate quadratic form
    rng = np.random.default_rng(42)
    for trial in range(20):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        model = StateSpaceModel(
            0.5 * rng.standard_normal((n, n)),
            rng.standard_normal((n, m)),
            rng.standard_normal((m, n)),
            rng.standard_normal((m, m)),
        )
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        X = G.conj().T @ G + np.eye(n)
        U = rng.standard_normal((m, 30)) + 1j * rng.standard_normal((m, 30))
        x0 = rng.standard_normal(n)
        s, q = simulate_dissipation(model, X, U, x0=x0)
        scale = max(np.max(np.abs(s)), 1.0)
        np.testing.assert_allclose(s, q, atol=1e-10 * scale)


def test_dissipation_nonnegative_under_psd_certificate(m0):
    # X = 1 is an interior certificate, so every step must supply energy
    rng = np.random.default_rng(7)
    W = build_W(m0, np.eye(1))
    assert np.all(np.linalg.eigvalsh(W) > 0)
    for trial in range(10):
        U = rng.standard_normal((1, 50)) + 1j * rng.standard_normal((1, 50))
        s, _ = simulate_dissipation(m0, np.eye(1), U, x0=rng.standard_normal(1))
        assert np.all(s >= -1e-10)


def test_dissipation_rejects_mismatched_input_rows(m0):
    with pytest.raises(DomainError):
        simulate_dissipation(m0, np.eye(1), np.ones((2, 4)))


@pytest.mark.xfail(
    strict=True,
    raises=ConvergenceError,
    reason="ROADMAP item 3 (the staircase): the Krylov rank test of validate_minimal "
    "calls robustly minimal draws non-minimal when powers of A decay",
)
@pytest.mark.parametrize("n, m", [(20, 1), (50, 3)])
def test_random_passive_system_draws_at_moderate_order(n, m):
    assert validate_minimal(random_passive_system(n, m, seed=0).model).minimal
