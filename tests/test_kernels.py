"""Dense-kernel layer: validation, factorizations, scalar minimization."""

import numpy as np
import pytest

from passirad.errors import DefinitenessError, DomainError
from passirad.kernels import (
    DEFAULT_TOL,
    Tolerances,
    as_complex_matrix,
    cholesky,
    golden_section_min,
    hermitian_eig,
    hermitian_part,
    lambda_max,
    lambda_min,
    psd_margin,
    spectral_norm,
    svd,
)


def test_default_tolerances():
    assert DEFAULT_TOL == Tolerances(
        rank_tol=1e-10,
        psd_tol=1e-10,
        eig_tol=1e-12,
        circle_tol=1e-8,
        golden_tol=1e-10,
        bisect_tau=1e-8,
    )


def test_tolerances_are_frozen():
    with pytest.raises(AttributeError):
        DEFAULT_TOL.rank_tol = 1.0  # type: ignore[misc]


def test_as_complex_matrix_accepts_lists_and_preserves_values():
    M = as_complex_matrix([[1, 2], [3, 4]])
    assert M.dtype == np.complex128
    np.testing.assert_array_equal(M, np.array([[1, 2], [3, 4]], dtype=complex))


def test_as_complex_matrix_rejects_non_2d():
    with pytest.raises(DomainError, match="B must be 2-D"):
        as_complex_matrix(np.ones(3), name="B")


def test_as_complex_matrix_rejects_non_finite():
    with pytest.raises(DomainError, match="finite"):
        as_complex_matrix([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(DomainError, match="finite"):
        as_complex_matrix([[np.inf, 0.0], [0.0, 1.0]])


def test_hermitian_part_is_hermitian_and_idempotent_on_hermitian_input():
    rng = np.random.default_rng(11)
    M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    H = hermitian_part(M)
    np.testing.assert_allclose(H, H.conj().T, atol=1e-15)
    np.testing.assert_allclose(hermitian_part(H), H, atol=1e-15)


def test_hermitian_eig_ascending_and_reconstructs():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    H = hermitian_part(M)
    w, V = hermitian_eig(H)
    assert np.all(np.diff(w) >= 0)
    np.testing.assert_allclose(V @ np.diag(w) @ V.conj().T, H, atol=1e-12)
    np.testing.assert_allclose(V.conj().T @ V, np.eye(6), atol=1e-12)


def test_hermitian_eig_rejects_non_hermitian_input_and_accepts_empty():
    with pytest.raises(DomainError, match="not Hermitian"):
        hermitian_eig([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(DomainError, match="square"):
        hermitian_eig(np.ones((2, 3)))
    with pytest.raises(DomainError, match="finite"):
        hermitian_eig([[np.nan, 0.0], [0.0, 1.0]])
    w, V = hermitian_eig(np.zeros((0, 0)))
    assert w.shape == (0,) and V.shape == (0, 0)


def test_psd_margin_is_lambda_min_and_the_spectral_norm_floored_at_one():
    rng = np.random.default_rng(17)
    H = hermitian_part(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    lam, scale = psd_margin(H)
    assert lam == pytest.approx(np.linalg.eigvalsh(H)[0], abs=1e-13)
    assert scale == pytest.approx(max(np.linalg.norm(H, 2), 1.0), rel=1e-13)
    assert psd_margin(np.diag([-3.0, 0.5])) == (-3.0, 3.0)
    assert psd_margin(1e-3 * np.eye(2)) == (1e-3, 1.0)


def test_lambda_min_max_on_known_spectrum():
    H = np.diag([3.0, -2.0, 7.0])
    assert lambda_min(H) == pytest.approx(-2.0, abs=1e-14)
    assert lambda_max(H) == pytest.approx(7.0, abs=1e-14)


def test_spectral_norm_matches_largest_singular_value():
    rng = np.random.default_rng(7)
    M = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    assert spectral_norm(M) == pytest.approx(np.linalg.norm(M, 2), rel=1e-13)


def test_svd_convention():
    rng = np.random.default_rng(13)
    M = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    U, s, V = svd(M)
    assert np.all(np.diff(s) <= 0)
    # full-size factors: U is 4x4, V is 3x3, so rebuild with a rectangular Sigma
    assert U.shape == (4, 4) and V.shape == (3, 3)
    Sigma = np.zeros((4, 3))
    Sigma[: len(s), : len(s)] = np.diag(s)
    np.testing.assert_allclose(U @ Sigma @ V.conj().T, M, atol=1e-12)
    np.testing.assert_allclose(U.conj().T @ U, np.eye(4), atol=1e-12)
    np.testing.assert_allclose(V.conj().T @ V, np.eye(3), atol=1e-12)


def test_cholesky_upper_factor_convention():
    rng = np.random.default_rng(3)
    G = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    H = G.conj().T @ G + 0.5 * np.eye(5)
    T = cholesky(H)
    np.testing.assert_allclose(T, np.triu(T), atol=1e-14)
    np.testing.assert_allclose(T.conj().T @ T, H, atol=1e-10)


def test_cholesky_rejects_indefinite():
    with pytest.raises(DefinitenessError) as err:
        cholesky(np.diag([1.0, -0.5]))
    assert err.value.lambda_min == pytest.approx(-0.5, abs=1e-14)


def test_cholesky_rejects_nearly_singular_psd():
    with pytest.raises(DefinitenessError):
        cholesky(np.diag([1.0, 1e-14]))


def test_golden_section_min_quadratic():
    x, fx, evals = golden_section_min(lambda t: (t - 2.0) ** 2 + 3.0, 0.0, 5.0, 1e-10)
    # comparison-based search cannot separate values once (x - 2)^2 drops below
    # eps * 3, so the localization floor is ~sqrt(eps) even with a tiny bracket
    assert x == pytest.approx(2.0, abs=1e-7)
    assert fx == pytest.approx(3.0, abs=1e-14)
    assert evals > 0


def test_golden_section_min_takes_parabolic_steps_on_a_smooth_minimum():
    # the parabola through three points of a quadratic lands on its minimizer;
    # golden steps alone would need 54 evaluations for this bracket
    x, fx, evals = golden_section_min(lambda t: (t - 2.0) ** 2 + 3.0, 0.0, 5.0, 1e-10)
    assert evals <= 10
    assert x == pytest.approx(2.0, abs=1e-7)
    assert fx == pytest.approx(3.0, abs=1e-14)


def test_golden_section_min_kinked_objective():
    # unimodal but non-smooth at the minimizer, like the radius search
    x, fx, _ = golden_section_min(lambda t: max(t, 1.0 / t), 0.25, 4.0, 1e-12)
    assert x == pytest.approx(1.0, abs=1e-10)
    assert fx == pytest.approx(1.0, abs=1e-10)


def test_golden_section_min_rejects_bad_bracket():
    with pytest.raises(DomainError):
        golden_section_min(lambda t: t, 1.0, 1.0, 1e-8)
