"""Certificate matrices, their congruence relations, the perturbation frame,
and certificate classification."""

import numpy as np
import pytest

from passirad import StateSpaceModel
from passirad.errors import DefinitenessError, DomainError
from passirad.kernels import DEFAULT_TOL, cholesky
from passirad.experiments import random_passive_system
from passirad.kyp import (
    CertificateKind,
    _ds_scaled,
    apply_perturbation,
    build_W,
    build_What,
    build_Wtilde,
    classify_certificate,
    perturbation_frame,
)
from passirad.normalization import normalize
from passirad.riccati import closed_loop, riccati_residual
from passirad.system_model import simulate_dissipation

# eigenvalues of W(1) for {0.5, 1, 1, 1}: roots of t^2 - 1.75 t + 0.5,
# i.e. (1.75 -+ sqrt(1.0625)) / 2
W1_EIG_LO = 0.35961179679779245
W1_EIG_HI = 1.3903882032022076


def test_certificate_matrix_closed_form(m0):
    W = build_W(m0, np.eye(1))
    np.testing.assert_allclose(W, [[0.75, 0.5], [0.5, 1.0]], atol=1e-15)
    np.testing.assert_allclose(
        np.linalg.eigvalsh(W), [W1_EIG_LO, W1_EIG_HI], atol=1e-12
    )


def test_certificate_matrix_is_affine_in_X():
    rng = np.random.default_rng(2)
    n, m = 3, 2
    model = StateSpaceModel(
        0.4 * rng.standard_normal((n, n)),
        rng.standard_normal((n, m)),
        rng.standard_normal((m, n)),
        rng.standard_normal((m, m)) + 2 * np.eye(m),
    )
    X1 = np.eye(n)
    G = rng.standard_normal((n, n))
    X2 = G.T @ G + np.eye(n)
    t = 0.3
    np.testing.assert_allclose(
        build_W(model, t * X1 + (1 - t) * X2),
        t * build_W(model, X1) + (1 - t) * build_W(model, X2),
        atol=1e-12,
    )


def test_bordered_forms_congruence():
    # scaling the bordered form by diag(X, I, I) on both sides gives the
    # X-weighted variant, and its Schur complement is the certificate matrix
    rng = np.random.default_rng(9)
    n, m = 3, 2
    model = StateSpaceModel(
        0.4 * rng.standard_normal((n, n)) + 0.1j * rng.standard_normal((n, n)),
        rng.standard_normal((n, m)),
        rng.standard_normal((m, n)),
        rng.standard_normal((m, m)) + 3 * np.eye(m),
    )
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    X = G.conj().T @ G + np.eye(n)
    What = build_What(model, X)
    Wtilde = build_Wtilde(model, X)
    S = np.eye(2 * n + m, dtype=complex)
    S[:n, :n] = X
    np.testing.assert_allclose(S @ What @ S, Wtilde, atol=1e-10)
    # Schur complement of the leading X block
    schur = Wtilde[n:, n:] - Wtilde[n:, :n] @ np.linalg.solve(X, Wtilde[:n, n:])
    np.testing.assert_allclose(schur, build_W(model, X), atol=1e-10)


def test_bordered_form_rejects_singular_X(m0):
    with pytest.raises((DomainError, DefinitenessError)):
        build_What(m0, np.zeros((1, 1)))


def test_frame_patterns_at_minimal_size():
    frame = perturbation_frame(1, 1)
    np.testing.assert_array_equal(frame.E1, [[1, 0], [0, 0], [0, 1]])
    np.testing.assert_array_equal(frame.E2, [[0, 0], [1, 0], [0, 1]])
    np.testing.assert_allclose(frame.Ds, np.diag([1.0, 1.0, 1.0 / np.sqrt(2.0)]))


def test_frame_rows_are_orthonormal():
    for n, m in [(1, 1), (2, 3), (4, 1)]:
        frame = perturbation_frame(n, m)
        E = np.hstack([frame.E1, frame.E2])
        DsE = frame.Ds @ E
        np.testing.assert_allclose(
            DsE @ DsE.conj().T, np.eye(2 * n + m), atol=1e-14
        )


def test_apply_perturbation_reproduces_block_pattern():
    rng = np.random.default_rng(31)
    n, m = 2, 3
    frame = perturbation_frame(n, m)
    dA = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    dB = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    dC = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    dD = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    delta = np.block([[dA, dB], [dC, dD]])
    P = apply_perturbation(frame, delta)
    expected = np.block(
        [
            [np.zeros((n, n)), dA, dB],
            [dA.conj().T, np.zeros((n, n)), dC.conj().T],
            [dB.conj().T, dC, dD + dD.conj().T],
        ]
    )
    np.testing.assert_allclose(P, expected, atol=1e-14)
    np.testing.assert_allclose(P, P.conj().T, atol=1e-14)


def _complex_delta(rng, k):
    return rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))


@pytest.mark.parametrize("n, m", [(1, 1), (2, 3), (4, 1), (10, 2)])
def test_apply_perturbation_is_the_frame_formula_exactly(n, m):
    frame = perturbation_frame(n, m)
    delta = _complex_delta(np.random.default_rng(n + 10 * m), n + m)
    P = frame.E1 @ delta @ frame.E2.T
    assert np.array_equal(apply_perturbation(frame, delta), P + P.conj().T)


@pytest.mark.parametrize("n, m", [(5, 2), (40, 4)])
def test_ds_scaling_is_the_frame_product_exactly(n, m):
    model = random_passive_system(n, m, seed=3).model
    H = build_Wtilde(model, np.eye(n))
    Ds = perturbation_frame(n, m).Ds
    assert np.array_equal(_ds_scaled(H, m), Ds @ H @ Ds)


def test_classify_certificate_kinds(m0):
    inner = classify_certificate(m0, np.eye(1))
    assert inner.kind is CertificateKind.INTERIOR
    assert inner.lambda_min_W == pytest.approx(W1_EIG_LO, abs=1e-12)
    assert inner.lambda_min_X == pytest.approx(1.0, abs=1e-14)

    for x in (0.5, 2.0):
        edge = classify_certificate(m0, np.array([[x]]))
        assert edge.kind is CertificateKind.BOUNDARY, x
        assert abs(edge.lambda_min_W) <= 1e-10

    outer = classify_certificate(m0, np.array([[3.0]]))
    assert outer.kind is CertificateKind.OUTSIDE
    assert outer.lambda_min_W < 0


def test_classify_rejects_non_positive_X(m0):
    cert = classify_certificate(m0, np.array([[-1.0]]))
    assert cert.kind is CertificateKind.OUTSIDE


@pytest.mark.parametrize("side", [1.0 + 1e-3, 1.0 - 1e-3], ids=["above", "below"])
def test_x_definiteness_verdicts_agree_at_the_band_edge(side):
    # X = U diag(2, t) U^H sits a relative 1e-3 off the psd_tol dead band
    # psd_tol * max(||X||, 1) = 2 psd_tol; with A = B = C = 0 and D = I/2,
    # W(X) = diag(X, 1) is interior exactly when X > 0
    rng = np.random.default_rng(8)
    U, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    t = 2.0 * DEFAULT_TOL.psd_tol * side
    X = U @ np.diag([2.0, t]) @ U.conj().T
    model = StateSpaceModel(np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((1, 2)), [[0.5]])
    expected = side > 1.0

    assert (classify_certificate(model, X).kind is CertificateKind.INTERIOR) == expected
    for factor in (cholesky, lambda H: normalize(model, H)):
        try:
            factor(X)
            factored = True
        except DefinitenessError:
            factored = False
        assert factored == expected


def _simulate_dissipation(model, X):
    return simulate_dissipation(model, X, np.ones((model.m, 3)))


@pytest.mark.parametrize(
    "entry",
    [
        build_W,
        build_What,
        build_Wtilde,
        classify_certificate,
        normalize,
        riccati_residual,
        closed_loop,
        _simulate_dissipation,
    ],
    ids=lambda entry: entry.__name__.lstrip("_"),
)
@pytest.mark.parametrize("shape", [(2, 2), (1, 2)])
def test_wrong_size_X_is_rejected_by_name(m0, entry, shape):
    with pytest.raises(DomainError, match=r"X must be 1x1"):
        entry(m0, np.ones(shape))
