"""Distance from a non-passive model to passivity, and to stability."""

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import brentq

from passirad import StateSpaceModel
from passirad.errors import DomainError
from passirad.kyp import CertificateKind, build_W
from passirad.passify import (
    analyze_distance,
    constrained_distance,
    distance_to_stability,
    pick_certificate,
    refine_distance,
)
from passirad.xi import ShiftDirection, frequency_scan, shift_model


def _neg_shift_oracle():
    # for {0.5, 1, 1, -0.2} the backward-shifted model is passive iff
    # (s^2 - a^2)(d + xi) + abc - bc s >= 0 with s = 1 + xi, i.e. the first
    # positive root of s^3 - 1.2 s^2 - 1.25 s + 0.8
    f = lambda s: s**3 - 1.2 * s**2 - 1.25 * s + 0.8
    return brentq(f, 1.0, 3.0, xtol=1e-14) - 1.0


def _apply_system_delta(model, delta):
    n = model.n
    return StateSpaceModel(
        model.A + delta[:n, :n],
        model.B + delta[:n, n:],
        model.C + delta[n:, :n],
        model.D + delta[n:, n:],
    )


def test_constrained_distance_matches_scalar_oracle(m_neg):
    xi_big, delta = constrained_distance(m_neg)
    assert xi_big == pytest.approx(_neg_shift_oracle(), abs=1e-6)
    # the constrained perturbation is exactly the backward shift in
    # system-matrix form
    shifted = shift_model(m_neg, xi_big, ShiftDirection.BACKWARD).model
    np.testing.assert_allclose(
        _apply_system_delta(m_neg, delta).system_matrix(),
        shifted.system_matrix(),
        atol=1e-13,
    )
    assert frequency_scan(shifted).passive


def test_constrained_distance_brackets_the_boundary(m_neg):
    tau = 1e-8
    xi_big, _ = constrained_distance(m_neg, tau=tau)
    above = shift_model(m_neg, xi_big + tau, ShiftDirection.BACKWARD).model
    assert frequency_scan(above).passive
    below = shift_model(m_neg, xi_big - tau, ShiftDirection.BACKWARD).model
    assert not frequency_scan(below).passive


def test_constrained_distance_of_passive_model_is_zero(m0):
    xi_big, delta = constrained_distance(m0)
    assert xi_big == 0.0
    assert np.all(delta == 0.0)


def test_certificate_for_the_perturbed_model(m_neg):
    xi_big, delta = constrained_distance(m_neg)
    cert = pick_certificate(m_neg, xi_big)
    assert cert.kind in (CertificateKind.INTERIOR, CertificateKind.BOUNDARY)
    assert np.linalg.eigvalsh(cert.X)[0] > 0
    pert = _apply_system_delta(m_neg, delta)
    W = build_W(pert, cert.X)
    scale = max(np.linalg.norm(W, 2), 1.0)
    assert np.linalg.eigvalsh(W)[0] >= -1e-6 * scale


def test_refinement_never_does_worse(m_neg):
    for norm in ("2", "fro"):
        rep = analyze_distance(m_neg, norm=norm)
        ord_ = 2 if norm == "2" else "fro"
        assert np.linalg.norm(rep.delta_refined, ord_) <= np.linalg.norm(
            rep.delta_constrained, ord_
        ) + 1e-12
        pert = _apply_system_delta(m_neg, rep.delta_refined)
        assert frequency_scan(pert).passive


def test_refinement_improves_a_two_state_model():
    # two-state stable model pushed off passivity through D only; the
    # unstructured refinement may spread the correction over all blocks
    model = StateSpaceModel(
        [[0.3, 0.2], [0.0, 0.1]],
        [[1.0], [0.5]],
        [[0.8, 0.3]],
        [[-0.4]],
    )
    assert not frequency_scan(model).passive
    rep = analyze_distance(model)
    assert rep.sigma2 <= np.linalg.norm(rep.delta_constrained, 2) + 1e-12
    pert = _apply_system_delta(model, rep.delta_refined)
    assert frequency_scan(pert).passive
    # report norms describe the refined perturbation
    assert rep.sigma2 == pytest.approx(np.linalg.norm(rep.delta_refined, 2), abs=1e-12)
    assert rep.sigma_frob == pytest.approx(
        np.linalg.norm(rep.delta_refined, "fro"), abs=1e-12
    )


@pytest.mark.parametrize("tau", [1e-4, 1e-6])
def test_analyze_distance_refines_at_a_coarse_tau(m_neg, tau):
    # the refinement's feasibility band follows the given tau, so a start
    # bracketed to width tau is feasible there
    report = analyze_distance(m_neg, tau)
    assert abs(report.xi_big - _neg_shift_oracle()) <= tau
    assert report.sigma2 <= np.linalg.norm(report.delta_constrained, 2)


def test_refine_distance_respects_tiny_budget(m_neg):
    xi_big, delta0 = constrained_distance(m_neg)
    cert = pick_certificate(m_neg, xi_big)
    delta, attained, converged = refine_distance(
        m_neg, cert.X, delta0, budget=5
    )
    assert attained <= np.linalg.norm(delta0, 2) + 1e-12
    pert = _apply_system_delta(m_neg, delta)
    assert frequency_scan(pert).passive


def test_distance_rejects_hidden_unstable_modes():
    bad = StateSpaceModel([[1.5]], [[0.0]], [[0.0]], [[-1.0]])
    with pytest.raises(DomainError):
        constrained_distance(bad)


# ------------------------------------------------- distance to stability


def test_stability_distance_stable_matrix_is_zero():
    res = distance_to_stability(np.diag([0.3, -0.5]))
    assert res.xi == 0.0
    assert res.attained
    assert res.relative_error == 0.0


def test_stability_distance_scalar_cases():
    res = distance_to_stability(np.array([[1.5]]))
    assert res.xi == pytest.approx(0.5, abs=1e-12)
    assert res.attained
    assert res.relative_error == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert res.spectral_radius == pytest.approx(1.5, abs=1e-14)

    res = distance_to_stability(np.array([[2.0]]))
    assert res.xi == pytest.approx(1.0, abs=1e-12)
    assert res.attained


def test_stability_distance_defective_peripheral_modes():
    # a Jordan block on the shrunk circle keeps the infimum unattained
    res = distance_to_stability(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert res.xi == 0.0
    assert not res.attained

    res = distance_to_stability(np.array([[1.2, 1.0], [0.0, 1.2]]))
    assert res.xi == pytest.approx(0.2, abs=1e-12)
    assert not res.attained
    assert res.relative_error == pytest.approx(0.2 / 1.2, abs=1e-12)


def test_stability_distance_semisimple_peripheral_modes():
    res = distance_to_stability(np.diag([1.2, 1.2, 0.5]))
    assert res.xi == pytest.approx(0.2, abs=1e-12)
    assert res.attained


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 5: the peripheral band max(1e-8, 10 eps^(1/n)) pulls the "
    "near-defective inner block into the cluster of the simple eigenvalue 1",
)
def test_stability_distance_near_defective_inner_block():
    J = np.array([[0.99999, 1.0], [0.0, 0.99999]])
    res = distance_to_stability(scipy.linalg.block_diag(J, 1.0))
    assert res.xi == 0.0
    assert res.attained
