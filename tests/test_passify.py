"""Distance from a non-passive model to passivity, and to stability."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import brentq

from passirad import StateSpaceModel
from passirad import passify as passify_module
from passirad import xi as xi_module
from passirad.errors import DomainError
from passirad.experiments import random_passive_system
from passirad.kernels import DEFAULT_TOL, psd_margin
from passirad.kyp import (
    CertificateKind,
    apply_perturbation,
    build_W,
    build_What,
    classify_certificate,
    perturbation_frame,
)
from passirad.passify import (
    analyze_distance,
    constrained_distance,
    distance_to_stability,
    pick_certificate,
    refine_distance,
)
from passirad.riccati import _stabilizing_solution
from passirad.xi import ShiftDirection, frequency_scan, shift_model


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def passify_pool():
    """The first four models of the benchmark's passify pool at seed 1, with
    their default-tau distance reports."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        models = [task.model for task in module.Passify(1).make(1, 0, 4)]
    finally:
        del sys.modules[spec.name]
    return [(model, analyze_distance(model)) for model in models]


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
    # two-state stable model pushed off passivity through D only; its least
    # D-only shift is larger than the constrained perturbation, which is kept
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


@pytest.mark.parametrize("index", range(4))
def test_passified_pool_models_are_passive_and_certified(passify_pool, index):
    model, rep = passify_pool[index]
    pert = _apply_system_delta(model, rep.delta_refined)
    assert frequency_scan(pert).passive
    kind = classify_certificate(pert, rep.X_cert.X).kind
    assert kind in (CertificateKind.INTERIOR, CertificateKind.BOUNDARY)
    assert rep.sigma2 <= np.linalg.norm(rep.delta_constrained, 2)


@pytest.mark.parametrize("index", range(4))
def test_refined_perturbation_is_the_least_d_only_shift(passify_pool, index):
    model, rep = passify_pool[index]
    n, m = model.n, model.m
    c = rep.delta_refined[n, n].real
    expected = np.zeros_like(rep.delta_refined)
    expected[n:, n:] = c * np.eye(m)
    assert np.array_equal(rep.delta_refined, expected)
    assert rep.sigma2 == pytest.approx(c, rel=1e-14)
    # the bracket below the returned level is at most tau wide
    tau = DEFAULT_TOL.bisect_tau
    below = StateSpaceModel(model.A, model.B, model.C, model.D + (c - 2.0 * tau) * np.eye(m))
    assert not frequency_scan(below).passive


@pytest.mark.parametrize("index", range(4))
def test_distance_searches_need_few_frequency_scans(passify_pool, index, monkeypatch):
    # both searches are level sets: a few scans each, where doubling from
    # tau and bisecting took about 71 per model
    calls = []
    for module in (xi_module, passify_module):
        original = module.frequency_scan

        def counted(*args, _original=original, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, "frequency_scan", counted)
    analyze_distance(passify_pool[index][0])
    assert 0 < len(calls) <= 12


def _assert_xi_big_is_the_least_passive_backward_shift(model, xi_big):
    tau = DEFAULT_TOL.bisect_tau
    at = shift_model(model, xi_big, ShiftDirection.BACKWARD).model
    assert frequency_scan(at).passive
    below = shift_model(model, xi_big - tau, ShiftDirection.BACKWARD).model
    assert not frequency_scan(below).passive


@pytest.mark.parametrize("index", range(4))
def test_xi_big_is_the_least_passive_backward_shift_on_the_pool(passify_pool, index):
    model, rep = passify_pool[index]
    _assert_xi_big_is_the_least_passive_backward_shift(model, rep.xi_big)


@pytest.mark.parametrize("seed", range(3))
def test_unstable_model_keeps_the_constrained_perturbation(seed):
    # no D-only shift moves the poles, so delta0 is kept; xi_big must at
    # least shrink A into the unit disc
    base = random_passive_system(6, 2, seed=seed).model
    rho = 1.05
    model = StateSpaceModel(
        base.A * (rho / base.spectral_radius), base.B, base.C, base.D - 0.3 * np.eye(2)
    )
    rep = analyze_distance(model)
    assert rep.xi_big >= model.spectral_radius - 1.0
    _assert_xi_big_is_the_least_passive_backward_shift(model, rep.xi_big)
    assert np.array_equal(rep.delta_refined, rep.delta_constrained)


def test_constrained_perturbation_is_kept_where_the_d_only_shift_is_larger(m_neg):
    two_state = StateSpaceModel(
        [[0.3, 0.2], [0.0, 0.1]],
        [[1.0], [0.5]],
        [[0.8, 0.3]],
        [[-0.4]],
    )
    for model in (m_neg, two_state):
        rep = analyze_distance(model)
        assert np.array_equal(rep.delta_refined, rep.delta_constrained)
        delta, sigma, converged = refine_distance(model, rep.delta_constrained)
        assert np.array_equal(delta, rep.delta_constrained)
        assert sigma == np.linalg.norm(rep.delta_constrained, 2)
        assert converged


@pytest.mark.parametrize("tau", [1e-4, 1e-6])
def test_analyze_distance_refines_at_a_coarse_tau(m_neg, tau):
    # a given tau sets the bracket width of the shift search and of the
    # D-only search alike
    report = analyze_distance(m_neg, tau)
    assert abs(report.xi_big - _neg_shift_oracle()) <= tau
    assert report.sigma2 <= np.linalg.norm(report.delta_constrained, 2)


def test_passive_model_certificate_is_the_stabilizing_solution_at_level_minus_tau():
    # an extremal midpoint would need X_max, whose solve raises ConditioningError here
    model = random_passive_system(20, 2, seed=0).model
    report = analyze_distance(model)
    assert report.xi_big == 0.0
    assert report.delta_refined is None
    tau = DEFAULT_TOL.bisect_tau
    X = _stabilizing_solution(shift_model(model, -tau).model, DEFAULT_TOL)[0]
    assert np.array_equal(report.X_cert.X, X)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1 (second defect): on m_neg the constrained Delta is kept at level "
    "xi_big while X_cert is the stabilizing solution at xi_big + tau, so the bordered "
    "matrix is indefinite by about tau",
)
@pytest.mark.parametrize("tau", [1e-3, 1e-4])
def test_refined_perturbation_keeps_the_certificate_psd(m_neg, tau):
    report = analyze_distance(m_neg, tau)
    frame = perturbation_frame(m_neg.n, m_neg.m)
    G = build_What(m_neg, report.X_cert.X) + apply_perturbation(frame, report.delta_refined)
    lam, scale = psd_margin(G)
    assert lam >= -DEFAULT_TOL.psd_tol * scale


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
    reason="ROADMAP item 12 (the stability band): the peripheral band "
    "max(1e-8, 10 eps^(1/n)) pulls the near-defective inner block into the cluster "
    "of the simple eigenvalue 1",
)
def test_stability_distance_near_defective_inner_block():
    J = np.array([[0.99999, 1.0], [0.0, 0.99999]])
    res = distance_to_stability(scipy.linalg.block_diag(J, 1.0))
    assert res.xi == 0.0
    assert res.attained
