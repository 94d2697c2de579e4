"""Robustness margin machinery: certificate margins, model shifts,
unit-circle zero detection, and the two margin-sup procedures."""

import numpy as np
import pytest

from passirad import StateSpaceModel
from passirad.errors import DefinitenessError, DomainError
from passirad.kernels import Tolerances
from passirad.experiments import random_passive_system
from passirad.kyp import build_Wtilde
from passirad.passify import analyze_distance, constrained_distance
from passirad.radius import x_passivity_radius
from passirad.normalization import normalize
from passirad.riccati import extremal_solutions
from passirad import xi as xi_module
from passirad.xi import (
    ShiftDirection,
    XiMethod,
    XiResult,
    frequency_scan,
    gamma_xi_omega,
    has_unit_circle_zeros,
    optimal_certificate,
    shift_model,
    xi_roots_at_omega,
    xi_star,
    xi_sup_bisection,
    xi_sup_eigenvalue,
    xi_upper_bound,
)

# margin sup of {0.5, 1, 1, 1}: root of (1-xi)^3 - 1.25 (1-xi) + 0.5 = 0,
# in closed form (2.5 - sqrt(4.25)) / 2
XI_M0 = (2.5 - np.sqrt(4.25)) / 2.0


def _scaling_block(X, m):
    n = X.shape[0]
    D = np.zeros((2 * n + m, 2 * n + m), dtype=complex)
    D[:n, :n] = X
    D[n : 2 * n, n : 2 * n] = X
    D[2 * n :, 2 * n :] = 2.0 * np.eye(m)
    return D


# ---------------------------------------------------------------- xi_star


def test_xi_star_at_identity_matches_scaled_eigenvalue_oracle(m0):
    target = np.array(
        [
            [1.0, 0.5, 1.0 / np.sqrt(2.0)],
            [0.5, 1.0, 1.0 / np.sqrt(2.0)],
            [1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0), 1.0],
        ]
    )
    expected = np.linalg.eigvalsh(target)[0]
    assert xi_star(m0, np.eye(1)) == pytest.approx(expected, abs=1e-12)
    # identity is the optimal certificate for this model, so the margin
    # at identity equals the margin sup
    assert expected == pytest.approx(XI_M0, abs=1e-12)


def test_xi_star_boundary_certificate_is_zero(m0):
    assert xi_star(m0, np.array([[0.5]])) == 0.0
    assert xi_star(m0, np.array([[2.0]])) == 0.0


def test_xi_star_rejects_outside_certificate(m0):
    with pytest.raises(DefinitenessError):
        xi_star(m0, np.array([[3.0]]))


def test_xi_star_formula_agrees_with_feasibility_bisection():
    # reference computation: largest xi with the shifted LMI still feasible,
    # located by plain bisection on lambda_min
    for i, (n, m) in enumerate([(2, 1), (3, 2), (4, 2)]):
        nr = random_passive_system(n, m, seed=510 + i)
        model = nr.model
        ex = extremal_solutions(model)
        for t in (0.35, 0.65):
            X = t * ex.X_min + (1.0 - t) * ex.X_max
            star = xi_star(model, X)
            lo, hi = 0.0, 1.0 - 1e-12
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                Wt = build_Wtilde(model, X)
                shifted = Wt - mid * _scaling_block(X, m)
                if np.linalg.eigvalsh(shifted)[0] >= 0.0:
                    lo = mid
                else:
                    hi = mid
            assert star == pytest.approx(lo, abs=1e-7), (n, m, t)


def test_margin_inclusion_along_the_shift_family():
    # feasibility at a larger shift forces strict feasibility below it
    nr = random_passive_system(3, 2, seed=88)
    model = nr.model
    X = np.eye(3)
    star = xi_star(model, X)
    for xi_hi in np.linspace(0.2 * star, star, 5):
        for xi_lo in np.linspace(0.0, 0.9 * xi_hi, 4):
            W_hi = build_Wtilde(model, X) - xi_hi * _scaling_block(X, 2)
            W_lo = build_Wtilde(model, X) - xi_lo * _scaling_block(X, 2)
            if np.linalg.eigvalsh(W_hi)[0] >= -1e-10:
                assert np.linalg.eigvalsh(W_lo)[0] > 0.0


# ---------------------------------------------------------------- shifts


def test_forward_shift_closed_form(m0):
    sm = shift_model(m0, 0.2)
    assert sm.direction is ShiftDirection.FORWARD
    assert sm.xi == 0.2
    np.testing.assert_allclose(sm.model.A, [[0.625]], atol=1e-15)
    np.testing.assert_allclose(sm.model.B, [[1.25]], atol=1e-15)
    np.testing.assert_allclose(sm.model.C, [[1.25]], atol=1e-15)
    np.testing.assert_allclose(sm.model.D, [[1.0]], atol=1e-15)


def test_backward_shift_closed_form(m_neg):
    sm = shift_model(m_neg, 0.5, ShiftDirection.BACKWARD)
    np.testing.assert_allclose(sm.model.A, [[1.0 / 3.0]], atol=1e-15)
    np.testing.assert_allclose(sm.model.B, [[2.0 / 3.0]], atol=1e-15)
    np.testing.assert_allclose(sm.model.C, [[2.0 / 3.0]], atol=1e-15)
    np.testing.assert_allclose(sm.model.D, [[0.2]], atol=1e-15)


def test_shift_at_zero_is_identity(m0):
    sm = shift_model(m0, 0.0)
    np.testing.assert_array_equal(sm.model.system_matrix(), m0.system_matrix())


def test_shift_domain_limits(m0):
    with pytest.raises(DomainError):
        shift_model(m0, 1.0)
    with pytest.raises(DomainError):
        shift_model(m0, -1.0, ShiftDirection.BACKWARD)


def test_backward_shift_is_the_forward_shift_by_minus_xi():
    model = random_passive_system(3, 2, seed=4).model
    for xi in (0.3, 0.0, -0.5):
        bwd = shift_model(model, xi, ShiftDirection.BACKWARD)
        fwd = shift_model(model, -xi)
        assert bwd.direction is ShiftDirection.BACKWARD and bwd.xi == xi
        for name in ("A", "B", "C", "D"):
            assert np.array_equal(getattr(bwd.model, name), getattr(fwd.model, name)), (xi, name)


def test_shift_scaling_identity():
    # (1 -+ xi) Wtilde(X, shifted) = Wtilde(X, original) -+ xi diag(X, X, 2I)
    rng = np.random.default_rng(12)
    n, m = 3, 2
    model = StateSpaceModel(
        0.3 * rng.standard_normal((n, n)) + 0.1j * rng.standard_normal((n, n)),
        rng.standard_normal((n, m)),
        rng.standard_normal((m, n)),
        rng.standard_normal((m, m)) + 3 * np.eye(m),
    )
    G = rng.standard_normal((n, n))
    X = G.T @ G + np.eye(n)
    Wt = build_Wtilde(model, X)
    Dblk = _scaling_block(X, m)
    for xi in (0.1, 0.45, 0.8):
        fwd = shift_model(model, xi).model
        np.testing.assert_allclose(
            (1.0 - xi) * build_Wtilde(fwd, X), Wt - xi * Dblk, atol=1e-10
        )
        bwd = shift_model(model, xi, ShiftDirection.BACKWARD).model
        np.testing.assert_allclose(
            (1.0 + xi) * build_Wtilde(bwd, X), Wt + xi * Dblk, atol=1e-10
        )


def test_xi_upper_bound_is_one_minus_spectral_radius(m0, m_flat):
    assert xi_upper_bound(m0) == pytest.approx(0.5, abs=1e-15)
    assert xi_upper_bound(m_flat) == pytest.approx(1.0, abs=1e-15)


# ------------------------------------------------- unit-circle detection


def test_has_unit_circle_zeros_transitions_at_the_margin(m0):
    flag, zeros, stable = has_unit_circle_zeros(shift_model(m0, 0.0))
    assert not flag and stable and zeros.size == 0
    flag, zeros, stable = has_unit_circle_zeros(shift_model(m0, XI_M0))
    assert flag and stable
    # the scalar model loses strict passivity at the real axis crossing
    assert np.min(np.abs(np.mod(zeros, 2 * np.pi) - np.pi)) <= 1e-5


def test_has_unit_circle_zeros_static_model(m_flat):
    for xi in (0.0, 0.3, 0.9):
        flag, zeros, stable = has_unit_circle_zeros(shift_model(m_flat, xi))
        assert not flag and stable and zeros.size == 0


def test_frequency_scan_strictly_passive_predicate(m0, m_neg):
    scan = frequency_scan(m0)
    assert scan.strictly_passive and scan.passive and scan.stable
    assert scan.spectral_radius == pytest.approx(0.5, abs=1e-15)
    scan = frequency_scan(m_neg)
    assert not scan.strictly_passive and not scan.passive
    assert scan.stable
    assert scan.violations  # some arc of frequencies fails positivity


# ------------------------------------------------------- pencil in xi


def test_xi_roots_static_model_has_none(m_flat):
    for omega in (0.0, 0.7, np.pi):
        assert xi_roots_at_omega(m_flat, omega).size == 0


def test_xi_roots_scalar_model_at_pi(m0):
    roots = xi_roots_at_omega(m0, np.pi)
    assert roots.size >= 1
    assert roots[0] == pytest.approx(XI_M0, abs=1e-10)


def test_xi_roots_conjugate_symmetry(m0):
    r_plus = xi_roots_at_omega(m0, 0.9)
    r_minus = xi_roots_at_omega(m0, -0.9)
    np.testing.assert_allclose(r_plus, r_minus, atol=1e-10)


def test_display_matrix_static_model(m_flat):
    for omega in (0.0, 1.3, np.pi):
        assert gamma_xi_omega(m_flat, 0.0, omega) == pytest.approx(-1.0, abs=1e-12)


def test_display_matrix_periodicity(m0):
    for xi in (0.0, 0.1):
        assert gamma_xi_omega(m0, xi, 0.0) == pytest.approx(
            gamma_xi_omega(m0, xi, 2.0 * np.pi), abs=1e-12
        )


def test_display_matrix_stays_negative_for_passive_models(m0):
    # the zero diagonal block pins a negative eigenvalue at every frequency,
    # which is why arc detection works on the spectral density instead
    for omega in np.linspace(0.0, 2 * np.pi, 17):
        assert gamma_xi_omega(m0, 0.0, omega) < 0.0


# ------------------------------------------------------ margin procedures


def test_bisection_margin_scalar_model(m0):
    res = xi_sup_bisection(m0)
    assert res.method is XiMethod.BISECTION
    assert res.xi_hi - res.xi_lo <= 1e-8
    assert res.xi_lo <= XI_M0 <= res.xi_hi
    # ceil(log2(0.5 / 1e-8)) halvings of the initial bracket
    assert res.iterations == 26
    assert all(abs(w - np.pi) < 0.01 for w in res.witness_frequencies)


def test_eigenvalue_margin_scalar_model(m0):
    res = xi_sup_eigenvalue(m0)
    assert res.method is XiMethod.EIGENVALUE
    assert res.xi_hi - res.xi_lo <= 1e-8
    # the final level-set root lands on the margin itself
    assert res.xi_hi == pytest.approx(XI_M0, abs=1e-12)
    assert res.iterations <= 5


def test_procedures_agree_scalar_model(m0):
    b = xi_sup_bisection(m0)
    e = xi_sup_eigenvalue(m0)
    mid_b = 0.5 * (b.xi_lo + b.xi_hi)
    mid_e = 0.5 * (e.xi_lo + e.xi_hi)
    assert abs(mid_b - mid_e) <= 2e-8


def test_margin_of_static_model(m_flat):
    e = xi_sup_eigenvalue(m_flat)
    assert e.iterations == 1
    assert e.xi_lo == pytest.approx(1.0 - 1e-8, abs=1e-15)
    assert e.xi_hi == pytest.approx(1.0, abs=1e-15)
    b = xi_sup_bisection(m_flat)
    assert b.xi_hi == pytest.approx(1.0, abs=1e-12)
    assert b.xi_hi - b.xi_lo <= 1e-8


def test_margin_zero_on_boundary_model():
    # lowering d until beta = bc puts the model on the passivity boundary
    edge = StateSpaceModel([[0.5]], [[1.0]], [[1.0]], [[2.0 / 3.0]])
    res = xi_sup_bisection(edge)
    assert (res.xi_lo, res.xi_hi, res.iterations) == (0.0, 0.0, 0)
    with pytest.raises(DomainError):
        xi_sup_eigenvalue(edge)


def test_margin_rejects_bad_tau(m0):
    with pytest.raises(DomainError):
        xi_sup_bisection(m0, tau=0.0)
    with pytest.raises(DomainError):
        xi_sup_eigenvalue(m0, tau=-1e-9)


def test_bisection_width_defaults_to_the_tolerance_bundle(m0):
    # ceil(log2(0.5 / 1e-4)) = 13 halvings of [0, 1 - rho(A)]
    assert xi_sup_bisection(m0, tol=Tolerances(bisect_tau=1e-4)).iterations == 13


def test_every_shift_search_reads_its_width_from_tol_when_tau_is_none(m0, m_neg):
    tol = Tolerances(bisect_tau=1e-4)
    assert xi_sup_eigenvalue(m0, tol=tol) == xi_sup_eigenvalue(m0, 1e-4)
    assert constrained_distance(m_neg, tol=tol)[0] == constrained_distance(m_neg, 1e-4)[0]
    assert analyze_distance(m_neg, tol=tol).xi_big == analyze_distance(m_neg, 1e-4, tol=tol).xi_big
    with pytest.raises(DomainError):
        constrained_distance(m_neg, tau=0.0)


def test_margin_rejects_hidden_unstable_modes():
    bad = StateSpaceModel([[1.5]], [[0.0]], [[0.0]], [[1.0]])
    with pytest.raises(DomainError):
        xi_sup_bisection(bad)
    with pytest.raises(DomainError):
        xi_sup_eigenvalue(bad)


def test_procedures_agree_on_random_ensemble():
    for i, (n, m) in enumerate([(2, 1), (3, 2), (4, 1), (5, 2)]):
        nr = random_passive_system(n, m, seed=700 + i)
        b = xi_sup_bisection(nr.model)
        e = xi_sup_eigenvalue(nr.model)
        mid_b = 0.5 * (b.xi_lo + b.xi_hi)
        mid_e = 0.5 * (e.xi_lo + e.xi_hi)
        assert abs(mid_b - mid_e) <= 2e-8, (n, m)


def test_shifted_model_computes_its_own_spectrum():
    base = random_passive_system(5, 2, seed=31).model
    rho = base.spectral_radius  # fills the base model's cache first
    for xi in (0.1, 0.4, -0.3):
        direction = ShiftDirection.FORWARD if xi > 0 else ShiftDirection.BACKWARD
        shifted = shift_model(base, abs(xi), direction).model
        assert shifted.spectral_radius == pytest.approx(rho / (1.0 - xi), rel=1e-12)


def test_real_and_complex_realizations_agree(real_passive_system):
    # a complex unitary similarity of a real model: the same transfer
    # function carried by complex data
    tau = 1e-8
    for seed in range(3):
        model = real_passive_system(6, 2, seed)
        rng = np.random.default_rng(100 + seed)
        U, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        twin = StateSpaceModel(U.conj().T @ model.A @ U, U.conj().T @ model.B, model.C @ U, model.D)
        results = [xi_sup_bisection(m, tau) for m in (model, twin)]
        results += [xi_sup_eigenvalue(m, tau) for m in (model, twin)]
        lows = [r.xi_lo for r in results]
        assert max(lows) - min(lows) <= 2 * tau, (seed, lows)
        # past the margin both realizations see the same circle zeros
        xi = 0.5 * (results[0].xi_hi + xi_upper_bound(model))
        zeros = [frequency_scan(shift_model(m, xi).model).zeros for m in (model, twin)]
        assert len(zeros[0]) > 0
        np.testing.assert_allclose(zeros[1], zeros[0], rtol=0.0, atol=1e-8)


def test_certificate_margins_never_exceed_the_sup():
    nr = random_passive_system(3, 2, seed=61)
    model = nr.model
    b = xi_sup_bisection(model)
    ex = extremal_solutions(model)
    for t in np.linspace(0.1, 0.9, 7):
        X = t * ex.X_min + (1.0 - t) * ex.X_max
        assert xi_star(model, X) <= b.xi_hi + 1e-6


def test_optimal_certificate_attains_the_margin(m0):
    res = xi_sup_bisection(m0)
    X = optimal_certificate(m0, res.xi_lo)
    assert xi_star(m0, X) >= XI_M0 - 1e-6
    nr = normalize(m0, X)
    rep = x_passivity_radius(nr.model, np.eye(1))
    assert rep.rho >= XI_M0 - 1e-6


# ------------------------------------ cheap-first steps and the real screen


def _scan_only_bisection(model, tau=1e-8):
    """The bisection with a full frequency scan at every level."""
    scan0 = frequency_scan(model)
    if not scan0.strictly_passive:
        return XiResult(0.0, 0.0, 0, XiMethod.BISECTION, scan0.zeros)
    lo, hi = 0.0, xi_upper_bound(model)
    witness, steps = (), 0
    while hi - lo > tau:
        steps += 1
        mid = 0.5 * (lo + hi)
        scan = frequency_scan(shift_model(model, mid).model)
        if scan.strictly_passive:
            lo = mid
        else:
            hi, witness = mid, scan.zeros
    return XiResult(lo, hi, steps, XiMethod.BISECTION, witness)


@pytest.mark.parametrize("name", ["m0", "real", "complex"])
def test_probe_shortcuts_leave_the_bisection_result_unchanged(name, m0, real_passive_system):
    complex_model = random_passive_system(8, 2, seed=41).model
    model = {"m0": m0, "real": real_passive_system(8, 2, 5), "complex": complex_model}[name]
    res = xi_sup_bisection(model)
    assert res == _scan_only_bisection(model)
    assert res.witness_frequencies


def test_bisection_makes_few_complex_pencil_solves_on_real_data(real_passive_system, monkeypatch):
    model = real_passive_system(8, 2, 5)
    calls = []
    solve = xi_module.pencil_eigenvalues
    monkeypatch.setattr(xi_module, "pencil_eigenvalues", lambda m: calls.append(1) or solve(m))
    res = xi_sup_bisection(model)
    # a scan at the unshifted model and at each level would make iterations + 1
    assert len(calls) <= (res.iterations + 1) / 2, (len(calls), res.iterations)


@pytest.mark.parametrize("name", ["m0", "m_flat", "real"])
def test_real_screen_matches_the_complex_path_around_the_margin(
    name, m0, m_flat, real_passive_system, monkeypatch
):
    model = {"m0": m0, "m_flat": m_flat, "real": real_passive_system(8, 2, 5)}[name]
    res = xi_sup_bisection(model)
    lo, hi = res.xi_lo, res.xi_hi
    levels = [lo, hi, hi - 1e-12, hi + 1e-12, 0.5 * (lo + hi)]
    levels += [XI_M0] if name == "m0" else []
    models = [shift_model(model, x).model for x in levels if x < 1.0]
    tol = Tolerances()
    screened = [xi_module._circle_zero_frequencies(m, tol) for m in models]
    # a screen that always finds an eigenvalue near the circle falls through
    monkeypatch.setattr(xi_module, "_pencil_spectrum", lambda K, L: np.ones(1))
    complex_only = [xi_module._circle_zero_frequencies(m, tol) for m in models]
    assert len(models) >= 3
    for a, b in zip(screened, complex_only):
        assert np.array_equal(a, b), (a, b)
