"""Model file parsing, CSV emission, and the command-line pipeline."""

import csv
import io
import json

import numpy as np
import pytest

from passirad.cli import emit_csv, main, parse_model, write_model
from passirad.errors import DomainError
from passirad.experiments import SweepRow
from passirad.system_model import StateSpaceModel

M0_DOC = {
    "schema_version": "1",
    "n": 1,
    "m": 1,
    "A": [[[0.5, 0.0]]],
    "B": [[[1.0, 0.0]]],
    "C": [[[1.0, 0.0]]],
    "D": [[[1.0, 0.0]]],
}


def _write_doc(tmp_path, doc, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def m0_path(tmp_path):
    return _write_doc(tmp_path, M0_DOC)


@pytest.fixture
def m_neg_path(tmp_path):
    doc = dict(M0_DOC)
    doc["D"] = [[[-0.2, 0.0]]]
    return _write_doc(tmp_path, doc, name="neg.json")


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------- model file


def test_parse_minimal_model(m0_path):
    model, X = parse_model(m0_path)
    assert X is None
    np.testing.assert_array_equal(
        model.system_matrix(), [[0.5, 1.0], [1.0, 1.0]]
    )


def test_parse_model_with_certificate(tmp_path):
    doc = dict(M0_DOC)
    doc["X"] = [[[1.25, 0.0]]]
    model, X = parse_model(_write_doc(tmp_path, doc))
    np.testing.assert_array_equal(X, [[1.25]])


def test_parse_complex_entries(tmp_path):
    doc = dict(M0_DOC)
    doc["A"] = [[[0.5, -0.25]]]
    model, _ = parse_model(_write_doc(tmp_path, doc))
    assert model.A[0, 0] == 0.5 - 0.25j


def test_parse_rejects_wrong_shape_naming_the_field(tmp_path):
    doc = dict(M0_DOC)
    doc["B"] = [[[1.0, 0.0]], [[2.0, 0.0]]]
    with pytest.raises(DomainError, match="B"):
        parse_model(_write_doc(tmp_path, doc))


def test_parse_rejects_non_finite(tmp_path):
    doc = dict(M0_DOC)
    doc["A"] = [[[float("nan"), 0.0]]]
    with pytest.raises(DomainError):
        parse_model(_write_doc(tmp_path, doc))


def test_parse_rejects_unknown_schema(tmp_path):
    doc = dict(M0_DOC)
    doc["schema_version"] = "999"
    with pytest.raises(DomainError, match="schema"):
        parse_model(_write_doc(tmp_path, doc))


def test_parse_rejects_malformed_entry(tmp_path):
    doc = dict(M0_DOC)
    doc["A"] = [[0.5]]  # bare float instead of a [re, im] pair
    with pytest.raises(DomainError, match="A"):
        parse_model(_write_doc(tmp_path, doc))


def test_write_read_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(3)
    model = StateSpaceModel(
        0.3 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))),
        rng.standard_normal((2, 1)),
        rng.standard_normal((1, 2)),
        rng.standard_normal((1, 1)),
    )
    X = np.eye(2) + 0.125j * np.array([[0.0, 1.0], [-1.0, 0.0]])
    path = str(tmp_path / "round.json")
    write_model(model, path, X=X)
    back, X_back = parse_model(path)
    np.testing.assert_array_equal(back.A, model.A)
    np.testing.assert_array_equal(back.B, model.B)
    np.testing.assert_array_equal(back.C, model.C)
    np.testing.assert_array_equal(back.D, model.D)
    np.testing.assert_array_equal(X_back, X)


# -------------------------------------------------------------------- CSV


def test_emit_csv_header_only():
    buf = io.StringIO()
    emit_csv([], buf, fieldnames=["a", "b"])
    assert buf.getvalue() == "a,b\r\n"


def test_emit_csv_single_row_round_trips_to_the_ulp():
    row = SweepRow(
        t=np.pi / 3.0,
        b_t=1.0 / 3.0,
        c_t=3.0,
        rho_t=0.1234567890123456789,
        lam_w_t=1e-300,
        lam_ds_t=-2.5e-17,
    )
    buf = io.StringIO()
    emit_csv([row], buf)
    lines = buf.getvalue().split("\r\n")
    assert lines[0] == "t,b_t,c_t,rho_t,lam_w_t,lam_ds_t"
    values = next(csv.reader([lines[1]]))
    parsed = [float(v) for v in values]
    assert parsed == [row.t, row.b_t, row.c_t, row.rho_t, row.lam_w_t, row.lam_ds_t]


# ---------------------------------------------------------------- commands


def test_analyze_command(m0_path, capsys):
    code, out, _ = _run(capsys, ["analyze", "--model", m0_path])
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "analyze"
    res = report["results"]
    assert res["minimal"] and res["strictly_passive"]
    assert res["spectral_radius"] == pytest.approx(0.5)
    assert res["xi_upper_bound"] == pytest.approx(0.5)


def test_analyze_determinism_modulo_timestamp(m0_path, capsys):
    _, out1, _ = _run(capsys, ["analyze", "--model", m0_path])
    _, out2, _ = _run(capsys, ["analyze", "--model", m0_path])
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("timestamp"), r2.pop("timestamp")
    assert r1 == r2


def test_radius_command_with_explicit_certificate(m0_path, capsys):
    code, out, _ = _run(capsys, ["radius", "--model", m0_path, "--x", "1.0"])
    assert code == 0
    res = json.loads(out)["results"]
    assert res["rho"] == pytest.approx((2.5 - np.sqrt(4.25)) / 2.0, abs=1e-8)
    assert res["bound_lower"] <= res["rho"] <= res["bound_upper"]
    assert res["singularity_residual"] <= 1e-8


def test_radius_command_derives_a_certificate(m0_path, capsys):
    code, out, _ = _run(capsys, ["radius", "--model", m0_path])
    assert code == 0
    assert json.loads(out)["results"]["rho"] > 0


def test_xi_command_reports_agreement(m0_path, capsys):
    code, out, _ = _run(capsys, ["xi", "--model", m0_path, "--tau", "1e-8"])
    assert code == 0
    res = json.loads(out)["results"]
    assert res["agreement"] is True
    for key in ("bisection", "eigenvalue"):
        assert res[key]["xi_hi"] - res[key]["xi_lo"] <= 1e-8
    assert res["eigenvalue"]["xi_hi"] == pytest.approx(
        (2.5 - np.sqrt(4.25)) / 2.0, abs=1e-10
    )


def test_xi_command_honors_tau(m0_path, capsys):
    code, out, _ = _run(capsys, ["xi", "--model", m0_path, "--tau", "1e-4"])
    assert code == 0
    res = json.loads(out)["results"]
    assert res["bisection"]["xi_hi"] - res["bisection"]["xi_lo"] <= 1e-4
    assert res["bisection"]["iterations"] == 13  # ceil(log2(0.5 / 1e-4))


def test_tau_and_tol_bisect_set_one_width_and_the_later_wins(m0_path, capsys):
    for flags in (["--tau", "1e-4"], ["--tol-bisect", "1e-4"], ["--tau", "1e-3", "--tol-bisect", "1e-4"]):
        code, out, _ = _run(capsys, ["xi", "--model", m0_path] + flags)
        assert code == 0
        report = json.loads(out)
        assert report["tolerances"]["bisect_tau"] == 1e-4
        assert report["results"]["bisection"]["iterations"] == 13


def test_passify_command(m_neg_path, capsys):
    code, out, _ = _run(capsys, ["passify", "--model", m_neg_path])
    assert code == 0
    res = json.loads(out)["results"]
    assert res["xi_big"] == pytest.approx(0.66244048, abs=1e-6)
    assert res["sigma2"] <= res["constrained_norm2"] + 1e-12


def test_stability_command(tmp_path, capsys):
    doc = dict(M0_DOC)
    doc["A"] = [[[1.5, 0.0]]]
    path = _write_doc(tmp_path, doc, name="unstable.json")
    code, out, _ = _run(capsys, ["stability", "--model", path])
    assert code == 0
    res = json.loads(out)["results"]
    assert res["xi"] == pytest.approx(0.5, abs=1e-12)
    assert res["attained"] is True


def test_normalize_command_writes_a_loadable_model(m0_path, tmp_path, capsys):
    out_path = str(tmp_path / "normed.json")
    code, out, _ = _run(
        capsys, ["normalize", "--model", m0_path, "--out", out_path]
    )
    assert code == 0
    model, X = parse_model(out_path)
    np.testing.assert_allclose(X, np.eye(1), atol=1e-14)
    assert json.loads(out)["results"]["verified"] is True


def test_experiment_scalar_streams_csv(capsys):
    code, out, _ = _run(
        capsys,
        ["experiment", "scalar", "--a", "0.5", "--b", "1", "--c", "1", "--d", "1"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,b_t,c_t,rho_t,lam_w_t,lam_ds_t"
    assert len(lines) == 42  # header + default grid


def test_experiment_ensemble_writes_file_and_report(tmp_path, capsys):
    out_path = str(tmp_path / "rows.csv")
    code, out, _ = _run(
        capsys,
        [
            "experiment", "ensemble",
            "--count", "2", "--n", "2", "--m", "1",
            "--seed", "3", "--out", out_path,
        ],
    )
    assert code == 0
    report = json.loads(out)
    assert report["results"]["rows"] == 2
    with open(out_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert 0.5 <= float(rows[0]["ratio_ds"]) <= 1.0


def test_domain_failures_exit_two(m_neg_path, capsys):
    code, out, err = _run(capsys, ["radius", "--model", m_neg_path, "--x", "1.0"])
    assert code == 2
    payload = json.loads(err)
    assert payload["error_kind"] == "DefinitenessError"


def test_missing_model_file_exits_two(capsys):
    code, _, err = _run(capsys, ["analyze", "--model", "/nonexistent/x.json"])
    assert code == 2
    assert "error" in json.loads(err)


def test_usage_errors_exit_sixty_four(capsys):
    assert _run(capsys, ["radius", "--bogus", "z"])[0] == 64
    assert _run(capsys, ["not-a-command"])[0] == 64
    assert _run(capsys, [])[0] == 64
