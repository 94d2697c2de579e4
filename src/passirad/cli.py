"""Command-line front end: model file I/O, analysis commands, CSV emission.

Model files are JSON with complex entries encoded as [re, im] pairs:

    {"schema_version": "1", "n": 1, "m": 1,
     "A": [[[0.5, 0.0]]], "B": [[[1.0, 0.0]]],
     "C": [[[1.0, 0.0]]], "D": [[[1.0, 0.0]]],
     "X": [[[1.0, 0.0]]]}          # optional certificate

Exit codes: 0 success, 2 domain error (bad model, infeasible request),
1 internal error, 64 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
from typing import IO, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .errors import DomainError, PassiradError
from .kernels import DEFAULT_TOL, Tolerances
from .kyp import classify_certificate
from .normalization import normalize, verify_normalized
from .passify import analyze_distance, distance_to_stability
from .radius import dual_certificate, x_passivity_radius
from .riccati import extremal_solutions
from .experiments import EnsembleRow, SweepRow, ensemble_experiment, scalar_sweep
from .system_model import StateSpaceModel, validate_minimal
from .xi import (
    frequency_scan,
    optimal_certificate,
    xi_star,
    xi_sup_bisection,
    xi_sup_eigenvalue,
    xi_upper_bound,
)

SCHEMA_VERSIONS = ("1",)

__all__ = ["main", "parse_model", "write_model", "emit_csv"]


class _Parser(argparse.ArgumentParser):
    """argparse variant with the documented usage exit code."""

    def error(self, message: str):
        self.exit(64, f"{self.prog}: error: {message}\n")


def _decode_matrix(raw, name: str, rows: int, cols: int) -> np.ndarray:
    if not isinstance(raw, list) or len(raw) != rows:
        raise DomainError(f"field {name!r}: expected {rows} rows")
    out = np.zeros((rows, cols), dtype=np.complex128)
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != cols:
            raise DomainError(f"field {name!r}, row {i}: expected {cols} entries")
        for j, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(isinstance(v, (int, float)) for v in entry)
            ):
                raise DomainError(
                    f"field {name!r}, row {i}, column {j}: expected an [re, im] pair"
                )
            re, im = float(entry[0]), float(entry[1])
            if not (np.isfinite(re) and np.isfinite(im)):
                raise DomainError(f"field {name!r}, row {i}, column {j}: non-finite entry")
            out[i, j] = complex(re, im)
    return out


def _encode_matrix(M: np.ndarray) -> list:
    A = np.atleast_2d(np.asarray(M, dtype=np.complex128))
    return [[[float(v.real), float(v.imag)] for v in row] for row in A]


def parse_model(path: str) -> Tuple[StateSpaceModel, Optional[np.ndarray]]:
    """Read a model file; returns the model and its optional certificate."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read model file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(
            f"malformed model file {path!r}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise DomainError(f"model file {path!r}: top level must be an object")
    version = raw.get("schema_version")
    if version not in SCHEMA_VERSIONS:
        raise DomainError(
            f"model file {path!r}: unsupported schema_version {version!r}"
        )
    for field in ("n", "m", "A", "B", "C", "D"):
        if field not in raw:
            raise DomainError(f"model file {path!r}: missing field {field!r}")
    n, m = raw["n"], raw["m"]
    if not (isinstance(n, int) and isinstance(m, int) and n >= 1 and m >= 1):
        raise DomainError(f"model file {path!r}: n and m must be integers >= 1")
    A = _decode_matrix(raw["A"], "A", n, n)
    B = _decode_matrix(raw["B"], "B", n, m)
    C = _decode_matrix(raw["C"], "C", m, n)
    D = _decode_matrix(raw["D"], "D", m, m)
    X = _decode_matrix(raw["X"], "X", n, n) if "X" in raw else None
    return StateSpaceModel(A, B, C, D), X


def write_model(model: StateSpaceModel, path: str, X: Optional[np.ndarray] = None) -> None:
    doc = {
        "schema_version": "1",
        "n": model.n,
        "m": model.m,
        "A": _encode_matrix(model.A),
        "B": _encode_matrix(model.B),
        "C": _encode_matrix(model.C),
        "D": _encode_matrix(model.D),
    }
    if X is not None:
        doc["X"] = _encode_matrix(X)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def emit_csv(rows: Sequence, out: IO[str], fieldnames: Optional[Sequence[str]] = None) -> None:
    """Write homogeneous dataclass rows as CSV: CRLF lines, '.' decimals,
    17 significant digits."""
    import csv

    if fieldnames is None:
        if not rows:
            raise DomainError("emit_csv needs fieldnames when the row list is empty")
        fieldnames = [f.name for f in dataclasses.fields(rows[0])]
    writer = csv.writer(out, lineterminator="\r\n")
    writer.writerow(list(fieldnames))
    for row in rows:
        writer.writerow([_format_cell(getattr(row, name)) for name in fieldnames])


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


# (flag, Tolerances field, help) of the tolerance overrides every command takes
_TOL_FLAGS = (
    ("--tol-rank", "rank_tol", "rank decision tolerance"),
    ("--tol-psd", "psd_tol", "semidefiniteness tolerance"),
    ("--tol-eig", "eig_tol", "eigenvalue clustering tolerance"),
    ("--tol-circle", "circle_tol", "unit-circle dead band"),
    ("--tol-golden", "golden_tol", "scalar search interval width"),
    ("--tol-bisect", "bisect_tau", "bisection bracket width"),
)


def _tolerances_from(args) -> Tolerances:
    overrides = {
        field: getattr(args, field)
        for _, field, _ in _TOL_FLAGS
        if getattr(args, field) is not None
    }
    return dataclasses.replace(DEFAULT_TOL, **overrides)


def _resolve_certificate(model, file_X, args, tol) -> np.ndarray:
    if getattr(args, "x", None) is not None:
        return float(args.x) * np.eye(model.n)
    if file_X is not None:
        return file_X
    sols = extremal_solutions(model, tol)
    return 0.5 * (sols.X_min + sols.X_max)


def _report(command: str, inputs: dict, tol: Tolerances, results: dict, warnings: List[str]) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "tolerances": dataclasses.asdict(tol),
        "results": results,
        "warnings": warnings,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _cmd_analyze(args, tol: Tolerances) -> dict:
    model, file_X = parse_model(args.model)
    warnings: List[str] = []
    minimality = validate_minimal(model, tol)
    scan = frequency_scan(model, tol)
    results = {
        "n": model.n,
        "m": model.m,
        "minimal": minimality.minimal,
        "controllable_rank": minimality.ctrl_rank,
        "observable_rank": minimality.obs_rank,
        "spectral_radius": minimality.spectral_radius,
        "asymptotically_stable": minimality.asymptotically_stable,
        "strictly_passive": scan.strictly_passive,
        "passive": scan.passive,
        "circle_zero_frequencies": [float(w) for w in scan.zeros],
        "xi_upper_bound": xi_upper_bound(model),
    }
    if file_X is not None:
        cert = classify_certificate(model, file_X, tol)
        results["certificate"] = {
            "kind": cert.kind.value,
            "lambda_min_W": cert.lambda_min_W,
            "lambda_min_X": cert.lambda_min_X,
        }
    inputs = {"model": args.model, "sha256": _sha256(args.model)}
    return _report("analyze", inputs, tol, results, warnings)


def _cmd_normalize(args, tol: Tolerances) -> dict:
    model, file_X = parse_model(args.model)
    warnings: List[str] = []
    X = _resolve_certificate(model, file_X, args, tol)
    realization = normalize(model, X, tol)
    ok, lam = verify_normalized(realization.model, tol)
    if not ok:
        warnings.append(f"normalized realization fails identity check: lambda_min = {lam:.3e}")
    results = {
        "lambda_min_W_identity": lam,
        "verified": ok,
        "T": _encode_matrix(realization.T),
        "A": _encode_matrix(realization.model.A),
        "B": _encode_matrix(realization.model.B),
        "C": _encode_matrix(realization.model.C),
        "D": _encode_matrix(realization.model.D),
    }
    if args.out:
        write_model(realization.model, args.out, X=np.eye(model.n))
        results["written"] = args.out
    inputs = {"model": args.model, "sha256": _sha256(args.model)}
    return _report("normalize", inputs, tol, results, warnings)


def _cmd_radius(args, tol: Tolerances) -> dict:
    model, file_X = parse_model(args.model)
    warnings: List[str] = []
    X = _resolve_certificate(model, file_X, args, tol)
    report = x_passivity_radius(model, X, tol)
    Q, dual_value = dual_certificate(report.search)
    results = {
        "rho": report.rho,
        "gamma_star": report.search.gamma_star,
        "lambda_star": report.search.lambda_star,
        "alpha": report.search.alpha,
        "beta": report.search.beta,
        "bound_lower": report.bound_lower,
        "bound_upper_overlap": report.bound_upper_overlap,
        "bound_upper": report.bound_upper,
        "overlap": report.overlap,
        "ds_lower_bound": report.ds_lower,
        "singularity_residual": report.singularity_residual,
        "dual_certificate_value": dual_value,
        "delta": _encode_matrix(report.delta),
    }
    inputs = {"model": args.model, "sha256": _sha256(args.model)}
    return _report("radius", inputs, tol, results, warnings)


def _cmd_xi(args, tol: Tolerances) -> dict:
    model, _ = parse_model(args.model)
    warnings: List[str] = []
    bis = xi_sup_bisection(model, tol=tol)
    results = {
        "bisection": {
            "xi_lo": bis.xi_lo,
            "xi_hi": bis.xi_hi,
            "iterations": bis.iterations,
            "witness_frequencies": [float(w) for w in bis.witness_frequencies],
        }
    }
    if bis.xi_hi > 0.0:
        eig = xi_sup_eigenvalue(model, tol=tol)
        results["eigenvalue"] = {
            "xi_lo": eig.xi_lo,
            "xi_hi": eig.xi_hi,
            "iterations": eig.iterations,
            "witness_frequencies": [float(w) for w in eig.witness_frequencies],
        }
        results["agreement"] = abs(bis.xi_lo - eig.xi_lo) <= 2.0 * tol.bisect_tau
        try:
            X = optimal_certificate(model, bis.xi_lo, tol)
            results["xi_star_at_certificate"] = xi_star(model, X, tol)
        except PassiradError as exc:
            warnings.append(f"certificate extraction failed: {exc}")
    else:
        warnings.append("model is not strictly passive; level-set procedure skipped")
    inputs = {"model": args.model, "sha256": _sha256(args.model)}
    return _report("xi", inputs, tol, results, warnings)


def _cmd_passify(args, tol: Tolerances) -> dict:
    model, _ = parse_model(args.model)
    warnings: List[str] = []
    norm = "fro" if args.norm == "fro" else "2"
    report = analyze_distance(model, norm=norm, tol=tol)
    results = {
        "xi_big": report.xi_big,
        "constrained_norm2": float(np.linalg.norm(report.delta_constrained, 2)),
        "constrained_norm_frob": float(np.linalg.norm(report.delta_constrained, "fro")),
        "sigma2": report.sigma2,
        "sigma_frob": report.sigma_frob,
        "refinement_converged": report.refinement_converged,
        "certificate_kind": report.X_cert.kind.value,
        "delta_constrained": _encode_matrix(report.delta_constrained),
    }
    if report.delta_refined is not None:
        results["delta_refined"] = _encode_matrix(report.delta_refined)
    inputs = {"model": args.model, "sha256": _sha256(args.model)}
    return _report("passify", inputs, tol, results, warnings)


def _cmd_stability(args, tol: Tolerances) -> dict:
    model, _ = parse_model(args.model)
    dist = distance_to_stability(model.A, tol)
    results = {
        "xi": dist.xi,
        "attained": dist.attained,
        "relative_error": dist.relative_error,
        "spectral_radius": dist.spectral_radius,
    }
    inputs = {"model": args.model, "sha256": _sha256(args.model)}
    return _report("stability", inputs, tol, results, warnings=[])


def _cmd_experiment(args, tol: Tolerances) -> Optional[dict]:
    if args.mode == "ensemble":
        result = ensemble_experiment(
            count=args.count, n=args.n, m=args.m, seed=args.seed,
            margin=args.margin, tol=tol,
        )
        rows = list(result.rows)
        fieldnames = [f.name for f in dataclasses.fields(EnsembleRow)]
        extra = {"skipped": result.skipped, "summary": result.summary}
        params = {
            "mode": "ensemble", "count": args.count, "n": args.n,
            "m": args.m, "seed": args.seed, "margin": args.margin,
        }
    else:
        grid = None
        if args.grid is not None:
            if args.grid < 2:
                raise DomainError(f"--grid must be >= 2, got {args.grid}")
            from .experiments import _scalar_certificate_range

            x_minus, x_plus = _scalar_certificate_range(args.a, args.b, args.c, args.d)
            grid = np.linspace(np.sqrt(x_minus), np.sqrt(x_plus), args.grid)
        result = scalar_sweep(args.a, args.b, args.c, args.d, t_grid=grid, tol=tol)
        rows = list(result.rows)
        fieldnames = [f.name for f in dataclasses.fields(SweepRow)]
        extra = {"balanced_index": result.balanced_index}
        params = {
            "mode": "scalar", "a": args.a, "b": args.b,
            "c": args.c, "d": args.d, "grid": args.grid,
        }
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            emit_csv(rows, fh, fieldnames)
        digest = hashlib.sha256(
            json.dumps(params, sort_keys=True).encode("utf-8")
        ).hexdigest()
        results = {"rows": len(rows), "csv": args.out}
        results.update(extra)
        return _report("experiment", {"params": params, "sha256": digest}, tol, results, [])
    emit_csv(rows, sys.stdout, fieldnames)
    return None


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    for flag, field, help_text in _TOL_FLAGS:
        common.add_argument(flag, dest=field, type=float, default=None, help=help_text)

    parser = _Parser(prog="passirad", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("analyze", parents=[common], help="minimality, stability, passivity summary")
    p.add_argument("--model", required=True)

    p = sub.add_parser("normalize", parents=[common], help="certificate-normalized realization")
    p.add_argument("--model", required=True)
    p.add_argument("--x", type=float, default=None, help="scalar certificate x*I")
    p.add_argument("--out", default=None, help="write the normalized model here")

    p = sub.add_parser("radius", parents=[common], help="passivity radius at a certificate")
    p.add_argument("--model", required=True)
    p.add_argument("--x", type=float, default=None, help="scalar certificate x*I")

    p = sub.add_parser("xi", parents=[common], help="robustness margin by both procedures")
    p.add_argument("--model", required=True)
    p.add_argument("--tau", dest="bisect_tau", type=float, default=None, help="bracket width target")

    p = sub.add_parser("passify", parents=[common], help="distance to passivity")
    p.add_argument("--model", required=True)
    p.add_argument("--tau", dest="bisect_tau", type=float, default=None, help="bracket width target")
    p.add_argument("--norm", choices=["2", "fro"], default="2")

    p = sub.add_parser("stability", parents=[common], help="distance to stability of A")
    p.add_argument("--model", required=True)

    p = sub.add_parser("experiment", parents=[common], help="CSV experiments")
    p.add_argument("mode", choices=["ensemble", "scalar"])
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--margin", type=float, default=0.25)
    p.add_argument("--a", type=float, default=0.5)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--d", type=float, default=1.0)
    p.add_argument("--grid", type=int, default=None, help="number of sweep grid points")
    p.add_argument("--out", default=None, help="CSV destination (stdout if omitted)")
    return parser


_HANDLERS = {
    "analyze": _cmd_analyze,
    "normalize": _cmd_normalize,
    "radius": _cmd_radius,
    "xi": _cmd_xi,
    "passify": _cmd_passify,
    "stability": _cmd_stability,
    "experiment": _cmd_experiment,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    tol = _tolerances_from(args)
    try:
        report = _HANDLERS[args.command](args, tol)
    except PassiradError as exc:
        print(
            json.dumps(
                {"command": args.command, "error": str(exc), "error_kind": type(exc).__name__},
                sort_keys=True,
            ),
            file=sys.stderr,
        )
        return 2
    except Exception as exc:  # noqa: BLE001 - anything else is an internal failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if report is not None:
        print(json.dumps(report, sort_keys=True, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
