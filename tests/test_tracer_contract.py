"""The benchmark's traced run can still resolve every span it reports.

perfbench/tracing.py wraps each public function of the passirad layers and
looks its per-layer metrics up by span name.  A deleted or renamed public
function would make ``Tracer.metrics`` raise KeyError; this runs a tiny
radius solve and ensemble under the tracer and computes every metric.
"""

import importlib.util
from pathlib import Path

import numpy as np

from passirad import experiments, radius, riccati, xi
from passirad.experiments import random_passive_system

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_per_layer_metric_resolves_and_the_ensemble_solves_once(m0):
    tracing = _load_tracing()
    originals = (radius.x_passivity_radius, experiments.ensemble_experiment)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # through the module attributes the tracer patched
        radius.x_passivity_radius(m0, np.eye(1))
        result = experiments.ensemble_experiment(2, 2, 1, seed=1)
    finally:
        tracer.uninstall()
    assert (radius.x_passivity_radius, experiments.ensemble_experiment) == originals
    assert len(result.rows) + result.skipped == 2
    metrics = tracer.metrics(ops=2, overhead_ratio=1.0)
    assert list(metrics) == [name for name, *_ in tracing.PER_LAYER]
    assert all(np.isfinite(v) for v in metrics.values())
    assert metrics["experiments.radius_solves_per_sample"] == 1.0


def test_a_radius_solve_makes_no_validated_eigensolves_and_two_with_vectors():
    # eigenvalue queries and psd dead bands are values-only (np.linalg.eigvalsh,
    # which the tracer does not wrap); eigenvectors are computed twice, for the
    # top eigenspace of the Gram companion and its balancing; the SVD norms are
    # alpha and beta
    model = random_passive_system(5, 2, seed=3).model
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        radius.x_passivity_radius(model, np.eye(model.n))
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(ops=1, overhead_ratio=1.0)
    assert metrics["kernels.hermitian_eig.calls"] == 0
    assert metrics["kernels.spectral_norm.calls"] == 2
    assert metrics["lapack.eigh.calls"] == 2


def test_a_certificate_makes_one_ordered_qz_and_the_extremal_pair_two(m0):
    tracing = _load_tracing()
    counts = []
    for call in (lambda: xi.optimal_certificate(m0, 0.1), lambda: riccati.extremal_solutions(m0)):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            call()
        finally:
            tracer.uninstall()
        counts.append(tracer.metrics(ops=1, overhead_ratio=1.0)["lapack.ordqz.calls"])
    assert counts == [1, 2]



def _span_counts(call, *names):
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        call()
    finally:
        tracer.uninstall()
    ids = np.asarray(tracer.name_id)
    return [int(np.count_nonzero(ids == tracer.names.index(name))) for name in names]


def test_a_radius_solve_takes_the_classification_verdict_alone():
    # What is factored with no second dead band: kernels.cholesky is not called
    model = random_passive_system(5, 2, seed=3).model
    counts = _span_counts(
        lambda: radius.x_passivity_radius(model, np.eye(model.n)),
        "kernels.cholesky",
        "kyp.classify_certificate",
    )
    assert counts == [0, 1]


def test_an_ensemble_row_reads_its_sample_s_one_radius_solve():
    counts = _span_counts(
        lambda: experiments.ensemble_experiment(2, 2, 1, seed=1),
        "radius.geometric_mean_estimate",
        "radius.x_passivity_radius",
    )
    assert counts == [0, 2]
