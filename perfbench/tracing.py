"""Traced run: spans around the calls into each passirad layer, from outside.

Every public function of the layer modules is replaced, in every passirad
module that bound it (``from .kernels import hermitian_eig`` makes a second
binding), by a wrapper that records a span (name, start, end, parent).  The
``lapack`` layer is the NumPy/SciPy calls the modules look up as module
attributes; ``np.linalg.norm(., 2)`` calls its SVD internally and is counted
at ``kernels.spectral_norm`` instead.  Spans stay in memory until
``write_spans``; per-layer metrics are computed from them afterwards.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

LAYERS = ("kernels", "system_model", "kyp", "riccati", "normalization", "radius", "xi", "passify", "experiments")
# Validation helpers called from nearly every function: their cost stays in
# the caller's self time (e.g. the copy in kernels.hermitian_eig).
UNTRACED = {"kernels.as_complex_matrix", "kernels.hermitian_part"}
LAPACK = (
    ("scipy.linalg", "qz"),
    ("scipy.linalg", "ordqz"),
    ("scipy.linalg", "eig"),
    ("numpy.linalg", "eigh"),
    ("numpy.linalg", "svd"),
    ("numpy.linalg", "eigvals"),
)

# (metric, unit, better, end-to-end metric it should move).  All values are
# per operation, i.e. per model analysed in the traced loop.
PER_LAYER: List[Tuple[str, str, str, str]] = [
    *[
        (f"lapack.{fn}.{kind}", "count" if kind == "calls" else "ms", "lower", moves)
        for fn, moves in (
            ("qz", "xi_bisection_ms.p50 on margin, passify_ms.p50 on passify; 0 on radius"),
            ("ordqz", "certificate_ms.p50 on margin"),
            ("eig", "xi_eigenvalue_ms.p50 on margin"),
            ("eigh", "radius_ms.p50 on radius, passify_ms.p50 on passify"),
            ("svd", "passify_ms.p50, xi_bisection_ms.p50"),
            ("eigvals", "ensemble_samples_per_s, xi_bisection_ms.p50"),
        )
        for kind in ("calls", "ms")
    ],
    ("kernels.hermitian_eig.calls", "count", "lower", "ensemble_samples_per_s, passify_ms.p50"),
    ("kernels.hermitian_eig.ms", "ms", "lower", "ensemble_samples_per_s, passify_ms.p50"),
    ("kernels.hermitian_eig.self_ms", "ms", "lower", "ensemble_samples_per_s, passify_ms.p50 (validation copy)"),
    ("kernels.golden_section_min.evals", "count", "lower", "radius_ms.p50"),
    ("kernels.cholesky.ms", "ms", "lower", "radius_ms.p50, certificate_ms.p50"),
    ("kernels.spectral_norm.calls", "count", "lower", "xi_bisection_ms.p50, radius_ms.p50"),
    ("riccati.pencil_eigenvalues.calls", "count", "lower", "xi_bisection_ms.p50, passify_ms.p50"),
    ("riccati.pencil_eigenvalues.ms", "ms", "lower", "xi_bisection_ms.p50, passify_ms.p50"),
    ("riccati.extremal_solutions.calls", "count", "lower", "certificate_ms.p50, passify_ms.p50"),
    ("riccati.extremal_solutions.ms", "ms", "lower", "certificate_ms.p50, passify_ms.p50"),
    ("xi.frequency_scan.calls", "count", "lower", "margin metrics, passify_ms.p50"),
    ("xi.frequency_scan.ms", "ms", "lower", "margin metrics, passify_ms.p50"),
    ("xi.bisection_steps", "count", "lower", "xi_bisection_ms.p50"),
    ("xi.levelset_steps", "count", "lower", "xi_eigenvalue_ms.p50"),
    ("xi.xi_roots_at_omega.calls", "count", "lower", "xi_eigenvalue_ms.p50"),
    ("xi.xi_roots_at_omega.ms", "ms", "lower", "xi_eigenvalue_ms.p50"),
    ("xi.xi_star.ms", "ms", "lower", "certificate_ms.p50"),
    ("normalization.normalize.ms", "ms", "lower", "certificate_ms.p50"),
    ("radius.minimize_gamma.ms", "ms", "lower", "radius_ms.p50"),
    ("radius.dual_certificate.ms", "ms", "lower", "radius_ms.p50"),
    ("experiments.radius_solves_per_sample", "count", "lower", "ensemble_samples_per_s"),
    ("experiments.random_passive_system.ms", "ms", "lower", "ensemble_samples_per_s, setup_s"),
    ("kyp.classify_certificate.calls", "count", "lower", "radius_ms.p50, certificate_ms.p50"),
    ("kyp.classify_certificate.ms", "ms", "lower", "radius_ms.p50, certificate_ms.p50"),
    ("kyp.apply_perturbation.calls", "count", "lower", "passify_ms.p50 (projection sweeps)"),
    ("passify.constrained_distance.ms", "ms", "lower", "passify_ms.p50"),
    ("passify.refine_distance.ms", "ms", "lower", "passify_ms.p50"),
    ("passify.pick_certificate.ms", "ms", "lower", "passify_ms.p50"),
    ("passify.shift_search_steps", "count", "lower", "passify_ms.p50"),
    ("passify.refine_converged_ratio", "ratio", "higher", "useful outcome: must not fall while passify_ms.p50 falls"),
    ("passify.sigma_shrink_ratio", "ratio", "lower", "useful outcome: refined over constrained norm"),
    ("system_model.validate_minimal.calls", "count", "lower", "setup_s, margin metrics"),
    ("system_model.validate_minimal.ms", "ms", "lower", "setup_s, margin metrics"),
    ("trace.overhead_ratio", "ratio", "lower", "traced over untraced wall time of the same models"),
]


def _observe_golden(tr: "Tracer", out) -> None:
    tr.events["golden_evals"] += out[2]


def _observe_bisection(tr: "Tracer", out) -> None:
    tr.events["bisection_steps"] += out.iterations


def _observe_levelset(tr: "Tracer", out) -> None:
    tr.events["levelset_steps"] += out.iterations


def _observe_refine(tr: "Tracer", out) -> None:
    tr.events["refine_calls"] += 1
    tr.events["refine_converged"] += int(out[2])


def _observe_distance(tr: "Tracer", out) -> None:
    constrained = float(np.linalg.norm(out.delta_constrained, 2))
    if constrained > 0.0:
        tr.events["shrink_count"] += 1
        tr.shrink_sum += out.sigma2 / constrained


def _observe_ensemble(tr: "Tracer", out) -> None:
    tr.events["ensemble_samples"] += len(out.rows) + out.skipped


OBSERVERS: Dict[str, Callable] = {
    "kernels.golden_section_min": _observe_golden,
    "xi.xi_sup_bisection": _observe_bisection,
    "xi.xi_sup_eigenvalue": _observe_levelset,
    "passify.refine_distance": _observe_refine,
    "passify.analyze_distance": _observe_distance,
    "experiments.ensemble_experiment": _observe_ensemble,
}


class Tracer:
    """Span recorder that patches passirad and the lapack entry points in place."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._installed: Optional[List[Tuple[object, str, Callable]]] = None
        self.events: Counter = Counter()
        self.shrink_sum = 0.0

    def _wrap(self, name: str, fn: Callable, observe: Optional[Callable]) -> Callable:
        self._ids[name] = nid = len(self.names)
        self.names.append(name)
        stack, start, end = self._stack, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if observe is not None:
                observe(self, out)
            return out

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _targets(self) -> List[Tuple[object, str, Callable]]:
        """(owner, attribute, wrapper) for every binding to patch, built once."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"passirad.{layer}")
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                name = f"{layer}.{attr}"
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__ and name not in UNTRACED:
                    wrappers[id(fn)] = (fn, self._wrap(name, fn, OBSERVERS.get(name)))
        targets = []
        modules = [m for key, m in sorted(sys.modules.items()) if key == "passirad" or key.startswith("passirad.")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    targets.append((mod, attr, hit[1]))
        for owner_name, attr in LAPACK:
            owner = importlib.import_module(owner_name)
            targets.append((owner, attr, self._wrap(f"lapack.{attr}", getattr(owner, attr), None)))
        return targets

    def install(self) -> None:
        if self._installed is None:
            self._installed = self._targets()
        for owner, attr, wrapper in self._installed:
            self._patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def arrays(self):
        names = np.asarray(self.name_id, dtype=np.int32)
        parent = np.asarray(self.parent, dtype=np.int32)
        dur = np.asarray(self.end) - np.asarray(self.start)
        return names, parent, dur

    def write_spans(self, path, meta: dict) -> None:
        names, parent, _ = self.arrays()
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name_id=names,
            parent=parent,
            start=np.asarray(self.start),
            end=np.asarray(self.end),
            meta=np.asarray(repr(meta)),
        )

    def metrics(self, ops: int, overhead_ratio: float) -> Dict[str, float]:
        """Per-layer metrics per operation, in PER_LAYER order."""
        names, parent, dur = self.arrays()
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        selfdur = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        incl = np.bincount(names, weights=dur, minlength=k)
        excl = np.bincount(names, weights=selfdur, minlength=k)
        parent_name = np.where(has_parent, names[np.maximum(parent, 0)], -1)

        def nid(name: str) -> int:
            return self._ids[name]

        def under(child_name: str, parent_span: str) -> int:
            return int(np.count_nonzero((names == nid(child_name)) & (parent_name == nid(parent_span))))

        ev = self.events
        per_op = 1.0 / ops
        values: Dict[str, float] = {
            "kernels.golden_section_min.evals": ev["golden_evals"] * per_op,
            "xi.bisection_steps": ev["bisection_steps"] * per_op,
            "xi.levelset_steps": ev["levelset_steps"] * per_op,
            "experiments.radius_solves_per_sample": (
                under("radius.x_passivity_radius", "experiments.ensemble_experiment") / ev["ensemble_samples"]
                if ev["ensemble_samples"] else 0.0
            ),
            # one frequency_scan per call checks the unshifted model first
            "passify.shift_search_steps": (
                under("xi.frequency_scan", "passify.constrained_distance")
                - calls[nid("passify.constrained_distance")]
            ) * per_op,
            "passify.refine_converged_ratio": (
                ev["refine_converged"] / ev["refine_calls"] if ev["refine_calls"] else 0.0
            ),
            "passify.sigma_shrink_ratio": (
                self.shrink_sum / ev["shrink_count"] if ev["shrink_count"] else 0.0
            ),
            "trace.overhead_ratio": overhead_ratio,
        }
        for metric, _unit, _better, _moves in PER_LAYER:
            if metric in values:
                continue
            span, kind = metric.rsplit(".", 1)
            i = nid(span)
            raw = {"calls": calls[i], "ms": 1e3 * incl[i], "self_ms": 1e3 * excl[i]}[kind]
            values[metric] = float(raw) * per_op
        return {metric: float(values[metric]) for metric, *_ in PER_LAYER}

    def bases(self) -> Dict[str, int]:
        """Denominators of the ratio metrics, printed next to them."""
        ev = self.events
        return {
            "ensemble_samples": ev["ensemble_samples"],
            "refine_calls": ev["refine_calls"],
            "shrink_base": ev["shrink_count"],
            "spans": len(self.start),
        }
