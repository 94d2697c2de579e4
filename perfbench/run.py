"""passirad benchmark: one seeded, single-process, closed-loop caller.

    python3 perfbench/run.py --workload radius --seed 1 --seconds 25 --trace 0

One caller analyses one model at a time; the next model starts only when the
previous one has finished, and a run covers whole passes over the seed's
pool of models.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run (see tracing.py).  The
last line of standard output is the JSON result; the lines before it give
every metric by name and unit, the failed/attempted counts and the
environment record.  Run it from the root of a source checkout: it imports
``passirad`` from ``src/`` and exits with code 2 when that is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 3  # set-ups per untraced run; setup_s is their median
WARMUP_SEED = 0

# The end-to-end metrics every workload reports, with their units.  The
# bounded ones are listed in BENCHMARK.json; model_ms is the workload's
# per-model analysis (radius_ms, the xi command, passify_ms).
END_TO_END_UNITS = {
    "setup_s": "s",
    "models_per_s": "1/s",
    "peak_rss_mb": "MB",
    "model_ms.p50": "ms",
    "model_ms.tail": "ms",
}


def environment(seed: int) -> dict:
    """What a comparison between two runs must hold equal (besides code)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def fresh_import() -> None:
    """Import passirad in a new interpreter, as a user's first call does."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import passirad"
    subprocess.run([sys.executable, "-c", code, str(SRC)], check=True)


def tail_percentile(count: int) -> int:
    """Highest whole percentile with at least 10 samples beyond it (>= 50)."""
    return max(50, math.floor(100.0 * (count - 10) / count)) if count else 50


def steal_seconds() -> float:
    """CPU time the hypervisor gave to others, summed over all CPUs (Linux)."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")


def loop(work, pool, seconds: float):
    """Closed loop over whole passes of the pool.

    It stops at the pass boundary nearest to ``seconds`` (at least one
    pass), so every model of the pool is analysed equally often and two runs
    of different speed time the same mix of models.  Returns the
    per-iteration outcomes, the number of passes and the wall time."""
    records = []
    done = 0
    t0 = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        records += [work.analyse(task) for task in pool]
        done += 1
        now = time.perf_counter()
        if now - t0 + 0.5 * (now - p0) >= seconds:
            return records, done, now - t0


class Paired:
    """Analyses each task untraced and traced, alternating which goes first,
    so that a drift in machine speed falls on both sides alike."""

    def __init__(self, work, tracer):
        self.work, self.tracer = work, tracer
        self.records = {False: [], True: []}
        self.busy = {False: 0.0, True: 0.0}

    def analyse(self, task) -> None:
        first = len(self.records[True]) % 2 == 0
        for traced in (False, True) if first else (True, False):
            if traced:
                self.tracer.install()
            t0 = time.perf_counter()
            try:
                self.records[traced].append(self.work.analyse(task))
            finally:
                self.busy[traced] += time.perf_counter() - t0
                if traced:
                    self.tracer.uninstall()


def setup(work, repeats: int):
    """Import, model generation and one warm-up analysis, ``repeats`` times."""
    times, pools = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fresh_import()
        pool = work.make(work.seed, 0, work.pool_size)
        # the warm-up model is the same for every seed, so its cost is too
        for task in work.make(WARMUP_SEED, 0, 1):
            work.analyse(task)
        times.append(time.perf_counter() - t0)
        pools.append(pool)
    return pools, times


def failures(records):
    outcomes = [o for rec in records for o in rec]
    failed = [(i, o) for i, rec in enumerate(records) for o in rec if o.failures]
    return len(outcomes), failed


def stage_samples(records, stage: str):
    return [o.seconds[stage] * 1e3 for rec in records for o in rec if stage in o.seconds]


def describe(name: str, samples, lines) -> dict:
    """p50 and tail of ``samples`` (ms) as printed lines and metric values."""
    p = tail_percentile(len(samples))
    p50 = float(np.percentile(samples, 50))
    tail = float(np.percentile(samples, p))
    lines.append(f"{name}.p50 {p50:.4f} ms  (n={len(samples)})")
    lines.append(f"{name}.tail {tail:.4f} ms  (p{p}, n={len(samples)})")
    return {f"{name}.p50": p50, f"{name}.tail": tail}


def end_to_end(work, records, setup_times, attempted, failed, lines) -> dict:
    models = len(records)
    busy = sum(s for rec in records for o in rec for s in o.seconds.values())
    values = {
        "setup_s": statistics.median(setup_times),
        "models_per_s": models / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    lines.append(
        f"setup_s {values['setup_s']:.4f} s  (median of {len(setup_times)}: "
        + ", ".join(f"{t:.3f}" for t in setup_times) + ")"
    )
    lines.append(f"models_per_s {values['models_per_s']:.4f} 1/s  ({models} models, {busy:.2f} s busy)")
    lines.append(f"failed_ratio {failed / attempted:.4f}  ({failed} failed of {attempted} attempted)")
    lines.append(f"peak_rss_mb {values['peak_rss_mb']:.3f} MB")
    # The same per-model samples under the workload's own name, then its stages.
    model_ms = [sum(o.seconds.values()) * 1e3 for rec in records for o in rec if o.kind == work.name]
    named = {"radius": "radius_ms", "margin": "xi_command_ms", "passify": "passify_ms"}[work.name]
    described = describe(named, model_ms, lines)
    values["model_ms.p50"] = described[f"{named}.p50"]
    values["model_ms.tail"] = described[f"{named}.tail"]
    if work.name == "margin":
        describe("xi_bisection_ms", stage_samples(records, "xi_bisection"), lines)
        describe("xi_eigenvalue_ms", stage_samples(records, "xi_eigenvalue"), lines)
        lines.append(
            "certificate_ms.p50 "
            f"{statistics.median(stage_samples(records, 'certificate')):.4f} ms"
        )
    if work.name == "radius":
        ens = [o for rec in records for o in rec if o.kind == "ensemble"]
        samples = sum(o.samples for o in ens)
        secs = sum(o.seconds.get("ensemble", 0.0) for o in ens)
        lines.append(f"ensemble_samples_per_s {samples / secs:.4f} 1/s  ({samples} samples)")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "passirad" / "__init__.py").is_file():
        print(f"perfbench: no passirad sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import passirad

    if Path(passirad.__file__).resolve().parent != SRC / "passirad":
        print(f"perfbench: imported passirad from {passirad.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work = workloads.WORKLOADS[args.workload](args.seed)
    lines = [
        f"workload {work.name}: " + " ".join(work.__doc__.split()),
        "env " + json.dumps(environment(args.seed), sort_keys=True),
    ]

    pools, setup_times = setup(work, 1 if args.trace else SETUP_REPEATS)
    pool = pools[0]
    digests = sorted({workloads.digest(p) for p in pools})
    deterministic = len(digests) == 1
    lines.append(f"inputs {len(pool)} tasks, sha256 " + " ".join(digests)
                 + ("" if deterministic else "  (inputs differ between set-ups of the same seed)"))
    steal0 = steal_seconds()
    if args.trace:
        paired = Paired(work, tracing.Tracer())
        _, passes, wall = loop(paired, pool, args.seconds)
        records, traced = paired.records[False], paired.records[True]
        tracer = paired.tracer
        metrics = tracer.metrics(len(traced), paired.busy[True] / paired.busy[False])
        units = {name: unit for name, unit, _, _ in tracing.PER_LAYER}
        moves = {name: m for name, _, _, m in tracing.PER_LAYER}
        lines.append(f"{passes} passes, each model untraced and traced ({len(traced)} models); per model:")
        lines += [f"{k} {v:.6g} {units[k]}  -> {moves[k]}" for k, v in metrics.items()]
        lines.append("ratio bases " + json.dumps(tracer.bases()))
        OUT_DIR.mkdir(exist_ok=True)
        span_file = OUT_DIR / f"spans-{work.name}.npz"
        tracer.write_spans(span_file, {"workload": work.name, "seed": args.seed, "models": len(traced)})
        lines.append(f"spans written to {span_file.relative_to(ROOT)}")
        records = records + traced
    else:
        records, passes, wall = loop(work, pool, args.seconds)
        units = END_TO_END_UNITS
    steal = steal_seconds() - steal0
    lines.append(
        f"steal {steal:.2f} s over {wall:.2f} s wall of {passes} passes "
        f"({steal / (wall * os.cpu_count()):.4f} of all CPU time)"
    )
    attempted, failed = failures(records)
    if not args.trace:
        metrics = end_to_end(work, records, setup_times, attempted, len(failed), lines)
    bad = [(i, o) for i, o in failed if workloads.unexpected(work, o)]
    known = [(i, o) for i, o in failed if not workloads.unexpected(work, o)]
    lines.append(f"known defects {len(known)}, unexpected failures {len(bad)}")
    for tag, listed in (("UNEXPECTED", bad), ("FAILED", known)):
        for i, o in listed[:10]:
            lines.append(f"{tag} {o.kind} model {i % len(pool)} (iteration {i}): " + "; ".join(o.failures))

    print("\n".join(lines))
    # A failed operation (an exception or an output check that did not hold)
    # counts in "failed" and is listed above.  "correct" is false when any
    # failure is not one of the workload's documented defects, or when the
    # set-ups of one seed drew different inputs.
    result = {
        "correct": deterministic and not bad,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
