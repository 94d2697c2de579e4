"""Run the benchmark over several seeds and summarise it.

    python3 perfbench/collect.py --workload radius margin --seeds 1 2 3 4 5
    python3 perfbench/collect.py --workload passify --seeds 1 2 3 --trace 1 --out s.json

Each run is a separate ``run.py`` process, one after the other.  For every
metric the summary holds the values, their median, quartiles (as
``statistics.quantiles(values, n=4)``) and spread, the distance between the
quartiles as a share of the median (null when the median is 0).  ``--out``
merges the summary into a JSON file.  Runs whose environment records differ
(apart from the seed) are never summarised together.  Each run's steal
time is kept; a run whose steal exceeds ``STEAL_FLAG`` of all CPU time is
flagged, since its timings share the machine with another tenant.  This
script judges no regression: that is the rule of whoever compares two
commits, with runs of both sides interleaved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
STEAL_FLAG = 0.03


class EnvironmentMismatch(RuntimeError):
    pass


def run_once(workload: str, seed: int, seconds: float, trace: int):
    cmd = [*BENCHMARK["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    env.pop("seed")
    steal = float(next(line for line in lines if line.startswith("steal ")).rsplit("(", 1)[1].split()[0])
    return env, json.loads(lines[-1]), steal if steal == steal else None, lines  # None: no /proc/stat


def same_env(a: dict, b: dict, what: str) -> None:
    if a != b:
        raise EnvironmentMismatch(f"environment records differ ({what}):\n{a}\n{b}")


def summarise(results) -> dict:
    out = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {},
    }
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out["metrics"][name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "values": values,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", default=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    section = "per_layer" if args.trace else "end_to_end"
    summary = {"env": None, "seconds": args.seconds, section: {}}
    try:
        for workload in args.workload:
            results, steals = [], []
            for seed in args.seeds:
                env, result, steal, lines = run_once(workload, seed, args.seconds, args.trace)
                if summary["env"] is None:
                    summary["env"] = env
                same_env(summary["env"], env, f"{workload} seed {seed}")
                results.append(result)
                steals.append(steal)
                for line in lines[:-1]:
                    if line.startswith(("FAILED", "UNEXPECTED")):
                        print(f"{workload} seed {seed}: {line}")
                if steal is not None and steal > STEAL_FLAG:
                    print(f"{workload} seed {seed}: STEAL {steal:.4f} of all CPU time")
            s = summarise(results)
            s["seeds"] = args.seeds
            s["steal_share"] = steals
            s["steal_flagged_seeds"] = [seed for seed, st in zip(args.seeds, steals) if st is not None and st > STEAL_FLAG]
            summary[section][workload] = s
            print(f"{workload}: correct={s['correct']} failed {s['failed']} of {s['attempted']}, "
                  f"steal flagged on seeds {s['steal_flagged_seeds']}")
            for name, m in s["metrics"].items():
                bound = bounds.get(name)
                spread = m["spread"]
                flag = ("" if bound is None or name == "setup_s" or (spread is not None and spread < bound / 3)
                        else "  SPREAD>bound/3")
                shown = "n/a" if spread is None else f"{spread:.4f}"
                print(f"  {name:40s} median {m['median']:12.6g} {m['unit']:6s} spread {shown}"
                      + (f" (bound {bound})" if bound is not None else "") + flag)
        if args.out:
            if args.out.exists():
                saved = json.loads(args.out.read_text())
                same_env(saved["env"], summary["env"], f"merging into {args.out}")
                saved.setdefault(section, {}).update(summary[section])
                saved["seconds"] = args.seconds
                summary = saved
            args.out.write_text(json.dumps(summary, indent=1, sort_keys=True, allow_nan=False) + "\n")
    except EnvironmentMismatch as exc:
        print(f"refusing to summarise: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
