"""Repeat the benchmark over seeds and summarise each metric's spread.

Usage, from the root of a checkout::

    python3 bench/baseline.py --seeds 10 --out bench/BENCH_1.json
    python3 bench/baseline.py --workloads saturated_mixed --seeds 5

Each workload runs once per seed (1..N) with ``--trace 0``, then once with
``--trace 1`` on the first seed. For every end-to-end metric it reports the
median, the quartiles from ``statistics.quantiles(values, n=4)`` and the
spread (interquartile distance over the median), and flags a spread above
a third of the metric's bound in ``BENCHMARK.json``. It also keeps each
run's median host slowdown against the reference speed (``hostprobe.py``). The runs are
sequential, so they never compete with each other for the two CPUs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} trace {trace} exited {done.returncode}:\n"
                 f"{done.stdout}{done.stderr}")
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    slowdown = next(float(line.split(" ran ")[1].split("x")[0]) for line in lines
                    if "slower than reference" in line)
    return {**json.loads(lines[-1]), "env": env, "host_slowdown": slowdown}


def summarise(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values,
            "within_third_of_bound": spread <= bound / 3}


def main() -> None:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in config["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--out", help="write the summary as JSON here")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    summary = {"run_seconds": args.seconds, "seeds": list(range(1, args.seeds + 1)),
               "workloads": {}}
    for workload in args.workloads:
        results = [run_once(workload, seed, args.seconds, 0) for seed in summary["seeds"]]
        traced = run_once(workload, 1, args.seconds, 1)
        summary["env"] = results[0]["env"]
        end_to_end = {}
        for name, bound in bounds.items():
            entry = summarise([r["metrics"][name]["value"] for r in results], bound)
            end_to_end[name] = {"unit": results[0]["metrics"][name]["unit"], "bound": bound,
                                **entry}
            flag = "" if entry["within_third_of_bound"] else "  <-- spread above bound/3"
            print(f"{workload:<16} {name:<22} median {entry['median']:>12.6g} "
                  f"spread {entry['spread']:.4f} (bound {bound}){flag}")
        summary["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "correct": all(r["correct"] for r in results),
            "host_slowdown": [r["host_slowdown"] for r in results],
            "end_to_end": end_to_end,
            "per_layer_seed_1": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
