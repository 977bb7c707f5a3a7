"""
Run-to-run spread of the end-to-end metrics, and the baseline file.

    python3 perfbench/spread.py --runs 10 [--workload suite_1d ...] [--out FILE]

Runs ``run.py`` once per seed (seeds 1..runs) for each workload, one run at
a time, and prints for every metric its median and its quartile spread:
(Q3 - Q1) / median, with the quartiles from ``statistics.quantiles(n=4)``.
Each run takes another seed because that is how the bounds in BENCHMARK.json
are applied: a comparison of two commits runs each with a series of seeds,
so the spread that a bound must cover includes the effect of the data as
well as the machine's noise.  It then makes one traced run per workload at
seed 0 for the layer metrics.  ``--out`` writes the medians, quartiles,
layer metrics and the environment as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: bool) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed operations")
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    return {k: m["value"] for k, m in result["metrics"].items()}, env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [w["name"] for w in BENCHMARK["workloads"]]
    parser.add_argument("--workload", nargs="*", default=names, choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    seeds = list(range(1, args.runs + 1))
    summary, env, worst = {}, None, 0.0
    for workload in args.workload:
        values: dict[str, list[float]] = {}
        for seed in seeds:
            result, env = run_once(workload, seed, trace=False)
            for key, value in result.items():
                values.setdefault(key, []).append(value)
            print(f"{workload} seed {seed}: " +
                  ", ".join(f"{k} {v:.6g}" for k, v in result.items()), flush=True)
        summary[workload] = {}
        for key, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            summary[workload][key] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                      "values": vals}
            worst = max(worst, spread / bounds[key])
            print(f"  {workload:16s} {key:12s} median {med:12.6g}  spread {spread:7.2%}  "
                  f"bound {bounds[key]:.0%}", flush=True)
    for workload in args.workload:
        summary[workload]["layers"], _ = run_once(workload, 0, trace=True)
    print(f"largest spread / bound: {worst:.3f}")
    if args.out:
        env.pop("seed")
        args.out.write_text(json.dumps({"env": env, "seeds": seeds, "layer_seed": 0,
                                        "workloads": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
