#!/usr/bin/env python3
"""The driver's steadiness check, by hand: run every workload ten times, each
time with another seed, the way BENCHMARK.json's command is called, and print
for each end-to-end metric the distance between the first and third quartile
of its ten values as a share of their median, next to the metric's bound.

    python3 benchmark/spread.py [OUT.json] [FIRST_SEED]

Run it twice; the second median may not be worse than the first by more than
the bound either. OUT.json keeps every value for `results/`.
"""
import json
import statistics
import subprocess
import sys
import time

spec = json.load(open("BENCHMARK.json"))
out_path = sys.argv[1] if len(sys.argv) > 1 else None
first_seed = int(sys.argv[2]) if len(sys.argv) > 2 else 100
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
values = {}
for workload in (w["name"] for w in spec["workloads"]):
    cells = values.setdefault(workload, {})
    t0 = time.time()
    for seed in range(first_seed, first_seed + 10):
        args = ["--workload", workload, "--seed", str(seed), "--trace", "0"]
        args += ["--seconds", str(spec["run_seconds"])]
        run = subprocess.run(spec["command"] + args, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr[-2000:]
        lines = run.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert result["correct"] and result["failed"] == 0, run.stdout[-2000:]
        for name, m in result["metrics"].items():
            cells.setdefault(name, []).append(m["value"])
        info = json.loads(next(l for l in lines if l.startswith("# info "))[7:])
        for raw in ("ops_ms", "setups_s"):  # to re-score with another estimator
            cells.setdefault("raw_" + raw, []).append(info[raw])
    print(f"== {workload}  ({(time.time() - t0) / 10:.1f} s/run)")
    for name, v in cells.items():
        if name.startswith("raw_"):
            continue
        q1, _, q3 = statistics.quantiles(v, n=4)
        median = statistics.median(v)
        print(f"  {name:<14} median {median:12.4f}  spread {(q3 - q1) / median:7.2%}"
              f"  bound {bounds[name]:.0%}  min {min(v):.4f}  max {max(v):.4f}")
    sys.stdout.flush()
if out_path:
    json.dump(values, open(out_path, "w"), indent=1)
