"""Run the benchmark over several workloads and seeds and summarise it.

    python3 perfbench/suite.py                       # every workload, seed 0
    python3 perfbench/suite.py --seeds 0-9 --record perfbench/trajectory/NAME.json
    python3 perfbench/suite.py --trace 1             # per-layer metrics

Run from the root of a checkout.  Each (workload, seed) is one run.py
run; the table gives every metric by name and unit, its median over the
runs, and the spread between its first and third quartiles as a share of
the median.  --record writes every run's result and the summary to a
JSON file, one point of the performance trajectory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                "error": f"run.py exited {proc.returncode}"}
    result = json.loads(lines[-1])
    result["notes"] = [line for line in lines[:-1] if line.startswith("#")]
    return result


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "n": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", help="comma-separated; default: all in BENCHMARK.json")
    parser.add_argument("--seeds", default="0", help="e.g. 0-9 or 1,4,7")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="write runs and summary to this JSON file")
    args = parser.parse_args()
    with open("BENCHMARK.json") as fh:
        contract = json.load(fh)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in contract["workloads"]])

    report = {"seconds": contract["run_seconds"], "trace": args.trace, "workloads": {}}
    all_good = True
    for workload in workloads:
        runs = []
        for seed in _seeds(args.seeds):
            t0 = time.perf_counter()
            res = _run(workload, seed, args.trace)
            res["seed"] = seed
            runs.append(res)
            all_good &= res["correct"]
            print(f"{workload} seed {seed}: correct {res['correct']}, attempted "
                  f"{res['attempted']}, failed {res['failed']} "
                  f"({time.perf_counter() - t0:.0f} s)", flush=True)
        names = sorted({k for r in runs for k in r["metrics"]})
        summary = {}
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            unit = next(r["metrics"][name]["unit"] for r in runs if name in r["metrics"])
            summary[name] = dict(summarise(values), unit=unit)
            s = summary[name]
            print(f"  {name:>26} {s['median']:14.6g} {unit:<6} "
                  f"IQR/median {s['spread']:6.1%}  (n={s['n']})")
        print(f"  attempted {sum(r['attempted'] for r in runs)}, "
              f"failed {sum(r['failed'] for r in runs)}", flush=True)
        report["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.record:
        os.makedirs(os.path.dirname(os.path.abspath(args.record)), exist_ok=True)
        with open(args.record, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if all_good else 1


if __name__ == "__main__":
    sys.exit(main())
