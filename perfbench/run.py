"""Benchmark entry point: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload census --seed 0 --trace 0 [--seconds N]

Run from the root of a checkout; the library is imported from its src/.
--seconds defaults to run_seconds in BENCHMARK.json.  Each pass of the
workload runs in a fresh worker process (closed loop: one caller, one
job at a time), one after another until the next pass would end past
--seconds; at least one pass always runs.  With --trace 0 each pass is
preceded by set-up-only processes, and the run prints the end-to-end
metrics: medians over the passes (set-up time: over every process).
With --trace 1 the passes alternate untraced and traced, starting
untraced, and at least two of each run whatever --seconds says, so that
every count is seen to repeat; the run prints the per-layer metrics of
the traced passes and the tracing overhead.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
Metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# set-up-only processes before each untraced-run pass, so that the set-up
# samples spread over the run as the passes do
SETUP_PER_PASS = 6
DEADLINE_S = 170.0
# one BLAS thread: the jobs are single-caller loops of small LU
# factorizations, where a second thread costs CPU time without saving wall
# time (see NOTES.md)
THREAD_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}


def _worker(args, out: str, deadline: float, trace: bool = False,
            setup_only: bool = False) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", out]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"), **THREAD_ENV)
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        return {"error": "worker timed out", "elapsed": time.perf_counter() - started}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}",
                "elapsed": time.perf_counter() - started}
    result = json.loads(lines[-1])
    result["elapsed"] = time.perf_counter() - started
    return result


def _layers(layers: dict, traced: list[dict], untraced: list[dict]) -> tuple[dict, list[str]]:
    """Medians over the traced passes, and the counts that differ between
    them (each count must repeat exactly).  Passes alternate untraced and
    traced, starting untraced."""
    out, unstable = {}, []
    for name, unit in layers.items():
        if name == "trace.overhead_s":
            # each traced pass against the untraced pass just before it,
            # so that drift in machine speed cancels
            value = statistics.median(t["wall_s"] - u["wall_s"]
                                      for u, t in zip(untraced, traced))
        else:
            values = [p["layers"][name] for p in traced]
            if unit == "count" and len(set(values)) > 1:
                unstable.append(f"count {name} differs between passes: {values}")
            value = statistics.median(values)
        out[name] = {"value": value, "unit": unit}
    return out, unstable


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("census", "ledger"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    t_start = time.perf_counter()
    deadline = t_start + DEADLINE_S
    # on SIGTERM, unwind so subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join("src", "juliazeta", "__init__.py")):
        print("run from the root of a juliazeta checkout: src/juliazeta is missing",
              file=sys.stderr)
        return 2
    # the metric names and units come from the benchmark's contract
    with open("BENCHMARK.json") as fh:
        contract = json.load(fh)
    units = {kind: {m["name"]: m["unit"] for m in contract[kind]}
             for kind in ("end_to_end", "per_layer")}
    seconds = args.seconds or contract["run_seconds"]
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)

    setups: list[dict] = []
    passes: list[dict] = []
    rounds: list[float] = []
    t_loop = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        if not args.trace:
            for _ in range(SETUP_PER_PASS):
                setups.append(_worker(args, out, deadline, setup_only=True))
        traced = bool(args.trace) and len(passes) % 2 == 1
        p = _worker(args, out, deadline, trace=traced)
        p["traced"] = traced
        passes.append(p)
        rounds.append(time.perf_counter() - t_round)
        elapsed = time.perf_counter() - t_loop
        # a traced run needs two traced passes to compare their counts
        if "error" in p or (len(passes) >= 1 + 3 * args.trace
                            and elapsed + statistics.median(rounds) > seconds):
            break

    good = [p for p in passes if "error" not in p]
    # every operation of a pass whose process failed counts as failed
    steps = max((p["attempted"] for p in good), default=1)
    attempted = steps * len(passes)
    failed = 0
    for p in passes:
        if "error" in p:
            print(f"pass failed: {p['error']}", file=sys.stderr)
            failed += steps
            continue
        failed += len(p["failures"])
        for step, msgs in p["failures"].items():
            for msg in msgs:
                print(f"check failed [{args.workload} seed {args.seed}] {step}: {msg}",
                      file=sys.stderr)
    for s in setups:
        if "error" in s:
            print(f"set-up process failed: {s['error']}", file=sys.stderr)
    setup_samples = [s["setup_s"] for s in setups + good if "error" not in s]
    env = next((p["env"] for p in good), {})
    print(f"# workload {args.workload}, seed {args.seed}, inputs "
          f"{json.dumps(good[0]['inputs']) if good else '?'}")
    print(f"# {len(passes)} passes ({sum(p['traced'] for p in passes)} traced), "
          f"{len(setups)} set-up-only processes, environment {json.dumps(env)}")
    print(f"# wall_s per pass {[round(p['wall_s'], 4) for p in good]}, "
          f"setup_s per process {[round(s, 4) for s in setup_samples]}")

    if args.trace:
        traced = [p for p in good if p["traced"]]
        untraced = [p for p in good if not p["traced"]]
        if not (traced and untraced):
            print("no complete traced and untraced pass", file=sys.stderr)
            return 1
        metrics, unstable = _layers(units["per_layer"], traced, untraced)
        for msg in unstable:
            print(msg, file=sys.stderr)
        failed += len(unstable)
    else:
        if not good or not setup_samples:
            print("no complete pass", file=sys.stderr)
            return 1
        samples = {"wall_s": [p["wall_s"] for p in good],
                   "cpu_s": [p["cpu_s"] for p in good],
                   "peak_rss_mb": [p["peak_rss_mb"] for p in good],
                   "setup_s": setup_samples}
        metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
                   for name, unit in units["end_to_end"].items()}
        print(f"# medians over {len(good)} passes; setup_s over "
              f"{len(setup_samples)} processes")
    for name, m in metrics.items():
        print(f"{name:>26} {m['value']:14.6g} {m['unit']}")
    print(f"# attempted {attempted}, failed {failed}, "
          f"{time.perf_counter() - t_start:.1f} s in all")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
