"""One fresh process of the benchmark: set up, run one pass of a
workload's jobs in process through juliazeta.cli.run_job, check the
outputs, and print one JSON line of measurements.

    python3 perfbench/worker.py --workload census --seed 0 --out DIR [--trace] [--setup-only]

run.py starts it with PYTHONPATH pointing at the checkout's src/ and the
BLAS thread count fixed; it is not meant to be run on its own.
"""

import time

_STARTED = time.perf_counter()  # before numpy and juliazeta are imported

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402


def _environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": len(os.sched_getaffinity(0)),
            "juliazeta": os.path.relpath(os.path.dirname(sys.modules["juliazeta"].__file__))}


def _checked(check, *args) -> list[str]:
    try:
        return check(*args)
    except Exception as exc:  # a check that cannot read its output fails
        return [f"check raised {type(exc).__name__}: {exc}"]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import juliazeta.cli
    import juliazeta.dynamics
    import workloads

    plan = workloads.make_plan(args.workload, args.seed)
    workloads.set_up(plan)
    setup_s = time.perf_counter() - _STARTED
    result = {"setup_s": setup_s, "env": _environment()}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    # The checks need the zeros a job found, which not every artifact
    # lists: keep the records each scan_region call returns.
    scans: list[list] = []
    scan_region = juliazeta.cli.scan_region

    def kept_scan(*a, **kw):
        records = scan_region(*a, **kw)
        scans.append(records)
        return records

    juliazeta.cli.scan_region = kept_scan
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    work = os.path.join(args.out, f"pass-{os.getpid()}")
    wall = cpu = 0.0
    failures: dict[str, list[str]] = {}
    outputs: dict[str, str] = {}
    found: dict[str, list] = {}
    for step in plan.steps:
        out = os.path.join(work, step.name)
        outputs[step.name] = out
        before = len(scans)
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            if step.config is None:
                loaded = juliazeta.dynamics.load_catalog(
                    os.path.join(outputs[step.source], "catalog.json"))
            else:
                juliazeta.cli.run_job(step.config, out)
        except Exception as exc:  # a failed operation is counted, not fatal
            failures[step.name] = [f"{type(exc).__name__}: {exc}"]
        finally:
            wall += time.perf_counter() - t0
            cpu += time.process_time() - c0
        found[step.name] = scans[before:]
        if step.config is None and step.name not in failures:
            # checked at once, so the loaded catalog is freed before the next job
            failures[step.name] = _checked(workloads.check_load, loaded,
                                           outputs[step.source])
            del loaded
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracing.layer_metrics(tracer.spans)
        tracing.write_spans(tracer.spans, os.path.join(
            args.out, f"spans-{plan.workload}-{plan.seed}.json"))
    for step in plan.steps:
        if step.name not in failures and step.config is not None:
            failures[step.name] = _checked(workloads.CHECKS[step.config["task"]],
                                           plan, step, outputs[step.name],
                                           found[step.name])
    shutil.rmtree(work, ignore_errors=True)

    result.update(wall_s=wall, cpu_s=cpu, peak_rss_mb=peak_rss_mb,
                  attempted=len(plan.steps),
                  failures={k: v for k, v in failures.items() if v},
                  inputs=plan.inputs)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
