"""The benchmark in perfbench/ reaches into the library by name: its
tracer wraps functions and methods, and its workloads build the systems
and evaluators their jobs use.  Installing the tracer and setting up
both workloads here makes a renamed or deleted name fail this suite
before it fails the benchmark.  Nothing under perfbench/ is changed."""

import importlib
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture
def perfbench(monkeypatch):
    # no bytecode cache is written next to the benchmark's sources
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(PERFBENCH)
    return importlib.import_module("tracing"), importlib.import_module("workloads")


def test_tracer_installs_and_uninstalls(perfbench):
    tracing, _ = perfbench
    from juliazeta.zeta import FredholmEvaluator
    call = FredholmEvaluator.__call__
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert FredholmEvaluator.__call__ is not call
    finally:
        tracer.uninstall()
    assert FredholmEvaluator.__call__ is call


@pytest.mark.parametrize("workload", ["census", "ledger"])
def test_workloads_set_up(perfbench, workload):
    _, workloads = perfbench
    workloads.set_up(workloads.make_plan(workload, 0))


@pytest.mark.parametrize("workload", ["census", "ledger"])
def test_workload_jobs_run(perfbench, tmp_path, workload):
    # every job config of the seed-0 plan runs: a key the CLI refuses
    # fails here before it fails the benchmark
    from juliazeta.cli import run_job
    _, workloads = perfbench
    for k, step in enumerate(workloads.make_plan(workload, 0).steps):
        if step.config is not None:
            written = run_job(step.config, str(tmp_path / str(k)))
            assert written[-1].endswith("manifest.json")


def test_loaded_catalog_passes_the_load_check(perfbench, tmp_path):
    # the ledger's load step: the catalog an orbits job saved, loaded back;
    # then at the ledger's own catalog (tol_point 5e-13, n = 16)
    _, workloads = perfbench
    from juliazeta.dynamics import MapSpec, build_orbit_catalog, load_catalog, save_catalog
    path = tmp_path / "catalog.json"
    for spec, n_max in ((MapSpec(c=-6.0), 8), (MapSpec(c=-6.0, tol_point=5e-13), 16)):
        save_catalog(build_orbit_catalog(spec, n_max), str(path))
        assert workloads.check_load(load_catalog(str(path)), str(tmp_path)) == []
