"""Span tracing for the benchmark, from wrappers placed where the library
looks names up; the library itself is not modified.

A span is [name, start, end, parent, weight, failed]: `parent` is the
index of the enclosing span (-1 at top level), `weight` is the work the
call did as a count (points evaluated, bytes written, ...; a scan
records [zeros found, zeros unresolved]), and `failed` is set when the
call raised.  Spans stay in memory; `write_spans` dumps
them once the workload has finished.
"""

from __future__ import annotations

import functools
import json
import time

import juliazeta.cli
import juliazeta.cover
import juliazeta.dynamics
import juliazeta.pairing
import juliazeta.util
import juliazeta.zeros
import juliazeta.zeta
from juliazeta.pairing import TestFunction
from juliazeta.zeta import CycleEvaluator, FredholmEvaluator, ModelEvaluator


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn, weigh=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if weigh is not None:
                rec[4] = weigh(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, weigh=None) -> None:
        """Replace owner.attr (a module global or a class attribute) by its
        traced version; `uninstall` restores it."""
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, weigh))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _one(args, result):
    return 1


def _batch_points(args, result):
    return len(result)


def _artifact_bytes(args, result):
    # the manifest records the job's wall time, so its length varies
    return 0 if args[0].endswith("manifest.json") else len(args[1].encode())


def _zeros_found(args, result):
    return [len(result), sum(1 for r in result if not r.resolved)]


def _catalog_points(args, result):
    return sum(len(o.orbit) for o in result.orbits)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read.

    A function imported by name into another module is wrapped in each
    module that calls it, since that module's global is what the call
    resolves; methods are wrapped on their class."""
    cli, dyn, cov = juliazeta.cli, juliazeta.dynamics, juliazeta.cover
    zeros, zeta, util = juliazeta.zeros, juliazeta.zeta, juliazeta.util
    pairing = juliazeta.pairing
    tracer.patch(cli, "run_job", "cli.run_job")
    for mod in (util, cli, pairing):
        tracer.patch(mod, "atomic_write_text", "cli.write", _artifact_bytes)
    for mod in (cli, dyn):
        tracer.patch(mod, "build_orbit_catalog", "dynamics.build", _catalog_points)
    tracer.patch(dyn, "load_catalog", "dynamics.load")
    tracer.patch(cli, "save_catalog", "dynamics.save")
    tracer.patch(dyn, "enumerate_words", "words.enumerate")
    tracer.patch(cli, "box_dimension", "cover.box_dimension")
    for mod in (cov, zeta):
        tracer.patch(mod, "backward_cover", "cover.backward_cover",
                     lambda args, result: len(result.elements))
    tracer.patch(cov, "component_stats", "cover.component_stats")
    tracer.patch(FredholmEvaluator, "__init__", "zeta.fredholm.init")
    tracer.patch(FredholmEvaluator, "__call__", "zeta.fredholm.call")
    tracer.patch(FredholmEvaluator, "matrix", "zeta.fredholm.matrix", _one)
    for cls, tag in ((CycleEvaluator, "cycle"), (ModelEvaluator, "model")):
        tracer.patch(cls, "__init__", f"zeta.{tag}.init")
        tracer.patch(cls, "__call__", f"zeta.{tag}.call", _one)
        tracer.patch(cls, "batch", f"zeta.{tag}.batch", _batch_points)
        tracer.patch(cls, "zeta_value", f"zeta.{tag}.value", _one)
        tracer.patch(cls, "dlog", f"zeta.{tag}.dlog")
    for mod in (cli, pairing):
        tracer.patch(mod, "scan_region", "zeros.scan_region", _zeros_found)
    tracer.patch(zeros, "winding_number", "zeros.winding_number")
    tracer.patch(zeros, "refine_zero", "zeros.refine_zero")
    tracer.patch(cli, "leading_real_zero", "zeros.leading_real_zero")
    tracer.patch(cli, "identity_residual", "pairing.identity_residual")
    tracer.patch(TestFunction, "transform", "pairing.transform")


# spans whose weight counts evaluated points of Z (for the Fredholm route,
# determinants: one per assembled matrix)
_EVAL_SPANS = frozenset({"zeta.fredholm.matrix", "zeta.cycle.call", "zeta.cycle.batch",
                         "zeta.cycle.value", "zeta.model.call", "zeta.model.batch",
                         "zeta.model.value"})
_EVALUATOR_PREFIXES = ("zeta.fredholm.call", "zeta.fredholm.matrix", "zeta.cycle.",
                       "zeta.model.")


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced workload pass, from its spans.

    Self time is a span's duration minus that of its direct children.
    Evaluations are attributed to every enclosing span; the winding and
    refinement figures count the spans that a scan opened."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child_time = [0.0] * n
    evals = [s[4] if s[0] in _EVAL_SPANS else 0 for s in spans]
    matrices = [1 if s[0] == "zeta.fredholm.matrix" else 0 for s in spans]
    for i in range(n - 1, -1, -1):
        p = spans[i][3]
        if p >= 0:
            child_time[p] += dur[i]
            evals[p] += evals[i]
            matrices[p] += matrices[i]
    self_time = [d - c for d, c in zip(dur, child_time)]
    weight = [s[4] for s in spans]
    name = [s[0] for s in spans]
    parent_name = [name[s[3]] if s[3] >= 0 else "" for s in spans]

    def total(key, values):
        return sum(v for k, v in zip(name, values) if k == key)

    def under_scan(i):
        return parent_name[i] == "zeros.scan_region"

    def inside(i, prefix):
        p = spans[i][3]
        while p >= 0:
            if name[p].startswith(prefix):
                return True
            p = spans[p][3]
        return False

    m: dict[str, float] = {}
    winding = [i for i in range(n) if name[i] == "zeros.winding_number" and under_scan(i)]
    refine = [i for i in range(n) if name[i] == "zeros.refine_zero" and under_scan(i)]
    scans = [i for i in range(n) if name[i] == "zeros.scan_region"]
    m["zeros.scan_s"] = sum(dur[i] for i in scans)
    m["zeros.scan_evals"] = sum(evals[i] for i in scans)
    found = [spans[i][4] for i in scans if not spans[i][5]]
    m["zeros.zeros_found"] = sum(f[0] for f in found)
    m["zeros.unresolved"] = sum(f[1] for f in found)
    m["zeros.evals_per_zero"] = (m["zeros.scan_evals"] / m["zeros.zeros_found"]
                                 if m["zeros.zeros_found"] else 0.0)
    m["zeros.windings"] = len(winding)
    m["zeros.winding_evals"] = sum(evals[i] for i in winding)
    m["zeros.winding_s"] = sum(dur[i] for i in winding)
    m["zeros.refines"] = len(refine)
    m["zeros.refine_failures"] = sum(1 for i in refine if spans[i][5])
    m["zeros.refine_evals"] = sum(evals[i] for i in refine)
    m["zeros.refine_s"] = sum(dur[i] for i in refine)
    evaluator_in_scan = sum(
        dur[i] for i in range(n)
        if name[i].startswith(_EVALUATOR_PREFIXES)
        and not parent_name[i].startswith(_EVALUATOR_PREFIXES)
        and inside(i, "zeros.scan_region"))
    m["zeros.self_s"] = m["zeros.scan_s"] - evaluator_in_scan
    m["zeros.leading_s"] = total("zeros.leading_real_zero", dur)
    m["zeros.leading_evals"] = total("zeros.leading_real_zero", evals)

    calls = [i for i in range(n) if name[i] == "zeta.fredholm.call"
             and parent_name[i] != "zeta.fredholm.call"]
    fred_evals = name.count("zeta.fredholm.matrix")
    call_self = total("zeta.fredholm.call", self_time)
    m["zeta.fredholm.evals"] = fred_evals
    m["zeta.fredholm.matrix_ms"] = (1e3 * total("zeta.fredholm.matrix", dur) / fred_evals
                                    if fred_evals else 0.0)
    m["zeta.fredholm.lu_ms"] = 1e3 * call_self / fred_evals if fred_evals else 0.0
    m["zeta.fredholm.calls"] = len(calls)
    m["zeta.fredholm.hit_ratio"] = (sum(1 for i in calls if matrices[i] == 0) / len(calls)
                                    if calls else 0.0)
    m["zeta.fredholm.build_s"] = total("zeta.fredholm.init", dur)
    for tag in ("cycle", "model"):
        prefix = f"zeta.{tag}."
        top = [i for i in range(n) if name[i].startswith(prefix)
               and not parent_name[i].startswith(prefix)]
        m[f"zeta.{tag}.points"] = sum(evals[i] for i in top)
        m[f"zeta.{tag}.s"] = sum(dur[i] for i in top)

    builds = [i for i in range(n) if name[i] == "dynamics.build"]
    m["dynamics.catalog_builds"] = len(builds)
    m["dynamics.catalog_s"] = sum(dur[i] for i in builds)
    m["dynamics.points_per_s"] = (total("dynamics.build", weight) / m["dynamics.catalog_s"]
                                  if builds else 0.0)
    m["dynamics.load_s"] = total("dynamics.load", dur)
    m["dynamics.save_s"] = total("dynamics.save", dur)
    m["words.enumerate_s"] = total("words.enumerate", dur)

    m["cover.box_s"] = total("cover.box_dimension", dur)
    m["cover.backward_cover_s"] = total("cover.backward_cover", dur)
    m["cover.components_s"] = total("cover.component_stats", dur)
    m["cover.elements"] = total("cover.backward_cover", weight)

    m["pairing.identity_s"] = total("pairing.identity_residual", dur)
    m["pairing.self_s"] = total("pairing.identity_residual", self_time)
    m["pairing.transforms"] = name.count("pairing.transform")
    m["pairing.transform_s"] = total("pairing.transform", dur)

    m["cli.write_s"] = total("cli.write", dur)
    m["cli.bytes_written"] = total("cli.write", weight)
    m["cli.self_s"] = total("cli.run_job", self_time)
    m["trace.spans"] = n
    return m


def write_spans(spans: list[list], path: str) -> None:
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "weight", "failed"],
                   "spans": spans}, fh, separators=(",", ":"))
