"""Spans and counters recorded around the calls into each foilwind module.

Nothing in foilwind changes. ``instrument`` rebinds, for the duration of a
``with`` block, the module attributes and class methods that foilwind looks
up at call time (``foilwind.solver.splu``, ``foilwind.solver.newton_solve``,
``foilwind.formulations.power_law``, ``AssemblyContext.assemble``, ...), and
restores the originals on exit. Each wrapped call records one span: name,
start, end, parent span and run id. A span name is ``<module>.<call>``; the
module is the layer.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT_SPAN = "runner.execute_run"
LAYERS = ("runner", "mesh", "spaces", "formulations", "materials", "solver", "postprocess", "vtk_io")


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the recorder's span list, -1 for a root span
    run_id: int


class Recorder:
    """Spans and counters of one run, kept in memory until the run ends."""

    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self.trace = None  # SolutionTrace returned by run_transient

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        self.counts[name] += 1
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, perf_counter(), float("nan"), parent, self.run_id))
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx].end = perf_counter()

    def totals(self) -> dict[str, float]:
        """Summed duration per span name."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += s.end - s.start
        return out


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Self time summed per layer (the module prefix of each span name)."""
    out = dict.fromkeys(LAYERS, 0.0)
    for s, t in zip(spans, self_times(spans)):
        layer = s.name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + t
    return out


class _TimedLU:
    """SuperLU factor whose triangular solves are recorded as spans."""

    def __init__(self, lu, rec: Recorder):
        self._lu = lu
        self._rec = rec

    def solve(self, rhs, *args, **kwargs):
        return self._rec.call("solver.trisolve", self._lu.solve, rhs, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _spanned(rec: Recorder, name: str, fn, size_of_result: str | None = None):
    def wrapper(*args, **kwargs):
        result = rec.call(name, fn, *args, **kwargs)
        if size_of_result:
            rec.counts[size_of_result] += Path(result).stat().st_size
        return result

    return wrapper


def _newton_solve(rec: Recorder, fn, nonconvergence):
    """newton_solve that counts attempts, iterations and line-search trials.

    Every residual evaluation after the first of an attempt is a line-search
    trial, so trials are counted on the solver's side of the call into the
    formulation, independently of ``formulations.assemble``.
    """

    def wrapper(system_fn, *args, **kwargs):
        evals = 0

        def counted(u):
            nonlocal evals
            evals += 1
            return system_fn(u)

        try:
            u, stats = rec.call("solver.newton_solve", fn, counted, *args, **kwargs)
        except nonconvergence as exc:
            rec.counts["solver.rejected_attempts"] += 1
            rec.counts["solver.newton_iters"] += exc.stats.iterations if exc.stats else 0
            raise
        finally:
            rec.counts["solver.linesearch_trials"] += max(evals - 1, 0)
        rec.counts["solver.accepted_steps"] += 1
        rec.counts["solver.newton_iters"] += stats.iterations
        return u, stats

    return wrapper


@contextmanager
def instrument(rec: Recorder):
    """Route foilwind's calls through ``rec`` while the block runs."""
    from foilwind import formulations, postprocess, runner, solver
    from foilwind.formulations import AssemblyContext

    def run_transient(*args, **kwargs):
        rec.trace = rec.call("solver.run_transient", orig_run_transient, *args, **kwargs)
        return rec.trace

    def splu(*args, **kwargs):
        return _TimedLU(rec.call("solver.factor", orig_splu, *args, **kwargs), rec)

    orig_run_transient = runner.run_transient
    orig_splu = solver.splu
    patches = [
        (runner, "build_mesh", _spanned(rec, "mesh.build", runner.build_mesh)),
        (runner, "build_dof_layout", _spanned(rec, "spaces.layout", runner.build_dof_layout)),
        (AssemblyContext, "__init__",
         _spanned(rec, "formulations.context", AssemblyContext.__init__)),
        (runner, "run_transient", run_transient),
        (solver, "newton_solve",
         _newton_solve(rec, solver.newton_solve, solver.NonConvergenceError)),
        (solver, "splu", splu),
        (AssemblyContext, "assemble",
         _spanned(rec, "formulations.assemble", AssemblyContext.assemble)),
        (AssemblyContext, "dissipation",
         _spanned(rec, "formulations.dissipation", AssemblyContext.dissipation)),
        (AssemblyContext, "slice_currents",
         _spanned(rec, "formulations.slice_currents", AssemblyContext.slice_currents)),
        (formulations, "power_law", _spanned(rec, "materials.power_law", formulations.power_law)),
        (postprocess, "write_trace_csv",
         _spanned(rec, "postprocess.write_csv", postprocess.write_trace_csv, "postprocess.bytes")),
        (postprocess, "write_slice_csv",
         _spanned(rec, "postprocess.write_csv", postprocess.write_slice_csv, "postprocess.bytes")),
        (runner, "snapshot_fields", _spanned(rec, "vtk_io.snapshot_fields", runner.snapshot_fields)),
        (runner, "write_vtk", _spanned(rec, "vtk_io.write_vtk", runner.write_vtk, "vtk_io.bytes")),
    ]
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield rec
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer metrics of one traced run (its root span is ROOT_SPAN)."""
    c = rec.counts
    tot = rec.totals()
    root = next(s for s in rec.spans if s.name == ROOT_SPAN)
    transient = next(i for i, s in enumerate(rec.spans) if s.name == "solver.run_transient")
    trials = c["solver.linesearch_trials"]
    m = {
        "mesh.build_s": tot["mesh.build"],
        "spaces.layout_s": tot["spaces.layout"],
        "formulations.context_s": tot["formulations.context"],
        "formulations.assemble_calls": c["formulations.assemble"],
        "formulations.assemble_s": tot["formulations.assemble"],
        "formulations.assemble_ms_per_call":
            1e3 * tot["formulations.assemble"] / max(c["formulations.assemble"], 1),
        "formulations.dissipation_s": tot["formulations.dissipation"],
        "formulations.slice_currents_s": tot["formulations.slice_currents"],
        "materials.power_law_calls": c["materials.power_law"],
        "materials.power_law_s": tot["materials.power_law"],
        "solver.factor_calls": c["solver.factor"],
        "solver.factor_s": tot["solver.factor"],
        "solver.factor_ms_per_call": 1e3 * tot["solver.factor"] / max(c["solver.factor"], 1),
        "solver.trisolve_s": tot["solver.trisolve"],
        "solver.accepted_steps": c["solver.accepted_steps"],
        "solver.rejected_attempts": c["solver.rejected_attempts"],
        "solver.newton_solve_calls": c["solver.newton_solve"],
        "solver.newton_iters": c["solver.newton_iters"],
        "solver.linesearch_trials": trials,
        "solver.backtracks": trials - c["solver.newton_iters"],
        "solver.trial_accept_ratio": c["solver.newton_iters"] / trials if trials else 0.0,
        "solver.self_s": self_times(rec.spans)[transient],
        "runner.post_s": root.end - rec.spans[transient].end,
        "postprocess.csv_s": tot["postprocess.write_csv"],
        "postprocess.bytes": c["postprocess.bytes"],
        "vtk_io.write_s": tot["vtk_io.write_vtk"],
        "vtk_io.bytes": c["vtk_io.bytes"],
        "solver.states_mb": sum(s.nbytes for s in rec.trace.states or ()) / 1e6,
    }
    for layer, t in layer_self_times(rec.spans).items():
        m[f"{layer}.layer_self_s"] = t
    return m


def reconcile(rec: Recorder, summary: dict) -> list[str]:
    """Counter identities that must hold exactly; returns the violations."""
    c = rec.counts
    linsys = summary["linsys_count"]
    rules = [
        ("solver.factor_calls == linsys_count", c["solver.factor"], linsys),
        ("linsys_count == solver.newton_iters (accepted + rejected attempts)",
         linsys, c["solver.newton_iters"]),
        ("formulations.assemble_calls == solver.newton_solve_calls + solver.linesearch_trials",
         c["formulations.assemble"], c["solver.newton_solve"] + c["solver.linesearch_trials"]),
        ("solver.accepted_steps == summary accepted_steps",
         c["solver.accepted_steps"], summary["accepted_steps"]),
        ("solver.newton_solve_calls == accepted_steps + rejected_attempts",
         c["solver.newton_solve"], c["solver.accepted_steps"] + c["solver.rejected_attempts"]),
    ]
    return [f"{rule}: {a} != {b}" for rule, a, b in rules if a != b]


def median_metrics(per_run: list[dict[str, float]]) -> dict[str, float]:
    keys = per_run[0].keys()
    return {k: statistics.median(m[k] for m in per_run) for k in keys}
