"""Span tracer for the traced benchmark run, and the per-layer numbers it yields.

The tracer lives entirely in the benchmark: ``enable`` swaps the names that
one cubetoss module looks up in another (``cubetoss.cli.optimize``,
``cubetoss.simulate.rigid_pgs_impulse``, ...) for timing wrappers, and
``disable`` puts the originals back, so an untraced command runs the
unmodified program. Spans are kept in memory as
``[name, parent, start, end, attrs]`` and reduced by ``layer_metrics`` when
the run ends. A span's parent is the span open when it started; commands
run in one thread, so children never overlap and a span's self time is its
duration minus the sum of its children's. A call that raises keeps its span
but not the attributes its hook would add.
"""
from __future__ import annotations

import contextlib
import importlib
import os
import time

import numpy as np

from cubetoss.metrics import DIVERGENCE_PENALTY
from cubetoss.solvers import ConvexSolverError

# by import path: the package re-exports a function named ``simulate`` over its module
cli, identify, ctio, metrics, simulate = (
    importlib.import_module(f"cubetoss.{m}") for m in ("cli", "identify", "io", "metrics", "simulate")
)

NAME, PARENT, START, END, ATTRS = range(5)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _simulate_attrs(args, kwargs, result, attrs):
    cfg, duration = _arg(args, kwargs, 4, "cfg"), _arg(args, kwargs, 5, "duration")
    attrs["steps"] = int(round(duration / cfg.dt))


def _solver_attrs(args, kwargs, result, attrs):
    attrs["iterations"] = result.iterations
    attrs["converged"] = result.converged


def _reports_attrs(args, kwargs, result, attrs):
    attrs["diverged"] = sum(1 for _, div in result if div)


def _save_attrs(args, kwargs, result, attrs):
    traj, path = _arg(args, kwargs, 0, "traj"), _arg(args, kwargs, 1, "path")
    attrs["rows"] = len(traj)
    attrs["bytes"] = os.path.getsize(path)


def _results_save_attrs(args, kwargs, result, attrs):
    attrs["bytes"] = os.path.getsize(_arg(args, kwargs, 1, "path"))


def _loss_attrs(args, kwargs, result, attrs):
    # a diverged rollout adds the penalty to the mean; physical losses stay far below it
    n = len(_arg(args, kwargs, 0, "truths"))
    attrs["diverged"] = int(result * n // DIVERGENCE_PENALTY)


# (module or class, attribute, span name, attrs hook); one entry per call site
PATCHES = (
    (cli, "optimize", "identify.optimize", None),
    (cli, "sweep", "identify.sweep", None),
    (cli, "dataset_loss", "metrics.dataset_loss", _loss_attrs),
    (cli, "rollout_reports", "metrics.rollout_reports", _reports_attrs),
    (identify, "rollout_reports", "metrics.rollout_reports", _reports_attrs),
    (metrics, "rollout_reports", "metrics.rollout_reports", None),
    (metrics, "cube_config_error", "metrics.cube_config_error", None),
    (metrics, "simulate", "simulate", _simulate_attrs),
    (cli, "simulate", "simulate", _simulate_attrs),
    (simulate, "regularized_convex_impulse", "solvers.regularized_convex", _solver_attrs),
    (simulate, "rigid_pgs_impulse", "solvers.rigid_pgs", _solver_attrs),
    (cli, "import_cube_dataset", "io.import_cube_dataset", None),
    (cli, "load_trajectory", "io.load_trajectory", None),
    (ctio, "load_trajectory", "io.load_trajectory", None),
    (cli, "save_trajectory", "io.save_trajectory", _save_attrs),
    (ctio, "save_trajectory", "io.save_trajectory", _save_attrs),
    (ctio.ResultsDocument, "save", "io.results_save", _results_save_attrs),
)


class Tracer:
    """Records spans around the calls listed in PATCHES while enabled."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._originals: list[tuple] = []

    def _wrap(self, fn, name, hook):
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            span = [name, open_[-1] if open_ else -1, 0.0, 0.0, {}]
            spans.append(span)
            open_.append(len(spans) - 1)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except ConvexSolverError:
                span[ATTRS]["error"] = True
                raise
            finally:
                span[END] = time.perf_counter()
                open_.pop()
            if hook is not None:
                hook(args, kwargs, result, span[ATTRS])
            return result

        return traced

    def enable(self) -> None:
        if self._originals:
            return
        for owner, attr, name, hook in PATCHES:
            fn = owner.__dict__[attr]
            self._originals.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, hook))

    def disable(self) -> None:
        for owner, attr, fn in reversed(self._originals):
            setattr(owner, attr, fn)
        self._originals.clear()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one CLI command."""
        span = [name, self._open[-1] if self._open else -1, time.perf_counter(), 0.0, {}]
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        try:
            yield span[ATTRS]
        finally:
            span[END] = time.perf_counter()
            self._open.pop()


# --- reduction -------------------------------------------------------------------


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _self_frac(spans, children, names) -> float:
    total = busy = 0.0
    for i, s in enumerate(spans):
        if s[NAME] in names:
            dur = s[END] - s[START]
            total += dur
            busy += sum(spans[c][END] - spans[c][START] for c in children.get(i, ()))
    return (total - busy) / total if total > 0.0 else 0.0


def layer_metrics(spans: list[list]) -> dict:
    """Per-layer counts and timings from the spans of traced commands and set-up."""
    children: dict[int, list[int]] = {}
    by_name: dict[str, list[list]] = {}
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append(i)
        by_name.setdefault(s[NAME], []).append(s)

    def durs(name):
        return [s[END] - s[START] for s in by_name.get(name, ())]

    out: dict[str, float] = {}
    out["cli.self_frac"] = _self_frac(spans, children, {"cli"})
    ident = [i for i, s in enumerate(spans) if s[NAME] in ("identify.optimize", "identify.sweep")]
    out["identify.evaluations"] = sum(len(children.get(i, ())) for i in ident)
    out["identify.self_frac"] = _self_frac(spans, children, {"identify.optimize", "identify.sweep"})

    out["metrics.dataset_loss.ms_p50"] = 1e3 * _pct(durs("metrics.dataset_loss"), 50)
    out["metrics.cube_config_error.us_per_call_p50"] = 1e6 * _pct(durs("metrics.cube_config_error"), 50)
    # rollout_reports called inside dataset_loss carries no count, so nothing is counted twice
    out["metrics.diverged_rollouts"] = sum(
        s[ATTRS].get("diverged", 0) for n in ("metrics.dataset_loss", "metrics.rollout_reports")
        for s in by_name.get(n, ())
    )

    sims = by_name.get("simulate", [])
    sim_time = sum(durs("simulate"))
    out["simulate.rollouts"] = len(sims)
    out["simulate.steps"] = sum(s[ATTRS].get("steps", 0) for s in sims)  # a diverged rollout adds none
    out["simulate.rollout_ms_p50"] = 1e3 * _pct(durs("simulate"), 50)
    out["simulate.rollout_ms_p90"] = 1e3 * _pct(durs("simulate"), 90)
    solver_time = sum(durs("solvers.regularized_convex")) + sum(durs("solvers.rigid_pgs"))
    out["simulate.solver_frac"] = solver_time / sim_time if sim_time > 0.0 else 0.0

    qp = by_name.get("solvers.regularized_convex", [])
    qp_ok = [s for s in qp if "error" not in s[ATTRS]]
    iters = [s[ATTRS]["iterations"] for s in qp_ok]
    out["solvers.regularized_convex.calls"] = len(qp)
    out["solvers.regularized_convex.us_per_call_p50"] = 1e6 * _pct(durs("solvers.regularized_convex"), 50)
    out["solvers.regularized_convex.iters_p50"] = _pct(iters, 50)
    out["solvers.regularized_convex.iters_p90"] = _pct(iters, 90)
    out["solvers.regularized_convex.iters_max"] = max(iters, default=0)
    out["solvers.regularized_convex.us_per_iter"] = (
        1e6 * sum(s[END] - s[START] for s in qp_ok) / sum(iters) if sum(iters) else 0.0
    )
    out["solvers.regularized_convex.errors"] = len(qp) - len(qp_ok)

    pgs = by_name.get("solvers.rigid_pgs", [])
    sweeps = [s[ATTRS]["iterations"] for s in pgs]
    unconverged = sum(1 for s in pgs if not s[ATTRS]["converged"])
    out["solvers.rigid_pgs.calls"] = len(pgs)
    out["solvers.rigid_pgs.us_per_call_p50"] = 1e6 * _pct(durs("solvers.rigid_pgs"), 50)
    out["solvers.rigid_pgs.sweeps_p50"] = _pct(sweeps, 50)
    out["solvers.rigid_pgs.sweeps_p90"] = _pct(sweeps, 90)
    out["solvers.rigid_pgs.unconverged"] = unconverged
    out["solvers.rigid_pgs.unconverged_frac"] = unconverged / len(pgs) if pgs else 0.0
    out["solvers.rigid_pgs.us_per_sweep"] = 1e6 * sum(durs("solvers.rigid_pgs")) / sum(sweeps) if sweeps else 0.0

    saves = by_name.get("io.save_trajectory", [])
    rows = sum(s[ATTRS].get("rows", 0) for s in saves)
    out["io.load_trajectory.ms_p50"] = 1e3 * _pct(durs("io.load_trajectory"), 50)
    out["io.save_trajectory.ms_p50"] = 1e3 * _pct(durs("io.save_trajectory"), 50)
    out["io.save_trajectory.us_per_row"] = 1e6 * sum(durs("io.save_trajectory")) / rows if rows else 0.0
    out["io.bytes_written"] = sum(
        s[ATTRS].get("bytes", 0) for n in ("io.save_trajectory", "io.results_save") for s in by_name.get(n, ())
    )
    out["io.results_save_ms"] = 1e3 * _pct(durs("io.results_save"), 50)
    return out


# counts that repeat exactly for one seed; the run takes them from its first pass only
COUNT_KEYS = (
    "identify.evaluations",
    "metrics.diverged_rollouts",
    "simulate.rollouts",
    "simulate.steps",
    "solvers.regularized_convex.calls",
    "solvers.regularized_convex.iters_p50",
    "solvers.regularized_convex.iters_p90",
    "solvers.regularized_convex.iters_max",
    "solvers.regularized_convex.errors",
    "solvers.rigid_pgs.calls",
    "solvers.rigid_pgs.sweeps_p50",
    "solvers.rigid_pgs.sweeps_p90",
    "solvers.rigid_pgs.unconverged",
    "solvers.rigid_pgs.unconverged_frac",
    "io.bytes_written",
)
