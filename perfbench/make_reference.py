"""Record reference.json: the outputs every workload check compares against.

For each toss of the fixed pools this records what the CLI computes for it
alone: the evaluate-convex per-toss errors, the sweep-pgs per-toss
configuration error at every grid point (null where the rollout diverged),
and the simulate-long final poses and row counts. A check then combines the
entries of the tosses a command saw. It also records what each toss costs
(``cost_ms``: the time of its rollouts, fastest of a few repeats at
reference host speed, see ``calibrate.py``), which only balances the work
between a run's fixtures. Re-run only when a change is meant to alter simulated motion, and
say so in the change:

    python3 perfbench/make_reference.py
"""
from __future__ import annotations

import json
import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import cubetoss as ct  # noqa: E402
import workloads as wl  # noqa: E402


def _truths(kind: str, duration: float) -> list:
    return wl.make_dataset(wl.pool(kind), wl.truth_params(), ct.cube_inertial(), ct.cube_geometry(),
                           ct.SimConfig(), duration)


def _report(truth, params):
    (rep, diverged), = ct.rollout_reports([truth], params, ct.cube_inertial(), ct.cube_geometry(), ct.SimConfig())
    return rep, diverged


def _timed(fn, repeats):
    """fn's result and its fastest time over the repeats at reference host speed, in milliseconds."""
    best = float("inf")
    before = calibrate.seconds()
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        after = calibrate.seconds()
        best = min(best, 1e3 * elapsed / calibrate.factor(before, after))
        before = after
    return result, best


def evaluate_reference() -> dict:
    w = wl.EvaluateConvex(1, 1)
    params = ct.param_preset(w.preset)
    out, cost = {}, []
    for i, truth in enumerate(_truths(w.pool_kind, w.truth_duration)):
        (rep, diverged), ms = _timed(lambda: _report(truth, params), 3)
        out[str(i)] = {"diverged": diverged, **(rep.to_dict() if rep else {})}
        cost.append(ms)
    out["cost_ms"] = cost
    return out


def sweep_reference(grid: int) -> dict:
    w = wl.SweepPgs(1, 1, grid=grid)
    base = ct.param_preset(w.preset)
    domain = ct.cube_domain(base.model)
    mu = domain.axes[0].grid(grid)  # the CLI's linear axis
    k_axis = domain.axes[1]
    k = np.logspace(np.log10(max(k_axis.lower, 1e-12)), np.log10(k_axis.upper), grid)  # the CLI's --log axis
    losses, cost = {}, []
    for i, truth in enumerate(_truths(w.pool_kind, w.truth_duration)):
        grid_reports = lambda: [[_report(truth, replace(base, mu=float(m), k=float(kk)))[0] for kk in k]  # noqa: E731
                                for m in mu]
        reports, ms = _timed(grid_reports, 2)
        losses[str(i)] = [[rep.config_error if rep else None for rep in row] for row in reports]
        cost.append(ms)
    return {"axes": [mu.tolist(), k.tolist()], "losses": losses, "cost_ms": cost}


def simulate_reference() -> dict:
    w = wl.SimulateLong(1, 1)
    params = ct.param_preset(w.preset)
    cfg = ct.SimConfig(downsample=1)
    out, cost = {}, []
    for i, x0 in enumerate(wl.pool(w.pool_kind)):
        full, ms = _timed(lambda: ct.simulate(x0, params, ct.cube_inertial(), ct.cube_geometry(), cfg, w.duration), 2)
        down = full.downsampled(ct.SimConfig().downsample)
        out[str(i)] = {
            key: {"rows": len(t), "pos": t.pos[-1].tolist(), "quat": t.quat[-1].tolist()}
            for key, t in (("out", down), ("full", full))
        }
        cost.append(ms)
    out["cost_ms"] = cost
    return out


def main() -> int:
    grid = wl.SIZES["full"]["sweep-pgs"]["grid"]
    ref = {
        "pool_seed": wl.POOL_SEED,
        "pool_size": wl.POOL_SIZE,
        "evaluate-convex": evaluate_reference(),
        "sweep-pgs": sweep_reference(grid),
        "simulate-long": simulate_reference(),
    }
    wl.REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {wl.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
