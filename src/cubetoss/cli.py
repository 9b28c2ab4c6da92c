"""Command-line entry point: simulate, evaluate, identify, sweep.

Every command echoes its full semantic configuration into the result
document so a run can be reproduced exactly. Outputs are data files (CSV
trajectories and grids, JSON documents); plotting stays outside the tool.
Exit codes: 0 success, 2 configuration or parse error, 3 simulation
divergence (including a convex solve that hits its iteration cap or meets a
non-finite contact problem).
"""
from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from ._version import __version__
from .body import SimConfig
from .identify import optimize, sweep
from .io import ResultsDocument, TrajectoryFileError, import_cube_dataset, load_trajectory, save_trajectory
from .metrics import dataset_loss, rollout_reports
from .presets import PARAM_PRESETS, cube_domain, cube_geometry, cube_inertial, param_preset
from .simulate import SimulationDivergence, simulate
from .solvers import ContactParams, MODELS

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3

WORKERS_ENV = "CUBETOSS_WORKERS"


class CliError(Exception):
    pass


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", help=f"parameter preset, one of {sorted(PARAM_PRESETS)}")
    p.add_argument("--params", help="key=value file with model, mu, k, b and optionally d_interp")
    p.add_argument("--model", choices=MODELS, help="contact model (with explicit --mu/--k/--b)")
    p.add_argument("--mu", type=float, help="friction coefficient")
    p.add_argument("--k", type=float, help="contact stiffness")
    p.add_argument("--b", type=float, help="contact damping or dissipation")
    p.add_argument("--d-interp", type=float, default=None, help="convex model interpolation weight")


def _add_sim_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rate", type=float, default=1480.0, help="integration rate in Hz (default 1480)")
    p.add_argument("--downsample", type=int, default=10, help="keep every n-th sample (default 10)")
    p.add_argument("--margin", type=float, default=1e-3, help="contact activation margin in m")
    p.add_argument("--slip-tol", type=float, default=1e-3, help="friction regularization velocity in m/s")
    p.add_argument("--solver-iters", type=int, default=None, help="override the solver iteration cap")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workers", type=int, default=None,
                   help=f"parallel rollout workers (env {WORKERS_ENV}; results do not depend on this)")


PARAMS_FILE_KEYS = tuple(f.name for f in dataclasses.fields(ContactParams))


def _parse_params_file(path: str) -> dict:
    values: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise CliError(f"{path}: line {lineno}: expected key=value")
        key = key.strip()
        val = val.strip()
        if key not in PARAMS_FILE_KEYS:
            raise CliError(f"{path}: line {lineno}: unknown key {key!r}, expected one of {PARAMS_FILE_KEYS}")
        if key != "model":
            try:
                val = float(val)
            except ValueError:
                raise CliError(f"{path}: line {lineno}: {key} must be a number, got {val!r}") from None
        values[key] = val
    missing = {"model", "mu", "k", "b"} - set(values)
    if missing:
        raise CliError(f"{path}: missing keys {sorted(missing)}")
    return values


def _resolve_params(args) -> ContactParams:
    """--preset, else --params, else --model/--mu/--k/--b; then --mu/--k/--b/--d-interp override it."""
    d_interp_from = "--d-interp" if args.d_interp is not None else None
    if args.preset:
        base, source = param_preset(args.preset), f"preset {args.preset}"
    elif args.params:
        values = _parse_params_file(args.params)
        base, source = ContactParams(**values), args.params
        if "d_interp" in values:
            d_interp_from = d_interp_from or f"d_interp in {args.params}"
    elif None in (args.model, args.mu, args.k, args.b):
        raise CliError("give --preset, --params, or all of --model/--mu/--k/--b")
    else:
        base, source = ContactParams(args.mu, args.k, args.b, args.model), None
    if args.model and args.model != base.model:
        raise CliError(f"{source} is for model {base.model}, not {args.model}")
    if d_interp_from and base.model != "regularized_convex":
        raise CliError(f"{d_interp_from} has no effect with model {base.model}; only regularized_convex uses it")
    flags = {name: getattr(args, name) for name in ("mu", "k", "b", "d_interp")}
    return dataclasses.replace(base, **{name: v for name, v in flags.items() if v is not None})


def _sim_config(args, model: str) -> SimConfig:
    if not (0.0 < args.rate < math.inf):
        raise CliError(f"--rate must be a positive finite number of Hz, got {args.rate}")
    if args.solver_iters is not None and model == "compliant":
        raise CliError("--solver-iters has no effect with model compliant, which does not iterate")
    return SimConfig(
        dt=1.0 / args.rate,
        downsample=args.downsample,
        solver=model,
        solver_iters=args.solver_iters,
        slip_tolerance=args.slip_tol,
        activation_margin=args.margin,
    )


def _workers(args) -> int:
    if args.workers is not None:
        n, source = args.workers, "--workers"
    else:
        env = os.environ.get(WORKERS_ENV)
        if not env:
            return 1
        try:
            n, source = int(env), WORKERS_ENV
        except ValueError:
            raise CliError(f"{WORKERS_ENV} must be an integer, got {env!r}") from None
    if n < 1:
        raise CliError(f"{source} must be at least 1, got {n}")
    return n


@contextlib.contextmanager
def _executor(args):
    """The rollout process pool for --workers or CUBETOSS_WORKERS, or None for one worker; shut down on exit."""
    n = _workers(args)
    if n <= 1:
        yield None
        return
    with concurrent.futures.ProcessPoolExecutor(max_workers=n) as ex:
        yield ex


def _sim_dict(args) -> dict:
    return {"rate_hz": args.rate, "downsample": args.downsample, "margin_m": args.margin,
            "slip_tolerance": args.slip_tol, "solver_iters": args.solver_iters}


def _population_stats(values) -> dict:
    arr = np.asarray(values, dtype=float)
    return {"mean": float(np.mean(arr)), "std": float(np.std(arr))}


def _load_dataset(path: str):
    trajs = import_cube_dataset(path)
    if not trajs:
        raise CliError(f"{path}: dataset is empty")
    return trajs


# --- commands ------------------------------------------------------------------


def _cmd_simulate(args) -> int:
    params = _resolve_params(args)
    cfg = _sim_config(args, params.model)
    x0_traj = load_trajectory(args.x0)
    x0 = x0_traj.initial_state
    if args.duration is None:
        duration = x0_traj.duration
        if duration <= 0.0:
            raise CliError("x0 file has a single row; give --duration")
    elif 0.0 < args.duration < math.inf:
        duration = args.duration
    else:
        raise CliError(f"--duration must be a positive finite number of seconds, got {args.duration}")
    geom, inertia = cube_geometry(), cube_inertial()
    full_cfg = dataclasses.replace(cfg, downsample=1)
    try:
        full = simulate(x0, params, inertia, geom, full_cfg, duration)
    except SimulationDivergence as err:
        marker = Path(args.out).with_suffix(".partial.json")
        marker.write_text(json.dumps({"error": str(err), "step_index": err.step_index}) + "\n")
        print(f"error: {err} (marker written to {marker})", file=sys.stderr)
        return EXIT_DIVERGENCE
    out = full.downsampled(cfg.downsample)
    out.meta.update({"body": "cube", "side_m": 2.0 * float(geom.half_extents[0])})
    save_trajectory(out, args.out)
    if args.full_out:
        full.meta.update(out.meta)
        save_trajectory(full, args.full_out)
    print(f"wrote {len(out)} samples at {out.rate_hz:g} Hz to {args.out}")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    params = _resolve_params(args)
    cfg = _sim_config(args, params.model)
    trajs = _load_dataset(args.dataset)
    with _executor(args) as ex:
        reports = rollout_reports(trajs, params, cube_inertial(), cube_geometry(), cfg, executor=ex)
    per_traj = []
    scored = []
    for i, (rep, div) in enumerate(reports):
        entry = {"index": i, "diverged": div}
        if rep is not None:
            entry.update(rep.to_dict())
            scored.append(rep)
        per_traj.append(entry)
    if not scored:
        raise CliError("every rollout diverged; nothing to report")
    results = {
        "n_trajectories": len(trajs),
        "n_diverged": sum(1 for _, d in reports if d),
        "position_error_pct": _population_stats([100.0 * r.position_error_frac for r in scored]),
        "rotation_error_deg": _population_stats([r.rotation_error_deg for r in scored]),
        "config_error": _population_stats([r.config_error for r in scored]),
        "per_trajectory": per_traj,
    }
    doc = ResultsDocument(
        command="evaluate",
        config={"dataset": args.dataset, "params": dataclasses.asdict(params), "sim": _sim_dict(args)},
        results=results,
    )
    doc.save(args.out)
    pe, re_, eq = results["position_error_pct"], results["rotation_error_deg"], results["config_error"]
    print(f"position err {pe['mean']:.1f} +- {pe['std']:.1f} % width | "
          f"rotation err {re_['mean']:.1f} +- {re_['std']:.1f} deg | "
          f"config err {eq['mean']:.3f} +- {eq['std']:.3f}")
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_identify(args) -> int:
    if args.model is None:
        raise CliError("--model is required for identify")
    domain = cube_domain(args.model)
    cfg = _sim_config(args, args.model)
    trajs = _load_dataset(args.dataset)
    geom, inertia = cube_geometry(), cube_inertial()

    train = trajs
    holdout = []
    if args.train is not None:
        if not (0 < args.train <= len(trajs)):
            raise CliError(f"--train must be in 1..{len(trajs)}")
        order = np.random.default_rng(args.seed).permutation(len(trajs))
        train = [trajs[i] for i in order[: args.train]]
        holdout = [trajs[i] for i in order[args.train :]]

    with _executor(args) as ex:
        def loss_fn(point: dict) -> float:
            params = ContactParams(model=args.model, **point)
            return dataset_loss(train, params, inertia, geom, cfg, executor=ex)

        result = optimize(loss_fn, domain, budget=args.budget, seed=args.seed)
        best = ContactParams(model=args.model, **result.params)
        holdout_loss = (
            dataset_loss(holdout, best, inertia, geom, cfg, executor=ex) if holdout else None
        )

    results = {
        "params": dataclasses.asdict(best),
        "loss": result.loss,
        "n_evaluations": result.n_evaluations,
        "best_index": result.best_index,
        "holdout_loss": holdout_loss,
        "history": [
            {"index": i, **dict(zip(domain.names, p.tolist())), "loss": float(l)}
            for i, (p, l) in enumerate(zip(result.history_params, result.history_loss))
        ],
    }
    doc = ResultsDocument(
        command="identify",
        config={
            "dataset": args.dataset,
            "model": args.model,
            "domain": domain.to_dict(),
            "budget": args.budget,
            "seed": args.seed,
            "train": args.train,
            "sim": _sim_dict(args),
        },
        results=results,
    )
    doc.save(args.out)
    print(f"best loss {result.loss:.6g} at mu={best.mu:.4f} k={best.k:.6g} b={best.b:.6g} "
          f"({result.n_evaluations} evaluations)")
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if args.grid < 1:
        raise CliError(f"--grid must be at least 1, got {args.grid}")
    params = _resolve_params(args)
    cfg = _sim_config(args, params.model)
    trajs = _load_dataset(args.dataset)
    axis_names = [a.strip() for a in args.axes.split(",") if a.strip()]
    log_axes = {a.strip() for a in (args.log or "").split(",") if a.strip()}
    domain = cube_domain(params.model)
    axes = []
    for name in axis_names:
        spec = next((a for a in domain.axes if a.name == name), None)
        if spec is None:
            raise CliError(f"cannot sweep {name!r}")
        if spec.log:
            log_axes.add(name)
        if args.grid == 1:
            values = np.array([getattr(params, name)])  # single point sits at the baseline
        elif name in log_axes:
            values = np.logspace(np.log10(max(spec.lower, 1e-12)), np.log10(spec.upper), args.grid)
        else:
            values = np.linspace(spec.lower, spec.upper, args.grid)
        axes.append((name, values))
    with _executor(args) as ex:
        grid = sweep(params, axes, trajs, cube_inertial(), cube_geometry(), cfg,
                     log_axes=log_axes, executor=ex)
    csv_path = args.csv or str(Path(args.out).with_suffix(".csv"))
    grid.to_csv(csv_path)
    doc = ResultsDocument(
        command="sweep",
        config={
            "dataset": args.dataset,
            "params": dataclasses.asdict(params),
            "axes": axis_names,
            "log": sorted(log_axes),
            "grid": args.grid,
            "sim": _sim_dict(args),
        },
        results=grid.to_dict(),
    )
    doc.save(args.out)
    print(f"swept {grid.losses.size} grid points; wrote {args.out} and {csv_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cubetoss", description=__doc__)
    parser.add_argument("--version", action="version", version=f"cubetoss {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="roll one trajectory and write it as CSV")
    _add_param_flags(p)
    _add_sim_flags(p)
    _add_common_flags(p)
    p.add_argument("--x0", required=True, help="trajectory file whose first row is the initial state")
    p.add_argument("--duration", type=float, default=None, help="seconds to simulate (default: span of --x0)")
    p.add_argument("--out", required=True, help="output trajectory CSV (downsampled rate)")
    p.add_argument("--full-out", default=None, help="also write the full-rate trajectory here")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("evaluate", help="score a dataset against rollouts at fixed parameters")
    _add_param_flags(p)
    _add_sim_flags(p)
    _add_common_flags(p)
    p.add_argument("--dataset", required=True, help="directory of canonical trajectory CSVs")
    p.add_argument("--out", required=True, help="results JSON path")
    p.set_defaults(fn=_cmd_evaluate)

    p = sub.add_parser("identify", help="identify mu, k, b by differential evolution")
    _add_sim_flags(p)
    _add_common_flags(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", choices=MODELS, required=True)
    p.add_argument("--budget", type=int, default=2000, help="loss evaluations (default 2000)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train", type=int, default=None, help="identify on n trajectories, hold out the rest")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_identify)

    p = sub.add_parser("sweep", help="dataset loss over a parameter grid at a fixed baseline")
    _add_param_flags(p)
    _add_sim_flags(p)
    _add_common_flags(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--axes", required=True, help="one or two of mu,k,b (comma separated)")
    p.add_argument("--log", default="", help="more axes to grid logarithmically (k always is)")
    p.add_argument("--grid", type=int, default=20, help="points per axis (default 20)")
    p.add_argument("--out", required=True, help="results JSON path")
    p.add_argument("--csv", default=None, help="grid CSV path (default: out with .csv suffix)")
    p.set_defaults(fn=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, TrajectoryFileError, ValueError, KeyError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except SimulationDivergence as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DIVERGENCE


if __name__ == "__main__":
    sys.exit(main())
