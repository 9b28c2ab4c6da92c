#!/usr/bin/env python3
"""cubetoss benchmark: one workload per process, run as a closed loop with one client.

    python3 perfbench/run.py --workload evaluate-convex --seed 1 --seconds 20 --trace 0

Each command is ``cubetoss.cli.main(argv)`` called in this process with
``--workers 1``; the next command starts when the previous one returns, and
its output is checked against the reference before the loop goes on. With
``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it alternates untraced and traced commands and reports the
per-layer metrics, then replays rollouts through the public per-step API.
The last line of standard output is one JSON object with the result.
Run it from any directory; it builds nothing and imports cubetoss from the
``src`` directory next to this one.
"""
import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("evaluate-convex", "sweep-pgs", "simulate-long")
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "wall_s": "s",
    "steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}

# fixed rollouts replayed through the public API in every traced run: (pool, params, duration)
FIXED_ROLLOUTS = {
    "compliant_sliding": ("sliding", None, 0.4),
    "convex_tumbling": ("tumbling", "cube-mujoco-style", 0.5),
    "pgs_tumbling": ("tumbling", "cube-bullet-style", 0.5),
    "pgs_sliding": ("sliding", "cube-bullet-style", 0.4),
}


def _layer_units() -> dict:
    units = {
        "cli.self_frac": "frac",
        "identify.evaluations": "count",
        "identify.self_frac": "frac",
        "metrics.dataset_loss.ms_p50": "ms",
        "metrics.cube_config_error.us_per_call_p50": "us",
        "metrics.diverged_rollouts": "count",
        "simulate.rollouts": "count",
        "simulate.steps": "count",
        "simulate.rollout_ms_p50": "ms",
        "simulate.rollout_ms_p90": "ms",
        "simulate.solver_frac": "frac",
        "simulate.contact_step_frac": "frac",
        "solvers.regularized_convex.calls": "count",
        "solvers.regularized_convex.us_per_call_p50": "us",
        "solvers.regularized_convex.iters_p50": "count",
        "solvers.regularized_convex.iters_p90": "count",
        "solvers.regularized_convex.iters_max": "count",
        "solvers.regularized_convex.us_per_iter": "us",
        "solvers.regularized_convex.errors": "count",
        "solvers.rigid_pgs.calls": "count",
        "solvers.rigid_pgs.us_per_call_p50": "us",
        "solvers.rigid_pgs.sweeps_p50": "count",
        "solvers.rigid_pgs.sweeps_p90": "count",
        "solvers.rigid_pgs.unconverged": "count",
        "solvers.rigid_pgs.unconverged_frac": "frac",
        "solvers.rigid_pgs.us_per_sweep": "us",
        "geometry.detect_contacts.us_per_call_p50": "us",
        "geometry.contacts_per_step_mean": "count",
        "body.step.us_per_call_p50": "us",
        "io.load_trajectory.ms_p50": "ms",
        "io.save_trajectory.ms_p50": "ms",
        "io.save_trajectory.us_per_row": "us",
        "io.bytes_written": "B",
        "io.results_save_ms": "ms",
        "trace.overhead_frac": "frac",
        "replay.workload.max_final_pos_dev_m": "m",
    }
    for case in FIXED_ROLLOUTS:
        units[f"replay.{case}.max_final_pos_dev_m"] = "m"
        units[f"replay.{case}.contact_problems"] = "count"
        units[f"replay.{case}.solver_alone_us_p50"] = "us"
    return units


LAYER_UNITS = _layer_units()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the measured loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for the smoke test")
    return p.parse_args(argv)


# --- run header ------------------------------------------------------------------


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + name):
            return line.split()[0]
    return f"unresolved {name}"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cubetoss").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def header(args, np, cubetoss) -> list[str]:
    return [
        f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace} size {args.size}",
        f"python {platform.python_version()} numpy {np.__version__} cubetoss {cubetoss.__version__}",
        f"nproc {os.cpu_count()} (usable {len(os.sched_getaffinity(0))}) cpu {_cpu_model()}",
        f"git commit {_git_commit()} src sha256 {_src_digest()}",
    ]


# --- commands --------------------------------------------------------------------


def run_command(main, argv) -> tuple[int, float, str]:
    """(exit code, wall seconds, captured output) of one CLI command."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        try:
            rc = main(argv)
        except Exception:  # a crash fails this command's rollouts; the run goes on to report it
            rc = -1
            traceback.print_exc()
        wall = time.perf_counter() - t0
    return rc, wall, sink.getvalue()


class Tally:
    """Rollouts attempted and failed, and the first problems found by the checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, w, rc, out, row, ref, output):
        failed, problems = w.check(rc, out, row, ref)
        self.attempted += w.rollouts
        self.failed += failed
        if problems and len(self.problems) < 20:
            self.problems += [f"{w.name} pool tosses {list(row)}: {p}" for p in problems]
            if rc != 0:
                self.problems.append(output.strip()[-2000:])


def measure(w, cli_main, fixtures, picks, ref, work, seconds, tally) -> list[tuple[int, float, float]]:
    """Closed loop over the fixtures until the time is up and every fixture has run.

    The calibration kernel runs between commands, untimed by them. Returns
    (fixture, wall seconds, host slowdown factor) per command.
    """
    runs = []
    deadline = time.perf_counter() + seconds
    before = calibrate.seconds()
    i = 0
    while i < len(fixtures) or time.perf_counter() < deadline:
        v = i % len(fixtures)
        out = work / f"out{v}.json"
        rc, wall, output = run_command(cli_main, w.argv(fixtures[v], out))
        after = calibrate.seconds()
        tally.add(w, rc, out, picks[v], ref, output)
        runs.append((v, wall, calibrate.factor(before, after)))
        before = after
        i += 1
    return runs


def normalized_wall(runs) -> float:
    """Mean over fixtures of the median wall time at reference host speed.

    Each command's wall time is divided by the host slowdown measured around
    it; per fixture the median is taken, so every fixture weighs the same
    however often the run reached it.
    """
    per_fixture: dict[int, list[float]] = {}
    for v, wall, slowdown in runs:
        per_fixture.setdefault(v, []).append(wall / slowdown)
    return statistics.fmean(statistics.median(ts) for ts in per_fixture.values())


def measure_traced(w, cli_main, tracer, fixtures, picks, ref, work, seconds, tally):
    """Each fixture in turn once untraced and once traced, at least one whole pass.

    The order within a pair alternates so drift does not favour either side.
    Returns untraced times, traced times, and the span count after the first
    pass, whose counts repeat exactly for a given seed.
    """
    plain, traced = [], []
    first_pass_end = None
    deadline = time.perf_counter() + seconds
    i = 0
    while first_pass_end is None or time.perf_counter() < deadline:
        v = i % len(fixtures)
        out = work / f"out{v}.json"
        for on in ((False, True) if i % 2 == 0 else (True, False)):
            if on:
                tracer.enable()
                with tracer.span("cli"):
                    rc, wall, output = run_command(cli_main, w.argv(fixtures[v], out))
                tracer.disable()
                traced.append(wall)
            else:
                rc, wall, output = run_command(cli_main, w.argv(fixtures[v], out))
                plain.append(wall)
            tally.add(w, rc, out, picks[v], ref, output)
        i += 1
        if i == len(fixtures):
            first_pass_end = len(tracer.spans)
    return plain, traced, first_pass_end


# --- metrics ---------------------------------------------------------------------


def replay_metrics(w, picks) -> dict:
    """Geometry, body and replay numbers from rollouts replayed through the public per-step API."""
    import numpy as np

    import cubetoss as ct
    import replay as rp
    import workloads as wl

    cfg = ct.SimConfig()
    geom, inertia = ct.cube_geometry(), ct.cube_inertial()

    def params_for(preset):
        return ct.param_preset(preset) if preset else wl.truth_params()

    out = {}
    rep = rp.Replay()
    states = wl.pool(w.pool_kind)
    for i in picks[0]:
        rp.replay(states[i], params_for(getattr(w, "preset", None)), inertia, geom, cfg, w.duration, rep)
    contacts = np.array(rep.contacts)
    out["simulate.contact_step_frac"] = float(np.mean(contacts > 0))
    out["geometry.detect_contacts.us_per_call_p50"] = 1e6 * float(np.median(rep.detect_s))
    out["geometry.contacts_per_step_mean"] = float(np.mean(contacts))
    out["body.step.us_per_call_p50"] = 1e6 * float(np.median(rep.step_s))
    out["replay.workload.max_final_pos_dev_m"] = rep.max_final_dev_m
    for case, (kind, preset, duration) in FIXED_ROLLOUTS.items():
        params = params_for(preset)
        fixed = rp.replay(wl.pool(kind)[0], params, inertia, geom, cfg, duration, rp.Replay(), record=True)
        out[f"replay.{case}.max_final_pos_dev_m"] = fixed.max_final_dev_m
        out[f"replay.{case}.contact_problems"] = len(fixed.problems)
        out[f"replay.{case}.solver_alone_us_p50"] = rp.solver_alone_us(fixed, params, cfg)
    return out


def import_seconds() -> float:
    """Wall time from starting a fresh interpreter to having imported the CLI."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import cubetoss.cli"], env=env, cwd=ROOT, check=True, timeout=120)
    return time.perf_counter() - t0


def run(args) -> dict:
    """Set up, measure and check one workload; returns the result object."""
    import numpy as np

    import cubetoss
    import cubetoss.cli
    import workloads as wl

    if Path(cubetoss.__file__).resolve().parent != SRC / "cubetoss":
        raise SystemExit(f"error: imported cubetoss from {cubetoss.__file__}, not from {SRC}")
    for line in header(args, np, cubetoss):
        print("#", line)

    w = wl.make(args.workload, args.size)
    ref = wl.load_reference()[w.name]
    picks = w.picks(args.seed, ref["cost_ms"])
    work = ROOT / ".perfbench_work" / f"{w.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    tally = Tally()
    try:
        if args.trace:
            import tracer as tr

            tracer = tr.Tracer()
            tracer.enable()
            fixtures = w.build(picks, work / "setup")
            tracer.disable()
            plain, traced, first_pass_end = measure_traced(
                w, cubetoss.cli.main, tracer, fixtures, picks, ref, work, args.seconds, tally)
            metrics = tr.layer_metrics(tracer.spans)
            counts = tr.layer_metrics(tracer.spans[:first_pass_end])
            metrics.update({k: counts[k] for k in tr.COUNT_KEYS})
            metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
            metrics.update(replay_metrics(w, picks))
            units = LAYER_UNITS
            print(f"# {len(plain)} untraced and {len(traced)} traced commands; counts from the first pass "
                  f"over {len(fixtures)} fixtures")
        else:
            setups, raw_setups = [], []
            before = calibrate.seconds()
            for k in range(SETUP_REPEATS):
                imported = import_seconds()
                t0 = time.perf_counter()
                fixtures = w.build(picks, work / f"setup{k}")
                raw_setups.append(imported + time.perf_counter() - t0)
                after = calibrate.seconds()
                setups.append(raw_setups[-1] / calibrate.factor(before, after))
                before = after
            runs = measure(w, cubetoss.cli.main, fixtures, picks, ref, work, args.seconds, tally)
            wall = normalized_wall(runs)
            metrics = {
                "wall_s": wall,
                "steps_per_s": w.steps / wall,
                "setup_s": statistics.median(setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "ok_frac": 1.0 - tally.failed / tally.attempted,
            }
            units = END_TO_END_UNITS
            print(f"# wall_s is from {len(runs)} commands on {len(fixtures)} fixtures ({w.rollouts} rollouts, "
                  f"{w.steps} nominal steps each) at reference host speed; measured: median wall "
                  f"{statistics.median(r[1] for r in runs):.4f} s, median host slowdown "
                  f"{statistics.median(r[2] for r in runs):.3f}; setup_s is the median of {SETUP_REPEATS} "
                  f"fresh-interpreter imports each followed by a fixture build, at reference host speed "
                  f"(measured median {statistics.median(raw_setups):.4f} s)")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    for problem in tally.problems:
        print("# check failed:", problem)
    print(f"# rollouts attempted {tally.attempted} failed {tally.failed} "
          f"failed_frac {tally.failed / tally.attempted:.6g}")
    reported = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    for name, m in reported.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    return {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": reported,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cubetoss" / "__init__.py").is_file():
        print(f"error: no cubetoss sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
