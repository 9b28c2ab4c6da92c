"""The three benchmark workloads: fixtures, CLI command lines and output checks.

Every workload draws its tosses from a fixed pool (``POOL_SEED``). The
workload seed only picks which pool tosses each command sees, so one
reference recorded per pool toss (``reference.json``, written by
``make_reference.py``) checks the outputs for any seed. Ground truth always
comes from the cheap compliant model at ``TRUTH``. Each run cycles through
``variants`` fixtures, one per command, so a run's median averages over
several datasets instead of one.

Output tolerances: at the commit that recorded the reference the outputs
match it bit for bit. The slack is for solver changes that move iterates
within the solvers' stopping tolerances: dropping the warm starts alone moves
the final position of a sliding PGS toss by about 4e-6 m, which shifts a
configuration error by up to about 1e-5. A change of the contact physics
moves these numbers by orders of magnitude more.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import cubetoss as ct
import cubetoss.io
from cubetoss.metrics import DIVERGENCE_PENALTY
from cubetoss.synthetic import make_dataset, random_toss_states, sliding_toss_states

POOL_SEED = 2110
POOL_SIZE = 48
TRUTH = {"mu": 0.18, "k": 10800.0, "b": 0.4}  # as in acceptance criterion 7 and demo 04
REL_TOL = 1e-3  # on configuration errors and losses, together with ABS_TOL
ABS_TOL = 1e-5
POS_TOL_M = 1e-5  # on final positions
QUAT_TOL = 1e-4  # on final quaternion components
COST_TOL = 0.01  # share by which a run's recorded toss cost may miss the expected total
MAX_DRAWS = 2000
REFERENCE_PATH = Path(__file__).with_name("reference.json")


def truth_params() -> ct.ContactParams:
    return ct.ContactParams(TRUTH["mu"], TRUTH["k"], TRUTH["b"], "compliant")


def pool(kind: str) -> list:
    gen = random_toss_states if kind == "tumbling" else sliding_toss_states
    return gen(POOL_SIZE, ct.cube_geometry(), seed=POOL_SEED)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + ABS_TOL


class Workload:
    """One CLI command shape run on ``variants`` fixtures of ``tosses`` pool tosses each."""

    name = ""
    pool_kind = "sliding"
    duration = 0.4  # simulated seconds per rollout
    truth_duration = 0.4

    def __init__(self, variants: int, tosses: int, grid: int = 0):
        self.variants = variants
        self.tosses = tosses
        self.grid = grid  # sweep only: points per axis
        self.dt = 1.0 / 1480.0  # the CLI's default --rate

    # --- inputs ------------------------------------------------------------------

    def picks(self, seed: int, cost) -> np.ndarray:
        """Pool indices per variant, shape (variants, tosses), drawn from the seed.

        Rollout cost varies several-fold between tosses, so a plain random
        draw would make a run's median depend on which tosses it drew more
        than on the program. The pool is therefore cut into equal strata of
        similar recorded cost and the seed draws one toss from each. One
        costly toss in a stratum can still swing the total by a fifth, so the
        seed draws again until the recorded total is within ``COST_TOL`` of
        the expected one (or keeps the closest of ``MAX_DRAWS``). The draws
        are then dealt out longest first to the variant with the least work
        so far: every run does about the same work, on different tosses.
        """
        rng = np.random.default_rng(seed)
        cost = np.asarray(cost, dtype=float)
        strata = np.array_split(np.argsort(cost, kind="stable"), self.variants * self.tosses)
        target = sum(float(cost[s].mean()) for s in strata)
        best, best_off = None, np.inf
        for _ in range(MAX_DRAWS):
            draw = [int(rng.choice(s)) for s in strata]
            off = abs(float(cost[draw].sum()) - target) / target
            if off < best_off:
                best, best_off = draw, off
            if off <= COST_TOL:
                break
        drawn = sorted(best, key=lambda i: -cost[i])
        rows: list[list[int]] = [[] for _ in range(self.variants)]
        load = np.zeros(self.variants)
        for i in drawn:
            v = min((v for v in range(self.variants) if len(rows[v]) < self.tosses), key=lambda v: load[v])
            rows[v].append(i)
            load[v] += cost[i]
        return np.array(rows)[rng.permutation(self.variants)]

    def build(self, picks: np.ndarray, root: Path) -> list[Path]:
        """Truth rollouts and CSV writes for every variant; returns one dataset dir each."""
        states = pool(self.pool_kind)
        geom, inertia = ct.cube_geometry(), ct.cube_inertial()
        out = []
        for v, row in enumerate(picks):
            d = root / f"v{v}"
            d.mkdir(parents=True)
            truths = make_dataset([states[i] for i in row], truth_params(), inertia, geom,
                                  ct.SimConfig(), self.truth_duration)
            for j, t in enumerate(truths):
                cubetoss.io.save_trajectory(t, d / f"toss_{j:02d}.csv")
            out.append(d)
        return out

    def argv(self, fixture: Path, out: Path) -> list[str]:
        raise NotImplementedError

    @property
    def rollouts(self) -> int:
        """Rollouts one command runs."""
        return self.tosses

    @property
    def steps(self) -> int:
        """Nominal integration steps one command runs: rollouts x duration x rate."""
        return self.rollouts * int(round(self.duration / self.dt))

    # --- checks ------------------------------------------------------------------

    def check(self, rc: int, out: Path, row: np.ndarray, ref: dict) -> tuple[int, list[str]]:
        """(failed rollouts, problems found) for one finished command."""
        if rc != 0:
            return self.rollouts, [f"exit code {rc}"]
        return self._check(out, row, ref)

    def _check(self, out: Path, row, ref) -> tuple[int, list[str]]:
        raise NotImplementedError


class EvaluateConvex(Workload):
    name = "evaluate-convex"
    pool_kind = "tumbling"
    preset = "cube-mujoco-style"
    duration = truth_duration = 0.5

    def argv(self, fixture, out):
        return ["evaluate", "--preset", self.preset, "--dataset", str(fixture),
                "--workers", "1", "--out", str(out)]

    def _check(self, out, row, ref):
        res = ct.ResultsDocument.load(out).results
        entries = res["per_trajectory"]
        failed = sum(1 for e in entries if e["diverged"])
        problems = []
        if len(entries) != len(row):
            problems.append(f"{len(entries)} trajectories scored, expected {len(row)}")
        for e, i in zip(entries, row):
            want = ref[str(i)]
            if e["diverged"] != want["diverged"]:
                problems.append(f"pool toss {i}: diverged={e['diverged']}, reference {want['diverged']}")
                continue
            for key in ("config_error", "position_error_pct", "rotation_error_deg"):
                if key in want and not _close(e[key], want[key]):
                    problems.append(f"pool toss {i}: {key} {e[key]!r}, reference {want[key]!r}")
        return (self.rollouts if problems else failed), problems


class SweepPgs(Workload):
    name = "sweep-pgs"
    pool_kind = "sliding"
    preset = "cube-bullet-style"
    duration = truth_duration = 0.25

    def argv(self, fixture, out):
        return ["sweep", "--preset", self.preset, "--dataset", str(fixture), "--axes", "mu,k",
                "--log", "k", "--grid", str(self.grid), "--workers", "1", "--out", str(out)]

    @property
    def rollouts(self):
        return self.grid * self.grid * self.tosses

    def _check(self, out, row, ref):
        res = ct.ResultsDocument.load(out).results
        problems = []
        for axis, want in zip(res["axes"], ref["axes"]):
            if not np.allclose(axis["values"], want, rtol=1e-12, atol=0.0):
                problems.append(f"axis {axis['name']} values differ from the reference grid")
        losses, flags = np.array(res["losses"]), np.array(res["diverged"])
        per_toss = [np.array(ref["losses"][str(i)], dtype=float) for i in row]  # null (NaN) marks divergence
        want_flags = np.any([np.isnan(p) for p in per_toss], axis=0)
        want_loss = np.mean([np.where(np.isnan(p), DIVERGENCE_PENALTY, p) for p in per_toss], axis=0)
        if losses.shape != want_loss.shape or not np.array_equal(flags, want_flags):
            problems.append("grid shape or divergence flags differ from the reference")
        else:
            for idx in zip(*np.nonzero(~np.isclose(losses, want_loss, rtol=REL_TOL, atol=ABS_TOL))):
                problems.append(f"grid point {idx}: loss {losses[idx]!r}, reference {want_loss[idx]!r}")
        # the document flags grid points, not rollouts: every rollout of a flagged point counts
        failed = int(flags.sum()) * self.tosses
        return (self.rollouts if problems else failed), problems


class SimulateLong(Workload):
    name = "simulate-long"
    pool_kind = "tumbling"
    preset = "cube-drake"
    duration = 10.0
    truth_duration = 0.1  # only the first row of the x0 file is used

    def build(self, picks, root):
        dirs = super().build(picks, root)
        return [d / "toss_00.csv" for d in dirs]

    def argv(self, fixture, out):
        return ["simulate", "--preset", self.preset, "--x0", str(fixture), "--duration", str(self.duration),
                "--workers", "1", "--out", str(out), "--full-out", str(out.with_suffix(".full.csv"))]

    def _check(self, out, row, ref):
        want = ref[str(row[0])]
        problems = []
        for path, key in ((out, "out"), (out.with_suffix(".full.csv"), "full")):
            lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
            last = np.array([float(x) for x in lines[-1].split(",")])
            if len(lines) != want[key]["rows"]:
                problems.append(f"{path.name}: {len(lines)} rows, reference {want[key]['rows']}")
            dpos = float(np.max(np.abs(last[1:4] - want[key]["pos"])))
            dquat = float(np.max(np.abs(last[4:8] - want[key]["quat"])))
            if not (dpos <= POS_TOL_M and dquat <= QUAT_TOL):
                problems.append(f"{path.name}: final pose off the reference by {dpos:.2e} m, {dquat:.2e} (quat)")
        return (self.rollouts if problems else 0), problems


SIZES = {
    "full": {
        "evaluate-convex": dict(variants=8, tosses=2),
        "sweep-pgs": dict(variants=8, tosses=2, grid=4),
        "simulate-long": dict(variants=8, tosses=1),
    },
    "tiny": {
        "evaluate-convex": dict(variants=1, tosses=1),
        "sweep-pgs": dict(variants=1, tosses=1, grid=4),
        "simulate-long": dict(variants=1, tosses=1),
    },
}
WORKLOADS = {cls.name: cls for cls in (EvaluateConvex, SweepPgs, SimulateLong)}


def make(name: str, size: str = "full") -> Workload:
    return WORKLOADS[name](**SIZES[size][name])


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())
