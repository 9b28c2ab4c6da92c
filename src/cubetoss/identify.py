"""Gradient-free contact parameter identification and sensitivity sweeps.

Identification minimizes a total loss function over a box domain with
differential evolution (rand/1/bin). Stiffness-like parameters search in
log space. The optimizer is deterministic given its seed, never evaluates a
point outside the domain, and keeps a complete evaluation history so runs
can be audited or resumed by hand.
"""
from __future__ import annotations

import concurrent.futures
import itertools
import math
from dataclasses import asdict, dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .body import InertialParams, SimConfig
from .geometry import BoxGeometry
from .metrics import _penalized_mean, rollout_reports
from .solvers import ContactParams
from .trajectory import Trajectory

# rand/1/bin: the population size, the differential weight F and the binomial recombination rate CR
POPULATION = 16
MUTATION = 0.7
CROSSOVER = 0.9


@dataclass
class AxisSpec:
    """One box-constrained parameter: bounds plus an optional log-scale flag."""

    name: str
    lower: float
    upper: float
    log: bool = False

    def __post_init__(self):
        self.lower = float(self.lower)
        self.upper = float(self.upper)
        if not (self.lower < self.upper):
            raise ValueError(f"{self.name}: lower bound {self.lower} must be below upper {self.upper}")
        if self.log and self.lower <= 0.0:
            raise ValueError(f"{self.name}: log-scaled axis needs a positive lower bound")

    def encode(self, x: float) -> float:
        return math.log10(x) if self.log else x

    def decode(self, u: float) -> float:
        if not self.log:
            return u
        # 10**log10(x) can miss x by an ulp, so a bound would decode just outside the box
        return min(max(10.0**u, self.lower), self.upper)

    def grid(self, count: int) -> np.ndarray:
        if self.log:
            return np.logspace(math.log10(self.lower), math.log10(self.upper), count)
        return np.linspace(self.lower, self.upper, count)


@dataclass
class ParamDomain:
    """Ordered box domain over named parameters."""

    axes: tuple[AxisSpec, ...]

    def __post_init__(self):
        self.axes = tuple(self.axes)
        if not self.axes:
            raise ValueError("domain needs at least one axis")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.axes)

    def search_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.array([a.encode(a.lower) for a in self.axes])
        hi = np.array([a.encode(a.upper) for a in self.axes])
        return lo, hi

    def decode(self, u: np.ndarray) -> dict:
        return {a.name: a.decode(float(u[i])) for i, a in enumerate(self.axes)}

    def to_dict(self) -> dict:
        return {a.name: {"lower": a.lower, "upper": a.upper, "log": a.log} for a in self.axes}


@dataclass
class OptimizeResult:
    params: dict
    loss: float
    history_params: np.ndarray
    history_loss: np.ndarray
    best_index: int

    @property
    def n_evaluations(self) -> int:
        return len(self.history_loss)


def _check_budget(budget: int) -> None:
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")


def optimize(
    loss_fn: Callable[[dict], float],
    domain: ParamDomain,
    budget: int = 2000,
    seed: int = 0,
) -> OptimizeResult:
    """Minimize loss_fn over the domain with rand/1/bin differential evolution.

    The population has POPULATION members, the differential weight is
    MUTATION and the recombination rate CROSSOVER. Proposals outside the box
    are clipped to the bounds before evaluation. Ties on the best loss go to
    the earliest evaluation, so results do not depend on how candidate
    evaluations are scheduled. A budget below POPULATION shrinks the initial
    population to the budget, which is then spent on it alone; this keeps
    degenerate budgets (down to a single evaluation) well defined.
    """
    _check_budget(budget)
    rng = np.random.default_rng(seed)
    lo, hi = domain.search_bounds()
    dim = len(domain.axes)
    pop_n = min(POPULATION, budget)

    pop = rng.uniform(lo, hi, size=(pop_n, dim))
    hist_u: list[np.ndarray] = []
    hist_loss: list[float] = []

    def evaluate(u: np.ndarray) -> float:
        val = float(loss_fn(domain.decode(u)))
        hist_u.append(u.copy())
        hist_loss.append(val)
        return val

    fitness = np.array([evaluate(pop[i]) for i in range(pop_n)])
    evals = pop_n
    while evals < budget:
        for i in range(pop_n):
            if evals >= budget:
                break
            choices = [j for j in range(pop_n) if j != i]
            r1, r2, r3 = rng.choice(choices, size=3, replace=False)
            trial = pop[r1] + MUTATION * (pop[r2] - pop[r3])
            cross = rng.random(dim) <= CROSSOVER
            cross[rng.integers(dim)] = True
            trial = np.where(cross, trial, pop[i])
            trial = np.clip(trial, lo, hi)
            val = evaluate(trial)
            evals += 1
            if val <= fitness[i]:
                pop[i] = trial
                fitness[i] = val

    losses = np.array(hist_loss)
    best = int(np.argmin(losses))  # argmin returns the first minimizer: earliest wins
    return OptimizeResult(
        params=domain.decode(hist_u[best]),
        loss=float(losses[best]),
        history_params=np.array([[a.decode(u[i]) for i, a in enumerate(domain.axes)] for u in hist_u]),
        history_loss=losses,
        best_index=best,
    )


@dataclass
class SweepGrid:
    """Dataset losses over a 1-D or 2-D grid of contact parameters.

    losses is shaped (len(values[0]), ...) following the axis order;
    diverged flags grid points where at least one rollout was replaced by
    DIVERGENCE_PENALTY.
    """

    axis_names: tuple[str, ...]
    axis_values: tuple[np.ndarray, ...]
    axis_log: tuple[bool, ...]
    losses: np.ndarray
    diverged: np.ndarray
    baseline: ContactParams

    def rows(self) -> list[tuple]:
        """Long-form (axis values..., loss, diverged) rows in grid order."""
        out = []
        for idx in itertools.product(*(range(len(v)) for v in self.axis_values)):
            coords = tuple(float(self.axis_values[d][i]) for d, i in enumerate(idx))
            out.append((*coords, float(self.losses[idx]), bool(self.diverged[idx])))
        return out

    def to_csv(self, path) -> None:
        lines = [",".join([*self.axis_names, "loss", "diverged"])]
        for row in self.rows():
            *coords, loss, div = row
            lines.append(",".join([*(f"{c:.17g}" for c in coords), f"{loss:.17g}", "1" if div else "0"]))
        from pathlib import Path

        Path(path).write_text("\n".join(lines) + "\n")

    def to_dict(self) -> dict:
        return {
            "axes": [
                {"name": n, "log": bool(lg), "values": [float(x) for x in vals]}
                for n, lg, vals in zip(self.axis_names, self.axis_log, self.axis_values)
            ],
            "losses": self.losses.tolist(),
            "diverged": self.diverged.tolist(),
            "baseline": asdict(self.baseline),
        }


SWEEPABLE = ("mu", "k", "b")


def _check_sweep_axes(names: tuple[str, ...], log_axes: Sequence[str]) -> None:
    """Refuse axes that sweep cannot grid: not one or two, not in SWEEPABLE, repeated, or log axes not swept."""
    if not names or len(names) > 2:
        raise ValueError("sweep takes one or two axes")
    for name in names:
        if name not in SWEEPABLE:
            raise ValueError(f"cannot sweep {name!r}, expected one of {SWEEPABLE}")
    if len(set(names)) != len(names):
        raise ValueError(f"sweep axes must be distinct, got {names}")
    unswept = sorted(set(log_axes) - set(names))
    if unswept:
        raise ValueError(f"log axes {unswept} are not among the swept axes {names}")


def sweep(
    baseline: ContactParams,
    axes: Sequence[tuple[str, Sequence[float]]],
    truths: Sequence[Trajectory],
    inertia: InertialParams,
    geom: BoxGeometry,
    cfg: Optional[SimConfig] = None,
    log_axes: Sequence[str] = (),
    executor: Optional[concurrent.futures.Executor] = None,
) -> SweepGrid:
    """Dataset loss over a parameter grid, non-swept values held at the baseline.

    axes is an ordered sequence of (parameter name, grid values) with at most
    two entries drawn from mu, k, b. Grid points are independent; rollouts
    inside each evaluation may run concurrently through the executor.
    """
    names = tuple(name for name, _ in axes)
    _check_sweep_axes(names, log_axes)
    values = tuple(np.asarray(vals, dtype=float) for _, vals in axes)
    shape = tuple(len(v) for v in values)
    losses = np.empty(shape)
    diverged = np.zeros(shape, dtype=bool)
    for idx in itertools.product(*(range(n) for n in shape)):
        point = {names[d]: float(values[d][i]) for d, i in enumerate(idx)}
        params = replace(baseline, **point)
        reports = rollout_reports(truths, params, inertia, geom, cfg, executor)
        losses[idx] = _penalized_mean(reports)
        diverged[idx] = any(div for _, div in reports)
    return SweepGrid(
        axis_names=names,
        axis_values=values,
        axis_log=tuple(n in log_axes for n in names),
        losses=losses,
        diverged=diverged,
        baseline=baseline,
    )
