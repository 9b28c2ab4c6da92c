"""Rollouts replayed through cubetoss's public per-step API.

``simulate`` runs a fused loop over private helpers, so the geometry and body
layers cannot be timed from inside it. The replay advances the same state
with ``detect_contacts``, ``build_contact_problem``, ``solve_contact_impulse``
and ``step``, carrying the same per-corner warm starts as the rollout loop,
and times each call. Its final position is compared with ``simulate``'s, so
the per-layer numbers can be shown to describe the same motion.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from cubetoss import (
    SimConfig,
    build_contact_problem,
    detect_contacts,
    simulate,
    solve_contact_impulse,
    step,
)


@dataclass
class Replay:
    """Per-call times (seconds) and contact counts of one or more replayed rollouts."""

    detect_s: list = field(default_factory=list)
    step_s: list = field(default_factory=list)
    contacts: list = field(default_factory=list)
    problems: list = field(default_factory=list)  # (problem, warm start) per contact step
    max_final_dev_m: float = 0.0


def replay(x0, params, inertia, geom, cfg: SimConfig, duration: float, out: Replay, record=False) -> Replay:
    """Replay one rollout into ``out`` and fold in its final-position deviation."""
    dt = cfg.dt
    state = x0.copy()
    warm = np.zeros((8, 3))
    clock = time.perf_counter
    for _ in range(int(round(duration / dt))):
        t0 = clock()
        contacts = detect_contacts(state, geom, cfg.activation_margin)
        out.detect_s.append(clock() - t0)
        out.contacts.append(len(contacts))
        wrench = None
        if contacts:
            problem = build_contact_problem(state, inertia, contacts, dt)
            idx = [c.corner_index for c in contacts]
            ws = warm[idx].reshape(-1)
            if record:
                out.problems.append((problem, ws))
            imp = solve_contact_impulse(problem, params, cfg.slip_tolerance, cfg.solver_iters, warm_start=ws)
            if params.model != "compliant":
                warm.fill(0.0)
                warm[idx] = imp.flat().reshape(-1, 3)
            wrench = imp.wrench
        t0 = clock()
        state = step(state, inertia, wrench, dt)
        out.step_s.append(clock() - t0)
    full = SimConfig(dt, 1, None, cfg.solver_iters, cfg.slip_tolerance, cfg.activation_margin)
    ref = simulate(x0, params, inertia, geom, full, duration)
    dev = float(np.linalg.norm(ref.pos[-1] - state.pos))
    out.max_final_dev_m = max(out.max_final_dev_m, dev)
    return out


def solver_alone_us(rep: Replay, params, cfg: SimConfig) -> float:
    """Median time of the solver alone on the recorded contact problems, in microseconds."""
    times = []
    for problem, ws in rep.problems:
        t0 = time.perf_counter()
        solve_contact_impulse(problem, params, cfg.slip_tolerance, cfg.solver_iters, warm_start=ws)
        times.append(time.perf_counter() - t0)
    return 1e6 * float(np.median(times)) if times else 0.0
