"""The seams of the program that the benchmark in perfbench/ relies on.

perfbench/tracer.py swaps module globals of cubetoss by name to time each
layer, and perfbench/replay.py steps rollouts through the public per-step
API and checks them against simulate. The suite does not run the traced
benchmark itself, so these tests catch a refactor that would break it.
"""
import sys
from pathlib import Path

import pytest

import cubetoss as ct
from cubetoss.solvers import DEFAULT_PGS_ITERS, DEFAULT_QP_ITERS
from cubetoss.synthetic import random_toss_states
from test_simulate import anisotropic_box

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import replay as rp  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402


def test_tracer_patches_every_name_and_restores_it():
    originals = [owner.__dict__[attr] for owner, attr, _, _ in tr.PATCHES]
    tracer = tr.Tracer()
    tracer.enable()
    try:
        patched = [owner.__dict__[attr] for owner, attr, _, _ in tr.PATCHES]
    finally:
        tracer.disable()
    assert all(new is not old for new, old in zip(patched, originals))
    assert [owner.__dict__[attr] for owner, attr, _, _ in tr.PATCHES] == originals


@pytest.mark.parametrize("preset, pool, body", [
    pytest.param("cube-drake", "tumbling", "cube", id="cube-drake"),
    pytest.param("cube-mujoco-style", "tumbling", "cube", id="cube-mujoco-style"),
    pytest.param("cube-bullet-style", "tumbling", "cube", id="cube-bullet-style"),
    # sweep-pgs's pool, mostly one or two contacts per step
    pytest.param("cube-bullet-style", "sliding", "cube", id="cube-bullet-style-sliding"),
    # a world inverse inertia that changes every step
    pytest.param("cube-bullet-style", "tumbling", "anisotropic box", id="cube-bullet-style-anisotropic-box"),
    # the loop builds its convex problems from the detector's float lists, the public path from ContactPoints
    pytest.param("cube-mujoco-style", "sliding", "cube", id="cube-mujoco-style-sliding"),
    pytest.param("cube-mujoco-style", "tumbling", "anisotropic box", id="cube-mujoco-style-anisotropic-box"),
])
def test_public_api_replay_of_a_pool_toss_is_exact(preset, pool, body):
    if body == "cube":
        x0, inertia, geom = wl.pool(pool)[0], ct.cube_inertial(), ct.cube_geometry()
    else:
        geom, inertia = anisotropic_box()
        x0 = random_toss_states(1, geom, seed=wl.POOL_SEED)[0]
    rep = rp.replay(x0, ct.param_preset(preset), inertia, geom, ct.SimConfig(), 0.3, rp.Replay())
    assert sum(rep.contacts) > 0
    assert rep.max_final_dev_m == 0.0


@pytest.mark.parametrize("preset, span", [
    pytest.param("cube-bullet-style", "solvers.rigid_pgs", id="pgs"),
    pytest.param("cube-mujoco-style", "solvers.regularized_convex", id="convex"),
])
def test_every_contact_solve_of_both_paths_leaves_a_solver_span(preset, span):
    """simulate's loop and the public per-step API solve through the same seam, so the tracer sees
    every contact solve of either: one span per contact step of the rollout, of the replay, and of
    the simulate that the replay checks itself against."""
    x0, params, inertia, geom = wl.pool("tumbling")[0], ct.param_preset(preset), ct.cube_inertial(), ct.cube_geometry()
    tracer = tr.Tracer()
    tracer.enable()
    try:
        ct.simulate(x0, params, inertia, geom, ct.SimConfig(), 0.3)
        rollout_spans = len(tracer.spans)
        rep = rp.replay(x0, params, inertia, geom, ct.SimConfig(), 0.3, rp.Replay())
    finally:
        tracer.disable()
    contact_steps = sum(1 for n in rep.contacts if n)
    assert contact_steps > 0 and rep.max_final_dev_m == 0.0
    assert rollout_spans == contact_steps
    assert [s[tr.NAME] for s in tracer.spans] == [span] * (3 * contact_steps)


def test_solve_contact_impulse_hands_each_iterative_solver_its_default_cap(monkeypatch):
    caps = {}

    def recorder(name):
        def solve(problem, params, max_iters, warm_start=None):
            caps[name] = max_iters
            return ct.ContactImpulse.empty()
        return solve

    for name in ("rigid_pgs_impulse", "regularized_convex_impulse"):
        monkeypatch.setattr(tr.simulate, name, recorder(name))
    state = ct.RigidState([0.0, 0.0, 0.0495], [1.0, 0.0, 0.0, 0.0], [0.1, 0.0, -0.2], [0.0, 0.0, 0.0])
    contacts = ct.detect_contacts(state, ct.cube_geometry())
    problem = ct.build_contact_problem(state, ct.cube_inertial(), contacts, ct.SimConfig().dt)
    for preset in ("cube-bullet-style", "cube-mujoco-style"):
        ct.solve_contact_impulse(problem, ct.param_preset(preset), max_iters=None)
    assert caps == {"rigid_pgs_impulse": DEFAULT_PGS_ITERS, "regularized_convex_impulse": DEFAULT_QP_ITERS}
