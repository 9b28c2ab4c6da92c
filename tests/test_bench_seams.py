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
    pytest.param("cube-mujoco-style", "tumbling", "cube", id="cube-mujoco-style"),
    pytest.param("cube-bullet-style", "tumbling", "cube", id="cube-bullet-style"),
    # sweep-pgs's pool, mostly one or two contacts per step
    pytest.param("cube-bullet-style", "sliding", "cube", id="cube-bullet-style-sliding"),
    # a world inverse inertia that changes every step
    pytest.param("cube-bullet-style", "tumbling", "anisotropic box", id="cube-bullet-style-anisotropic-box"),
    # the loop builds its convex problems from floats, the public path from arrays
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
