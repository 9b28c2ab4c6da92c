"""Print sha256 digests of simulated rollouts, to show that a change keeps them bit for bit.

Each line names a parameter set, a toss pool and a toss index, then gives
two digests: one of ``simulate(...).as_matrix().tobytes()`` and one of the
bytes ``save_trajectory`` writes for that rollout. A rollout that diverges
prints the digest of its ``SimulationDivergence`` message instead, in both
places. Run the tool on two checkouts and diff the outputs:

    PYTHONPATH=src python3 tools/rollout_digest.py > after.txt
    PYTHONPATH=../parent/src python3 tools/rollout_digest.py > before.txt
    diff before.txt after.txt

The pools are the benchmark's (pool seed 2110, 48 tosses each), every
rollout at the full 1480 Hz rate:

* ``tumbling``: 0.5 s from ``random_toss_states``;
* ``sliding``: 0.25 s from ``sliding_toss_states``;
* ``long``: 10 s from the first 8 tumbling tosses, ``cube-drake`` only;
* ``box-tumbling`` and ``box-sliding``: the same two kinds of toss of the
  10 x 7 x 5 cm anisotropic box of the replay tests, whose mass terms the
  rollout assembles at every contact step, under the convex and PGS
  presets only.

To check one model's lines while working on it, call ``digest_lines`` with
the parameter sets and pools wanted; given in the order above, they yield the
matching lines of the full output, in its order:

    PYTHONPATH=src python3 -c "import sys; sys.path.insert(0, 'tools'); import rollout_digest as r; print(*r.digest_lines(['cube-mujoco-style'], ['tumbling', 'box-tumbling']), sep='\\n')"

The cube pools print first, so the box pools left the earlier lines as they
were. The parameter sets are the three presets, the Bullet-style preset at
(mu, k) = (0.05, 300) and (0.9, 3e4), and the benchmark's compliant truth
(mu 0.18, k 10800, b 0.4). Uses only the standard library, numpy and
cubetoss.
"""
from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

import cubetoss as ct
from cubetoss.synthetic import random_toss_states, sliding_toss_states

POOL_SEED = 2110
POOL_SIZE = 48
LONG_TOSSES = 8
ITERATIVE_PRESETS = ("cube-mujoco-style", "cube-bullet-style")


def parameter_sets() -> dict:
    bullet = ct.param_preset("cube-bullet-style")
    return {
        "cube-drake": ct.param_preset("cube-drake"),
        "cube-mujoco-style": ct.param_preset("cube-mujoco-style"),
        "cube-bullet-style": bullet,
        "bullet-mu0.05-k300": ct.ContactParams(0.05, 300.0, bullet.b, "rigid_pgs"),
        "bullet-mu0.9-k3e4": ct.ContactParams(0.9, 3e4, bullet.b, "rigid_pgs"),
        "compliant-truth": ct.ContactParams(0.18, 10800.0, 0.4, "compliant"),
    }


def anisotropic_box() -> tuple:
    """(geometry, inertia) of a 10 x 7 x 5 cm box of 0.37 kg."""
    geom = ct.BoxGeometry([0.05, 0.035, 0.025])
    a, b, c = geom.side_lengths ** 2
    return geom, ct.InertialParams(0.37, 0.37 / 12.0 * np.diag([b + c, a + c, a + b]))


def pools() -> dict:
    """Pool name -> (tosses, duration in seconds, parameter sets it runs or None for all, (geometry, inertia))."""
    cube = (ct.cube_geometry(), ct.cube_inertial())
    tumbling = random_toss_states(POOL_SIZE, cube[0], seed=POOL_SEED)
    box = anisotropic_box()
    return {
        "tumbling": (tumbling, 0.5, None, cube),
        "sliding": (sliding_toss_states(POOL_SIZE, cube[0], seed=POOL_SEED), 0.25, None, cube),
        "long": (tumbling[:LONG_TOSSES], 10.0, ("cube-drake",), cube),
        "box-tumbling": (tumbling, 0.5, ITERATIVE_PRESETS, box),  # random_toss_states ignores the geometry
        "box-sliding": (sliding_toss_states(POOL_SIZE, box[0], seed=POOL_SEED), 0.25, ITERATIVE_PRESETS, box),
    }


def rollout_digests(params: ct.ContactParams, x0: ct.RigidState, duration: float, body: tuple,
                    tmp_dir: Path) -> tuple:
    """(matrix digest, CSV digest) of one full-rate rollout of body, a (geometry, inertia) pair."""
    geom, inertia = body
    cfg = ct.SimConfig(downsample=1)
    try:
        traj = ct.simulate(x0, params, inertia, geom, cfg, duration)
    except ct.SimulationDivergence as err:
        digest = hashlib.sha256(str(err).encode()).hexdigest()
        return digest, digest
    path = tmp_dir / "rollout.csv"
    ct.save_trajectory(traj, path)
    return (
        hashlib.sha256(traj.as_matrix().tobytes()).hexdigest(),
        hashlib.sha256(path.read_bytes()).hexdigest(),
    )


def digest_lines(param_names, pool_names, tosses=None):
    """Yield one output line per (parameter set, pool, toss)."""
    sets = parameter_sets()
    all_pools = pools()
    with tempfile.TemporaryDirectory() as tmp:
        for pool_name in pool_names:
            states, duration, only, body = all_pools[pool_name]
            for name in param_names:
                if only is not None and name not in only:
                    continue
                for i, x0 in enumerate(states[:tosses]):
                    mat, csv = rollout_digests(sets[name], x0, duration, body, Path(tmp))
                    yield f"{name} {pool_name} {i} {mat} {csv}"


def main() -> int:
    for line in digest_lines(parameter_sets(), pools()):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
