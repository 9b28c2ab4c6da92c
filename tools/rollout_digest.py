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

To check one model's lines while working on it, give the parameter sets and
pools wanted as comma lists (default: all) and, optionally, the number of
tosses per pool. Named in the full output's order (the pools as listed
above, the parameter sets as listed below), they print the matching lines
of the full output, in its order:

    PYTHONPATH=src python3 tools/rollout_digest.py --params cube-mujoco-style --pools tumbling,box-tumbling
    PYTHONPATH=src python3 tools/rollout_digest.py --params cube-bullet-style --tosses 4

To gate a change in one command, --against SRC_DIR runs the same selection
on another checkout's ``src/`` in a subprocess, compares it line by line
with this process's own digest, prints only the lines that differ (the
other checkout's with ``-``, this one's with ``+``) and exits 1 if any do:

    PYTHONPATH=src python3 tools/rollout_digest.py --against ../parent/src

The cube pools print first, so the box pools left the earlier lines as they
were. The parameter sets are the three presets, the Bullet-style preset at
(mu, k) = (0.05, 300) and (0.9, 3e4), and the benchmark's compliant truth
(mu 0.18, k 10800, b 0.4). Uses only the standard library, numpy and
cubetoss.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import os
import subprocess
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Print sha256 digests of benchmark-pool rollouts.")
    parser.add_argument("--params", default=",".join(parameter_sets()),
                        help="comma list of parameter sets (default: all, in the output's order)")
    parser.add_argument("--pools", default=",".join(pools()),
                        help="comma list of toss pools (default: all, in the output's order)")
    parser.add_argument("--tosses", type=int, default=None, help="the first N tosses of each pool (default: all)")
    parser.add_argument("--against", metavar="SRC_DIR", default=None,
                        help="compare with the digest of the cubetoss package under SRC_DIR, print only the lines "
                             "that differ and exit 1 if any do")
    args = parser.parse_args(argv)
    names, pool_names = args.params.split(","), args.pools.split(",")
    unknown = sorted(set(names) - set(parameter_sets()) | set(pool_names) - set(pools()))
    if unknown:
        parser.error(f"unknown parameter sets or pools: {', '.join(unknown)}")
    if args.against is None:
        for line in digest_lines(names, pool_names, args.tosses):
            print(line, flush=True)
        return 0
    if not (Path(args.against) / "cubetoss" / "__init__.py").is_file():
        parser.error(f"--against {args.against}: no cubetoss package there")
    return compare_against(args.against, names, pool_names, args.tosses)


def compare_against(src_dir, names, pool_names, tosses) -> int:
    """Print the lines in which this process's digest and that of the cubetoss under src_dir differ; 1 if any do.

    The other side runs this script in a subprocess whose PYTHONPATH is src_dir alone.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--params", ",".join(names), "--pools", ",".join(pool_names)]
    if tosses is not None:
        cmd += ["--tosses", str(tosses)]
    other = subprocess.run(cmd, env={**os.environ, "PYTHONPATH": str(Path(src_dir).resolve())}, check=True,
                           stdout=subprocess.PIPE, text=True).stdout.splitlines()
    differ = False
    for theirs, ours in itertools.zip_longest(other, digest_lines(names, pool_names, tosses)):
        if theirs != ours:
            differ = True
            for sign, line in (("-", theirs), ("+", ours)):
                if line is not None:
                    print(f"{sign} {line}", flush=True)
    return int(differ)


if __name__ == "__main__":
    sys.exit(main())
