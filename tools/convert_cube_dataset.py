#!/usr/bin/env python3
"""One-time converter from a raw cube-toss export to the canonical format.

The public cube-toss recordings ship as one array per toss. This script
turns a directory of such arrays into canonical trajectory CSVs that
``cubetoss.import_cube_dataset`` can load.

Expected input, one file per toss, either ``.npy`` or headerless ``.csv``:

* shape (T, 13): columns [px py pz, quaternion (4), vx vy vz, wx wy wz]
* shape (T, 14): the same with a leading time column (dropped; timestamps
  are rebuilt from --rate)

Frame conventions differ between capture pipelines, so they are explicit
flags rather than guesses:

* --quat-order: wxyz (default) or xyzw storage order of the quaternion
* --angvel-frame: world (default) or body; body-frame rates are rotated
  into the world frame, which is what the canonical format stores
* --scale: multiplier applied to positions (use 0.001 for mm exports)

The output frame must be z up with the table at z = 0; use --z-offset if
the export measured heights from a different origin. Quaternions are
renormalized here (the loader tolerates only 1e-3 deviation).

Example:

    python tools/convert_cube_dataset.py raw_tosses/ data/cube_tosses \
        --rate 148 --quat-order wxyz --angvel-frame body
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from cubetoss import CUBE_SIDE_M, Trajectory, quat, save_trajectory


def load_raw(path: Path) -> np.ndarray:
    if path.suffix == ".npy":
        data = np.load(path)
    else:
        data = np.loadtxt(path, delimiter=",")
    data = np.atleast_2d(np.asarray(data, dtype=float))
    if data.shape[1] == 14:
        data = data[:, 1:]
    if data.shape[1] != 13:
        raise ValueError(f"{path}: expected 13 or 14 columns, got {data.shape[1]}")
    return data


def convert(data: np.ndarray, rate: float, quat_order: str, angvel_frame: str,
            scale: float, z_offset: float) -> Trajectory:
    pos = data[:, 0:3] * scale
    pos[:, 2] += z_offset
    q = data[:, 3:7]
    if quat_order == "xyzw":
        q = q[:, [3, 0, 1, 2]]
    norms = np.linalg.norm(q, axis=1)
    if np.any(norms < 0.5):
        raise ValueError("quaternion norms far from 1; wrong column layout?")
    q = q / norms[:, None]
    vel = data[:, 7:10] * scale
    w = data[:, 10:13]
    if angvel_frame == "body":
        w = np.array([quat.to_matrix(qi) @ wi for qi, wi in zip(q, w)])
    return Trajectory(rate, pos, q, vel, w,
                      meta={"body": "cube", "side_m": CUBE_SIDE_M})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("src", help="directory of raw .npy/.csv toss arrays")
    ap.add_argument("dst", help="output directory for canonical CSVs")
    ap.add_argument("--rate", type=float, default=148.0, help="capture rate in Hz (default 148)")
    ap.add_argument("--quat-order", choices=("wxyz", "xyzw"), default="wxyz")
    ap.add_argument("--angvel-frame", choices=("world", "body"), default="world")
    ap.add_argument("--scale", type=float, default=1.0, help="position unit scale to meters")
    ap.add_argument("--z-offset", type=float, default=0.0, help="added to z so the table sits at 0")
    args = ap.parse_args(argv)

    src, dst = Path(args.src), Path(args.dst)
    files = sorted(p for p in src.iterdir() if p.suffix in (".npy", ".csv"))
    if not files:
        print(f"error: no .npy or .csv files under {src}", file=sys.stderr)
        return 1
    dst.mkdir(parents=True, exist_ok=True)
    for i, path in enumerate(files):
        traj = convert(load_raw(path), args.rate, args.quat_order, args.angvel_frame,
                       args.scale, args.z_offset)
        save_trajectory(traj, dst / f"toss_{i:04d}.csv")
    print(f"converted {len(files)} tosses into {dst}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
