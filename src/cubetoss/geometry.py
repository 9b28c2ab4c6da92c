"""Box-versus-table contact detection.

The table is the halfspace z <= 0, and every contact has the table's frame:
normal +z (pointing into the body), tangents +x and +y. A ContactPoint
therefore holds only what varies from contact to contact: its witness
point, depth, depth rate and corner index; the solvers module builds the
frame's Jacobian rows from the arms. Contacts are generated at box vertices
only, one candidate per vertex whose height falls below the activation
margin, in a deterministic order (lexicographic over the body-frame corner
signs). Face contact therefore yields exactly 4 points and edge contact 2;
there is no contact patch and no torsional friction.

The detector works on Python floats and serves both detect_contacts and
the rollout loop; only its two corner products stay in numpy, because
their rounding belongs to BLAS (see _corner_contact_arrays), and it makes
one BLAS call on a contact step and none on a flight step. It reports each
active corner's index, depth, depth rate and moment arm, plus the rotated
corner columns from which detect_contacts builds the witness points, and
nothing any one model alone needs: the compliant law forms the tangential
velocity from the arm. The box holds its half extents as floats from
construction, for the flight bound that every step evaluates.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import quat
from .body import RigidState, SimConfig

CORNER_SIGNS = np.array(list(itertools.product((-1.0, 1.0), repeat=3)))


@dataclass
class BoxGeometry:
    """Axis-aligned box collision shape given by its half extents in meters."""

    half_extents: np.ndarray

    def __post_init__(self):
        he = np.array(self.half_extents, dtype=float).reshape(-1)
        if he.shape == (1,):
            he = np.full(3, he[0])
        if he.shape != (3,):
            raise ValueError(f"half_extents must be a 3-vector, got shape {he.shape}")
        if np.min(he) <= 0.0:
            raise ValueError(f"half_extents must be positive, got {he}")
        he.flags.writeable = False  # half_extent_floats and corners_body are built from it once
        self.half_extents = he
        self.half_extent_floats = tuple(he.tolist())  # the detector's flight bound reads them every step
        self.corners_body = (CORNER_SIGNS * he).T  # (3, 8), lexicographic corner order

    @property
    def side_lengths(self) -> np.ndarray:
        return 2.0 * self.half_extents

    @classmethod
    def cube(cls, side: float) -> "BoxGeometry":
        return cls(np.full(3, 0.5 * side))


@dataclass
class ContactPoint:
    """One vertex contact against the table plane, in the table's frame.

    depth is positive when the vertex penetrates (z < 0) and depth_rate is
    positive while penetration deepens, so depth_rate equals minus the
    normal velocity of the witness point.
    """

    point: np.ndarray
    depth: float
    depth_rate: float
    corner_index: int = -1


def _corner_contact_arrays(pos, R, vel, ang_vel, geom, margin):
    """Active corner data as Python float lists, or None when no corner is near.

    pos, vel and ang_vel are three floats each and R is the rotation as
    nested row lists (quat._matrix_rows) or an array. Returns (indices,
    depth, depth_rate, rho, corners): depth, depth_rate and rho have one
    entry per active corner, rho = (pos + c) - pos being the moment arms
    from the COM as three lists (x, y, z), and corners holds the rotated
    corner offsets c = R corners_body of all eight corners as three lists
    (x, y, z), from which detect_contacts forms the witness points pos + c
    of the active ones; the loop needs no witness point. Shared by
    detect_contacts and the rollout loop. Only the compliant law reads a
    contact's tangential velocity, and it forms v + w x rho from the arms
    itself (solvers._compliant_terms).

    The corner products stay in numpy: OpenBLAS evaluates R[2] @ corners
    (gemv, the flight test) and R corners (gemm, the corners, taken with
    np.dot, which skips the matmul ufunc's dispatch and rounds the same)
    with fused multiply-adds, which Python 3.11 floats cannot reproduce:
    with numpy's OpenBLAS 0.3.31 on an x86-64 Xeon, each corner entry is
    fma(R[i][2], c2, fma(R[i][1], c1, R[i][0] * c0)). The gemv and the gemm
    disagree with each other in the last bit about half the time. Before
    the gemv, a float bound settles flight steps: in exact arithmetic the
    lowest corner sits sum |R[2, i]| * half_extent[i] below the COM, and
    both the float estimate `reach` of that sum and the gemv's minimum lie
    within a few ulps of it. A gap beyond 1e-14 relative (about 90 ulps)
    therefore decides the test the way the gemv would, and only a gap inside
    that band calls the gemv. On the benchmark workloads the bound settled
    every flight step (26-80% of all steps) without entering the band, so
    a flight step makes no BLAS call and a contact step one, the gemm.
    Everything after the gemm runs on floats in the order the former array
    code used, so all values are bit-identical to that code.
    """
    p0, p1, p2 = pos
    r2 = R[2]
    hx, hy, hz = geom.half_extent_floats
    reach = abs(r2[0]) * hx + abs(r2[1]) * hy + abs(r2[2]) * hz
    gap = p2 - reach - margin
    slack = 1e-14 * (abs(p2) + reach + margin)
    if gap >= slack:
        return None  # flight
    corners_body = geom.corners_body
    if gap > -slack and p2 + min((np.array(r2) @ corners_body).tolist()) >= margin:
        return None
    cx, cy, cz = corners = np.dot(np.array(R), corners_body).tolist()
    v2 = vel[2]
    wx, wy, _ = ang_vel
    idx, depth, depth_rate, rx, ry, rz = [], [], [], [], [], []
    for j, c in enumerate(cz):
        z = p2 + c
        if z < margin:
            ax = (p0 + cx[j]) - p0
            ay = (p1 + cy[j]) - p1
            idx.append(j)
            depth.append(-z)
            # minus the normal velocity of the witness point, v + w x rho
            depth_rate.append(-(v2 + wx * ay - wy * ax))
            rx.append(ax)
            ry.append(ay)
            rz.append(z - p2)
    if not idx:
        return None
    return idx, depth, depth_rate, (rx, ry, rz), corners


def detect_contacts(
    state: RigidState, geom: BoxGeometry, activation_margin: float = SimConfig.activation_margin
) -> list[ContactPoint]:
    """Contact candidates for every box vertex closer than the margin to the table.

    The compliant force law ignores non-penetrating candidates on its own;
    the margin exists so velocity-level solvers see imminent contacts one
    step ahead. activation_margin must be finite and nonnegative, as
    SimConfig requires.
    """
    if not (0.0 <= activation_margin < math.inf):
        raise ValueError(f"activation_margin must be finite and nonnegative, got {activation_margin}")
    state.require_valid()
    found = _corner_contact_arrays(
        state.pos.tolist(),
        quat._matrix_rows(*state.quat.tolist()),
        state.vel.tolist(),
        state.ang_vel.tolist(),
        geom,
        activation_margin,
    )
    if found is None:
        return []
    idx, depth, depth_rate, _, (cx, cy, cz) = found
    p0, p1, p2 = state.pos.tolist()
    return [
        ContactPoint(
            point=np.array([p0 + cx[j], p1 + cy[j], p2 + cz[j]]),
            depth=d,
            depth_rate=dr,
            corner_index=j,
        )
        for j, d, dr in zip(idx, depth, depth_rate)
    ]

