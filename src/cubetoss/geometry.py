"""Box-versus-table contact detection and per-contact kinematic maps.

The table is the halfspace z <= 0 with the contact normal fixed at +z
(pointing into the body). Contacts are generated at box vertices only, one
candidate per vertex whose height falls below the activation margin, in a
deterministic order (lexicographic over the body-frame corner signs). Face
contact therefore yields exactly 4 points and edge contact 2; there is no
contact patch and no torsional friction.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import quat
from .body import RigidState

# +z is the table normal; the tangent frame is fixed from it for reproducibility
NORMAL = np.array([0.0, 0.0, 1.0])
TANGENT1 = np.array([1.0, 0.0, 0.0])
TANGENT2 = np.array([0.0, 1.0, 0.0])
TABLE_FRAME = np.stack([NORMAL, TANGENT1, TANGENT2])  # rows: normal, t1, t2

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
        self.half_extents = he
        self.corners_body = (CORNER_SIGNS * he).T  # (3, 8), lexicographic corner order

    @property
    def side_lengths(self) -> np.ndarray:
        return 2.0 * self.half_extents

    @classmethod
    def cube(cls, side: float) -> "BoxGeometry":
        return cls(np.full(3, 0.5 * side))


@dataclass
class ContactPoint:
    """One vertex contact against the table plane.

    depth is positive when the vertex penetrates (z < 0) and depth_rate is
    positive while penetration deepens, so depth_rate equals minus the
    normal velocity of the witness point.
    """

    point: np.ndarray
    normal: np.ndarray
    depth: float
    depth_rate: float
    tangent1: np.ndarray
    tangent2: np.ndarray
    corner_index: int = -1


_NO_CONTACTS = (np.empty(0, dtype=np.intp), None, None, None, None, None, None)


def _corner_contact_arrays(pos, R, vel, ang_vel, corners_body, margin):
    """Active corner data as flat arrays: (indices, depth, depth_rate, vt1, vt2, rho, points).

    points are the world witness points and rho = points - pos the moment
    arms from the COM, both shape (3, nc). Shared by detect_contacts and the
    rollout loop; the cheap height test comes first because most rollout
    steps are flight.
    """
    z_rel = R[2] @ corners_body
    if pos[2] + z_rel.min() >= margin:
        return _NO_CONTACTS
    corners = pos[:, None] + R @ corners_body
    z = corners[2]
    idx = np.flatnonzero(z < margin)
    if idx.size == 0:
        return _NO_CONTACTS
    points = corners[:, idx]
    rho = points - pos[:, None]
    # velocity of each witness point: v + w x rho
    wx, wy, wz = ang_vel
    vpx = vel[0] + wy * rho[2] - wz * rho[1]
    vpy = vel[1] + wz * rho[0] - wx * rho[2]
    vpz = vel[2] + wx * rho[1] - wy * rho[0]
    depth = -z[idx]
    depth_rate = -vpz
    return idx, depth, depth_rate, vpx, vpy, rho, points


def detect_contacts(state: RigidState, geom: BoxGeometry, activation_margin: float = 1e-3) -> list[ContactPoint]:
    """Contact candidates for every box vertex closer than the margin to the table.

    The compliant force law ignores non-penetrating candidates on its own;
    the margin exists so velocity-level solvers see imminent contacts one
    step ahead.
    """
    state.require_valid()
    R = quat.to_matrix(state.quat)
    idx, depth, depth_rate, _, _, _, points = _corner_contact_arrays(
        state.pos, R, state.vel, state.ang_vel, geom.corners_body, activation_margin
    )
    contacts = []
    for j, corner in enumerate(idx):
        contacts.append(
            ContactPoint(
                point=points[:, j],
                normal=NORMAL.copy(),
                depth=float(depth[j]),
                depth_rate=float(depth_rate[j]),
                tangent1=TANGENT1.copy(),
                tangent2=TANGENT2.copy(),
                corner_index=int(corner),
            )
        )
    return contacts


def _table_jacobian(rho: np.ndarray) -> np.ndarray:
    """Stacked 3nc x 6 contact Jacobian in the table frame (normal +z, tangents +x, +y).

    rho holds the arms from the COM to the witness points, shape (3, nc).
    Rows follow [e, rho x e] for e = normal, t1, t2 of each contact, so the
    normal row of J @ twist equals minus depth_rate. The rows are built as
    Python float lists and converted in one call, which on these few
    contacts costs less than strided assignments into a zero array.
    """
    rows = []
    for x, y, z in zip(*rho.tolist()):
        rows += (
            [0.0, 0.0, 1.0, y, -x, 0.0],
            [1.0, 0.0, 0.0, 0.0, z, -y],
            [0.0, 1.0, 0.0, -z, 0.0, x],
        )
    return np.array(rows).reshape(3 * rho.shape[1], 6)


def _frame_jacobian(rho: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """Stacked 3nc x 6 contact Jacobian for per-contact frames, shape (nc, 3, 3).

    Each row [e, rho x e] is linear in its direction e, so a contact's block
    is its table-frame block rotated by frame @ TABLE_FRAME.T. For the table
    frame that rotation is the identity and the result equals _table_jacobian.
    """
    nc = rho.shape[1]
    blocks = _table_jacobian(rho).reshape(nc, 3, 6)
    return (frames @ TABLE_FRAME.T @ blocks).reshape(3 * nc, 6)


def contact_jacobian(state: RigidState, cp: ContactPoint) -> np.ndarray:
    """3x6 map from body twist [v, w] to contact-frame velocity [normal, t1, t2].

    Row e of the map is [e, rho x e] with rho the arm from the COM to the
    witness point, so the normal row of J @ twist equals minus depth_rate.
    """
    rho = (cp.point - state.pos)[:, None]
    frame = np.stack([cp.normal, cp.tangent1, cp.tangent2])
    return _frame_jacobian(rho, frame[None])
