"""Frozen copies of the numpy rollout code that the float helpers replaced.

They are the oracles of the bit-identity tests: the corner detector, the
vectorized compliant law, the integrator, the fused rollout loop and the
trajectory writer exactly as they were written over numpy arrays. The loop
builds the live contact problem from the frozen detector's arms and calls
the frozen PGS solve below and the live convex solve; table_jacobian is the
oracle of the live Jacobian builder. The convex oracle below is the APG
alone; the live solver's face solve stops most warm-started solves at a
point other than the APG's, though within its stopping rule, so the loop's
glue is checked bit for bit against the convex solver it runs.

The two iterative solvers follow as oracles of the float kernels, which
run on Python floats with no BLAS: the same fixed summation orders, written
independently on numpy columns and plain index loops. ``fixed_terms`` and
``fixed_impulse`` form the Delassus matrix, M^-1 f_ext, J v_free and the
wrench, as 6-term sums over the full Jacobian rows, the oracles of the live
builder's closed form; ``sequential_pgs_impulse`` (the PGS sweeps in
body-velocity space) and ``convex_impulse`` with
``convex_reference_velocity`` and ``pyramid_qp`` (the one-projection APG
with its Gershgorin step size) are the solves. ``pgs_impulse`` with
``pgs``, the same sweeps over the Delassus matrix as the float kernel ran
them before, ``blas_pgs_impulse`` and ``blas_convex_impulse``, the solvers
as they were with BLAS and LAPACK products (the convex one with eigvalsh
and its two projections per iteration), are kept as the references that
the float solvers must agree with to a stated tolerance. The solvers share
the live, separately tested friction pyramid projection and erp/cfm
mapping.
"""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from cubetoss.body import SimConfig
from cubetoss.io import COLUMNS, FORMAT_TAG
from cubetoss.simulate import SimulationDivergence
from cubetoss.solvers import (
    DEFAULT_PGS_ITERS,
    DEFAULT_PGS_TOL,
    DEFAULT_QP_ITERS,
    DEFAULT_QP_TOL,
    ContactImpulse,
    ContactProblem,
    ConvexSolverError,
    _mass_terms,
    _pyramid_project_floats,
    erp_cfm,
    regularized_convex_impulse,
)
from cubetoss.trajectory import Trajectory


def to_matrix(q):
    w, x, y, z = q
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = x * y, x * z, y * z
    wx, wy, wz = w * x, w * y, w * z
    return np.array([
        [1.0 - 2.0 * (yy + zz), 2.0 * (xy - wz), 2.0 * (xz + wy)],
        [2.0 * (xy + wz), 1.0 - 2.0 * (xx + zz), 2.0 * (yz - wx)],
        [2.0 * (xz - wy), 2.0 * (yz + wx), 1.0 - 2.0 * (xx + yy)],
    ])


_NO_CONTACTS = (np.empty(0, dtype=np.intp), None, None, None, None, None, None)


def corner_contact_arrays(pos, R, vel, ang_vel, corners_body, margin):
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
    wx, wy, wz = ang_vel
    vpx = vel[0] + wy * rho[2] - wz * rho[1]
    vpy = vel[1] + wz * rho[0] - wx * rho[2]
    vpz = vel[2] + wx * rho[1] - wy * rho[0]
    depth = -z[idx]
    depth_rate = -vpz
    return idx, depth, depth_rate, vpx, vpy, rho, points


def compliant_forces(depth, depth_rate, vt1, vt2, mu, k, b, slip_tol):
    fn = k * np.maximum(0.0, 1.0 + b * depth_rate) * np.maximum(0.0, depth)
    speed = np.sqrt(vt1 * vt1 + vt2 * vt2)
    denom = np.maximum(speed, slip_tol)
    ft1 = -mu * fn * vt1 / denom
    ft2 = -mu * fn * vt2 / denom
    return fn, ft1, ft2


def integrate(pos, q, vel, w, R, inertia, imp_lin, imp_ang, dt):
    v1 = vel + dt * inertia.gravity + imp_lin / inertia.mass
    if inertia.isotropic:
        w1 = w + inertia.inertia_body_inv[0, 0] * imp_ang
    else:
        iw = R @ inertia.inertia_body @ R.T
        tau_gyro = -np.cross(w, iw @ w)
        w1 = w + R @ (inertia.inertia_body_inv @ (R.T @ (dt * tau_gyro + imp_ang)))
    p1 = pos + dt * v1
    wx, wy, wz = w1.tolist()
    hx, hy, hz = 0.5 * dt * wx, 0.5 * dt * wy, 0.5 * dt * wz
    half = math.sqrt(hx * hx + hy * hy + hz * hz)
    s = 1.0 if half == 0.0 else math.sin(half) / half
    c = math.cos(half)
    bx, by, bz = s * hx, s * hy, s * hz
    qw, qx, qy, qz = q.tolist()
    rw = c * qw - bx * qx - by * qy - bz * qz
    rx = c * qx + bx * qw + by * qz - bz * qy
    ry = c * qy - bx * qz + by * qw + bz * qx
    rz = c * qz + bx * qy - by * qx + bz * qw
    n = math.sqrt(rw * rw + rx * rx + ry * ry + rz * rz)
    if not (n > 0.0 and n < math.inf):
        raise ValueError(f"cannot normalize quaternion with norm {n}")
    q1 = np.array([rw / n, rx / n, ry / n, rz / n])
    return p1, q1, v1, w1


def simulate(x0, params, inertia, geom, cfg=None, duration=1.0):
    """The fused rollout loop over numpy arrays (argument checks trimmed)."""
    cfg = cfg or SimConfig()
    dt = cfg.dt
    n_steps = int(round(duration / dt))
    down = cfg.downsample
    n_samples = n_steps // down + 1

    pos_out = np.empty((n_samples, 3))
    quat_out = np.empty((n_samples, 4))
    vel_out = np.empty((n_samples, 3))
    angvel_out = np.empty((n_samples, 3))

    p = x0.pos.copy()
    q = x0.quat.copy()
    v = x0.vel.copy()
    w = x0.ang_vel.copy()
    pos_out[0], quat_out[0], vel_out[0], angvel_out[0] = p, q, v, w

    model = params.model
    margin = cfg.activation_margin
    corners_body = geom.corners_body
    max_iters = cfg.solver_iters
    if max_iters is None:
        max_iters = DEFAULT_QP_ITERS if model == "regularized_convex" else DEFAULT_PGS_ITERS
    const_mass_terms = _mass_terms(None, None, inertia) if inertia.isotropic else None

    warm_corners = []
    warm_flat = None

    zero_imp = np.zeros(3)
    for step_i in range(1, n_steps + 1):
        R = to_matrix(q)
        idx, depth, depth_rate, vt1, vt2, rho, _ = corner_contact_arrays(p, R, v, w, corners_body, margin)

        if idx.size == 0:
            imp_lin = zero_imp
            imp_ang = zero_imp
        elif model == "compliant":
            fn, ft1, ft2 = compliant_forces(
                depth, depth_rate, vt1, vt2, params.mu, params.k, params.b, cfg.slip_tolerance
            )
            imp_lin = dt * np.array([ft1.sum(), ft2.sum(), fn.sum()])
            imp_ang = dt * np.array([
                (rho[1] * fn - rho[2] * ft2).sum(),
                (rho[2] * ft1 - rho[0] * fn).sum(),
                (rho[0] * ft2 - rho[1] * ft1).sum(),
            ])
        else:
            inv_mass, f_ext = const_mass_terms or _mass_terms(R, w, inertia)
            problem = ContactProblem(
                rho.tolist(), inv_mass, np.concatenate([v, w]).tolist(), dt, f_ext, depth.tolist(), depth_rate.tolist()
            )
            corners = idx.tolist()
            if corners == warm_corners:
                warm = warm_flat
            else:
                per_corner = np.zeros((8, 3))
                if warm_corners:
                    per_corner[warm_corners] = warm_flat.reshape(-1, 3)
                warm = per_corner[idx].reshape(-1)
            try:
                if model == "regularized_convex":
                    imp = regularized_convex_impulse(problem, params, max_iters, warm_start=warm)
                else:
                    imp = sequential_pgs_impulse(problem, params, max_iters, warm_start=warm)
            except ConvexSolverError as err:
                raise SimulationDivergence(step_i, str(err)) from err
            warm_corners, warm_flat = corners, imp.flat()
            imp_lin = imp.wrench[:3]
            imp_ang = imp.wrench[3:]

        try:
            p, q, v, w = integrate(p, q, v, w, R, inertia, imp_lin, imp_ang, dt)
        except ValueError as err:
            raise SimulationDivergence(step_i, str(err)) from err
        chk = p[0] + p[1] + p[2] + v[0] + v[1] + v[2]
        if not math.isfinite(chk):
            raise SimulationDivergence(step_i, "non-finite position or velocity")

        if step_i % down == 0:
            j = step_i // down
            pos_out[j], quat_out[j], vel_out[j], angvel_out[j] = p, q, v, w

    return Trajectory(cfg.output_rate_hz, pos_out, quat_out, vel_out, angvel_out)


def save_trajectory(traj, path):
    path = Path(path)
    lines = [f"# {FORMAT_TAG}", f"# rate_hz: {traj.rate_hz!r}"]
    for key in sorted(traj.meta):
        lines.append(f"# {key}: {traj.meta[key]!r}")
    lines.append("# columns: " + ",".join(COLUMNS))
    times = traj.times
    mat = traj.as_matrix()
    for i in range(len(traj)):
        row = [times[i], *mat[i]]
        lines.append(",".join(f"{x:.17g}" for x in row))
    path.write_text("\n".join(lines) + "\n")


def table_jacobian(rho):
    rows = []
    for x, y, z in zip(*rho):
        rows += (
            [0.0, 0.0, 1.0, y, -x, 0.0],
            [1.0, 0.0, 0.0, 0.0, z, -y],
            [0.0, 1.0, 0.0, -z, 0.0, x],
        )
    return np.array(rows).reshape(-1, 6)


def fixed_terms(problem):
    """(J, A, accel, g) of a problem in the float kernel's summation order, on numpy columns.

    Every product of the block inverse mass diag(m^-1 I3, W), of the
    Delassus matrix A, of accel = M^-1 f_ext and of g = J v_free is an
    elementwise numpy expression summed term by term in index order, so no
    BLAS call decides a rounding.
    """
    J = problem.jacobian
    minv = problem.inv_mass[0, 0]
    W = problem.inv_mass[3:, 3:]
    MJ = np.empty_like(J)  # row k is M^-1 J[k]
    MJ[:, :3] = minv * J[:, :3]
    for c in range(3):
        MJ[:, 3 + c] = W[c, 0] * J[:, 3] + W[c, 1] * J[:, 4] + W[c, 2] * J[:, 5]
    A = J[:, 0:1] * MJ[:, 0]  # A[i, j] = J[i] . MJ[j], term by term
    for c in range(1, 6):
        A = A + J[:, c:c + 1] * MJ[:, c]
    f = problem.f_ext
    accel = np.concatenate([minv * f[:3], W[:, 0] * f[3] + W[:, 1] * f[4] + W[:, 2] * f[5]])
    v_free = problem.v + problem.h * accel
    g = J[:, 0] * v_free[0]
    for c in range(1, 6):
        g = g + J[:, c] * v_free[c]
    return J, A, accel, g


def fixed_impulse(J, lam, converged, iterations):
    """A result over lam with the wrench J^T lam summed row by row from the first."""
    lam = np.array(lam, dtype=float)
    wrench = lam[0] * J[0]
    for k in range(1, len(lam)):
        wrench = wrench + lam[k] * J[k]
    return ContactImpulse(lam.tolist(), wrench.tolist(), converged, iterations)


def convex_reference_velocity(problem, params):
    """The reference normal velocities with r . v and r . accel summed term by term over numpy columns."""
    h, d, k, b = problem.h, params.d_interp, params.k, params.b
    J, _, accel, _ = fixed_terms(problem)
    normal = J[0::3]
    v = problem.v
    s_minus = normal[:, 0] * v[0]
    dv = normal[:, 0] * accel[0]
    for c in range(1, 6):
        s_minus = s_minus + normal[:, c] * v[c]
        dv = dv + normal[:, c] * accel[c]
    carry = np.minimum(s_minus, 0.0) * max(0.0, 1.0 - h * d * b)
    return carry + h * d * k * problem.depth + (1.0 - d) * (h * dv)


def pyramid_qp(Q, c, mu, lam0, max_iters, tol):
    """The one-projection APG as plain index loops over lists; Q is any n x n nested sequence."""
    Q = np.asarray(Q, dtype=float).tolist()
    c = [float(x) for x in c]
    n = len(c)
    row_sums = []
    for i in range(n):
        s = 0.0
        for j in range(n):
            s = s + abs(Q[i][j])
        row_sums.append(s)
    if not all(math.isfinite(s) for s in row_sums):
        return [0.0] * n, math.inf, 0
    L = max(row_sums)
    if L <= 0.0:
        return [0.0] * n, 0.0, 0
    lam = y = _pyramid_project_floats([float(x) for x in lam0], mu)
    t = 1.0
    pg_norm = math.inf
    for it in range(1, max_iters + 1):
        step = []
        for i in range(n):
            r = Q[i][0] * y[0]
            for j in range(1, n):
                r = r + Q[i][j] * y[j]
            step.append(y[i] - (r + c[i]) / L)
        new = _pyramid_project_floats(step, mu)
        pg_norm = 0.0
        for i in range(n):
            e = abs(L * (y[i] - new[i]))
            if not e <= pg_norm:
                pg_norm = e
                if e != e:
                    break
        if pg_norm <= tol or not math.isfinite(pg_norm):
            return new, pg_norm, it
        s = 0.0
        for i in range(n):
            s = s + (y[i] - new[i]) * (new[i] - lam[i])
        if s > 0.0:
            t = 1.0
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_new
        y = [new[i] + beta * (new[i] - lam[i]) for i in range(n)]
        lam = new
        t = t_new
    return lam, pg_norm, max_iters


def convex_impulse(problem, params, max_iters=DEFAULT_QP_ITERS, tol=DEFAULT_QP_TOL, warm_start=None):
    """The convex solve in the fixed order of the float kernel: fixed_terms, then pyramid_qp."""
    nc = problem.num_contacts
    if nc == 0:
        return ContactImpulse.empty()
    J, A, _, g = fixed_terms(problem)
    d = params.d_interp
    diag = np.arange(3 * nc)
    Q = A.copy()
    Q[diag, diag] = A[diag, diag] + (1.0 - d) / d * A[diag, diag]
    c = g.copy()
    c[0::3] -= convex_reference_velocity(problem, params)
    if warm_start is not None and np.shape(warm_start) == (3 * nc,):
        lam0 = np.array(warm_start, dtype=float).tolist()
    else:
        lam0 = [0.0] * (3 * nc)
    lam, residual, iters = pyramid_qp(Q, c, params.mu, lam0, max_iters, tol)
    if not residual <= tol:
        raise ConvexSolverError(residual, iters)
    return fixed_impulse(J, lam, True, iters)

def sequential_pgs_impulse(problem, params, max_iters=DEFAULT_PGS_ITERS, tol=DEFAULT_PGS_TOL, warm_start=None):
    """The PGS solve in body-velocity space, as plain index loops over lists.

    u = v_free + M^-1 J^T lam is kept as six floats. Row k of direction e
    (+z, +x, +y for n, t1, t2) reads its residual J_k . u as u on e's linear
    entry plus, left to right, the products of J_k's two angular entries
    off e's axis (rho x e has no component along e). After an update that
    changes lam_k by step, u's linear entry along e gains m^-1 step and
    each angular entry gains (W (rho x e)) step, each W (rho x e) entry
    summed left to right over the same two entries. The warm start's
    normals are clamped as np.maximum(0.0, x); before the first sweep each
    contact adds its rows' m^-1 lam to u's linear entries and, to each
    angular entry, the sum of its three rows' (W (rho x e)) lam, left to
    right. The diagonals are fixed_terms's Delassus diagonal and v_free is
    v + h accel with its accel.
    """
    nc = problem.num_contacts
    if nc == 0:
        return ContactImpulse.empty()
    J, A, accel, _ = fixed_terms(problem)
    diag = A.diagonal().tolist()
    h = problem.h
    minv = float(problem.inv_mass[0, 0])
    W = problem.inv_mass[3:, 3:].tolist()
    rows = J.tolist()
    u = (problem.v + h * accel).tolist()
    erp, cfm = erp_cfm(h, params.k, params.b)
    bias = ((erp / h) * np.maximum(0.0, problem.depth)).tolist()
    n = 3 * nc
    axes = []  # per row: the axis of e and the two angular entries off it
    cols = []  # per row: W (rho x e)
    for k in range(n):
        axis = (2, 0, 1)[k % 3]
        off = [j for j in range(3) if j != axis]
        axes.append((axis, off))
        cols.append([W[i][off[0]] * rows[k][3 + off[0]] + W[i][off[1]] * rows[k][3 + off[1]] for i in range(3)])

    def push(k, step):
        u[axes[k][0]] = u[axes[k][0]] + minv * step
        for i in range(3):
            u[3 + i] = u[3 + i] + cols[k][i] * step

    def residual(k):
        axis, off = axes[k]
        r = u[axis]
        for j in off:
            r = r + rows[k][3 + j] * u[3 + j]
        return r

    if warm_start is not None and np.shape(warm_start) == (n,):
        lam = np.array(warm_start, dtype=float)
        normal = lam[0::3]
        np.maximum(0.0, normal, out=normal)
        lam = lam.tolist()
        for ni in range(0, n, 3):
            for k in range(ni, ni + 3):
                u[axes[k][0]] = u[axes[k][0]] + minv * lam[k]
            for i in range(3):
                s = cols[ni][i] * lam[ni]
                for k in (ni + 1, ni + 2):
                    s = s + cols[k][i] * lam[k]
                u[3 + i] = u[3 + i] + s
    else:
        lam = [0.0] * n
    sweeps = 0
    converged = False
    for sweeps in range(1, max_iters + 1):
        delta = 0.0
        for ni in range(0, n, 3):
            for k in range(ni, ni + 3):
                old = lam[k]
                if k == ni:
                    new = old - ((residual(k) - bias[k // 3]) + cfm * old) / (diag[k] + cfm)
                    if new < 0.0:
                        new = 0.0
                    change = abs(new - old)
                    bound = params.mu * new
                else:
                    new = old - residual(k) / diag[k]
                    if new > bound:
                        new = bound
                    elif new < -bound:
                        new = -bound
                    if abs(new - old) > change:
                        change = abs(new - old)
                lam[k] = new
                push(k, new - old)
            if change > delta:
                delta = change
        if delta < tol:
            converged = True
            break
    converged = converged and all(math.isfinite(x) for x in lam)
    return fixed_impulse(J, lam, converged, sweeps)


def pgs(A, g, bias, cfm, mu, lam, max_iters, tol):
    """Gauss-Seidel sweeps with every row dot summed left to right from its first product."""
    A = np.asarray(A, dtype=float).tolist()
    n = len(lam)
    sweeps = 0
    converged = False
    for sweeps in range(1, max_iters + 1):
        delta = 0.0
        for ni in range(0, n, 3):
            for k in range(ni, ni + 3):
                r = A[k][0] * lam[0]
                for j in range(1, n):
                    r = r + A[k][j] * lam[j]
                old = lam[k]
                if k == ni:
                    new = old - (((r + g[k]) - bias[k // 3]) + cfm * old) / (A[k][k] + cfm)
                    if new < 0.0:
                        new = 0.0
                    change = abs(new - old)
                    bound = mu * new
                else:
                    new = old - (r + g[k]) / A[k][k]
                    if new > bound:
                        new = bound
                    elif new < -bound:
                        new = -bound
                    if abs(new - old) > change:
                        change = abs(new - old)
                lam[k] = new
            if change > delta:
                delta = change
        if delta < tol:
            converged = True
            break
    converged = converged and all(math.isfinite(x) for x in lam)
    return lam, converged, sweeps


def pgs_impulse(problem, params, max_iters=DEFAULT_PGS_ITERS, tol=DEFAULT_PGS_TOL, warm_start=None):
    """The PGS solve over the Delassus matrix as the float kernel ran it before: fixed_terms, then pgs."""
    nc = problem.num_contacts
    if nc == 0:
        return ContactImpulse.empty()
    J, A, _, g = fixed_terms(problem)
    erp, cfm = erp_cfm(problem.h, params.k, params.b)
    bias = (erp / problem.h) * np.maximum(0.0, problem.depth)
    if warm_start is not None and np.shape(warm_start) == (3 * nc,):
        lam = np.array(warm_start, dtype=float)
        normal = lam[0::3]
        np.maximum(0.0, normal, out=normal)
    else:
        lam = np.zeros(3 * nc)
    lam, converged, sweeps = pgs(A, g.tolist(), bias.tolist(), cfm, params.mu, lam.tolist(), max_iters, tol)
    return fixed_impulse(J, lam, converged, sweeps)


# --- the BLAS solvers, kept as the references of the tolerance tests ----------


def package(problem, lam, converged, iterations):
    nc = problem.num_contacts
    wrench = problem.jacobian.T @ lam if nc else np.zeros(6)
    return ContactImpulse(lam.tolist(), wrench.tolist(), converged, iterations)


def blas_convex_reference_velocity(problem, params):
    h, d, k, b = problem.h, params.d_interp, params.k, params.b
    J = problem.jacobian
    s_minus = (J @ problem.v)[0::3]
    dv0 = h * (J @ (problem.inv_mass @ problem.f_ext))[0::3]
    carry = np.minimum(s_minus, 0.0) * max(0.0, 1.0 - h * d * b)
    return carry + h * d * k * problem.depth + (1.0 - d) * dv0


def blas_pyramid_qp(Q, c, mu, lam0, max_iters, tol):
    eigs = np.linalg.eigvalsh(Q)
    L = float(eigs[-1])
    if L <= 0.0:
        return np.zeros_like(lam0), 0.0, 0
    c_f = c.tolist()
    lam_f = _pyramid_project_floats(lam0.tolist(), mu)
    lam = np.array(lam_f)
    y_f, y = lam_f, lam
    t = 1.0
    pg_norm = math.inf
    for it in range(1, max_iters + 1):
        step = [yi - (gi + ci) / L for yi, gi, ci in zip(y_f, (Q @ y).tolist(), c_f)]
        new_f = _pyramid_project_floats(step, mu)
        lam_new = np.array(new_f)
        step = [li - (gi + ci) / L for li, gi, ci in zip(new_f, (Q @ lam_new).tolist(), c_f)]
        pg_norm = 0.0
        for li, pi in zip(new_f, _pyramid_project_floats(step, mu)):
            e = abs(L * (li - pi))
            if not e <= pg_norm:
                pg_norm = e
                if e != e:
                    break
        if pg_norm <= tol or not math.isfinite(pg_norm):
            return lam_new, pg_norm, it
        if float((y - lam_new) @ (lam_new - lam)) > 0.0:
            t = 1.0
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_new
        y_f = [li + beta * (li - lo) for li, lo in zip(new_f, lam_f)]
        y = np.array(y_f)
        lam, lam_f = lam_new, new_f
        t = t_new
    return lam, pg_norm, max_iters


def blas_convex_impulse(problem, params, max_iters=DEFAULT_QP_ITERS, tol=DEFAULT_QP_TOL, warm_start=None):
    nc = problem.num_contacts
    if nc == 0:
        return ContactImpulse.empty()
    A = problem.delassus()
    d = params.d_interp
    Q = A + np.diag((1.0 - d) / d * np.diag(A))
    c = problem.jacobian @ problem.v_free()
    c[0::3] -= blas_convex_reference_velocity(problem, params)
    if warm_start is not None and warm_start.shape == (3 * nc,):
        lam0 = warm_start
    else:
        lam0 = np.zeros(3 * nc)
    lam, residual, iters = blas_pyramid_qp(Q, c, params.mu, lam0, max_iters, tol)
    if not residual <= tol:
        raise ConvexSolverError(residual, iters)
    return package(problem, lam, True, iters)


def blas_pgs(A, g, bias, cfm, mu, lam, max_iters, tol):
    rows = list(A)
    diag = A.diagonal().tolist()
    g_f = g.tolist()
    bias_f = bias.tolist()
    lam_f = lam.tolist()
    nc = len(bias_f)
    sweeps = 0
    converged = False
    for sweeps in range(1, max_iters + 1):
        delta = 0.0
        for i in range(nc):
            ni = 3 * i
            old = lam_f[ni]
            r = float(rows[ni].dot(lam)) + g_f[ni] - bias_f[i] + cfm * old
            new = old - r / (diag[ni] + cfm)
            if new < 0.0:
                new = 0.0
            change = abs(new - old)
            lam[ni] = lam_f[ni] = new
            bound = mu * new
            for jt in (ni + 1, ni + 2):
                old = lam_f[jt]
                r = float(rows[jt].dot(lam)) + g_f[jt]
                newt = old - r / diag[jt]
                if newt > bound:
                    newt = bound
                elif newt < -bound:
                    newt = -bound
                cj = abs(newt - old)
                if cj > change:
                    change = cj
                lam[jt] = lam_f[jt] = newt
            if change > delta:
                delta = change
        if delta < tol:
            converged = True
            break
    converged = converged and all(map(math.isfinite, lam_f))
    return lam, converged, sweeps


def blas_pgs_impulse(problem, params, max_iters=DEFAULT_PGS_ITERS, tol=DEFAULT_PGS_TOL, warm_start=None):
    nc = problem.num_contacts
    if nc == 0:
        return ContactImpulse.empty()
    A = problem.delassus()
    g = problem.jacobian @ problem.v_free()
    erp, cfm = erp_cfm(problem.h, params.k, params.b)
    bias = (erp / problem.h) * np.maximum(0.0, problem.depth)
    if warm_start is not None and warm_start.shape == (3 * nc,):
        lam = warm_start.copy()
        normal = lam[0::3]
        np.maximum(0.0, normal, out=normal)
    else:
        lam = np.zeros(3 * nc)
    lam, converged, sweeps = blas_pgs(A, g, bias, cfm, params.mu, lam, max_iters, tol)
    return package(problem, lam, converged, sweeps)
