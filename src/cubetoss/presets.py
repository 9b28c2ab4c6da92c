"""Bundled presets: the reference cube, identified parameter sets, domains.

The reference body is a 10 cm cube of 0.37 kg with an isotropic inertia of
0.0081 kg m^2, tossed onto a table at z = 0. Parameter presets carry the
contact parameters identified for the three solver styles on the cube-toss
dataset; domain presets are the box constraints used when re-identifying
them.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from .body import InertialParams
from .geometry import BoxGeometry
from .identify import AxisSpec, ParamDomain
from .solvers import ContactParams

CUBE_SIDE_M = 0.1
CUBE_MASS_KG = 0.37
CUBE_INERTIA = 0.0081  # kg m^2, isotropic


def cube_geometry() -> BoxGeometry:
    return BoxGeometry.cube(CUBE_SIDE_M)


def cube_inertial(gravity=(0.0, 0.0, -9.81)) -> InertialParams:
    return InertialParams(CUBE_MASS_KG, CUBE_INERTIA * np.eye(3), np.asarray(gravity, dtype=float))


# Identified cube-toss contact parameters for each solver style.
PARAM_PRESETS: dict[str, ContactParams] = {
    "cube-drake": ContactParams(mu=0.10, k=10800.0, b=0.4, model="compliant"),
    "cube-mujoco-style": ContactParams(mu=0.22, k=3300.0, b=45.0, model="regularized_convex"),
    "cube-bullet-style": ContactParams(mu=0.36, k=1800.0, b=27.0, model="rigid_pgs"),
}


def param_preset(name: str) -> ContactParams:
    if name not in PARAM_PRESETS:
        raise KeyError(f"unknown parameter preset {name!r}, expected one of {sorted(PARAM_PRESETS)}")
    return replace(PARAM_PRESETS[name])


def cube_domain(model: str) -> ParamDomain:
    """Identification box for the cube scenario: mu in [0, 1], k log-scaled."""
    if model == "compliant":
        k_hi, b_hi = 1e5, 2.0
    elif model in ("regularized_convex", "rigid_pgs"):
        k_hi, b_hi = 1e4, 1e3
    else:
        raise KeyError(f"unknown contact model {model!r}")
    return ParamDomain(
        (
            AxisSpec("mu", 0.0, 1.0),
            AxisSpec("k", 1e2, k_hi, log=True),
            AxisSpec("b", 0.0, b_hi),
        )
    )
