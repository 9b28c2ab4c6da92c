import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubetoss as ct
from cubetoss.identify import AxisSpec, ParamDomain
from cubetoss.metrics import DIVERGENCE_PENALTY
from cubetoss.synthetic import make_dataset, random_toss_states


def quadratic_domain():
    return ParamDomain((
        AxisSpec("a", -2.0, 2.0),
        AxisSpec("b", 0.0, 4.0),
        AxisSpec("c", 1e-2, 1e2, log=True),
    ))


def test_optimize_recovers_quadratic_minimum():
    target = {"a": 0.7, "b": 1.3, "c": 2.5}

    def loss(p):
        return (p["a"] - target["a"]) ** 2 + (p["b"] - target["b"]) ** 2 \
            + (np.log10(p["c"]) - np.log10(target["c"])) ** 2

    res = ct.optimize(loss, quadratic_domain(), budget=2000, seed=1)
    for k, v in target.items():
        assert res.params[k] == pytest.approx(v, rel=1e-3)
    assert res.loss < 1e-6


def test_optimize_constant_loss_stays_in_domain():
    dom = quadratic_domain()
    res = ct.optimize(lambda p: 5.0, dom, budget=50, seed=2)
    assert res.loss == 5.0
    assert all(a.lower - 1e-12 <= res.params[a.name] <= a.upper + 1e-12 for a in dom.axes)
    assert res.best_index == 0  # earliest evaluation wins ties


def test_optimize_never_leaves_domain():
    dom = quadratic_domain()
    seen = []

    def loss(p):
        assert all(a.lower - 1e-12 <= p[a.name] <= a.upper + 1e-12 for a in dom.axes), p
        seen.append(p)
        return (p["a"] + 1.9) ** 2  # minimum near the boundary forces clipping pressure

    res = ct.optimize(loss, dom, budget=600, seed=3)
    assert len(seen) == 600
    assert res.params["a"] == pytest.approx(-1.9, abs=1e-2)


@st.composite
def box_domains(draw):
    """1-4 axes, linear or log-scaled, with bounds that need not survive a log10 round trip."""
    axes = []
    for i in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            lo = draw(st.floats(1e-6, 1e6))
            hi = lo * draw(st.floats(1.0001, 1e6))
            axes.append(AxisSpec(f"x{i}", lo, hi, log=True))
        else:
            lo = draw(st.floats(-1e6, 1e6))
            hi = lo + draw(st.floats(1e-6, 1e6))
            if not lo < hi:
                hi = lo + 1.0
            axes.append(AxisSpec(f"x{i}", lo, hi))
    return ParamDomain(tuple(axes))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(box_domains(), st.integers(1, 120), st.integers(0, 2**32 - 1))
def test_optimize_never_evaluates_outside_box(dom, budget, seed):
    """Every evaluated point lies inside its box, bounds included, with no tolerance."""
    seen = []

    def loss(p):
        seen.append(p)
        return sum((v - a.upper) ** 2 if i % 2 else (v - a.lower) ** 2 for i, (a, v) in
                   enumerate(zip(dom.axes, p.values())))

    res = ct.optimize(loss, dom, budget=budget, seed=seed)
    assert len(seen) == budget == res.n_evaluations
    for p in seen:
        assert all(a.lower <= p[a.name] <= a.upper for a in dom.axes), p


def test_optimize_history_and_monotone_best():
    res = ct.optimize(lambda p: (p["a"] - 0.3) ** 2, quadratic_domain(), budget=300, seed=4)
    assert res.n_evaluations == 300
    best_so_far = np.minimum.accumulate(res.history_loss)
    assert np.all(np.diff(best_so_far) <= 0.0)
    assert res.loss == best_so_far[-1]
    assert res.history_params.shape == (300, 3)


def test_optimize_deterministic_given_seed():
    def loss(p):
        return abs(p["a"]) + abs(p["b"] - 2) + abs(np.log10(p["c"]))

    r1 = ct.optimize(loss, quadratic_domain(), budget=200, seed=7)
    r2 = ct.optimize(loss, quadratic_domain(), budget=200, seed=7)
    assert np.array_equal(r1.history_params, r2.history_params)
    assert np.array_equal(r1.history_loss, r2.history_loss)
    assert r1.params == r2.params


def test_optimize_degenerate_budget():
    res = ct.optimize(lambda p: 1.0, quadratic_domain(), budget=1, seed=5)
    assert res.n_evaluations == 1
    with pytest.raises(ValueError):
        ct.optimize(lambda p: 1.0, quadratic_domain(), budget=0, seed=5)


def test_axis_spec_validation():
    with pytest.raises(ValueError):
        AxisSpec("x", 1.0, 1.0)
    with pytest.raises(ValueError):
        AxisSpec("x", 0.0, 1.0, log=True)
    ax = AxisSpec("k", 1e2, 1e5, log=True)
    assert ax.decode(ax.encode(1234.5)) == pytest.approx(1234.5, rel=1e-12)
    grid = ax.grid(4)
    assert grid[0] == pytest.approx(1e2) and grid[-1] == pytest.approx(1e5)
    assert np.allclose(np.diff(np.log10(grid)), 1.0)


def test_cube_domain_presets():
    dom = ct.cube_domain("compliant")
    by_name = {a.name: a for a in dom.axes}
    assert (by_name["mu"].lower, by_name["mu"].upper) == (0.0, 1.0)
    assert (by_name["k"].lower, by_name["k"].upper) == (1e2, 1e5)
    assert by_name["k"].log
    assert (by_name["b"].lower, by_name["b"].upper) == (0.0, 2.0)
    for model in ("regularized_convex", "rigid_pgs"):
        dom = ct.cube_domain(model)
        by_name = {a.name: a for a in dom.axes}
        assert (by_name["k"].lower, by_name["k"].upper) == (1e2, 1e4)
        assert (by_name["b"].lower, by_name["b"].upper) == (0.0, 1e3)


# --- sweeps -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_dataset():
    params = ct.param_preset("cube-drake")
    geom, inertia = ct.cube_geometry(), ct.cube_inertial()
    states = random_toss_states(4, geom, seed=60)
    return make_dataset(states, params, inertia, geom, ct.SimConfig(), 0.25)


def test_sweep_single_point_matches_dataset_loss(small_dataset, cube_geom, cube_inertia):
    baseline = ct.param_preset("cube-drake")
    grid = ct.sweep(baseline, [("k", [baseline.k])], small_dataset, cube_inertia, cube_geom,
                    ct.SimConfig())
    direct = ct.dataset_loss(small_dataset, baseline, cube_inertia, cube_geom, ct.SimConfig())
    assert grid.losses.shape == (1,)
    assert grid.losses[0] == direct  # bitwise: same code path, same parameters


def test_sweep_2d_shapes_and_rows(small_dataset, cube_geom, cube_inertia):
    baseline = ct.param_preset("cube-drake")
    grid = ct.sweep(
        baseline,
        [("k", np.logspace(3, 5, 3)), ("b", np.linspace(0.0, 2.0, 2))],
        small_dataset, cube_inertia, cube_geom, ct.SimConfig(), log_axes=("k",),
    )
    assert grid.losses.shape == (3, 2)
    assert grid.diverged.shape == (3, 2)
    assert grid.axis_log == (True, False)
    rows = grid.rows()
    assert len(rows) == 6
    assert rows[0][:2] == (pytest.approx(1e3), 0.0)
    assert all(len(r) == 4 for r in rows)


def test_sweep_flags_divergent_points(small_dataset, cube_geom, cube_inertia):
    baseline = ct.ContactParams(0.1, 1e200, 1e200, "compliant")
    with np.errstate(over="ignore", invalid="ignore"):
        grid = ct.sweep(baseline, [("mu", [0.1])], small_dataset, cube_inertia, cube_geom,
                        ct.SimConfig())
    assert bool(grid.diverged[0])
    assert grid.losses[0] == pytest.approx(DIVERGENCE_PENALTY)


def test_sweep_rejects_bad_axes(small_dataset, cube_geom, cube_inertia):
    baseline = ct.param_preset("cube-drake")
    with pytest.raises(ValueError):
        ct.sweep(baseline, [], small_dataset, cube_inertia, cube_geom)
    with pytest.raises(ValueError):
        ct.sweep(baseline, [("mu", [0.1]), ("k", [1e3]), ("b", [0.1])],
                 small_dataset, cube_inertia, cube_geom)
    with pytest.raises(ValueError):
        ct.sweep(baseline, [("d_interp", [0.9])], small_dataset, cube_inertia, cube_geom)
    with pytest.raises(ValueError, match="distinct"):
        ct.sweep(baseline, [("mu", [0.1]), ("mu", [0.2])], small_dataset, cube_inertia, cube_geom)
    with pytest.raises(ValueError, match="log axes"):
        ct.sweep(baseline, [("mu", [0.1])], small_dataset, cube_inertia, cube_geom, log_axes=("k",))


def test_sweep_csv_round_trip(small_dataset, cube_geom, cube_inertia, tmp_path):
    baseline = ct.param_preset("cube-drake")
    grid = ct.sweep(baseline, [("b", [0.0, 0.4])], small_dataset, cube_inertia, cube_geom,
                    ct.SimConfig())
    path = tmp_path / "grid.csv"
    grid.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "b,loss,diverged"
    assert len(lines) == 3
