import logging
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubetoss as ct
import frozen_numpy as fz
from conftest import random_unit_quat
from cubetoss import quat as cq


def random_trajectory(n=25, rate=148.0, seed=40):
    rng = np.random.default_rng(seed)
    return ct.Trajectory(
        rate,
        rng.normal(size=(n, 3)),
        np.array([random_unit_quat(rng) for _ in range(n)]),
        rng.normal(size=(n, 3)),
        rng.normal(size=(n, 3)),
        {"body": "cube", "side_m": 0.1},
    )


def test_round_trip_exact(tmp_path):
    traj = random_trajectory()
    path = tmp_path / "t.csv"
    ct.save_trajectory(traj, path)
    back = ct.load_trajectory(path)
    assert back.rate_hz == traj.rate_hz
    assert np.array_equal(back.as_matrix(), traj.as_matrix())
    assert back.meta["side_m"] == 0.1
    assert back.meta["body"] == "cube"
    # a second save is byte-identical
    path2 = tmp_path / "t2.csv"
    ct.save_trajectory(back, path2)
    assert path.read_text() == path2.read_text()


def test_meta_round_trip(tmp_path):
    """Header values load back as saved; hand-written unquoted numbers and words still load."""
    traj = random_trajectory(n=3)
    saved = {"quote": "it's", "backslash": "a\\b", "flag": True, "note": "tossed 'by hand'",
             "count": 3.0, "scale": 1e-300, "side_m": 0.1}
    traj.meta = dict(saved, gap=math.nan)
    ct.save_trajectory(traj, tmp_path / "t.csv")
    back = ct.load_trajectory(tmp_path / "t.csv")
    assert math.isnan(back.meta.pop("gap"))
    assert back.meta == saved
    assert back.meta["flag"] is True
    lines = (tmp_path / "t.csv").read_text().splitlines()
    header = ["# cubetoss-trajectory-v1", "# rate_hz: 148", "# body: cube", "# offset: nan"]
    (tmp_path / "hand.csv").write_text("\n".join(header + [ln for ln in lines if not ln.startswith("#")]) + "\n")
    hand = ct.load_trajectory(tmp_path / "hand.csv")
    assert hand.rate_hz == 148.0
    assert hand.meta["body"] == "cube"
    assert math.isnan(hand.meta["offset"])


ROUND_TRIP_SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308)


@st.composite
def special_trajectories(draw):
    """1, 7, 512 or 1025 rows; positions and velocities mix generic values with
    signed zeros, the smallest subnormal and +-1e308; quaternions are unit."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([1, 7, 512, 1025]))
    share = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    vals = rng.standard_normal((n, 9)) * 10.0 ** rng.uniform(-8.0, 8.0, (n, 9))
    special = rng.random((n, 9)) < share
    vals[special] = rng.choice(ROUND_TRIP_SPECIAL, int(special.sum()))
    quats = rng.standard_normal((n, 4))
    quats /= np.linalg.norm(quats, axis=1)[:, None]
    axis_aligned = rng.random(n) < share  # exact unit quaternions with signed zeros
    quats[axis_aligned] = rng.choice([0.0, -0.0], (int(axis_aligned.sum()), 4))
    quats[axis_aligned, rng.integers(0, 4, int(axis_aligned.sum()))] = rng.choice([1.0, -1.0])
    rate = draw(st.sampled_from([148.0, 1480.0, float(rng.uniform(1.0, 5000.0))]))
    return ct.Trajectory(rate, vals[:, 0:3], quats, vals[:, 3:6], vals[:, 6:9], {"body": "cube", "side_m": 0.1})


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(special_trajectories())
def test_round_trip_exact_property(traj):
    with tempfile.TemporaryDirectory() as tmp:
        path, path2 = Path(tmp) / "t.csv", Path(tmp) / "t2.csv"
        ct.save_trajectory(traj, path)
        back = ct.load_trajectory(path)
        assert back.rate_hz == traj.rate_hz
        assert back.as_matrix().tobytes() == traj.as_matrix().tobytes()  # every bit, signed zeros too
        ct.save_trajectory(back, path2)
        assert path.read_bytes() == path2.read_bytes()


def test_malformed_row_names_line(tmp_path):
    traj = random_trajectory(n=5)
    path = tmp_path / "t.csv"
    ct.save_trajectory(traj, path)
    lines = path.read_text().splitlines()
    lines[7] = lines[7].rsplit(",", 1)[0]  # drop a field from the third data row
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ct.TrajectoryFileError, match="row 8"):
        ct.load_trajectory(path)


def test_non_finite_value_rejected(tmp_path):
    traj = random_trajectory(n=5)
    path = tmp_path / "t.csv"
    ct.save_trajectory(traj, path)
    text = path.read_text().splitlines()
    parts = text[6].split(",")
    parts[9] = "nan"
    text[6] = ",".join(parts)
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(ct.TrajectoryFileError, match="row 7"):
        ct.load_trajectory(path)


def test_first_non_finite_row_named_by_file_line(tmp_path):
    """Among several bad rows, the first one is named by its line in the file,
    blank lines and comments counted."""
    traj = random_trajectory(n=9)
    path = tmp_path / "t.csv"
    ct.save_trajectory(traj, path)
    lines = path.read_text().splitlines()
    for i, bad in ((8, "inf"), (10, "nan"), (12, "-inf")):
        parts = lines[i].split(",")
        parts[2] = bad
        lines[i] = ",".join(parts)
    lines[6:6] = ["", "# a comment"]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ct.TrajectoryFileError, match="row 11 contains a non-finite value"):
        ct.load_trajectory(path)


def test_non_uniform_timestamps_rejected(tmp_path):
    traj = random_trajectory(n=5)
    path = tmp_path / "t.csv"
    ct.save_trajectory(traj, path)
    text = path.read_text().splitlines()
    parts = text[8].split(",")
    parts[0] = repr(float(parts[0]) + 5e-3)
    text[8] = ",".join(parts)
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(ct.TrajectoryFileError, match="uniform"):
        ct.load_trajectory(path)


def test_quaternion_renormalized_and_logged(tmp_path, caplog):
    traj = random_trajectory(n=4)
    traj.quat[2] *= 1.0005  # inside the measurement tolerance
    path = tmp_path / "t.csv"
    ct.save_trajectory(traj, path)
    with caplog.at_level(logging.INFO, logger="cubetoss.io"):
        back = ct.load_trajectory(path)
    assert any("renormalized" in r.message for r in caplog.records)
    assert np.linalg.norm(back.quat[2]) == pytest.approx(1.0, abs=1e-15)


def test_quaternion_far_from_unit_rejected(tmp_path):
    traj = random_trajectory(n=4)
    traj.quat[1] *= 1.01
    path = tmp_path / "t.csv"
    ct.save_trajectory(traj, path)
    with pytest.raises(ct.TrajectoryFileError, match="quaternion"):
        ct.load_trajectory(path)


def test_missing_rate_rejected(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("# columns: t,px\n0,1,2,3,4,5,6,7,8,9,10,11,12,13\n")
    with pytest.raises(ct.TrajectoryFileError, match="rate_hz"):
        ct.load_trajectory(path)


def test_import_cube_dataset(tmp_path, caplog):
    with caplog.at_level(logging.WARNING, logger="cubetoss.io"):
        assert ct.import_cube_dataset(tmp_path) == []
    assert any("no trajectory files" in r.message for r in caplog.records)

    for i in range(3):
        ct.save_trajectory(random_trajectory(n=6, seed=50 + i), tmp_path / f"toss_{i:03d}.csv")
    trajs = ct.import_cube_dataset(tmp_path)
    assert len(trajs) == 3
    for t in trajs:
        assert t.meta["side_m"] == 0.1
        assert t.meta["mass_kg"] == 0.37
        assert t.meta["body"] == "cube"


def test_import_rejects_conflicting_side(tmp_path):
    traj = random_trajectory(n=4)
    traj.meta["side_m"] = 0.25
    ct.save_trajectory(traj, tmp_path / "t.csv")
    with pytest.raises(ct.TrajectoryFileError, match="side_m"):
        ct.import_cube_dataset(tmp_path)


def test_results_document_round_trip(tmp_path):
    doc = ct.ResultsDocument(
        command="evaluate",
        config={"dataset": "d", "params": {"mu": 0.1}},
        results={"config_error": {"mean": 0.25, "std": 0.1}},
    )
    path = tmp_path / "res.json"
    doc.save(path)
    back = ct.ResultsDocument.load(path)
    assert back.command == doc.command
    assert back.config == doc.config
    assert back.results == doc.results
    # serialization is deterministic
    doc.save(tmp_path / "res2.json")
    assert (tmp_path / "res.json").read_text() == (tmp_path / "res2.json").read_text()


def test_loaded_trajectory_feeds_rollouts(tmp_path, cube_geom, cube_inertia):
    params = ct.param_preset("cube-drake")
    x0 = ct.RigidState([0, 0, 0.2], [1, 0, 0, 0], [1.0, 0, -0.5], [3.0, 1.0, 0])
    traj = ct.simulate(x0, params, cube_inertia, cube_geom, ct.SimConfig(), 0.3)
    traj.meta.update({"body": "cube", "side_m": 0.1})
    ct.save_trajectory(traj, tmp_path / "toss.csv")
    back = ct.load_trajectory(tmp_path / "toss.csv")
    # the serialized initial state reproduces the rollout bit for bit
    again = ct.simulate(back.initial_state, params, cube_inertia, cube_geom, ct.SimConfig(), 0.3)
    assert np.array_equal(again.as_matrix(), traj.as_matrix())


def test_chunked_writer_matches_frozen_writer_bytes(tmp_path, cube_geom, cube_inertia):
    """save_trajectory writes the bytes of the former one-string writer, chunk edges included."""
    edge = random_trajectory(n=7, seed=41)
    edge.pos[0] = [0.0, -0.0, 5e-324]
    edge.vel[1] = [1e308, -1e308, 1.0 / 3.0]
    edge.ang_vel[2] = [-5e-324, 2.0 / 3.0, -0.0]
    edge.meta.update({"note": "tossed 'by hand'", "count": 3, "scale": 1e-300})
    one_row = ct.Trajectory(1480.0, [[0.0, 0.0, 0.05]], [[1.0, 0.0, 0.0, 0.0]], [[0.0] * 3], [[0.0] * 3])
    x0 = ct.RigidState([0, 0, 0.2], cq.from_axis_angle(np.array([1.0, 2.0, 0.5]), 0.7),
                       [0.5, -0.3, -1.0], [6.0, -4.0, 2.0])
    long = ct.simulate(x0, ct.param_preset("cube-drake"), cube_inertia, cube_geom,
                       ct.SimConfig(downsample=1), 10.0)
    long.meta.update({"body": "cube", "side_m": 0.1})
    cases = [edge, one_row, long, random_trajectory(n=512, seed=42), random_trajectory(n=1025, seed=43)]
    for i, traj in enumerate(cases):
        got, want = tmp_path / f"got_{i}.csv", tmp_path / f"want_{i}.csv"
        ct.save_trajectory(traj, got)
        fz.save_trajectory(traj, want)
        assert got.read_bytes() == want.read_bytes(), i
    assert len(long) == 14801
