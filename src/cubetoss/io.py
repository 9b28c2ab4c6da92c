"""Canonical on-disk formats: trajectory files and result documents.

Trajectories are plain comma-separated text with a commented header, one row
per sample in the fixed column order

    t, px, py, pz, qw, qx, qy, qz, vx, vy, vz, wx, wy, wz

with world-frame velocities, z up, the table at z = 0 and gravity along -z.
Floats are written with 17 significant digits so a save/load round trip is
exact. The loader validates uniform sampling and finiteness and repairs
nothing except quaternion normalization (which it logs).
"""
from __future__ import annotations

import ast
import json
import locale
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._version import __version__
from .presets import CUBE_MASS_KG, CUBE_SIDE_M
from .trajectory import Trajectory

log = logging.getLogger(__name__)

COLUMNS = ("t", "px", "py", "pz", "qw", "qx", "qy", "qz", "vx", "vy", "vz", "wx", "wy", "wz")
FORMAT_TAG = "cubetoss-trajectory-v1"
QUAT_NORM_TOLERANCE = 1e-3
TIME_TOLERANCE = 1e-6


class TrajectoryFileError(ValueError):
    """A trajectory file failed to parse or violated its invariants."""


SAVE_CHUNK_ROWS = 512


def save_trajectory(traj: Trajectory, path) -> None:
    """Write a canonical trajectory file, formatting the rows in chunks.

    The rows are formatted SAVE_CHUNK_ROWS at a time, each with one
    "%.17g,...,%.17g" string, and every chunk is encoded as soon as it is
    built, in the encoding text-mode open() uses. The file is written with
    one call from the joined bytes, so no per-row object outlives its chunk
    and the peak is two encoded copies of the file.

    The write is deliberately one file-sized block rather than a stream of
    chunks. Freeing that block raises glibc's mmap threshold to the file's
    size, so a whole-file read of it right after (load_trajectory, or any
    reader that calls read_text) takes its buffers from the heap. Streamed
    writes leave the threshold at the largest file read so far, and such a
    reader's peak RSS then depends on the order in which file sizes came.
    """
    path = Path(path)
    header = [f"# {FORMAT_TAG}", f"# rate_hz: {traj.rate_hz!r}"]
    for key in sorted(traj.meta):
        header.append(f"# {key}: {traj.meta[key]!r}")
    header.append("# columns: " + ",".join(COLUMNS))
    row_format = ",".join(["%.17g"] * len(COLUMNS)) + "\n"
    encoding = locale.getpreferredencoding(False)
    times = traj.times
    mat = traj.as_matrix()
    chunks = [("\n".join(header) + "\n").encode(encoding)]
    for i in range(0, len(mat), SAVE_CHUNK_ROWS):
        j = i + SAVE_CHUNK_ROWS
        rows = [row_format % (t, *row) for t, row in zip(times[i:j].tolist(), mat[i:j].tolist())]
        chunks.append("".join(rows).encode(encoding))
    path.write_bytes(b"".join(chunks))


def _parse_meta(value: str):
    """A header value written as repr(): a float if it reads as one, else a Python literal, else the raw text."""
    value = value.strip()
    try:
        return float(value)
    except ValueError:
        pass
    try:
        return ast.literal_eval(value)
    except (ValueError, SyntaxError):
        return value


def load_trajectory(path) -> Trajectory:
    """Load a canonical trajectory file, enforcing its invariants.

    Rejects malformed rows, non-finite values and non-uniform timestamps,
    naming the offending row (its line in the file). Every row is parsed
    before the values are checked for finiteness, in one pass over the
    array. Quaternions off unit norm by at most 1e-3 (measurement
    tolerance) are renormalized and the repair is logged; worse deviations
    are rejected.
    """
    path = Path(path)
    if not path.exists():
        raise TrajectoryFileError(f"{path}: no such file")
    meta: dict = {}
    rows: list[list[float]] = []
    linenos: list[int] = []  # the file line of each data row
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if ":" in body:
                key, _, value = body.partition(":")
                meta[key.strip()] = _parse_meta(value)
            continue
        parts = line.split(",")
        if len(parts) != len(COLUMNS):
            raise TrajectoryFileError(f"{path}: row {lineno} has {len(parts)} fields, expected {len(COLUMNS)}")
        try:
            vals = [float(x) for x in parts]
        except ValueError as err:
            raise TrajectoryFileError(f"{path}: row {lineno}: {err}") from None
        rows.append(vals)
        linenos.append(lineno)
    if not rows:
        raise TrajectoryFileError(f"{path}: no data rows")
    data = np.array(rows)
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        row = linenos[int(np.argmin(finite))]
        raise TrajectoryFileError(f"{path}: row {row} contains a non-finite value")
    rate = meta.pop("rate_hz", None)
    if rate is None or not (isinstance(rate, float) and rate > 0.0):
        raise TrajectoryFileError(f"{path}: header is missing a positive rate_hz")
    meta.pop("columns", None)

    t = data[:, 0]
    dt = 1.0 / rate
    if len(t) > 1:
        steps = np.diff(t)
        bad = np.flatnonzero((steps <= 0.0) | (np.abs(steps - dt) > TIME_TOLERANCE))
        if bad.size:
            raise TrajectoryFileError(
                f"{path}: row {bad[0] + 2}: timestamps are not uniform at {rate} Hz"
            )
    quats = data[:, 4:8]
    norms = np.linalg.norm(quats, axis=1)
    worst = float(np.max(np.abs(norms - 1.0)))
    if worst > QUAT_NORM_TOLERANCE:
        row = int(np.argmax(np.abs(norms - 1.0))) + 1
        raise TrajectoryFileError(
            f"{path}: row {row}: quaternion norm deviates from 1 by {worst:.2e} (> {QUAT_NORM_TOLERANCE})"
        )
    if worst > 1e-12:
        quats = quats / norms[:, None]
        log.info("%s: renormalized quaternions (worst deviation %.2e)", path.name, worst)

    return Trajectory(rate, data[:, 1:4], quats, data[:, 8:11], data[:, 11:14], meta)


def import_cube_dataset(directory) -> list[Trajectory]:
    """Load every converted cube-toss file under a directory, sorted by name.

    Each trajectory gets the cube metadata (CUBE_SIDE_M, CUBE_MASS_KG)
    attached; files already carrying a side_m header must agree with it. An
    empty directory produces an empty list with a warning rather than an error.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise TrajectoryFileError(f"{directory}: not a directory")
    paths = sorted(directory.glob("*.csv"))
    if not paths:
        log.warning("%s: no trajectory files found", directory)
        return []
    out = []
    for p in paths:
        traj = load_trajectory(p)
        have = traj.meta.get("side_m")
        if have is not None and abs(float(have) - CUBE_SIDE_M) > 1e-9:
            raise TrajectoryFileError(f"{p}: side_m {have} conflicts with expected {CUBE_SIDE_M}")
        traj.meta.setdefault("body", "cube")
        traj.meta["side_m"] = CUBE_SIDE_M
        traj.meta["mass_kg"] = CUBE_MASS_KG
        out.append(traj)
    return out


@dataclass
class ResultsDocument:
    """Self-describing JSON result of one command, reloadable for later runs.

    config echoes every semantically relevant setting of the run (dataset,
    parameters, seeds, rates); worker count is deliberately excluded since
    results are independent of it.
    """

    command: str
    config: dict
    results: dict
    tool: str = "cubetoss"
    version: str = __version__

    def to_json(self) -> str:
        doc = {
            "tool": self.tool,
            "version": self.version,
            "command": self.command,
            "config": self.config,
            "results": self.results,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def save(self, path) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path) -> "ResultsDocument":
        doc = json.loads(Path(path).read_text())
        return cls(
            command=doc["command"],
            config=doc["config"],
            results=doc["results"],
            tool=doc.get("tool", "cubetoss"),
            version=doc.get("version", "unknown"),
        )
