"""Smoke test of the benchmark itself: every workload at a tiny size, untraced and traced.

    python3 perfbench/smoke.py
    python3 -m pytest perfbench/smoke.py

It asserts that each metric named in BENCHMARK.json is reported with its
unit, that every output check passes, and that the benchmark refuses to run
without the cubetoss sources. The file name keeps it out of the repository's
own test collection, which it would slow by about a minute.
"""
import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

BENCH_DIR = Path(__file__).resolve().parent
BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> tuple[str, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                       "--trace", str(trace), "--size", "tiny"])
    assert rc == 0
    text = out.getvalue()
    return text, json.loads(text.splitlines()[-1])


def check_workload(workload: str) -> None:
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        text, result = _run(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, text
        assert result["failed"] == 0 and result["attempted"] >= 1, text
        names = [m["name"] for m in BENCHMARK[kind]]
        assert sorted(result["metrics"]) == sorted(names)
        for m in BENCHMARK[kind]:
            reported = result["metrics"][m["name"]]
            assert reported["unit"] == m["unit"], m["name"]
            assert isinstance(reported["value"], (int, float)), m["name"]
            assert f"\n{m['name']} = {reported['value']!r} {m['unit']}\n" in text, m["name"]


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)


def test_evaluate_convex():
    check_workload("evaluate-convex")


def test_sweep_pgs():
    check_workload("sweep-pgs")


def test_simulate_long():
    check_workload("simulate-long")


def test_refuses_without_sources():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH_DIR, Path(tmp) / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "sweep-pgs", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=120,
        )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print("ok", name)
