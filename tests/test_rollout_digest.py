import importlib.util
import shutil
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "rollout_digest.py"


@pytest.fixture(scope="module")
def digest_tool():
    spec = importlib.util.spec_from_file_location("rollout_digest", TOOL)
    mod = importlib.util.module_from_spec(spec)
    sys.modules["rollout_digest"] = mod
    spec.loader.exec_module(mod)
    return mod


def test_digest_is_repeatable(digest_tool):
    """Two runs over one toss print the same line with two sha256 digests."""
    first = list(digest_tool.digest_lines(["cube-drake"], ["sliding"], tosses=1))
    second = list(digest_tool.digest_lines(["cube-drake"], ["sliding"], tosses=1))
    assert first == second
    assert len(first) == 1
    name, pool, toss, mat, csv = first[0].split()
    assert (name, pool, toss) == ("cube-drake", "sliding", "0")
    assert len(mat) == len(csv) == 64 and mat != csv


def test_flags_select_the_lines_of_digest_lines(digest_tool, capsys):
    """--params, --pools and --tosses print what digest_lines yields for the same selection."""
    assert digest_tool.main(["--params", "cube-bullet-style,compliant-truth", "--pools", "sliding",
                             "--tosses", "1"]) == 0
    printed = capsys.readouterr().out.splitlines()
    want = list(digest_tool.digest_lines(["cube-bullet-style", "compliant-truth"], ["sliding"], tosses=1))
    assert printed == want and len(want) == 2
    with pytest.raises(SystemExit):
        digest_tool.main(["--pools", "no-such-pool"])


def test_against_prints_only_the_lines_that_differ(digest_tool, capsys, tmp_path):
    """--against the repository's own src/ prints nothing and exits 0; against a copy whose cube-drake preset
    has another mu it prints the differing line of each side and exits 1."""
    src = TOOL.parents[1] / "src"
    args = ["--params", "cube-drake", "--pools", "sliding", "--tosses", "1"]
    assert digest_tool.main(args + ["--against", str(src)]) == 0
    assert capsys.readouterr().out == ""
    other = tmp_path / "src"
    shutil.copytree(src / "cubetoss", other / "cubetoss", ignore=shutil.ignore_patterns("__pycache__"))
    presets = other / "cubetoss" / "presets.py"
    text = presets.read_text()
    assert '"cube-drake": ContactParams(mu=0.10,' in text
    presets.write_text(text.replace('"cube-drake": ContactParams(mu=0.10,', '"cube-drake": ContactParams(mu=0.11,'))
    assert digest_tool.main(args + ["--against", str(other)]) == 1
    theirs, ours = capsys.readouterr().out.splitlines()
    assert ours == "+ " + next(digest_tool.digest_lines(["cube-drake"], ["sliding"], tosses=1))
    assert theirs.startswith("- cube-drake sliding 0 ") and theirs[2:] != ours[2:]
    with pytest.raises(SystemExit):
        digest_tool.main(args + ["--against", str(tmp_path)])
