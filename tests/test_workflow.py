"""The CI workflow runs the one Tier-1 command on every leg of its test
matrix, one leg of which pins the oldest numpy and Python pyproject.toml
allows, and its benchmark smoke runs every workload BENCHMARK.json lists.
The files are read as text, so no YAML parser is needed. Under the warning
filters of pyproject.toml, a failing Hypothesis test is reported as any other."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]
WORKFLOW = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
PYPROJECT = (ROOT / "pyproject.toml").read_text(encoding="utf-8")


def _job(name: str) -> str:
    """The text of one job of the workflow, up to the next line at job depth."""
    match = re.search(rf"^  {name}:\n(.*?)(?=^  \S|\Z)", WORKFLOW, re.M | re.S)
    assert match, name
    return match.group(1)


def _floor_leg() -> tuple[str, str]:
    """The Python version and the numpy version of the one pinned leg."""
    (leg,) = re.findall(r'- python-version: "([\d.]+)"\n +numpy: "numpy==([\d.]+)\.\*"', _job("tests"))
    return leg


def test_one_pytest_command_with_no_selection():
    commands = [line for line in WORKFLOW.splitlines() if re.search(r"\bpytest\b", line.split("#")[0])]
    assert len(commands) == 1
    args = shlex.split(commands[0].split("python -m pytest", 1)[1])
    assert all(arg.startswith("-") for arg in args)  # no test path
    assert not any(arg.startswith("-k") for arg in args)


def test_floor_leg_pins_the_numpy_floor():
    (floor,) = re.findall(r'"numpy>=([\d.]+)"', PYPROJECT)
    assert _floor_leg()[1] == floor
    tests = _job("tests")
    # with a base numpy value, the pinned leg is a leg of its own, not merged into a base one
    assert re.search(r'^ +numpy: \["numpy"\]$', tests, re.M)
    assert '"${{ matrix.numpy }}"' in tests


def test_floor_leg_runs_the_python_floor():
    (floor,) = re.findall(r'^requires-python = ">=([\d.]+)"$', PYPROJECT, re.M)
    assert _floor_leg()[0] == floor


def test_bench_smoke_reads_its_workloads_from_benchmark_json():
    smoke = _job("bench-smoke")
    assert 'json.load(open("BENCHMARK.json"))["workloads"]' in smoke
    workloads = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]
    assert not [w["name"] for w in workloads if w["name"] in smoke]  # no hand-kept list


def test_a_failing_hypothesis_test_prints_its_example_and_the_run_goes_on(tmp_path):
    # pytest under pyproject.toml's settings, on a generated @given test that fails and a test after it
    (tmp_path / "test_generated.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 5\n\n\n"
        "def test_after():\n"
        "    pass\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTEST_ADDOPTS"}
    argv = [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
            "-p", "no:cacheprovider", "-q", "test_generated.py"]
    result = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    output = result.stdout + result.stderr
    assert "Falsifying example" in output, output
    assert "INTERNALERROR" not in output, output
    assert "1 failed, 1 passed" in output, output
