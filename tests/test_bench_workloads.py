"""One pass of every benchmark workload passes the benchmark's own checker.

`bench/run.py` counts a command whose output `bench/check.py` rejects as
failed.  This runs each workload's commands once, at a fixed seed, through
`probvoter.cli.main` and requires the checker to find no problem, so a
wrong output fails here rather than in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from probvoter.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"
WORKLOADS = ("mc-k16", "wide-n20", "exact-k16")
SEED = 1


def _load(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules, and check.py
    # imports workloads by that name
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench(monkeypatch):
    workloads = _load(monkeypatch, "workloads")
    return workloads, _load(monkeypatch, "check")


def test_every_workload_is_covered(bench):
    workloads, _ = bench
    assert sorted(WORKLOADS) == sorted(workloads.BUILDERS)


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_outputs_pass_the_checker(bench, name, tmp_path, monkeypatch, capsys):
    workloads, check = bench
    workload = workloads.build(name, SEED)
    workload.write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    for command in workload.commands:
        capsys.readouterr()
        assert main(list(command.argv)) == 0, command.label
        stdout = capsys.readouterr().out
        files = {out: Path(out).read_bytes() for out in command.outputs if Path(out).is_file()}
        assert check.check_command(command, stdout, files) == [], command.label
