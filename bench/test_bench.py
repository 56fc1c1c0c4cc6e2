"""Tests of the benchmark's own generator, checker and span arithmetic.

    python -m pytest bench
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import check
import run
import spans
import workloads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from probvoter import cli  # noqa: E402


def _evaluate(expression: str, variables: tuple[str, ...], row: int) -> int:
    n = len(variables)
    value = {name: row >> (n - 1 - j) & 1 for j, name in enumerate(variables)}
    return int(any(
        all(value[lit[1:]] == 0 if lit.startswith("!") else value[lit] == 1 for lit in term.split("&"))
        for term in expression.split(" + ")
    ))


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_generator_is_deterministic_per_seed(name):
    first, again, other = workloads.build(name, 7), workloads.build(name, 7), workloads.build(name, 8)
    assert first == again
    assert [f.table_text() for f in first.functions] == [f.table_text() for f in again.functions]
    assert first.functions != other.functions


@pytest.mark.parametrize("make", [
    lambda rng: workloads.minterm_function(rng, "m", 5, 4),
    lambda rng: workloads.cube_function(rng, "c", 9, cubes=6, literals=3),
])
def test_generated_mask_matches_expression(make):
    f = make(random.Random(3))
    bits = f.bits()
    assert bits.count("1") == f.n1 and len(bits) == 1 << f.n
    assert [int(b) for b in bits] == [_evaluate(f.expression, f.variables, row) for row in range(1 << f.n)]


def test_decimal_is_exact_and_shortest():
    assert workloads.decimal(Fraction(1, 2000)) == "0.0005"
    assert workloads.decimal(Fraction(5, 2)) == "2.5"
    assert workloads.decimal(Fraction(0)) == "0"
    with pytest.raises(ValueError):
        workloads.decimal(Fraction(1, 3))


def _run(command: workloads.Command, directory: Path) -> tuple[str, dict[str, bytes]]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(list(command.argv)) == 0
    return stdout.getvalue(), {name: (directory / name).read_bytes() for name in command.outputs}


@pytest.fixture
def small(tmp_path, monkeypatch):
    f = workloads.minterm_function(random.Random(1), "small", 4, 3)
    workloads.Workload("small", (f,), ()).write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    return f, tmp_path


def _replace_field(csv: bytes, row: int, column: int, new: str) -> bytes:
    lines = csv.decode().split("\n")
    fields = lines[row].split(",")
    assert fields[column] != new
    fields[column] = new
    lines[row] = ",".join(fields)
    return "\n".join(lines).encode()


def test_checker_accepts_analytic_and_rejects_one_changed_count(small):
    f, directory = small
    command = workloads.analytic(f, 4, tie_policy=1)
    stdout, files = _run(command, directory)
    assert check.check_command(command, stdout, files) == []
    csv = files[command.out]
    errors = csv.decode().split("\n")[3].split(",")[5]
    files[command.out] = _replace_field(csv, 3, 5, str(Fraction(errors) + 1))
    assert check.check_command(command, stdout, files)


def test_checker_accepts_simulate_and_rejects_one_changed_count(small):
    f, directory = small
    command = workloads.simulate(f, 3, 400, seed=99)
    stdout, files = _run(command, directory)
    assert check.check_command(command, stdout, files) == []
    csv = files[command.out]
    errors = int(csv.decode().split("\n")[8].split(",")[4])
    files[command.out] = _replace_field(csv, 8, 4, str(errors + 1))
    assert check.check_command(command, stdout, files)


def test_checker_rejects_wrong_threshold(small):
    f, directory = small
    command = workloads.synth(f, 5)
    stdout, _ = _run(command, directory)
    assert check.check_command(command, stdout, {}) == []
    t = check.prob_threshold(f, 5)
    wrong = stdout.replace(f"\nt={t}\n", f"\nt={t - 1}\n")
    assert wrong != stdout
    assert check.check_command(command, wrong, {})


def test_binomial_tail_flags_only_implausible_counts():
    assert check.binomial_tail(50, 1000, Fraction(1, 20)) > 0.5
    assert check.binomial_tail(1, 20000, Fraction(1, 10**7)) > check.FIVE_SIGMA_TAIL
    assert check.binomial_tail(90, 1000, Fraction(1, 20)) < check.FIVE_SIGMA_TAIL
    assert check.binomial_tail(0, 10, Fraction(0)) == 1.0
    assert check.binomial_tail(1, 10, Fraction(0)) == 0.0


def test_self_time_subtracts_direct_children():
    tracer = spans.Tracer()
    tracer.spans = [
        spans.Span("cli.main", None, 0, 0.0, 10.0),
        spans.Span("logic.parse_table_file", 0, 0, 1.0, 4.0, {"logic.rows": 8}),
        spans.Span("analytic.compare_and_crossover", 0, 0, 4.0, 9.0, {"analytic.points": 3}),
        spans.Span("voter.synthesize", 2, 0, 5.0, 6.0, {"voter.decision_entries": 8}),
    ]
    seconds, counts = spans.self_times(tracer.spans)
    assert seconds == {
        "cli.main": 2.0, "logic.parse_table_file": 3.0,
        "analytic.compare_and_crossover": 4.0, "voter.synthesize": 1.0,
    }
    assert counts == {"logic.rows": 8, "analytic.points": 3, "voter.decision_entries": 8}


def test_tracer_records_parents_and_restores_functions():
    class Module:
        @staticmethod
        def inner(x):
            return x + 1

    tracer = spans.Tracer()
    original = Module.inner
    tracer.install(Module, "inner", "layer.inner", lambda args, result: {"calls": 1})
    outer = tracer.wrap("cli.main", lambda x: Module.inner(x) * 2)
    assert outer(1) == 4
    tracer.uninstall()
    assert Module.inner is original
    assert [(s.name, s.parent, s.counts) for s in tracer.spans] == [
        ("cli.main", None, {}), ("layer.inner", 0, {"calls": 1}),
    ]


def test_reference_seconds_cancels_host_speed():
    f = workloads.minterm_function(random.Random(1), "f", 4, 3)
    runner = run.Runner(cli, None, workloads.Workload("w", (f,), (workloads.profile(f, "table"), workloads.synth(f, 3))), None)
    # Each pass runs at another host speed; the command/yardstick ratios do not change.
    runner.seconds = [[0.1, 0.2, 0.3], [1.0, 2.0, 2.5]]
    runner.yardsticks = [[0.01, 0.02, 0.03], [0.01, 0.02, 0.02]]
    assert runner.reference_seconds() == pytest.approx(run.YARDSTICK_REF_S * (10 + 100))
