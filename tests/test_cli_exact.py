"""The exact columns of `analytic` and `simulate`, checked against oracles.

`analytic_oracle.analytic_csv` builds the `analytic` CSV one model at a
time from reduced `Fraction`s; the CLI builds it from integer numerators
over one shared denominator per grid point.  Decimals too long for Python's
int-to-str limit are compared through `decimal.Decimal`, which has no such
limit.
"""

import contextlib
import io
import json
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from analytic_oracle import analytic_csv
from probvoter import analytic
from probvoter.analytic import SystemModel, expected_errors, system_availability
from probvoter.cli import MAX_TRIALS, _int_text, main
from probvoter.logic import parse_expression, parse_table_file
from probvoter.voter import error_profile, synthesize_majority, synthesize_probabilistic


def _run(*argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(list(argv))
    return code, stdout.getvalue(), stderr.getvalue()


def _exact(text: str) -> Fraction:
    return Fraction(Decimal(text))


def _table_bytes(n: int, outputs: int) -> bytes:
    names = " ".join(f"v{i}" for i in range(n))
    return f"{names}\n{outputs:0{1 << n}b}\n".encode()


_TABLES = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=(1 << (1 << n)) - 1))
)


def _over(denominators):
    return denominators.flatmap(
        lambda d: st.integers(min_value=0, max_value=d).map(lambda a: Fraction(a, d))
    )


_PROBABILITIES = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1)]),
    _over(st.builds(lambda a, b: 2**a * 5**b, st.integers(0, 12), st.integers(0, 8))),
    _over(st.sampled_from([3, 7, 12, 999])),
)


@settings(deadline=None, max_examples=150)
@given(
    _TABLES,
    st.integers(min_value=1, max_value=16),
    st.sampled_from([0, 1]),
    st.lists(_PROBABILITIES, min_size=1, max_size=6, unique=True).map(sorted),
    st.sampled_from([0, 1, 7, 5000]),
)
def test_analytic_csv_equals_the_per_model_oracle(tmp_path_factory, table, k, tie_policy, grid, trials):
    n, outputs = table
    tmp = tmp_path_factory.mktemp("exact")
    path = tmp / "fn.tt"
    data = _table_bytes(n, outputs)
    path.write_bytes(data)
    out = tmp / "exact.csv"
    pe = ",".join(f"{p.numerator}/{p.denominator}" for p in grid)
    code, _, err = _run(
        "analytic", "--table", str(path), "-k", str(k), "--tie-policy", str(tie_policy),
        "--pe", pe, "--trials", str(trials), "--out", str(out),
    )
    assert code == 0, err
    profile = error_profile(parse_table_file(data))
    assert out.read_text() == analytic_csv(profile, k, tie_policy, grid, trials)


def test_analytic_makes_one_binomial_pass_per_grid_point(monkeypatch, tmp_path):
    calls = []
    cdf_numerators = analytic._cdf_numerators

    def counted(k, p):
        calls.append(p)
        return cdf_numerators(k, p)

    monkeypatch.setattr(analytic, "_cdf_numerators", counted)
    grid = ["0.001", "1/7", "0.25", "1/3", "0.5"]
    code, _, err = _run(
        "analytic", "--expr", "a&b&!c", "-k", "16", "--tie-policy", "1",
        "--pe", ",".join(grid), "--out", str(tmp_path / "x.csv"),
    )
    assert code == 0, err
    assert calls == [Fraction(p) for p in grid]


@pytest.mark.parametrize(
    "n",
    [0, 7, 10**500 - 1, 10**500, 10**500 + 1, 10**1000, 3**20000, 5**20000 * 7],
    ids=["0", "7", "10^500-1", "10^500", "10^500+1", "10^1000", "3^20000", "5^20000*7"],
)
def test_int_text_is_exact_at_any_length(n):
    assert _int_text(n) == str(Decimal(n))


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=10**3000))
def test_int_text_matches_str(n):
    assert _int_text(n) == str(n)


def test_analytic_prints_decimals_beyond_the_int_to_str_limit(tmp_path):
    out = tmp_path / "x.csv"
    code, stdout, err = _run(
        "analytic", "--expr", "a&b", "-k", "16", "--tie-policy", "1", "--pe", "1e-300",
        "--trials", "5000", "--out", str(out),
    )
    assert (code, err) == (0, "")
    assert "Traceback" not in stdout
    row = out.read_text().splitlines()[1].split(",")
    assert row[0] == "0." + "0" * 299 + "1"
    assert row[1] == "0." + "9" * 300
    p = Fraction(1, 10**300)
    profile = error_profile(parse_expression("a&b"))
    for voter, availability, errors in (
        (synthesize_majority(16, 1), row[2], row[4]),
        (synthesize_probabilistic(profile, 16), row[3], row[5]),
    ):
        model = SystemModel(profile, voter, p)
        assert len(availability) > 4300
        assert _exact(availability) == system_availability(model)
        assert _exact(errors) == expected_errors(model, 5000)


def test_simulate_prints_a_pe_beyond_the_int_to_str_limit(tmp_path):
    out = tmp_path / "y.csv"
    p = Fraction(1, 2**6200)
    code, _, err = _run(
        "simulate", "--expr", "a&b", "-k", "3", "--pe", str(p), "--trials", "10",
        "--out", str(out),
    )
    assert (code, err) == (0, "")
    pe = out.read_text().splitlines()[1].split(",")[0]
    assert len(pe) == 6202
    assert _exact(pe) == p


def test_manifest_records_a_pe_with_a_long_denominator(tmp_path):
    out = tmp_path / "z.csv"
    code, _, err = _run(
        "analytic", "--expr", "a&b", "--pe", "0." + "0" * 4000 + "1e-1000", "--out", str(out),
    )
    assert (code, err) == (0, "")
    manifest = json.loads((tmp_path / "z.csv.manifest.json").read_text())
    assert manifest["pe"] == ["1/1" + "0" * 5001]


# analytic first: without the bound, simulate would run every trial
@pytest.mark.parametrize("command", ["analytic", "simulate"])
@pytest.mark.parametrize("trials", [MAX_TRIALS + 1, 10**400], ids=["2^63", "10^400"])
def test_trials_beyond_the_bound_are_a_usage_error(tmp_path, command, trials):
    code, stdout, err = _run(
        command, "--expr", "a&b", "--pe", "1/3", "--trials", str(trials),
        "--out", str(tmp_path / "x.csv"),
    )
    assert (code, stdout) == (2, "")
    assert err == f"probvoter: --trials must be at most {MAX_TRIALS}\n"
    assert not (tmp_path / "x.csv").exists()


def test_trials_at_the_bound_give_finite_float_errors(tmp_path):
    out = tmp_path / "x.csv"
    code, _, err = _run(
        "analytic", "--expr", "a&b", "--pe", "1/3", "--trials", str(MAX_TRIALS),
        "--out", str(out),
    )
    assert (code, err) == (0, "")
    profile = error_profile(parse_expression("a&b"))
    assert out.read_text() == analytic_csv(profile, 3, None, [Fraction(1, 3)], MAX_TRIALS)
