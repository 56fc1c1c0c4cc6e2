"""The exact columns of `analytic` and `simulate`, checked against oracles.

`analytic_oracle.analytic_csv` builds the `analytic` CSV one model at a
time from reduced `Fraction`s; the CLI builds it from integer numerators
over one shared denominator per grid point, with no `Fraction` at all.
Decimals too long for Python's int-to-str limit are compared through
`decimal.Decimal`, which has no such limit.
"""

import contextlib
import hashlib
import io
import itertools
import json
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from analytic_oracle import analytic_csv, format_exact
from cli_oracle import parse_pe_grid
from probvoter import analytic, cli
from probvoter.analytic import (
    ComparisonPoint,
    SystemModel,
    compare_and_crossover,
    expected_errors,
    system_availability,
)
from probvoter.cli import MAX_TRIALS, _decimal_form, _format_decimals, _int_text, main
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
    # 3^16 and 7^16 turn error counts over 3^k and 7^k into finite decimals
    st.sampled_from([0, 1, 7, 5000, 3**16, 7**16]),
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


def test_analytic_scales_once_per_denominator_and_evaluates_once_per_point(monkeypatch, tmp_path):
    scalings, evaluations = [], []
    scale, evaluate = analytic._scale, analytic._evaluate

    def counted_scale(polynomials, k, d, n):
        scalings.append(d)
        return scale(polynomials, k, d, n)

    def counted_evaluate(table, a):
        # one call evaluates both voters
        evaluations.append((a, len(table[1])))
        return evaluate(table, a)

    monkeypatch.setattr(analytic, "_scale", counted_scale)
    monkeypatch.setattr(analytic, "_evaluate", counted_evaluate)
    # 7 recurs after 4 has come in between
    grid = ["1/7", "0.25", "2/7", "3/7", "0.5"]
    code, _, err = _run(
        "analytic", "--expr", "a&b&!c", "-k", "16", "--tie-policy", "1",
        "--pe", ",".join(grid), "--out", str(tmp_path / "x.csv"),
    )
    assert code == 0, err
    assert scalings == [7, 4, 2]
    assert evaluations == [(Fraction(p).numerator, 2) for p in grid]



@pytest.mark.parametrize(
    "pe",
    ["0.3,0.1", ",".join([*(f"{i}/2000" for i in range(1, 1001)), "1/4000"])],
    ids=["descending", "long-then-back"],
)
def test_analytic_refuses_a_grid_out_of_order_before_any_point(monkeypatch, tmp_path, pe):
    # the second grid ascends for 1,000 points, then steps back below them
    def refuse(*args):
        raise AssertionError("a point was computed")

    monkeypatch.setattr(analytic, "_scale", refuse)
    monkeypatch.setattr(analytic, "_evaluate", refuse)
    out = tmp_path / "x.csv"
    code, stdout, err = _run("analytic", "--expr", "a&b&!c", "-k", "16", "--tie-policy", "1",
                             "--pe", pe, "--out", str(out))
    assert (code, stdout) == (2, "")
    assert "ascending" in err
    assert not out.exists()

# sha256 of the CSV and stdout of three `analytic` runs, taken from the
# partial-sum evaluator this one replaced: the i/2000 grid, 1,000 distinct
# denominators j/(2j+1), and one point over 2^7000.  The third is the
# manifest's, which also holds the package version (0.1.0).
_GOLDEN_EXPR = "a&b&c&!d + e&f&g&h"
_GOLDEN_RUNS = {
    "fine": (
        ["--expr", _GOLDEN_EXPR, "-k", "16", "--tie-policy", "1", "--trials", "5000",
         "--pe", ",".join(f"{i}/2000" for i in range(1, 1001))],
        "5413c6c247f59ab0846c14f53d516c03d1535251f0b787d4e4e6e458a8fa1479",
        "8c3f53bdaa958b3c63d74f52b5b0ecb7081d5b45f21b158eba27a5c126c9f1fc",
        "5025ec8ad77910763c7ce933ccd5269c79c399340711b2a11e5a3a3392c85b36",
    ),
    "dist": (
        ["--expr", _GOLDEN_EXPR, "-k", "16", "--tie-policy", "1", "--trials", "5000",
         "--pe", ",".join(f"{j}/{2 * j + 1}" for j in range(1, 1001))],
        "911321c8bffb16a841f701681664be5405d2bbc7d485e3bfd2252f5f70df8332",
        "bcb7ddf5d81a395218d48a24a171cfa86a07078f60baf453b6a461fe63d73baa",
        "d86c808075d5a888350f6a677c482384f5e94d769787c44bf936ce3e69db089c",
    ),
    "big": (
        ["--expr", "a&b", "-k", "16", "--tie-policy", "0", "--trials", "7",
         "--pe", f"1/{1 << 7000}"],
        "badd656a72547a5eae0d379ebe59078f27c8f76f41c47dfb51d310b0ddcbfb4b",
        "59967ef1dfcd2775482f6265e57467735ade1ed004eaddaf732d8ef019919bfd",
        "cc2718ba7488a06cac557542d606d4ee9edfab33d57622815da40e09a1c40774",
    ),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_RUNS))
def test_analytic_output_matches_the_partial_sum_goldens(monkeypatch, tmp_path, name):
    argv, csv_digest, stdout_digest, manifest_digest = _GOLDEN_RUNS[name]
    monkeypatch.chdir(tmp_path)
    code, stdout, err = _run("analytic", *argv, "--out", f"{name}.csv")
    assert code == 0, err
    assert hashlib.sha256((tmp_path / f"{name}.csv").read_bytes()).hexdigest() == csv_digest
    assert hashlib.sha256(stdout.encode()).hexdigest() == stdout_digest
    manifest = (tmp_path / f"{name}.csv.manifest.json").read_bytes()
    assert hashlib.sha256(manifest).hexdigest() == manifest_digest


# (den, r, k): values over d^k * 2^n, as in an analytic row, for
# d = 2^a * 5^b * r
_ROW_DENOMINATORS = st.builds(
    lambda a, b, r, k, n: ((2**a * 5**b * r) ** k << n, r, k),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=8),
    st.sampled_from([1, 3, 7, 9, 999]),
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=0, max_value=8),
)
# (den, r, 1): any den = 2^a * 5^b * r with r prime to 10; a and b are
# often below 4, so one, two and three places come up as well as many
_FEW_OR_MANY = st.one_of(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=300))
_ANY_DENOMINATORS = st.builds(
    lambda a, b, r: ((r * 5**b) << a, r, 1),
    _FEW_OR_MANY,
    _FEW_OR_MANY,
    st.builds(
        lambda high, low: 10 * high + low,
        st.integers(min_value=0, max_value=10**29 - 1),
        st.sampled_from([1, 3, 7, 9]),
    ),
)

# (den, r, 1) with 600 to 5,000 places, so the scaled numerators pass both
# 10^600, where the text goes through `_int_text`, and Python's 4,300-digit
# int-to-str limit
_LONG_DENOMINATORS = st.builds(
    lambda a, b, r: ((r * 5**b) << a, r, 1),
    st.integers(min_value=0, max_value=5000),
    st.integers(min_value=600, max_value=5000),
    st.sampled_from([1, 3, 7, 9]),
)


@settings(deadline=None, max_examples=800)
@given(st.one_of(_ROW_DENOMINATORS, _ANY_DENOMINATORS, _LONG_DENOMINATORS), st.data())
def test_decimals_equal_the_reduced_fraction_text(denominator, data):
    den, rest, k = denominator
    # num is a multiple of rest^j: a finite decimal iff rest^k divides it
    factor = rest ** data.draw(st.integers(min_value=0, max_value=k))
    numerators = data.draw(
        st.lists(st.integers(min_value=0, max_value=5000 * den // factor), min_size=1, max_size=4)
    )
    numerators = [m * factor for m in numerators]
    texts = _format_decimals(numerators, _decimal_form(den))
    # the oracle's str() needs the int-to-str limit lifted; the CLI's text
    # above was made under the default one
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = [format_exact(Fraction(m, den)) for m in numerators]
    finally:
        sys.set_int_max_str_digits(limit)
    assert texts == expected


def test_analytic_rows_build_no_fraction(monkeypatch):
    profile = error_profile(parse_expression("a&b&!c"))
    grid = [Fraction(p) for p in ("0", "0.001", "1/7", "1/3", "0.5", "1")]
    comparison = compare_and_crossover(
        profile, synthesize_majority(16, 1), synthesize_probabilistic(profile, 16), grid
    )
    expected = analytic_csv(profile, 16, 1, grid, 5000).splitlines()[1:]

    def refuse(*args):
        raise AssertionError("an analytic row built a Fraction")

    monkeypatch.setattr(cli, "Fraction", refuse)
    rows = cli.analytic_rows(comparison.points, 5000)
    assert rows == expected


def test_analytic_rows_print_over_any_point_denominator():
    # none of these is d^k * 2^n for the point's d; 1/3 and 2/3 share d = 3
    # over two different denominators
    trials = 3
    points, values = [], []
    for p, den in (
        (Fraction(1, 3), 3 * 10**4),
        (Fraction(2, 3), 2**3 * 5**9 * 11),
        (Fraction(1, 8), 2**7000 * 3),
    ):
        for majority, prob in itertools.product((0, den - 1, den), repeat=2):
            points.append(ComparisonPoint(p, prob, majority, den))
            values.append((
                p, 1 - p, Fraction(majority, den), Fraction(prob, den),
                Fraction(trials * (den - majority), den), Fraction(trials * (den - prob), den),
            ))
    # the oracle's str() of 1/2^7000's 4,893-digit scaled int needs Python's
    # int-to-str limit lifted; the CLI's text runs under the default one
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = [",".join([*map(format_exact, row), "0"]) for row in values]
    finally:
        sys.set_int_max_str_digits(limit)
    assert cli.analytic_rows(points, trials) == expected


@pytest.mark.parametrize(
    "n",
    [
        0, 7, 10**500 - 1, 10**500, 10**500 + 1, 10**600 - 1, 10**600, 10**600 + 1,
        10**1000, 3**20000, 5**20000 * 7, 3**104800 + 1,
    ],
    ids=[
        "0", "7", "10^500-1", "10^500", "10^500+1", "10^600-1", "10^600", "10^600+1",
        "10^1000", "3^20000", "5^20000*7", "3^104800+1",
    ],
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


def _pe_outcome(parse, entries):
    """The grid `parse` reads from --pe `entries`, or its error and exit code."""
    try:
        return parse(entries)
    except cli._CliError as exc:
        return str(exc), exc.code


@pytest.mark.parametrize(
    "part",
    [
        ".5", "5.", "0.", "00.25", "1.0000", "1.0001", "0.5_0", "\u0660.\u0665", "1e-3", "1/3",
        # each side of the point within int()'s default 4,300-digit limit,
        # both together beyond it
        pytest.param("0" * 2500 + "." + "1" * 2500, id="2500.2500-digits"),
        pytest.param("0." + "1" * 5000, id="0.5000-digits"),
    ],
)
def test_pe_part_parses_as_fraction_does(part):
    assert _pe_outcome(cli._parse_pe_grid, [part]) == _pe_outcome(parse_pe_grid, [part])


_PE_PARTS = st.one_of(
    st.text(alphabet="0123456789._eE+-/ \u0665\u0660,", max_size=12),
    # plain decimals, which the parser reads without Fraction's own parser
    st.from_regex(r"[0-9]{0,3}\.[0-9]{1,5}", fullmatch=True),
)


@settings(deadline=None, max_examples=1000)
@given(st.lists(_PE_PARTS, min_size=1, max_size=3))
def test_pe_grid_parses_as_fraction_does(entries):
    assert _pe_outcome(cli._parse_pe_grid, entries) == _pe_outcome(parse_pe_grid, entries)
