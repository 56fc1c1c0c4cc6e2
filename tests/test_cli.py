import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from probvoter import cli
from probvoter.cli import CSV_HEADER, main
from probvoter.logic import parse_expression, serialize_table
from probvoter.sim import AvailabilityRecord
from probvoter.voter import VoterTable

from conftest import TWO_ONES_FILE, nested_chain
from voter_oracle import popcount_table

QUAD_EXPR = "!a&!b&c + a&b&!d"


@pytest.fixture
def table_path(tmp_path):
    path = tmp_path / "fn.tt"
    path.write_bytes(TWO_ONES_FILE)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_profile_from_table(capsys, table_path):
    code, out, _ = run(capsys, "profile", "--table", table_path)
    assert code == 0
    assert out == "N0=14 N1=2 E0=2/16 E1=14/16\n"


def test_profile_from_expression(capsys):
    code, out, _ = run(capsys, "profile", "--expr", QUAD_EXPR)
    assert code == 0
    assert out == "N0=12 N1=4 E0=4/16 E1=12/16\n"


def test_profile_single_variable(capsys):
    code, out, _ = run(capsys, "profile", "--expr", "a", "--vars", "a")
    assert code == 0
    assert out == "N0=1 N1=1 E0=1/2 E1=1/2\n"


def test_function_source_is_exclusive(capsys, table_path):
    code, _, err = run(capsys, "profile", "--table", table_path, "--expr", "a")
    assert code == 2
    assert "exactly one" in err


def test_function_source_is_required(capsys):
    code, _, err = run(capsys, "profile")
    assert code == 2
    assert "--table" in err


def test_vars_requires_expr(capsys, table_path):
    code, _, err = run(capsys, "profile", "--table", table_path, "--vars", "a,b")
    assert code == 2


@pytest.mark.parametrize(
    "argv,code,message",
    [
        (("--table", "TABLE", "--expr", ""), 2, "exactly one"),
        (("--table", "", "--expr", "a"), 2, "exactly one"),
        (("--expr", "", "--vars", "a"), 3, "unexpected end of expression"),
        (("--expr", ""), 3, "unexpected end of expression"),
        (("--table", ""), 3, "cannot read"),
    ],
)
def test_an_empty_function_source_is_still_given(capsys, table_path, argv, code, message):
    argv = [table_path if arg == "TABLE" else arg for arg in argv]
    got, out, err = run(capsys, "profile", *argv)
    assert (got, out) == (code, "")
    assert message in err


def test_bad_expression_is_a_parse_error(capsys):
    code, _, err = run(capsys, "profile", "--expr", "a &")
    assert code == 3
    assert "position 3" in err


def test_long_sum_of_products(capsys):
    # every adjacent pair of a 10-variable ring, 1000 terms; the rows with
    # no two adjacent ones number L(10) = 123, a Lucas number
    expr = "+".join(f"v{i % 10}&v{(i + 1) % 10}" for i in range(1000))
    code, out, err = run(capsys, "profile", "--expr", expr)
    assert code == 0
    assert err == ""
    assert out == "N0=123 N1=901 E0=901/1024 E1=123/1024\n"


@pytest.mark.parametrize(
    "expr,code,out",
    [
        ("(" * 3000 + "a" + ")" * 3000, 0, "N0=1 N1=1 E0=1/2 E1=1/2\n"),
        ("!" * 5000 + "a", 0, "N0=1 N1=1 E0=1/2 E1=1/2\n"),
        ("!(" * 3000 + "a" + ")" * 3000, 0, "N0=1 N1=1 E0=1/2 E1=1/2\n"),
        ("(" * 3000 + "a" + ")" * 2999, 3, ""),
        ("!" * 5000, 3, ""),
        # 300 pending 2^20-row masks would need about 40 MB
        (nested_chain(20, 300), 3, ""),
    ],
)
def test_deep_expressions_keep_the_exit_contract(capsys, expr, code, out):
    result, stdout, stderr = run(capsys, "profile", "--expr", expr)
    assert (result, stdout) == (code, out)
    if code:
        assert stderr.startswith("probvoter: expression: ")
        assert stderr.count("\n") == 1
    else:
        assert stderr == ""


def test_missing_table_file(capsys):
    code, _, err = run(capsys, "profile", "--table", "no/such/file.tt")
    assert code == 3


def test_malformed_table_file(capsys, tmp_path):
    path = tmp_path / "bad.tt"
    path.write_bytes(b"a b\n101\n")
    code, _, err = run(capsys, "profile", "--table", str(path))
    assert code == 3
    assert "output bits" in err


def test_synth_probabilistic_tmr(capsys, table_path):
    code, out, _ = run(capsys, "synth", "--table", table_path, "-k", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "y1 y2 y3"
    assert lines[1] == "00000001"
    assert lines[2] == "t=3"
    assert lines[3] == "minterm_sop=y1&y2&y3"
    assert lines[4] == "threshold_sop=y1&y2&y3"
    assert lines[5] == "terms=1 literals=3"


def test_synth_majority(capsys, table_path):
    code, out, _ = run(capsys, "synth", "--table", table_path, "--kind", "majority")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "00010111"
    assert lines[2] == "t=2"
    assert lines[4] == "threshold_sop=y1&y2 + y1&y3 + y2&y3"
    assert lines[5] == "terms=3 literals=6"


def test_synth_5mr(capsys):
    code, out, _ = run(capsys, "synth", "--expr", QUAD_EXPR, "-k", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[2] == "t=4"
    assert lines[3] == (
        "minterm_sop=!y1&y2&y3&y4&y5 + y1&!y2&y3&y4&y5 + y1&y2&!y3&y4&y5"
        " + y1&y2&y3&!y4&y5 + y1&y2&y3&y4&!y5 + y1&y2&y3&y4&y5"
    )
    assert lines[5] == "terms=5 literals=20"


def test_synth_output_reparses_to_the_voter_table(capsys, table_path):
    code, out, _ = run(capsys, "synth", "--table", table_path, "-k", "5", "--kind", "majority")
    assert code == 0
    lines = out.splitlines()
    expected = popcount_table(5, 3)
    assert lines[1] == "".join(map(str, expected))
    names = tuple(lines[0].split())
    for prefix, line in (("minterm_sop=", lines[3]), ("threshold_sop=", lines[4])):
        expression = line.removeprefix(prefix)
        assert parse_expression(expression, names).outputs == expected


def test_synth_even_k_majority_needs_tie_policy(capsys, table_path):
    code, _, err = run(capsys, "synth", "--table", table_path, "-k", "4", "--kind", "majority")
    assert code == 2
    assert "tie_policy" in err
    code, out, _ = run(
        capsys, "synth", "--table", table_path, "-k", "4", "--kind", "majority", "--tie-policy", "1"
    )
    assert code == 0
    assert "t=2" in out.splitlines()


def test_synth_even_k_probabilistic_needs_no_tie_policy(capsys, table_path):
    code, out, _ = run(capsys, "synth", "--table", table_path, "-k", "4")
    assert code == 0
    assert "t=4" in out.splitlines()


def test_synth_dump_generic(capsys, table_path):
    code, out, _ = run(capsys, "synth", "--table", table_path, "--dump-generic")
    assert code == 0
    assert "inf" in out
    assert "E0/2" in out
    assert any(line.endswith("X") for line in out.splitlines())


# sha256 of `synth -k 16 --expr a ... --dump-generic` stdout (8.6 MB for
# t=8, 7.8 MB for t=9).  `--expr a` is balanced, so the probabilistic voter
# is t=8, the same voter as majority with ties to 1: the two digests agree.
_SYNTH_K16_SHA256 = {
    ("--kind", "prob"): "abf931f550c4f67375cbd4c796ffee170d3b7089a968e7ce1655fa41e7d33acf",
    ("--kind", "majority", "--tie-policy", "0"): "3b9ad488ba4a127b8240b526d58cdf85a7451ba1a3ea0208acfce8e458ba60ea",
    ("--kind", "majority", "--tie-policy", "1"): "abf931f550c4f67375cbd4c796ffee170d3b7089a968e7ce1655fa41e7d33acf",
}


@pytest.mark.parametrize("kind", sorted(_SYNTH_K16_SHA256))
def test_synth_k16_output_is_unchanged(capsys, kind):
    code, out, _ = run(capsys, "synth", "-k", "16", "--expr", "a", *kind, "--dump-generic")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _SYNTH_K16_SHA256[kind]


# sha256 of `synth -k 16` stdout for voters whose minterm SOP has few, many
# or mostly empty blocks, so that a separator written before the first
# block, after the last, or around a high half without terms shows.
_SYNTH_K16_BLOCKS_SHA256 = {
    # t=12
    ("--expr", QUAD_EXPR): "b30756ba453775447f0dc3a0816712cbbaac685b7991c0e0d9cd9ae4775b32d0",
    # t=9
    ("--expr", "a", "--kind", "majority", "--tie-policy", "0"): "e39007311224e1b7ee802b6ca92c707a858e22c0f7f031738edfb97a8ca4e0c9",
    # N0=31, t=16: only the last high half has a term
    ("--expr", "a&b&c&d&e"): "22f484e6672c790a9c59bf227fe46339acaf765aeae7394a4c9152ba241dd82c",
    # t=1: 65,535 terms
    ("--expr", "a+b+c+d+e"): "c6417785124db8b107f6cef3bec6202747573497d329528187eb55d366920e79",
}


@pytest.mark.parametrize("argv", sorted(_SYNTH_K16_BLOCKS_SHA256))
def test_synth_k16_sop_blocks_are_unchanged(capsys, argv):
    code, out, _ = run(capsys, "synth", "-k", "16", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _SYNTH_K16_BLOCKS_SHA256[argv]


class _CharCounter(io.TextIOBase):
    """A text stream that keeps only the number of characters written."""

    def __init__(self):
        self.chars = 0

    def writable(self):
        return True

    def write(self, text):
        self.chars += len(text)
        return len(text)


def test_synth_k16_streams_its_sop():
    # The t=8 minterm SOP alone is 2.5 MB: holding it whole, or a line
    # built around it, puts the traced peak over 5 MB.
    argv = ["synth", "-k", "16", "--expr", "a"]
    with contextlib.redirect_stdout(_CharCounter()):
        assert main(argv) == 0  # first-call caches stay out of the peak
    sink = _CharCounter()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.chars == 2_942_026
    assert peak < 2_500_000, f"traced peak {peak} bytes"


def test_simulate_default_grid(capsys, table_path, tmp_path):
    out_path = tmp_path / "res.csv"
    code, out, _ = run(capsys, "simulate", "--table", table_path, "--out", str(out_path))
    assert code == 0
    assert "wrote" in out
    lines = out_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 16
    first = lines[1].split(",")
    assert first[0] == "0.001"
    assert first[6] == "5000"


def test_simulate_extreme_probabilities(capsys, table_path, tmp_path):
    out_path = tmp_path / "res.csv"
    code, _, _ = run(
        capsys, "simulate", "--table", table_path, "--pe", "0,1", "--trials", "64",
        "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[1] == "0,1.0,1.0,1.0,0,0,64"
    assert lines[2] == "1,0.0,0.0,0.0,64,64,64"


def test_simulate_single_point_tracks_exact_value(capsys, table_path, tmp_path):
    # at pe = 0.5 the unanimity voter's exact availability is 25/32; a healthy
    # 5000-trial run must land within the 3-sigma binomial band around it
    out_path = tmp_path / "point.csv"
    code, _, _ = run(
        capsys, "simulate", "--table", table_path, "--pe", "0.5", "--trials", "5000",
        "--seed", "42", "--out", str(out_path),
    )
    assert code == 0
    prob_avail = float(out_path.read_text().splitlines()[1].split(",")[3])
    assert abs(prob_avail - 0.78125) <= 0.0175


def test_pe_flag_is_repeatable(capsys, table_path, tmp_path):
    out_path = tmp_path / "rep.csv"
    code, _, _ = run(
        capsys, "simulate", "--table", table_path, "--pe", "0.1", "--pe", "0.3,0.5",
        "--trials", "50", "--out", str(out_path),
    )
    assert code == 0
    assert [line.split(",")[0] for line in out_path.read_text().splitlines()[1:]] == [
        "0.1", "0.3", "0.5",
    ]


def test_simulate_is_deterministic_and_seed_sensitive(capsys, table_path, tmp_path):
    a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    run(capsys, "simulate", "--table", table_path, "--pe", "0.5", "--out", str(a))
    run(capsys, "simulate", "--table", table_path, "--pe", "0.5", "--out", str(b))
    run(capsys, "simulate", "--table", table_path, "--pe", "0.5", "--seed", "99", "--out", str(c))
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_simulate_prints_availability_from_integer_counts(
    capsys, monkeypatch, table_path, tmp_path
):
    def refuse(*args):
        raise AssertionError("simulate built an availability Fraction")

    monkeypatch.setattr(AvailabilityRecord, "availability", refuse)
    monkeypatch.setattr(AvailabilityRecord, "module_availability", property(refuse))
    out_path = tmp_path / "sim.csv"
    code, _, _ = run(
        capsys, "simulate", "--table", table_path, "-k", "5", "--pe", "0,0.001,1/3,0.1,0.5,1",
        "--trials", "4999", "--seed", "7", "--out", str(out_path),
    )
    assert code == 0
    # count / trials is the same correctly rounded float as
    # float(Fraction(count, trials)), so the CSV is pinned byte for byte
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == (
        "71624f2188a708fc0efed1d01bcd9b928ca3e99094299c86be882e20f5f660c8"
    )


def test_simulate_manifest_reproduces_output(capsys, table_path, tmp_path):
    first = tmp_path / "first.csv"
    run(
        capsys, "simulate", "--table", table_path, "--pe", "0.1,0.3", "--trials", "500",
        "--seed", "0xBEEF", "--out", str(first),
    )
    manifest = json.loads((tmp_path / "first.csv.manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 0xBEEF

    # rebuild the function file and the full argv from the manifest alone
    rebuilt = tmp_path / "rebuilt.tt"
    rebuilt.write_text(
        " ".join(manifest["function"]["variables"]) + "\n" + manifest["function"]["outputs"] + "\n"
    )
    second = tmp_path / "second.csv"
    code, _, _ = run(
        capsys, "simulate", "--table", str(rebuilt),
        "--pe", ",".join(manifest["pe"]),
        "--trials", str(manifest["trials"]),
        "--seed", str(manifest["seed"]),
        "-k", str(manifest["k"]),
        "--out", str(second),
    )
    assert code == 0
    assert first.read_bytes() == second.read_bytes()


def test_manifest_outputs_match_the_table_line(capsys, tmp_path):
    names = " ".join(f"v{i}" for i in range(12))
    rng = random.Random(12)
    line = "".join(rng.choice("01") for _ in range(1 << 12))
    table = tmp_path / "wide.tt"
    table.write_text(names + "\n" + line + "\n")
    out = tmp_path / "table.csv"
    assert run(capsys, "analytic", "--table", str(table), "--pe", "0.1", "--out", str(out))[0] == 0
    manifest = json.loads((tmp_path / "table.csv.manifest.json").read_text())
    assert manifest["function"]["outputs"] == line

    out = tmp_path / "expr.csv"
    assert run(capsys, "analytic", "--expr", QUAD_EXPR, "--pe", "0.1", "--out", str(out))[0] == 0
    manifest = json.loads((tmp_path / "expr.csv.manifest.json").read_text())
    expected = serialize_table(parse_expression(QUAD_EXPR)).split("\n")[1]
    assert manifest["function"]["outputs"] == expected == "0011000000001010"


# Path and expression texts that JSON must escape, and one that spells the
# outputs pair itself.
_AWKWARD_NAMES = ['quo"te', "back\\slash", "café ☃", '"outputs": ""', '\\"outputs\\": \\"\\"']


@pytest.mark.parametrize("name", _AWKWARD_NAMES)
def test_manifest_is_the_json_dump_of_itself(capsys, tmp_path, name):
    folder = tmp_path / name
    folder.mkdir()
    table = folder / (name + ".tt")
    table.write_text("outputs b c\n01101001\n")
    expr = "outputs　&\tb\n+\x1f!c + outputs&c"
    runs = (
        ("analytic", "--table", str(table)),
        ("simulate", "--table", str(table), "--trials", "20"),
        ("simulate", "--expr", expr, "--vars", " outputs, b ,c", "--trials", "20"),
        ("analytic", "--expr", expr),
    )
    for i, argv in enumerate(runs):
        out = folder / f"{name}{i}.csv"
        assert run(capsys, *argv, "--pe", "0.1", "--out", str(out))[0] == 0
        data = (folder / f"{name}{i}.csv.manifest.json").read_bytes()
        manifest = json.loads(data)
        assert data == (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode()
        assert manifest["out"] == str(out)
        assert manifest["function"]["variables"] == ["outputs", "b", "c"]
        if argv[1] == "--table":
            assert manifest["function"]["outputs"] == "01101001"
            assert manifest["function"]["source"]["path"] == str(table)
        else:
            assert manifest["function"]["outputs"] == "10101111"
            assert manifest["function"]["source"]["text"] == expr


# sha256 of n = 20 manifests written by `json.dumps` of the whole payload,
# paths relative to the working directory.
_N20_MANIFEST_SHA256 = {
    "analytic": "859562f2cabf0fc50f424abc39fcb0e15d60e387ebe0e91dc0ba6104fcd22daf",
    "simulate": "e4109d1165bee236c60f3b714fe36e51e5234fd75e33aba82681a9529258e365",
}


@pytest.mark.parametrize("command", sorted(_N20_MANIFEST_SHA256))
def test_n20_manifest_is_unchanged(capsys, monkeypatch, tmp_path, command):
    monkeypatch.chdir(tmp_path)
    line = format(random.Random(2020).getrandbits(1 << 20), f"0{1 << 20}b")
    Path("n20.tt").write_text(" ".join(f"v{i}" for i in range(20)) + "\n" + line + "\n")
    code, _, _ = run(
        capsys, command, "--table", "n20.tt", "--pe", "0.05,0.3", "--trials", "100",
        "--out", "n20.csv",
    )
    assert code == 0
    data = Path("n20.csv.manifest.json").read_bytes()
    assert json.loads(data)["function"]["outputs"] == line
    assert hashlib.sha256(data).hexdigest() == _N20_MANIFEST_SHA256[command]


def test_analytic_exact_rows(capsys, table_path, tmp_path):
    out_path = tmp_path / "exact.csv"
    code, out, _ = run(
        capsys, "analytic", "--table", table_path, "--pe", "0.3,0.5", "--out", str(out_path)
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "0.3,0.7,0.784,0.89425,1080,528.75,0"
    assert lines[2] == "0.5,0.5,0.5,0.78125,2500,1093.75,0"


def test_analytic_fine_grid_at_k16_is_unchanged(capsys, table_path, tmp_path):
    # digest of the CSV written by the term-by-term Fraction implementation
    out_path = tmp_path / "fine.csv"
    grid = ",".join(f"{i}/2000" for i in range(1, 1001))
    code, out, _ = run(
        capsys, "analytic", "--table", table_path, "-k", "16", "--tie-policy", "1",
        "--pe", grid, "--out", str(out_path),
    )
    assert code == 0
    assert out == "crossover: pe in (0.3335, 0.334)\nwrote " + str(out_path) + " (1000 rows)\n"
    assert (
        hashlib.sha256(out_path.read_bytes()).hexdigest()
        == "f288473d70898a3d0c1ef073e489c4ea33c4186b871b224cdc6d9610f8a37d9d"
    )


def test_analytic_builds_each_voter_once(capsys, monkeypatch, table_path, tmp_path):
    built = []
    check = VoterTable.__post_init__

    def counting(self):
        built.append((self.k, self.threshold))
        check(self)

    monkeypatch.setattr(VoterTable, "__post_init__", counting)
    code, _, _ = run(
        capsys, "analytic", "--table", table_path, "-k", "4", "--tie-policy", "1",
        "--out", str(tmp_path / "exact.csv"),
    )
    assert code == 0
    assert built == [(4, 2), (4, 4)]  # majority, then the probabilistic voter


def test_analytic_reports_crossover(capsys, table_path, tmp_path):
    out_path = tmp_path / "exact.csv"
    code, out, _ = run(
        capsys, "analytic", "--table", table_path,
        "--pe", "0.1,0.11,0.12,0.13,0.14", "--out", str(out_path),
    )
    assert code == 0
    assert "crossover: pe in (0.12, 0.13)" in out


def test_analytic_balanced_function_has_no_crossover(capsys, tmp_path):
    out_path = tmp_path / "flat.csv"
    code, out, _ = run(
        capsys, "analytic", "--expr", "a", "--pe", "0.1,0.2,0.3", "--out", str(out_path)
    )
    assert code == 0
    assert "crossover: none" in out


def test_analytic_requires_ascending_grid(capsys, table_path, tmp_path):
    code, _, err = run(
        capsys, "analytic", "--table", table_path, "--pe", "0.3,0.1",
        "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2
    assert "ascending" in err


def test_pe_flag_validation(capsys, table_path, tmp_path):
    out_path = str(tmp_path / "x.csv")
    code, _, err = run(capsys, "simulate", "--table", table_path, "--pe", "0.1,,0.2", "--out", out_path)
    assert code == 2
    code, _, err = run(capsys, "simulate", "--table", table_path, "--pe", "huh", "--out", out_path)
    assert code == 2
    code, _, err = run(capsys, "simulate", "--table", table_path, "--pe", "1.5", "--out", out_path)
    assert code == 2
    assert err == "probvoter: probability 1.5 is outside [0, 1]\n"
    code, _, err = run(capsys, "analytic", "--table", table_path, "--pe=-1/3", "--out", out_path)
    assert (code, err) == (2, "probvoter: probability -1/3 is outside [0, 1]\n")


def test_plot_emits_script_and_data(capsys, table_path, tmp_path):
    csv_path = tmp_path / "res.csv"
    run(capsys, "simulate", "--table", table_path, "--pe", "0.1,0.5", "--trials", "100",
        "--out", str(csv_path))
    script_path = tmp_path / "fig.gp"
    code, out, _ = run(capsys, "plot", str(csv_path), "--out", str(script_path))
    assert code == 0
    script = script_path.read_text()
    assert script.count("set output") == 2
    assert '"fig.dat" using 1:4' in script
    assert "probabilistic voter" in script
    data_lines = (tmp_path / "fig.dat").read_text().splitlines()
    assert data_lines[0].startswith("#")
    assert len(data_lines) == 3  # header comment + 2 rows
    manifest = json.loads((tmp_path / "fig.gp.manifest.json").read_text())
    assert manifest["command"] == "plot"
    assert len(manifest["csv_sha256"]) == 64


def test_plot_manifest_records_the_csv_file_digest(capsys, table_path, tmp_path):
    lf = tmp_path / "lf.csv"
    run(capsys, "simulate", "--table", table_path, "--pe", "0.1,0.5", "--trials", "100",
        "--out", str(lf))
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    for csv_path in (lf, crlf):
        script_path = tmp_path / f"{csv_path.stem}.gp"
        code, _, _ = run(capsys, "plot", str(csv_path), "--out", str(script_path))
        assert code == 0
        manifest = json.loads((tmp_path / f"{csv_path.stem}.gp.manifest.json").read_text())
        assert manifest["csv_sha256"] == hashlib.sha256(csv_path.read_bytes()).hexdigest()
    assert (tmp_path / "lf.dat").read_bytes() == (tmp_path / "crlf.dat").read_bytes()


def test_plot_accepts_analytic_output(capsys, table_path, tmp_path):
    csv_path = tmp_path / "exact.csv"
    run(capsys, "analytic", "--table", table_path, "--pe", "0.1,0.3", "--out", str(csv_path))
    code, _, _ = run(capsys, "plot", str(csv_path), "--out", str(tmp_path / "fig.gp"))
    assert code == 0


def test_plot_rejects_foreign_csv(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,value\n1,2\n")
    code, _, err = run(capsys, "plot", str(bad), "--out", str(tmp_path / "fig.gp"))
    assert code == 3
    assert "header" in err


def test_plot_rejects_malformed_rows(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text(CSV_HEADER + "\n0.1,a,b,c,d,e,f\n")
    code, _, err = run(capsys, "plot", str(bad), "--out", str(tmp_path / "fig.gp"))
    assert code == 3


@pytest.mark.parametrize(
    "row",
    [
        # float() reads every one of these; gnuplot reads none
        "0.1,0.9,0.9_5,\u0660.\u0665,1_000,2,5000",
        "0.1,0.9,0.9,0.9,1_0,2,100",
        "0.1,0.9,0.9,\u0660.9,1,2,100",
        "0.1,0.9,0.9,0.9,1,2,\uff11\uff10\uff10",
        "0.1,0.9,0.9,0.9,1,2,100\u3000",
        "\u00a00.1,0.9,0.9,0.9,1,2,100",
    ],
)
def test_plot_rejects_cells_gnuplot_cannot_read(capsys, tmp_path, row):
    bad = tmp_path / "bad.csv"
    bad.write_text(CSV_HEADER + "\n0.1,0.9,0.9,0.9,1,2,100\n" + row + "\n", encoding="utf-8")
    code, stdout, err = run(capsys, "plot", str(bad), "--out", str(tmp_path / "fig.gp"))
    assert (code, stdout) == (3, "")
    assert err == f"probvoter: {bad}: malformed row {row!r}\n"
    assert not (tmp_path / "fig.gp").exists()
    assert not (tmp_path / "fig.dat").exists()


@pytest.mark.parametrize(
    "row",
    [
        "nan,inf,2.5,-1,0,0,0",
        "0.1,nan,0.9,0.9,0,0,100",
        "0.1,0.9,inf,0.9,0,0,100",
        "1.5,0.9,0.9,0.9,0,0,100",
        "0.1,0.9,0.9,-0.1,0,0,100",
        "0.1,0.9,0.9,0.9,-1,0,100",
        "0.1,0.9,0.9,0.9,0,0,-inf",
    ],
)
def test_plot_rejects_out_of_range_values(capsys, tmp_path, row):
    bad = tmp_path / "bad.csv"
    bad.write_text(CSV_HEADER + "\n0.1,0.9,0.9,0.9,1,2,100\n" + row + "\n")
    code, _, err = run(capsys, "plot", str(bad), "--out", str(tmp_path / "fig.gp"))
    assert code == 3
    assert "out of range" in err
    assert not (tmp_path / "fig.gp").exists()


@pytest.mark.parametrize("out", ["", ".", "/"])
def test_plot_rejects_out_without_file_name(capsys, tmp_path, out):
    csv_path = tmp_path / "exact.csv"
    csv_path.write_text(CSV_HEADER + "\n0.1,0.9,0.9,0.9,1,2,100\n")
    code, stdout, err = run(capsys, "plot", str(csv_path), "--out", out)
    assert code == 2
    assert stdout == ""
    assert err == f"probvoter: --out {out!r} has no file name\n"


@pytest.mark.parametrize(
    "out, directory",
    [("figs", "figs"), ("figs/", "figs"), ("fig.gp", "fig.dat"), ("fig.gp", "fig.gp.manifest.json")],
)
def test_plot_out_onto_a_directory_writes_nothing(capsys, monkeypatch, tmp_path, out, directory):
    monkeypatch.chdir(tmp_path)
    Path("exact.csv").write_text(CSV_HEADER + "\n0.1,0.9,0.9,0.9,1,2,100\n")
    Path(directory).mkdir()
    code, stdout, err = run(capsys, "plot", "exact.csv", "--out", out)
    assert (code, stdout) == (2, "")
    assert err == f"probvoter: cannot write {directory}: it is a directory\n"
    assert sorted(os.listdir()) == sorted(["exact.csv", directory])
    assert os.listdir(directory) == []


@pytest.mark.parametrize("command", ["analytic", "simulate"])
@pytest.mark.parametrize("directory", ["x.csv", "x.csv.manifest.json"])
def test_sweep_out_onto_a_directory_writes_nothing(capsys, monkeypatch, tmp_path, command, directory):
    # the directory is refused before the sweep or the scan starts
    def not_called(*args):
        raise AssertionError("the sweep ran before the directory was refused")

    monkeypatch.setattr(cli, "run_sweep", not_called)
    monkeypatch.setattr(cli, "compare_and_crossover", not_called)
    monkeypatch.chdir(tmp_path)
    Path(directory).mkdir()
    code, stdout, err = run(
        capsys, command, "--expr", "a&b", "--pe", "0.1", "--trials", "10", "--out", "x.csv"
    )
    assert (code, stdout) == (2, "")
    assert err == f"probvoter: cannot write {directory}: it is a directory\n"
    assert os.listdir() == [directory]
    assert os.listdir(directory) == []


def _digests(names):
    return {name: hashlib.sha256(Path(name).read_bytes()).hexdigest() for name in names}


@pytest.mark.parametrize("command", ["analytic", "simulate"])
@pytest.mark.parametrize(
    "table, out, target",
    [
        ("f.tt", "f.tt", "f.tt"),
        ("x.csv.manifest.json", "x.csv", "x.csv.manifest.json"),
        ("f.tt", "link.csv", "link.csv"),
    ],
    ids=["out-is-the-table", "manifest-is-the-table", "out-links-to-the-table"],
)
def test_sweep_out_onto_its_table_writes_nothing(
    capsys, monkeypatch, tmp_path, command, table, out, target
):
    def not_called(*args):
        raise AssertionError("the sweep ran before the output was refused")

    monkeypatch.setattr(cli, "run_sweep", not_called)
    monkeypatch.setattr(cli, "compare_and_crossover", not_called)
    monkeypatch.chdir(tmp_path)
    Path(table).write_bytes(TWO_ONES_FILE)
    if out == "link.csv":
        os.symlink(table, out)
    before = _digests([table])
    listing = sorted(os.listdir())
    code, stdout, err = run(
        capsys, command, "--table", table, "--pe", "0.1", "--trials", "10", "--out", out
    )
    assert (code, stdout) == (2, "")
    assert err == f"probvoter: cannot write {target}: it is the same file as the input {table}\n"
    assert _digests([table]) == before
    assert sorted(os.listdir()) == listing


@pytest.mark.parametrize(
    "csv, out, target",
    [("a.csv", "a.csv", "a.csv"), ("b.dat", "b.gp", "b.dat"), ("a.csv", "link.gp", "link.gp")],
    ids=["out-is-the-csv", "data-is-the-csv", "out-links-to-the-csv"],
)
def test_plot_out_onto_its_csv_writes_nothing(capsys, monkeypatch, tmp_path, csv, out, target):
    monkeypatch.chdir(tmp_path)
    Path(csv).write_text(CSV_HEADER + "\n0.1,0.9,0.9,0.9,1,2,100\n")
    # the sweep's own manifest, which a plot manifest must not replace either
    Path(f"{csv}.manifest.json").write_text("{}\n")
    if out == "link.gp":
        os.symlink(csv, out)
    before = _digests([csv, f"{csv}.manifest.json"])
    listing = sorted(os.listdir())
    code, stdout, err = run(capsys, "plot", csv, "--out", out)
    assert (code, stdout) == (2, "")
    assert err == f"probvoter: cannot write {target}: it is the same file as the input {csv}\n"
    assert _digests([csv, f"{csv}.manifest.json"]) == before
    assert sorted(os.listdir()) == listing


def test_plot_missing_csv(capsys, tmp_path):
    code, _, _ = run(capsys, "plot", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "f.gp"))
    assert code == 3


def test_usage_error_exit_code(capsys):
    assert main(["simulate"]) == 2  # --out is required
    capsys.readouterr()


@pytest.mark.parametrize(
    "option", ["--out", "--expr", "--vars", "-k", "--tie-policy", "--pe", "--trials", "--seed"]
)
def test_double_dash_is_not_an_option_value(capsys, tmp_path, option):
    # "--opt=--" must not reach a command as an empty list
    argv = ["simulate", "--expr", "a", "--out", str(tmp_path / "x.csv"), f"{option}=--"]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.splitlines()[-1].endswith("expected one argument")
    assert not (tmp_path / "x.csv").exists()


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.startswith("probvoter ")


def test_closed_stdout_ends_quietly():
    # synth -k 16 prints about 300 kB, far more than a pipe buffers, so the
    # child is still writing when the reader goes away.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.Popen(
        [sys.executable, "-m", "probvoter", "synth", "-k", "16", "--expr", QUAD_EXPR],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        assert proc.stdout.read(10) == b"y1 y2 y3 y"
        proc.stdout.close()
        code = proc.wait(timeout=120)
        err = proc.stderr.read().decode()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stderr.close()
    assert code == 0
    assert err == ""


_IMPORT_CLI = """
import json, sys
before = set(sys.modules)
import probvoter.cli
added = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps({
    "numpy": "numpy" in sys.modules,
    "outside": sorted(added - set(sys.stdlib_module_names) - {"probvoter"}),
}))
"""


def test_public_names_resolve_and_star_import_binds_exactly_them():
    import probvoter

    # the public names, pinned as test_cli_options.py pins the options
    assert sorted(probvoter.__all__) == [
        "AvailabilityRecord",
        "ErrorProfile",
        "SimConfig",
        "SystemModel",
        "TruthTable",
        "VoterTable",
        "__version__",
        "compare_and_crossover",
        "error_profile",
        "expected_errors",
        "parse_expression",
        "parse_table_file",
        "run_sweep",
        "serialize_table",
        "synthesize_majority",
        "synthesize_probabilistic",
        "system_availability",
    ]
    assert len(set(probvoter.__all__)) == len(probvoter.__all__)
    for name in probvoter.__all__:
        assert hasattr(probvoter, name), name
    namespace = {}
    exec("from probvoter import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(probvoter.__all__)


def test_cli_imports_only_the_standard_library():
    # numpy alone would add about 14 MB to every run's resident memory
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT_CLI], capture_output=True, env=env, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {"numpy": False, "outside": []}
