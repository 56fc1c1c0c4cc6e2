"""Fuzzing the CLI's exit-code contract.

Whatever the expression text, table-file bytes, --pe strings, replica count
or trial count, a run ends with exit code 0, 2 or 3 and never prints a
traceback.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from probvoter.cli import MAX_TRIALS, main

EXIT_CODES = {0, 2, 3}

_EXPRESSIONS = st.one_of(
    st.text(max_size=80),
    st.text(alphabet="abcxyz_019!~&*.+|() \t", max_size=80),
)

_NAME_LINES = st.lists(st.sampled_from(["a", "b", "c", "a", "1x", "é"]), max_size=3).map(" ".join)
_ENDINGS = st.sampled_from([b"", b"\n", b"\r\n", b"\nextra\n", b"\n# note\n"])
_TABLE_FILES = st.one_of(
    st.binary(max_size=64),
    # a names line, then an output line of text that may be non-ASCII
    st.builds(
        lambda names, line, end: (names + "\n" + line).encode("utf-8") + end,
        _NAME_LINES,
        st.text(alphabet="01 2é\t　", max_size=9),
        _ENDINGS,
    ),
    # a names line, then output bytes that need not be UTF-8
    st.builds(
        lambda names, line, end: names.encode("utf-8") + b"\n" + line + end,
        _NAME_LINES,
        st.binary(max_size=9),
        _ENDINGS,
    ),
)

_PE_STRINGS = st.one_of(
    st.text(max_size=30),
    st.text(alphabet="0123456789.eE+-/_, ", max_size=20),
)


def _run(argv: list[str]) -> tuple[int, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stderr.getvalue()


def _check(argv: list[str]) -> None:
    code, err = _run(argv)
    assert code in EXIT_CODES, (argv, code, err)
    assert "Traceback" not in err
    assert code == 0 or err


@settings(deadline=None)
@given(_EXPRESSIONS)
def test_expression_text(text):
    _check(["profile", "--expr=" + text])


@settings(deadline=None)
@given(_TABLE_FILES)
def test_table_file_bytes(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fn.tt"
        path.write_bytes(data)
        _check(["profile", "--table", str(path)])


@settings(deadline=None)
@given(_PE_STRINGS)
def test_pe_strings(pe):
    with tempfile.TemporaryDirectory() as tmp:
        for command in ("simulate", "analytic"):
            out = str(Path(tmp) / f"{command}.csv")
            _check([command, "--expr", "a&b", "--trials", "3", "--pe=" + pe, "--out", out])


# Probabilities whose exact decimals run to thousands of digits at k = 16,
# past Python's int-to-str limit, and exponents at and past MAX_PE_EXPONENT.
_LONG_PE = st.one_of(
    st.builds(
        lambda mantissa, exponent: f"{mantissa}e{exponent}",
        st.sampled_from(["1", "5", "0.5", "25", "0.125", "3", "9.99"]),
        st.integers(min_value=-1001, max_value=1001),
    ),
    st.builds(
        lambda top, m: f"{top}/{2**m}",
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=7000),
    ),
    st.fractions(min_value=0, max_value=1, max_denominator=1000).map(str),
)
_TIE_POLICIES = st.sampled_from([[], ["--tie-policy", "0"], ["--tie-policy", "1"]])
# simulate runs every trial, so it draws only small counts or counts past
# the bound; analytic's cost does not depend on the count.
_SIM_TRIALS = st.one_of(
    st.integers(min_value=-2, max_value=20),
    st.integers(min_value=MAX_TRIALS + 1, max_value=10**400),
)
_TRIALS = st.one_of(
    _SIM_TRIALS,
    st.sampled_from([MAX_TRIALS, 10**308, 10**400]),
    st.integers(min_value=0, max_value=10**400),
)


@settings(deadline=None)
@given(
    st.sampled_from(["simulate", "analytic"]),
    st.integers(min_value=1, max_value=16),
    _TIE_POLICIES,
    st.lists(_LONG_PE, min_size=1, max_size=2).map(",".join),
    st.data(),
)
def test_sweep_arguments(command, k, tie_policy, pe, data):
    trials = data.draw(_SIM_TRIALS if command == "simulate" else _TRIALS)
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / f"{command}.csv")
        _check(
            [command, "--expr", "a&b", "-k", str(k), *tie_policy, "--trials", str(trials),
             "--pe=" + pe, "--out", out]
        )
