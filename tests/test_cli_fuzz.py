"""Fuzzing the CLI's exit-code contract.

Whatever the expression text, table-file bytes or --pe strings, a run ends
with exit code 0, 2 or 3 and never prints a traceback.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from probvoter.cli import main

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
