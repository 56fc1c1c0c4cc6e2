import contextlib
import io
import itertools
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import logic_oracle
from conftest import nested_chain
from probvoter.cli import main
from probvoter.logic import (
    MAX_STACK_BITS,
    ExpressionError,
    TableFormatError,
    TruthTable,
    _compile,
    output_line,
    parse_expression,
    parse_table_file,
    serialize_table,
)


def test_first_variable_is_msb():
    assert tuple(parse_expression("a", ("a", "b")).outputs) == (0, 0, 1, 1)
    assert tuple(parse_expression("b", ("a", "b")).outputs) == (0, 1, 0, 1)


def test_four_variable_minterm_sum():
    table = parse_expression(
        "a&b&c&!d + a&b&!c&!d + !a&!b&c&!d + !a&!b&c&d", ("a", "b", "c", "d")
    )
    assert [i for i, bit in enumerate(table.outputs) if bit] == [2, 3, 12, 14]


def test_variable_order_defaults_to_first_appearance():
    table = parse_expression("b + a")
    assert table.variables == ("b", "a")


def test_explicit_order_overrides_appearance():
    assert parse_expression("b + a", ("a", "b")) == parse_expression("a + b", ("a", "b"))


def test_operator_aliases():
    reference = parse_expression("!a & b", ("a", "b"))
    assert parse_expression("~a * b", ("a", "b")) == reference
    assert parse_expression("~a . b", ("a", "b")) == reference
    assert parse_expression("a + b", ("a", "b")) == parse_expression("a | b", ("a", "b"))


def test_and_binds_tighter_than_or():
    table = parse_expression("a + b & c", ("a", "b", "c"))
    assert table == parse_expression("a + (b & c)", ("a", "b", "c"))
    assert table != parse_expression("(a + b) & c", ("a", "b", "c"))


def test_constants_and_double_negation():
    assert tuple(parse_expression("!!a", ("a",)).outputs) == (0, 1)
    assert tuple(parse_expression("a + 1", ("a",)).outputs) == (1, 1)
    assert tuple(parse_expression("a & 0", ("a",)).outputs) == (0, 0)


def test_constant_expression_needs_declared_variables():
    with pytest.raises(ExpressionError):
        parse_expression("1")
    assert tuple(parse_expression("1", ("x",)).outputs) == (1, 1)


def test_contradiction_is_constant_zero():
    assert tuple(parse_expression("a & !a", ("a",)).outputs) == (0, 0)


def test_two_input_or():
    assert tuple(parse_expression("a + b", ("a", "b")).outputs) == (0, 1, 1, 1)


def test_constant_one_symbol_counts():
    table = parse_expression("1", ("a", "b", "c"))
    assert table.symbol_counts() == (0, 8)


@pytest.mark.parametrize(
    "text,position",
    [
        ("a &", 3),
        ("(a", 2),
        (")", 0),
        ("a b", 2),
        ("a & $", 4),
        ("(a b)", 3),
        ("a)", 1),
        ("!", 1),
        ("()", 1),
        ("a + ", 4),
        ("((a)", 4),
        ("!(a", 3),
        ("a & & b", 4),
        ("a+(b&c", 6),
        ("(a)(b)", 3),
    ],
)
def test_syntax_error_positions(text, position):
    with pytest.raises(ExpressionError) as err:
        parse_expression(text)
    assert err.value.position == position


def test_unknown_variable_reports_first_occurrence():
    with pytest.raises(ExpressionError) as err:
        parse_expression("a & zz", ("a", "b"))
    assert "zz" in str(err.value)
    assert err.value.position == 4


def test_more_declared_variables_than_max_arity():
    names = tuple(f"v{i}" for i in range(21))
    with pytest.raises(ExpressionError) as err:
        parse_expression("v0", names)
    assert str(err.value) == "need between 1 and 20 variables, got 21 (at position 0)"
    assert err.value.position == 0


def test_table_file_identity():
    table = parse_table_file(b"x\n01\n")
    assert table.variables == ("x",)
    assert tuple(table.outputs) == (0, 1)


def test_table_file_comments_and_crlf():
    table = parse_table_file(b"# a note\r\n# another\r\nx y\r\n0110\r\n")
    assert table.variables == ("x", "y")
    assert tuple(table.outputs) == (0, 1, 1, 0)


@pytest.mark.parametrize(
    "data",
    [
        b"a b\n101\n",  # 3 bits instead of 4
        b"",
        b"a b\n",
        b"a b\n0110\nextra\n",
        b"a b\n01x0\n",
        b"a a\n0110\n",
        b"\n01\n",
        b"\xff\xfe\n01\n",
    ],
)
def test_table_file_rejects_malformed_input(data):
    with pytest.raises(TableFormatError):
        parse_table_file(data)


@pytest.mark.parametrize(
    "row,bad",
    [
        ("0120", "2"),
        ("01\u00e90", "\u00e9"),
        ("0 10", " "),
        ("2\u00e9 1", " "),
        ("\u00e9\u00e0\u00ff\u00fe", "\u00e0"),
    ],
)
def test_table_file_names_smallest_bad_character(row, bad):
    with pytest.raises(TableFormatError) as err:
        parse_table_file(("a b\n" + row + "\n").encode("utf-8"))
    assert str(err.value) == f"output line may only contain 0 and 1, got {bad!r}"


def test_table_file_rejects_every_other_ascii_character():
    # raw \x00 and \x01 included: they are the stored row values, not text
    for code in range(128):
        bad = chr(code)
        if bad in "01\n":
            continue
        with pytest.raises(TableFormatError) as err:
            parse_table_file(("a b\n0" + bad + "10\n").encode("ascii"))
        assert str(err.value) == f"output line may only contain 0 and 1, got {bad!r}", code


# Every kind of byte the loader treats apart: the row's digits, comment and
# line marks, each whitespace character str.strip() removes (ASCII and not),
# a non-space letter of two bytes, and bytes that are not valid UTF-8.
_SPACES = (
    b" ", b"\t", b"\x0b", b"\x0c", b"\r", b"\x1c", b"\x1d", b"\x1e", b"\x1f",
    *(char.encode() for char in "\u00a0\u0085\u2028\u3000"),
)
_TEXT = _SPACES + (b"0", b"1", b"#", b"\n", b"a", b"b", "\u00e9".encode())
_PIECES = _TEXT + (b"\xff", b"\xc3")
_space = st.lists(st.sampled_from(_SPACES), max_size=2).map(b"".join)
_text = st.lists(st.sampled_from(_TEXT), max_size=6).map(b"".join)
_junk = st.lists(st.sampled_from(_PIECES), max_size=6).map(b"".join)
# blank lines twice as often as each other kind
_extra_line = st.one_of(
    _space, _space, _text.map(lambda text: b"#" + text), _junk.map(lambda text: b"#" + text), _junk
)


# valid names, and one that is not
_NAMES_BYTES = (b"a", b"b", b"c", b"x1", b"_y", "\u00e9".encode())


@st.composite
def _table_files(draw):
    """A names line and an output line that are mostly well formed, among
    blank, comment and stray lines in any position."""
    n = draw(st.integers(1, 3))
    unique = draw(st.integers(0, 3)) > 0
    names = draw(st.lists(st.sampled_from(_NAMES_BYTES), min_size=n, max_size=n, unique=unique))
    gap = st.lists(st.sampled_from(_SPACES), min_size=1, max_size=2).map(b"".join)
    names_line = names[0] + b"".join(draw(gap) + name for name in names[1:])
    size = (1 << n) + draw(st.sampled_from((0, 0, 0, 0, -1, 1)))
    row = b"".join(draw(st.lists(st.sampled_from((b"0", b"1")), min_size=size, max_size=size)))
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(row)))
        row = row[:at] + draw(st.one_of(st.sampled_from(_PIECES), _junk)) + row[at + 1:]
    lines = [draw(_space) + names_line + draw(_space), draw(_space) + row + draw(_space)]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_extra_line))
    lines = [line + draw(st.sampled_from((b"", b"", b"\r"))) for line in lines]
    return b"\n".join(lines) + draw(st.sampled_from((b"", b"\n", b"\r\n", b"\n\n")))


def _outcome(parse, data):
    try:
        return parse(data)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


# three in four files have a names line and an output line
_files = st.one_of(
    _table_files(), _table_files(), _table_files(), st.lists(_extra_line, max_size=4).map(b"\n".join)
)


@settings(max_examples=1000)
@given(_files)
@example(b"a b\n0110\n")
@example("\u3000a b\u2028\n\u00a00110\u0085\n\u3000\n".encode())
@example(b"a b\n0\x1c10\n\x1c\n")
@example("a b\n01\u00e90\n".encode())
@example("a b\n01\u00e9\n".encode())
@example(b"a b\n0110\n\n#x\nstray\r\r\n\n")
@example(b"a b\n0110\xc3\n")
@example(b"#\xff\na\n01\n")
@example(b"a\x1cb\n0110\n")
@example(" ".join(f"v{i}" for i in range(21)).encode() + b"\n01\n")
def test_table_loader_matches_text_oracle(data):
    """Equal tables, or the same exception type and message."""
    assert _outcome(parse_table_file, data) == _outcome(logic_oracle.parse_table_file, data), data


def test_only_trusted_producers_skip_the_byte_scan():
    with pytest.raises(ValueError, match="^output bits must be 0 or 1$"):
        TruthTable(("a",), b"\x02\x00")
    # the private constructor still checks the names and the length
    assert TruthTable._from_bits(["a"], b"\x00\x01") == TruthTable(("a",), b"\x00\x01")
    for variables, outputs in (
        (("a", "a"), bytes(4)), (("2bad",), bytes(2)), (("a",), bytes(3)), ((), b""),
    ):
        with pytest.raises(ValueError):
            TruthTable._from_bits(variables, outputs)


def _n20_file() -> bytes:
    line = format(random.Random(2020).getrandbits(1 << 20), f"0{1 << 20}b")
    return (" ".join(f"v{i}" for i in range(20)) + "\n" + line + "\n").encode()


def _traced_peak(run) -> int:
    run()  # first-call caches stay out of the peak
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_n20_load_holds_the_row_about_twice():
    # the output line sliced out of the file, and its 0/1 bytes
    data = _n20_file()
    peak = _traced_peak(lambda: parse_table_file(data))
    assert peak < 2.5 * 2**20, f"traced peak {peak} bytes"


def test_n20_analytic_run_holds_the_row_about_three_times(tmp_path):
    path = tmp_path / "n20.tt"
    path.write_bytes(_n20_file())
    argv = ["analytic", "--table", str(path), "--out", str(tmp_path / "n20.csv")]

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0

    peak = _traced_peak(run)
    assert peak < 4 * 2**20, f"traced peak {peak} bytes"


def test_outputs_are_one_byte_per_row():
    table = TruthTable(("a", "b"), (0, 1, 1, 0))
    assert table.outputs == b"\x00\x01\x01\x00"
    assert table == TruthTable(("a", "b"), b"\x00\x01\x01\x00")
    assert table == TruthTable(("a", "b"), bytearray(b"\x00\x01\x01\x00"))
    assert table == parse_table_file(b"a b\n0110\n")
    assert table == parse_expression("a&!b + !a&b", ("a", "b"))
    assert output_line(table) == "0110"


def test_n20_table_round_trips():
    low_bit = bytes.maketrans(bytes(range(256)), bytes(b & 1 for b in range(256)))
    outputs = random.Random(20).randbytes(1 << 20).translate(low_bit)
    table = TruthTable(tuple(f"v{i}" for i in range(20)), outputs)
    text = serialize_table(table)
    assert text.split("\n")[1] == output_line(table)
    assert parse_table_file(text.encode()) == table
    assert table.symbol_counts() == (outputs.count(0), outputs.count(1))


@pytest.mark.parametrize("count", [5000, 5001])
def test_long_negation_runs(count):
    table = parse_expression("!" * count + "a")
    assert tuple(table.outputs) == ((0, 1) if count % 2 == 0 else (1, 0))
    assert parse_expression("~" * count + "(a)") == table


def test_deep_alternating_nesting():
    # x(i+1) = a + x(i) on even i and !(b & x(i)) on odd i, nested 3000 deep
    depth = 3000
    head = "".join("(a+" if i % 2 == 0 else "!(b&" for i in reversed(range(depth)))
    table = parse_expression(head + "c" + ")" * depth, ("a", "b", "c"))
    for row in range(8):
        a, b, c = row >> 2 & 1, row >> 1 & 1, row & 1
        x = c
        for i in range(depth):
            x = (a | x) if i % 2 == 0 else 1 - (b & x)
        assert table.outputs[row] == x


def test_nesting_depth_is_bounded_by_the_row_count():
    names = tuple(f"v{i}" for i in range(20))
    limit = MAX_STACK_BITS >> 20
    # right at the limit the masks still fit and the chain evaluates
    table = parse_expression(nested_chain(20, limit), names)
    assert table.symbol_counts()[1] > 0
    deeper = nested_chain(20, limit + 1)
    with pytest.raises(ExpressionError) as err:
        parse_expression(deeper, names)
    assert "nests too deeply" in str(err.value)
    assert err.value.position == deeper.rindex(f"v{limit % 20}")
    # the same depth over three variables is 2^17 times smaller
    assert parse_expression(nested_chain(3, 3000), ("v0", "v1", "v2")).arity == 3


_EXPR_TEXT = st.text(alphabet="abcx01!~&*.+|() ", max_size=40)




def _assert_matches_oracle(text, variables=None):
    """Same table, or same error message and position, as the recursive oracle."""
    try:
        expected = logic_oracle.parse_expression(text, variables)
    except ExpressionError as exc:
        with pytest.raises(ExpressionError) as err:
            parse_expression(text, variables)
        assert str(err.value) == str(exc), text
        assert err.value.position == exc.position, text
    else:
        assert parse_expression(text, variables) == expected, text


@given(_EXPR_TEXT)
def test_compiler_matches_recursive_oracle(text):
    _assert_matches_oracle(text, ("a", "b", "c"))


@pytest.mark.parametrize("length", range(7))
def test_compiler_matches_recursive_oracle_on_every_short_string(length):
    # all 6^length strings over one name, both operators, "!" and parentheses
    for chars in itertools.product("a!&+()", repeat=length):
        _assert_matches_oracle("".join(chars))


_NAMES_20 = tuple(f"x{i}" for i in range(20))


def test_compiler_matches_recursive_oracle_on_a_20_variable_cube_sum():
    # 32 cubes of 8 literals, the shape of the wide-n20 benchmark function
    rng = random.Random(20)
    cubes = [
        "&".join(("" if rng.getrandbits(1) else "!") + _NAMES_20[j]
                 for j in sorted(rng.sample(range(20), 8)))
        for _ in range(32)
    ]
    text = " + ".join(cubes)
    assert set(_compile(text)[1]) == set(_NAMES_20)
    _assert_matches_oracle(text, _NAMES_20)
    _assert_matches_oracle(text)


@pytest.mark.parametrize("name", _NAMES_20)
def test_compiler_matches_recursive_oracle_on_one_of_20_variables(name):
    _assert_matches_oracle(name, _NAMES_20)


def test_evaluate_and_index(two_ones):
    assert two_ones.index_of((1, 1, 1, 0)) == 14
    assert two_ones.evaluate((1, 1, 1, 0)) == 1
    assert two_ones.evaluate((1, 1, 1, 1)) == 0
    with pytest.raises(ValueError):
        two_ones.evaluate((1, 1, 1))


def test_symbol_counts(two_ones, four_ones):
    assert two_ones.symbol_counts() == (14, 2)
    assert four_ones.symbol_counts() == (12, 4)


@pytest.mark.parametrize(
    "variables,outputs",
    [
        ((), ()),
        (("a", "a"), (0, 1, 0, 1)),
        (("2bad",), (0, 1)),
        (("a",), (0, 1, 0)),
        (("a",), (0, 2)),
        (tuple(f"v{i}" for i in range(21)), ()),
        (("a",), b"\x00\x02"),
        (("a",), b"\x01\xff"),
        (("a",), b"01"),
    ],
)
def test_truth_table_validation(variables, outputs):
    with pytest.raises(ValueError):
        TruthTable(variables, outputs)


def test_truth_table_converts_only_int_outputs():
    for outputs in ((0, 1), [0, 1], bytearray(b"\x00\x01"), (False, True), range(2)):
        assert TruthTable(("a",), outputs).outputs == b"\x00\x01"
    # int() would truncate 0.9 to 0; bytes(2) would be two zero bytes
    for outputs in ((0.9, 1), (0.0, 1.0), ("0", "1"), "01", 2):
        with pytest.raises(TypeError):
            TruthTable(("a",), outputs)


# --- properties ---------------------------------------------------------------

_NAMES = ("p", "q", "r")

_ast = st.deferred(
    lambda: st.one_of(
        st.sampled_from(_NAMES),
        st.sampled_from(("0", "1")),
        st.tuples(st.just("not"), _ast),
        st.tuples(st.just("and"), _ast, _ast),
        st.tuples(st.just("or"), _ast, _ast),
    )
)


def _render(node) -> str:
    if isinstance(node, str):
        return node
    if node[0] == "not":
        return "!(" + _render(node[1]) + ")"
    op = "&" if node[0] == "and" else "+"
    return "(" + _render(node[1]) + op + _render(node[2]) + ")"


def _direct_eval(node, env) -> int:
    if isinstance(node, str):
        return env.get(node, 0) if node in _NAMES else int(node)
    if node[0] == "not":
        return 1 - _direct_eval(node[1], env)
    left = _direct_eval(node[1], env)
    right = _direct_eval(node[2], env)
    return left & right if node[0] == "and" else left | right


@given(_ast)
def test_parser_matches_direct_evaluation(node):
    table = parse_expression(_render(node), _NAMES)
    for row in range(8):
        env = {"p": (row >> 2) & 1, "q": (row >> 1) & 1, "r": row & 1}
        assert table.outputs[row] == _direct_eval(node, env)


@given(st.one_of(_EXPR_TEXT, _ast.map(_render)))
def test_compiler_reports_the_stack_depth(text):
    try:
        code, _, depth, _ = _compile(text)
    except ExpressionError:
        return
    stack = peak = 0
    for step in code:
        stack += {"var": 1, "const": 1, "not": 0}.get(step[0], -1)
        peak = max(peak, stack)
    assert (stack, depth) == (1, peak)


def test_chains_fold_as_they_go():
    assert _compile("a+b+c+d")[2] == 2
    assert _compile("a&b&c+d")[2] == 2
    assert _compile("a&b+c&d")[2] == 3
    assert _compile("a+(b+(c+d))")[2] == 4


_tables = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.lists(st.integers(0, 1), min_size=1 << n, max_size=1 << n).map(
        lambda bits: TruthTable(tuple(f"v{i}" for i in range(n)), tuple(bits))
    )
)


@given(_tables)
def test_file_round_trip(table):
    assert parse_table_file(serialize_table(table).encode()) == table


@given(_tables)
def test_symbol_counts_cover_all_rows(table):
    n0, n1 = table.symbol_counts()
    assert n0 + n1 == 1 << table.arity


def test_expression_builds_masks_only_for_the_variables_it_uses():
    text = "x3 & !x17 + x3&x0"
    assert parse_expression(text, _NAMES_20) == logic_oracle.parse_expression(text, _NAMES_20)
    # the row text and its 0/1 bytes, 1 MiB each, with the three 128 KiB
    # masks freed before them; one mask per declared variable peaked at
    # 3,199,557 bytes
    peak = _traced_peak(lambda: parse_expression(text, _NAMES_20))
    assert peak < 2.5 * 2**20, f"traced peak {peak} bytes"
