"""Reference versions of the two loaders in `probvoter.logic`.

The expression grammar is written as a textbook recursive-descent parser
over a nested-tuple syntax tree, evaluated by recursion.  It overflows the
interpreter stack on long chains or deep nesting, so the runtime compiles
to postfix code instead; the tests require both to agree on every table
and on every error message and position.

The table file is read by decoding the whole file and splitting its text
into lines.  That holds the file as text, its lines and the output line
once more as bytes, so the runtime works on the bytes instead; the tests
require both to return equal tables or raise the same error.
"""

from __future__ import annotations

from typing import Sequence

from probvoter.logic import (
    _FROM_ASCII,
    MAX_ARITY,
    ExpressionError,
    TableFormatError,
    TruthTable,
    _tokenize,
)

_OR_OPS = frozenset("+|")
_AND_OPS = frozenset("&*.")
_NOT_OPS = frozenset("!~")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        # first occurrence position of each variable, in appearance order
        self.seen: dict[str, int] = {}

    def _peek_op(self) -> str | None:
        if self.pos < len(self.tokens) and self.tokens[self.pos][0] == "op":
            return self.tokens[self.pos][1]
        return None

    def parse(self):
        node = self._expr()
        if self.pos < len(self.tokens):
            kind, value, at = self.tokens[self.pos]
            raise ExpressionError(f"unexpected {value!r}", at)
        return node

    def _expr(self):
        node = self._term()
        while self._peek_op() in _OR_OPS:
            self.pos += 1
            node = ("or", node, self._term())
        return node

    def _term(self):
        node = self._factor()
        while self._peek_op() in _AND_OPS:
            self.pos += 1
            node = ("and", node, self._factor())
        return node

    def _factor(self):
        if self._peek_op() in _NOT_OPS:
            self.pos += 1
            return ("not", self._factor())
        return self._atom()

    def _atom(self):
        if self.pos >= len(self.tokens):
            raise ExpressionError("unexpected end of expression", len(self.text))
        kind, value, at = self.tokens[self.pos]
        self.pos += 1
        if kind == "name":
            self.seen.setdefault(value, at)
            return ("var", value)
        if kind == "const":
            return ("const", int(value))
        if value == "(":
            node = self._expr()
            if self._peek_op() != ")":
                raise ExpressionError("expected ')'", self._here())
            self.pos += 1
            return node
        raise ExpressionError(f"unexpected {value!r}", at)

    def _here(self) -> int:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][2]
        return len(self.text)


def _variable_mask(position: int, n: int) -> int:
    """Bitmask over all 2^n rows where variable `position` (0 = MSB) is 1."""
    half = 1 << (n - 1 - position)
    mask = ((1 << half) - 1) << half
    period = half << 1
    size = 1 << n
    while period < size:
        mask |= mask << period
        period <<= 1
    return mask


def _eval_mask(node, masks: dict[str, int], full: int) -> int:
    op = node[0]
    if op == "var":
        return masks[node[1]]
    if op == "const":
        return full if node[1] else 0
    if op == "not":
        return _eval_mask(node[1], masks, full) ^ full
    left = _eval_mask(node[1], masks, full)
    right = _eval_mask(node[2], masks, full)
    return left & right if op == "and" else left | right


def parse_expression(text: str, variables: Sequence[str] | None = None) -> TruthTable:
    """`probvoter.logic.parse_expression`, by recursive descent."""
    parser = _Parser(text)
    ast = parser.parse()
    if variables is None:
        order = tuple(parser.seen)
        if not order:
            raise ExpressionError("expression uses no variables and none were declared", 0)
    else:
        order = tuple(variables)
        for name, at in parser.seen.items():
            if name not in order:
                raise ExpressionError(f"unknown variable {name!r}", at)
    n = len(order)
    if not 1 <= n <= MAX_ARITY:
        raise ExpressionError(f"need between 1 and {MAX_ARITY} variables, got {n}", 0)
    size = 1 << n
    masks = {name: _variable_mask(j, n) for j, name in enumerate(order)}
    result = _eval_mask(ast, masks, (1 << size) - 1)
    # these masks keep row i at bit i, so the binary text lists the last row first
    bits = format(result, f"0{size}b")[::-1]
    return TruthTable(order, bits.encode("ascii").translate(_FROM_ASCII))


def parse_table_file(data: bytes) -> TruthTable:
    """`probvoter.logic.parse_table_file`, over the decoded text."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TableFormatError(f"table file is not valid UTF-8: {exc}") from exc
    lines = [line.rstrip("\r") for line in text.split("\n")]
    body = [line for line in lines if not line.startswith("#")]
    while body and not body[-1].strip():
        body.pop()
    if len(body) < 2:
        raise TableFormatError("expected a variable-name line and an output line")
    if len(body) > 2:
        raise TableFormatError(f"unexpected extra line: {body[2]!r}")
    names = body[0].split()
    if not names:
        raise TableFormatError("variable-name line is empty")
    if len(names) > MAX_ARITY:
        raise TableFormatError(f"too many variables: {len(names)} > {MAX_ARITY}")
    row = body[1].strip()
    expected = 1 << len(names)
    if len(row) != expected:
        raise TableFormatError(
            f"expected {expected} output bits for {len(names)} variables, got {len(row)}"
        )
    outputs = row.encode("utf-8").translate(_FROM_ASCII)
    if 2 in outputs:
        bad = min(set(row) - {"0", "1"})
        raise TableFormatError(f"output line may only contain 0 and 1, got {bad!r}")
    try:
        return TruthTable(tuple(names), outputs)
    except ValueError as exc:
        raise TableFormatError(str(exc)) from exc
