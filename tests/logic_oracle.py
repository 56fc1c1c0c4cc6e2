"""Recursive reference for the expression compiler in `probvoter.logic`.

This is the grammar written as a textbook recursive-descent parser over a
nested-tuple syntax tree, evaluated by recursion.  It overflows the
interpreter stack on long chains or deep nesting, so the runtime compiles
to postfix code instead; the tests require both to agree on every table
and on every error message and position.
"""

from __future__ import annotations

from typing import Sequence

from probvoter.logic import (
    MAX_ARITY,
    ExpressionError,
    TruthTable,
    _tokenize,
    _variable_mask,
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
    return TruthTable(order, tuple((result >> row) & 1 for row in range(size)))
