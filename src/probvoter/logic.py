"""Boolean functions stored as explicit truth tables.

A function of n inputs is a vector of 2^n output bits, stored as `bytes`
with one byte (0 or 1) per row.  Row index i encodes the input assignment
whose *first-listed* variable is the most significant bit of i, so for
variables (a, b, c) row 6 = 0b110 means a=1, b=1, c=0.

Functions can be built from a small expression language or loaded from a
two-line text format (variable names, then the output bit string).  Both
directions between that ASCII line and the stored bytes are one
`bytes.translate`.  The load's table maps any other byte to 2, so the same
pass rejects a line that holds anything but '0' and '1'.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

MAX_ARITY = 20

# `_eval_mask` holds one 2^n-bit mask per pending value; an expression whose
# deepest stack times 2^n exceeds this many bits (8 MiB of masks, 64 values
# at n = 20) is rejected before any mask is built.
MAX_STACK_BITS = 1 << 26

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<const>[01])"
    r"|(?P<op>[+|&*.!~()])"
)

# ASCII '0'/'1' to the stored row bytes 0/1, and back.  Loading maps every
# other byte to 2, so one translate both converts and checks a line.
_FROM_ASCII = bytes({ord("0"): 0, ord("1"): 1}.get(byte, 2) for byte in range(256))
_TO_ASCII = bytes.maketrans(b"\x00\x01", b"01")


class ExpressionError(ValueError):
    """Malformed boolean expression; ``position`` is the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class TableFormatError(ValueError):
    """Malformed truth-table file."""


@dataclass(frozen=True)
class TruthTable:
    """Explicit truth table: variable names plus all 2^n output bits.

    `outputs` holds one byte per row, 0 or 1, so `outputs[i]` is row i's
    output as an int.  Any other sequence of 0/1 ints is converted; a float
    or a string in it raises TypeError.  The constructor checks every byte.
    """

    variables: tuple[str, ...]
    outputs: bytes

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        if not isinstance(self.outputs, bytes):
            # iter() keeps a bare int from becoming that many zero bytes
            object.__setattr__(self, "outputs", bytes(iter(self.outputs)))
        self._check_shape()
        if self.outputs.translate(None, b"\x00\x01"):
            raise ValueError("output bits must be 0 or 1")

    @classmethod
    def _from_bits(cls, variables: Sequence[str], outputs: bytes) -> TruthTable:
        """A table over `outputs`, whose bytes are 0 or 1 by construction.

        Checks the names and the length as the constructor does, but not
        each byte again; only producers that wrote `outputs` themselves from
        0/1 values may call it.
        """
        table = object.__new__(cls)
        object.__setattr__(table, "variables", tuple(variables))
        object.__setattr__(table, "outputs", outputs)
        table._check_shape()
        return table

    def _check_shape(self) -> None:
        """The name and length checks that every table passes."""
        n = len(self.variables)
        if not 1 <= n <= MAX_ARITY:
            raise ValueError(f"need between 1 and {MAX_ARITY} variables, got {n}")
        seen = set()
        for name in self.variables:
            if not _NAME_RE.match(name):
                raise ValueError(f"invalid variable name {name!r}")
            if name in seen:
                raise ValueError(f"duplicate variable name {name!r}")
            seen.add(name)
        if len(self.outputs) != 1 << n:
            raise ValueError(
                f"expected {1 << n} output bits for {n} variables, got {len(self.outputs)}"
            )

    @property
    def arity(self) -> int:
        return len(self.variables)

    def index_of(self, bits: Sequence[int]) -> int:
        """Row index of an input assignment (first variable = MSB)."""
        if len(bits) != self.arity:
            raise ValueError(f"expected {self.arity} input bits, got {len(bits)}")
        index = 0
        for b in bits:
            if b not in (0, 1):
                raise ValueError("input bits must be 0 or 1")
            index = (index << 1) | b
        return index

    def evaluate(self, bits: Sequence[int]) -> int:
        return self.outputs[self.index_of(bits)]

    def symbol_counts(self) -> tuple[int, int]:
        """(number of 0 rows, number of 1 rows)."""
        ones = self.outputs.count(1)
        return len(self.outputs) - ones, ones


# --- expression parsing ----------------------------------------------------
#
#   expr   := term  (("+" | "|") term)*
#   term   := factor (("&" | "*" | ".") factor)*
#   factor := ("!" | "~") factor | atom
#   atom   := name | "0" | "1" | "(" expr ")"
#
# The parser compiles to postfix code by precedence folding ("or" binds
# with strength 1, "and" with 2) and `_eval_mask` runs it on a value stack;
# neither recurses, so chain length and nesting depth cost memory, not
# interpreter stack, and `parse_expression` bounds that memory.

_BINDS = {"+": 1, "|": 1, "&": 2, "*": 2, ".": 2}
_NOT_OPS = frozenset("!~")

_NOT = ("not",)
_FOLDS = {1: ("or",), 2: ("and",)}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExpressionError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return tokens


def _compile(text: str) -> tuple[list[tuple], dict[str, int], int, int]:
    """Postfix code for `text`, each variable's first position in order, the
    value stack's maximum depth and the position of the operand that first
    reaches it.

    Operators of equal strength fold left to right as soon as the next one
    arrives, so an n-ary chain holds at most two values per open
    parenthesis.  A run of negations compiles to its parity.
    """
    tokens = _tokenize(text)
    end = len(tokens)
    code: list[tuple] = []
    seen: dict[str, int] = {}
    pending: list[int] = []  # strengths of operators waiting for their fold
    groups: list[tuple[bool, list[int]]] = []  # (negated, enclosing pending)
    depth = max_depth = deepest_at = 0
    i = 0
    while True:
        negate = False
        while i < end and tokens[i][1] in _NOT_OPS:
            negate = not negate
            i += 1
        if i == end:
            raise ExpressionError("unexpected end of expression", len(text))
        kind, value, at = tokens[i]
        i += 1
        if kind == "name":
            seen.setdefault(value, at)
            code.append(("var", value))
        elif kind == "const":
            code.append(("const", int(value)))
        elif value == "(":
            groups.append((negate, pending))
            pending = []
            continue
        else:
            raise ExpressionError(f"unexpected {value!r}", at)
        depth += 1
        if depth > max_depth:
            max_depth, deepest_at = depth, at
        if negate:
            code.append(_NOT)
        # An operand is complete: fold what binds at least as tightly as the
        # next token and close every group that ends here, up to a binary operator.
        while True:
            value = tokens[i][1] if i < end else None
            binds = _BINDS.get(value, 0)
            while pending and pending[-1] >= binds:
                code.append(_FOLDS[pending.pop()])
                depth -= 1
            if binds:
                pending.append(binds)
                break
            if not groups:
                if i < end:
                    raise ExpressionError(f"unexpected {value!r}", tokens[i][2])
                return code, seen, max_depth, deepest_at
            if value != ")":
                raise ExpressionError("expected ')'", tokens[i][2] if i < end else len(text))
            i += 1
            negated, pending = groups.pop()
            if negated:
                code.append(_NOT)
        i += 1


def _eval_mask(code: list[tuple], masks: dict[str, int], full: int) -> int:
    """Run postfix code over masks of one bit order; the result has the same."""
    stack: list[int] = []
    for step in code:
        op = step[0]
        if op == "var":
            stack.append(masks[step[1]])
        elif op == "const":
            stack.append(full if step[1] else 0)
        elif op == "not":
            stack[-1] ^= full
        else:
            right = stack.pop()
            if op == "and":
                stack[-1] &= right
            else:
                stack[-1] |= right
    return stack[0]


def parse_expression(text: str, variables: Sequence[str] | None = None) -> TruthTable:
    """Build the truth table of a boolean expression.

    With no explicit `variables`, the order of first appearance in the text
    defines the variable order (and hence the row indexing).
    """
    code, seen, depth, deepest_at = _compile(text)
    if variables is None:
        order = tuple(seen)
        if not order:
            raise ExpressionError("expression uses no variables and none were declared", 0)
    else:
        order = tuple(variables)
        for name, at in seen.items():
            if name not in order:
                raise ExpressionError(f"unknown variable {name!r}", at)
    n = len(order)
    if not 1 <= n <= MAX_ARITY:
        raise ExpressionError(f"need between 1 and {MAX_ARITY} variables, got {n}", 0)
    size = 1 << n
    if depth * size > MAX_STACK_BITS:
        raise ExpressionError(
            f"expression nests too deeply for {n} variables: {depth} pending values"
            f" of {size} rows exceed the {MAX_STACK_BITS}-bit limit",
            deepest_at,
        )
    full = (1 << size) - 1
    # Row 0 is the most significant bit, so variable 0 is 1 in the low half
    # of the bits.  Each variable splits every run of the one before it in
    # two and is 1 in the lower half of each: XOR with the mask shifted up by
    # half a run clears the upper half of each 1-run and sets the lower half
    # of each 0-run.  Only the variables the expression uses keep a mask.
    masks = {}
    mask = full
    for j, name in enumerate(order):
        mask ^= mask << (size >> j + 1) & full
        if name in seen:
            masks[name] = mask
    result = _eval_mask(code, masks, full)
    del masks, mask  # no mask outlives the row text built next
    # row order: the binary text lists row 0 first
    bits = format(result, f"0{size}b").encode("ascii")
    return TruthTable._from_bits(order, bits.translate(_FROM_ASCII))


# --- table file format ------------------------------------------------------
#
# Optional leading '#' comment lines, then a line of whitespace-separated
# variable names, then a line of 2^n characters from {0, 1}.  Whitespace is
# what str.split() and str.strip() take it to be, Unicode included.
#
# The file is read as bytes and split into lines in C, which copies the
# output line once; only the names line, an extra line, and the ends of the
# output line are decoded.

# The ASCII characters that str.isspace() accepts; bytes.strip() alone
# keeps \x1c-\x1f.
_ASCII_SPACE = bytes(byte for byte in range(128) if chr(byte).isspace())


def _strip(line: bytes) -> bytes:
    """`line` less what str.strip() removes from its UTF-8 text."""
    line = line.strip(_ASCII_SPACE)
    # a multibyte character left at either end may be Unicode whitespace
    if line and (line[0] > 0x7F or line[-1] > 0x7F):
        line = line.decode("utf-8").strip().encode("utf-8")
    return line


def parse_table_file(data: bytes) -> TruthTable:
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TableFormatError(f"table file is not valid UTF-8: {exc}") from exc
    # Every line that does not start with '#'.  A line keeps its trailing
    # '\r's: strip() and split() drop them anyway, so only the extra-line
    # message removes them.
    body = [line for line in data.split(b"\n") if not line.startswith(b"#")]
    while body and not _strip(body[-1]):
        body.pop()
    if len(body) < 2:
        raise TableFormatError("expected a variable-name line and an output line")
    if len(body) > 2:
        extra = body[2].rstrip(b"\r").decode("utf-8")
        raise TableFormatError(f"unexpected extra line: {extra!r}")
    names = body[0].decode("utf-8").split()
    if not names:
        raise TableFormatError("variable-name line is empty")
    if len(names) > MAX_ARITY:
        raise TableFormatError(f"too many variables: {len(names)} > {MAX_ARITY}")
    row = _strip(body[1])
    outputs = row.translate(_FROM_ASCII)
    invalid = 2 in outputs
    if invalid:
        # lengths and the bad character are counted in characters
        row = row.decode("utf-8")
    expected = 1 << len(names)
    if len(row) != expected:
        raise TableFormatError(
            f"expected {expected} output bits for {len(names)} variables, got {len(row)}"
        )
    if invalid:
        bad = min(set(row) - {"0", "1"})
        raise TableFormatError(f"output line may only contain 0 and 1, got {bad!r}")
    try:
        return TruthTable._from_bits(names, outputs)
    except ValueError as exc:
        raise TableFormatError(str(exc)) from exc


def output_line(table: TruthTable) -> str:
    """The outputs as a string of 2^n '0'/'1' characters, row 0 first."""
    return table.outputs.translate(_TO_ASCII).decode("ascii")


def serialize_table(table: TruthTable) -> str:
    """Two-line text form; `parse_table_file` of the result round-trips."""
    return " ".join(table.variables) + "\n" + output_line(table) + "\n"
