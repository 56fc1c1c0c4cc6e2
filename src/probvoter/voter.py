"""Voter synthesis for k-modular redundancy.

Given k replicas of a module computing some boolean function, a voter maps
each k-bit replica pattern to a single output.  The conventional choice is
bit-wise majority.  The probabilistic voter instead weighs each pattern by
the function's own output statistics: a symbol that the function emits
rarely is more likely to be the product of an upset, so disagreeing
replicas are scored by

    cost(symbol) = P[emitted symbol is wrong] / #replicas showing it

and the cheaper symbol wins (ties go to 1).  With N0 zero-rows and N1
one-rows out of 2^n, a pattern with `ones` 1s decides 1 iff
N0 * (k - ones) <= N1 * ones, i.e. iff ones >= k * N0 / 2^n, so every
voter is a popcount threshold

    t = max(1, ceil(k * N0 / 2^n))

and a `VoterTable` is just the pair (k, t): pattern p decides 1 iff
popcount(p) >= t.  `as_table` is the one place its 2^k decisions are
written out, for `synth` to print.  All arithmetic is over integers: no
float enters a decision.
The cost rule written out pattern class by pattern class lives in the
tests as the oracle this formula is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Iterator, Sequence

from .logic import MAX_ARITY, TruthTable

MAX_REPLICAS = 16


def _check_int(name: str, value: int) -> None:
    """Raise TypeError unless `value` is a plain int (a bool is not)."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")


def check_replica_count(k: int) -> None:
    """Raise TypeError unless k is a plain int, and ValueError unless
    1 <= k <= MAX_REPLICAS."""
    _check_int("replica count", k)
    if not 1 <= k <= MAX_REPLICAS:
        raise ValueError(f"replica count must be between 1 and {MAX_REPLICAS}, got {k}")


@dataclass(frozen=True)
class ErrorProfile:
    """Output-symbol statistics of an n-input function.

    `n0` and `n1` count the 0-rows and 1-rows of the truth table.  Under
    uniformly random inputs the probability that an emitted 0 is actually
    an upset 1 is e0 = n1 / 2^n, and symmetrically for e1.
    """

    n: int
    n0: int
    n1: int

    def __post_init__(self):
        if not 1 <= self.n <= MAX_ARITY:
            raise ValueError(f"arity must be between 1 and {MAX_ARITY}, got {self.n}")
        if self.n0 < 0 or self.n1 < 0:
            raise ValueError("symbol counts must be non-negative")
        if self.n0 + self.n1 != 1 << self.n:
            raise ValueError(
                f"symbol counts {self.n0}+{self.n1} do not cover all {1 << self.n} rows"
            )

    @property
    def e0(self) -> Fraction:
        """Probability that an emitted 0 is wrong."""
        return Fraction(self.n1, 1 << self.n)

    @property
    def e1(self) -> Fraction:
        """Probability that an emitted 1 is wrong."""
        return Fraction(self.n0, 1 << self.n)


def error_profile(table: TruthTable) -> ErrorProfile:
    n0, n1 = table.symbol_counts()
    return ErrorProfile(table.arity, n0, n1)


def _decision_bytes(k: int, threshold: int) -> bytes:
    """One byte (0 or 1) per replica pattern: 1 iff popcount >= threshold.

    Built by doubling: the patterns of j replicas are those of j-1 with a
    leading 0 (same count) followed by those with a leading 1 (one more).
    """
    rows = [b"\x01" if ones >= threshold else b"\x00" for ones in range(k + 1)]
    for _ in range(k):
        rows = [rows[ones] + rows[ones + 1] for ones in range(len(rows) - 1)]
    return rows[0]


@dataclass(frozen=True)
class VoterTable:
    """A k-input threshold voter: output 1 iff at least `threshold` replicas show 1."""

    k: int
    threshold: int

    def __post_init__(self):
        check_replica_count(self.k)
        _check_int("threshold", self.threshold)
        if not 1 <= self.threshold <= self.k:
            raise ValueError(f"threshold must be between 1 and {self.k}, got {self.threshold}")

    def as_table(self) -> TruthTable:
        """The voter as an ordinary truth table over y1..yk; y1 is a row's MSB."""
        return TruthTable._from_bits(_replica_names(self.k), _decision_bytes(self.k, self.threshold))


def synthesize_probabilistic(profile: ErrorProfile, k: int) -> VoterTable:
    """Build the cost-based voter for a function's error profile.

    The cost rule decides 1 for a pattern with `ones` 1s iff
    N0 * (k - ones) <= N1 * ones; the all-zeros pattern always decides 0
    (a symbol nobody shows costs infinity).  So t is the smallest
    ones >= 1 with ones * 2^n >= k * N0.
    """
    # k is checked before it enters the arithmetic: a str k would repeat.
    check_replica_count(k)
    size = 1 << profile.n
    return VoterTable(k, max(1, (k * profile.n0 + size - 1) // size))


def synthesize_majority(k: int, tie_policy: int | None = None) -> VoterTable:
    """Build the conventional bit-wise majority voter.

    Odd k needs no tie handling.  Even k requires an explicit `tie_policy`
    (0 or 1) saying which symbol wins a k/2-k/2 split; for odd k the
    argument is ignored.
    """
    check_replica_count(k)
    if k % 2 == 1:
        t = (k + 1) // 2
    else:
        if tie_policy not in (0, 1):
            raise ValueError("even replica counts need tie_policy 0 or 1")
        t = k // 2 + (1 if tie_policy == 0 else 0)
    return VoterTable(k, t)


# --- sum-of-products emission ------------------------------------------------


@dataclass(frozen=True)
class SopMetrics:
    terms: int
    literals: int


def _replica_names(k: int) -> tuple[str, ...]:
    """The replica names y1..yk; every voter's SOP and table is over these."""
    return tuple(f"y{i}" for i in range(1, k + 1))


def _pattern_texts(bits: Sequence[tuple[str, str]]) -> list[str]:
    """The text of each pattern over len(bits) positions, ascending.

    Position j (the first is the MSB) writes bits[j][0] for a 0 and bits[j][1]
    for a 1, so the text at index p has p.bit_count() ones.  Built by
    doubling: appending a position after pattern p gives 2p (its 0 text) then
    2p + 1 (its 1 text).
    """
    texts = [""]
    for pair in bits:
        texts = [text + bit for text in texts for bit in pair]
    return texts


def minterm_sop_blocks(voter: VoterTable) -> Iterator[str]:
    """The canonical sum of minterms in blocks, to be joined by " + ".

    A term is the literal string of the pattern's high ceil(k/2) bits joined
    to that of its low floor(k/2) bits, each from a table of at most 256
    strings; a high half with h ones takes every low half with >= t-h ones.
    Each high half's terms are one block, `head + (" + " + head).join(lows)`;
    a high half that takes no low half yields no block at all.  The
    all-ones pattern is always accepted, so there is at least one block.
    """
    split = (voter.k + 1) // 2
    t = voter.threshold
    literals = [("&!" + name, "&" + name) for name in _replica_names(voter.k)]
    low = [(text, p.bit_count()) for p, text in enumerate(_pattern_texts(literals[split:]))]
    low_at_least = [[text for text, ones in low if ones >= count] for count in range(t + 1)]
    for high, high_text in enumerate(_pattern_texts(literals[:split])):
        lows = low_at_least[max(t - high.bit_count(), 0)]
        if lows:
            head = high_text[1:]
            yield head + (" + " + head).join(lows)


def emit_minterm_sop(voter: VoterTable) -> str:
    """Canonical sum of minterms, one term per accepted pattern, ascending."""
    return " + ".join(minterm_sop_blocks(voter))


def _threshold_sop_blocks(voter: VoterTable) -> Iterator[str]:
    """The t-subset terms in `combinations` order, in blocks joined by " + ".

    Among subsets of one size, `combinations` order is descending pattern
    order (y1 is the MSB), so a subset's high ceil(k/2) names are walked in
    descending pattern order and each high subset with h names is joined to
    every (t - h)-subset of the low names, in `combinations` order.  The low
    subsets of each size are joined once, on first use.
    """
    split = (voter.k + 1) // 2
    t = voter.threshold
    names = _replica_names(voter.k)
    low_names = names[split:]
    lows_by_size = {}
    heads = _pattern_texts([("", "&" + name) for name in names[:split]])
    for high in range(len(heads) - 1, -1, -1):
        size = t - high.bit_count()
        if not 0 <= size <= len(low_names):
            continue
        head = heads[high][1:]
        if size == 0:
            yield head
            continue
        lows = lows_by_size.get(size)
        if lows is None:
            lows = lows_by_size[size] = list(map("&".join, combinations(low_names, size)))
        # an empty head takes all t names from the low half, with no "&" before them
        yield head + "&" + (" + " + head + "&").join(lows) if head else " + ".join(lows)


def emit_threshold_sop(voter: VoterTable) -> tuple[str, SopMetrics]:
    """Minimal SOP of a t-of-k threshold: one positive term per t-subset.

    Returns the expression and its size (C(k, t) terms of t literals each).
    """
    t = voter.threshold
    terms = comb(voter.k, t)
    return " + ".join(_threshold_sop_blocks(voter)), SopMetrics(terms, t * terms)


def render_generic_table(k: int) -> str:
    """Symbolic decision table for k replicas, before an error profile is known.

    Costs are shown as expressions in the symbol error rates E0 and E1; rows
    whose outcome depends on the profile are marked X.  A row's costs and
    outcome depend only on its popcount, so they are built once per count.
    A row is its padded high-half bits, its padded low-half bits and its
    popcount's tail, each from a table built once.
    """
    check_replica_count(k)
    names = _replica_names(k)
    tails = []
    for ones in range(k + 1):
        zeros = k - ones
        c0 = "inf" if zeros == 0 else ("E0" if zeros == 1 else f"E0/{zeros}")
        c1 = "inf" if ones == 0 else ("E1" if ones == 1 else f"E1/{ones}")
        if ones == 0:
            y = "0"
        elif zeros == 0:
            y = "1"
        else:
            y = "X"
        tails.append((c0, c1, y))
    header = ("C0", "C1", "y")
    widths = [max(len(row[i]) for row in [header, *tails]) for i in range(3)]

    def cells(row: Sequence[str]) -> str:
        # y, the last cell, is never blank, so this strips only its padding
        return "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()

    tail_texts = [cells(tail) for tail in tails]
    split = (k + 1) // 2
    # A bit is one character, never wider than its replica's name.
    bits = [("0".ljust(len(name)) + "  ", "1".ljust(len(name)) + "  ") for name in names]
    low = [(text, p.bit_count()) for p, text in enumerate(_pattern_texts(bits[split:]))]
    lines = ["".join(name + "  " for name in names) + cells(header)]
    for high, high_text in enumerate(_pattern_texts(bits[:split])):
        high_ones = high.bit_count()
        lines.extend(high_text + text + tail_texts[high_ones + ones] for text, ones in low)
    return "\n".join(lines)
