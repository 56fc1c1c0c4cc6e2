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
from typing import Sequence

from .logic import MAX_ARITY, TruthTable

MAX_REPLICAS = 16


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
        if not 1 <= self.k <= MAX_REPLICAS:
            raise ValueError(f"replica count must be between 1 and {MAX_REPLICAS}, got {self.k}")
        if not 1 <= self.threshold <= self.k:
            raise ValueError(f"threshold must be between 1 and {self.k}, got {self.threshold}")

    def as_table(self, names: Sequence[str] | None = None) -> TruthTable:
        """The voter as an ordinary truth table; replica 1 is a row's MSB."""
        return TruthTable(
            _replica_names(self.k, names), _decision_bytes(self.k, self.threshold)
        )


def synthesize_probabilistic(profile: ErrorProfile, k: int) -> VoterTable:
    """Build the cost-based voter for a function's error profile.

    The cost rule decides 1 for a pattern with `ones` 1s iff
    N0 * (k - ones) <= N1 * ones; the all-zeros pattern always decides 0
    (a symbol nobody shows costs infinity).  So t is the smallest
    ones >= 1 with ones * 2^n >= k * N0.
    """
    if not 1 <= k <= MAX_REPLICAS:
        raise ValueError(f"replica count must be between 1 and {MAX_REPLICAS}, got {k}")
    size = 1 << profile.n
    return VoterTable(k, max(1, (k * profile.n0 + size - 1) // size))


def synthesize_majority(k: int, tie_policy: int | None = None) -> VoterTable:
    """Build the conventional bit-wise majority voter.

    Odd k needs no tie handling.  Even k requires an explicit `tie_policy`
    (0 or 1) saying which symbol wins a k/2-k/2 split; for odd k the
    argument is ignored.
    """
    if not 1 <= k <= MAX_REPLICAS:
        raise ValueError(f"replica count must be between 1 and {MAX_REPLICAS}, got {k}")
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


def _replica_names(k: int, names: Sequence[str] | None) -> tuple[str, ...]:
    if names is None:
        return tuple(f"y{i}" for i in range(1, k + 1))
    names = tuple(names)
    if len(names) != k:
        raise ValueError(f"expected {k} replica names, got {len(names)}")
    if len(set(names)) != k:
        raise ValueError("replica names must be distinct")
    return names


def _literal_strings(names: Sequence[str]) -> list[tuple[str, int]]:
    """For each pattern over `names` (first name = MSB): "&lit&lit..." and its popcount."""
    width = len(names)
    return [
        (
            "".join(
                "&" + name if pattern >> (width - 1 - j) & 1 else "&!" + name
                for j, name in enumerate(names)
            ),
            pattern.bit_count(),
        )
        for pattern in range(1 << width)
    ]


def emit_minterm_sop(voter: VoterTable, names: Sequence[str] | None = None) -> str:
    """Canonical sum of minterms, one term per accepted pattern, ascending.

    A term is the literal string of the pattern's high ceil(k/2) bits joined
    to that of its low floor(k/2) bits, each from a table of at most 256
    strings; a high half with h ones takes every low half with >= t-h ones.
    """
    names = _replica_names(voter.k, names)
    split = (voter.k + 1) // 2
    t = voter.threshold
    low = _literal_strings(names[split:])
    low_at_least = [[text for text, ones in low if ones >= count] for count in range(t + 1)]
    terms: list[str] = []
    for high_text, high_ones in _literal_strings(names[:split]):
        terms.extend(map(high_text[1:].__add__, low_at_least[max(t - high_ones, 0)]))
    return " + ".join(terms)


def emit_threshold_sop(
    voter: VoterTable, names: Sequence[str] | None = None
) -> tuple[str, SopMetrics]:
    """Minimal SOP of a t-of-k threshold: one positive term per t-subset.

    Returns the expression and its size (C(k, t) terms of t literals each).
    """
    names = _replica_names(voter.k, names)
    terms = ["&".join(subset) for subset in combinations(names, voter.threshold)]
    return " + ".join(terms), SopMetrics(len(terms), voter.threshold * len(terms))


def render_generic_table(k: int) -> str:
    """Symbolic decision table for k replicas, before an error profile is known.

    Costs are shown as expressions in the symbol error rates E0 and E1; rows
    whose outcome depends on the profile are marked X.  A row's costs and
    outcome depend only on its popcount, so they are built once per count.
    """
    if not 1 <= k <= MAX_REPLICAS:
        raise ValueError(f"replica count must be between 1 and {MAX_REPLICAS}, got {k}")
    header = [*_replica_names(k, None), "C0", "C1", "y"]
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
        tails.append([c0, c1, y])
    # A bit is one character, never wider than its replica's name.
    widths = [len(name) for name in header[:k]]
    widths += [max(len(row[i]) for row in [header[k:], *tails]) for i in range(3)]
    rows = [header]
    for pattern in range(1 << k):
        rows.append([*format(pattern, f"0{k}b"), *tails[pattern.bit_count()]])
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows
    )
