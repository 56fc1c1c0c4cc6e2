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

and a `VoterTable` is just the pair (k, t); its 2^k decisions are derived
on demand.  All arithmetic is over integers: no float enters a decision.
The cost rule written out pattern class by pattern class lives in the
tests as the oracle this formula is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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


def threshold_of(decisions: Sequence[int]) -> int:
    """Extract the popcount threshold of a 2^k-entry decision table.

    Verifies that the table is symmetric (equal-popcount patterns agree)
    and monotone (0s below some count t, 1s at and above it), which guards
    hand-built tables before they are wrapped in a `VoterTable`.
    """
    size = len(decisions)
    k = size.bit_length() - 1
    if size < 2 or size != 1 << k:
        raise ValueError(f"decision table length {size} is not a power of two >= 2")
    if k > MAX_REPLICAS:
        raise ValueError(f"too many replicas: {k} > {MAX_REPLICAS}")
    by_count: list[int | None] = [None] * (k + 1)
    for pattern in range(size):
        value = decisions[pattern]
        if value not in (0, 1):
            raise ValueError(f"decision for pattern {pattern} must be 0 or 1")
        count = pattern.bit_count()
        if by_count[count] is None:
            by_count[count] = value
        elif by_count[count] != value:
            raise ValueError(
                f"not symmetric: patterns with {count} ones decide both 0 and 1"
            )
    if by_count[0] != 0 or by_count[k] != 1:
        raise ValueError("table must decide 0 on all-zeros and 1 on all-ones")
    t = by_count.index(1)
    if any(v != 1 for v in by_count[t:]):
        raise ValueError("not monotone in the number of ones")
    return t


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
    """A k-input threshold voter: output 1 iff at least `threshold` replicas show 1.

    `decisions[p]` is the output for replica pattern p, where replica 1 is
    the most significant bit of p; it is derived from (k, threshold) on
    first use.
    """

    k: int
    threshold: int

    def __post_init__(self):
        if not 1 <= self.k <= MAX_REPLICAS:
            raise ValueError(f"replica count must be between 1 and {MAX_REPLICAS}, got {self.k}")
        if not 1 <= self.threshold <= self.k:
            raise ValueError(f"threshold must be between 1 and {self.k}, got {self.threshold}")

    @cached_property
    def decisions(self) -> tuple[int, ...]:
        return tuple(_decision_bytes(self.k, self.threshold))

    @classmethod
    def from_decisions(cls, decisions: Sequence[int]) -> "VoterTable":
        """The voter of a hand-built 2^k-entry table, checked by `threshold_of`."""
        bits = tuple(int(b) for b in decisions)
        return cls(len(bits).bit_length() - 1, threshold_of(bits))

    def apply(self, replica_bits: Sequence[int]) -> int:
        """Vote on one replica pattern (replica 1 first)."""
        if len(replica_bits) != self.k:
            raise ValueError(f"expected {self.k} replica bits, got {len(replica_bits)}")
        if any(b not in (0, 1) for b in replica_bits):
            raise ValueError("replica bits must be 0 or 1")
        return 1 if sum(replica_bits) >= self.threshold else 0

    def as_table(self, names: Sequence[str] | None = None) -> TruthTable:
        """The voter as an ordinary truth table over replica inputs."""
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
    whose outcome depends on the profile are marked X.
    """
    if not 1 <= k <= MAX_REPLICAS:
        raise ValueError(f"replica count must be between 1 and {MAX_REPLICAS}, got {k}")
    header = [f"y{i}" for i in range(1, k + 1)] + ["C0", "C1", "y"]
    rows = [header]
    for pattern in range(1 << k):
        ones = pattern.bit_count()
        zeros = k - ones
        c0 = "inf" if zeros == 0 else ("E0" if zeros == 1 else f"E0/{zeros}")
        c1 = "inf" if ones == 0 else ("E1" if ones == 1 else f"E1/{ones}")
        if ones == 0:
            y = "0"
        elif zeros == 0:
            y = "1"
        else:
            y = "X"
        bits = [str((pattern >> (k - 1 - j)) & 1) for j in range(k)]
        rows.append(bits + [c0, c1, y])
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows
    )
