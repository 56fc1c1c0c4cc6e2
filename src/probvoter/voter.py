"""Voter synthesis for k-modular redundancy.

Given k replicas of a module computing some boolean function, a voter maps
each k-bit replica pattern to a single output.  The conventional choice is
bit-wise majority.  The probabilistic voter instead weighs each pattern by
the function's own output statistics: a symbol that the function emits
rarely is more likely to be the product of an upset, so disagreeing
replicas are scored by

    cost(symbol) = P[emitted symbol is wrong] / #replicas showing it

and the cheaper symbol wins (ties go to 1).  For every error profile the
resulting decision table turns out to be a popcount-threshold function,
which keeps the hardware description compact.

All synthesis arithmetic is exact: probabilities are `Fraction`s and the
cost comparison reduces to an integer cross-multiplication.  Floats never
enter the decision path (the sole float is the `INFINITY` sentinel for
impossible tallies, which only ever sits on one side of a comparison).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .logic import MAX_ARITY, TruthTable

MAX_REPLICAS = 16

INFINITY = float("inf")


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


@dataclass(frozen=True)
class VoteTally:
    """How many replicas in a pattern show 0 and how many show 1."""

    v0: int
    v1: int

    def __post_init__(self):
        if self.v0 < 0 or self.v1 < 0:
            raise ValueError("tally counts must be non-negative")
        if self.v0 + self.v1 < 1:
            raise ValueError("tally must cover at least one replica")

    @property
    def k(self) -> int:
        return self.v0 + self.v1


@dataclass(frozen=True)
class CostPair:
    """Per-symbol costs for one replica pattern; INFINITY marks an absent symbol."""

    c0: Fraction | float
    c1: Fraction | float

    def __post_init__(self):
        if self.c0 == INFINITY and self.c1 == INFINITY:
            raise ValueError("at least one symbol must be present in the pattern")
        if self.c0 < 0 or self.c1 < 0:
            raise ValueError("costs must be non-negative")


def cost(profile: ErrorProfile, tally: VoteTally) -> CostPair:
    """Score both output symbols for a pattern with the given tally."""
    c0 = INFINITY if tally.v0 == 0 else profile.e0 / tally.v0
    c1 = INFINITY if tally.v1 == 0 else profile.e1 / tally.v1
    return CostPair(c0, c1)


def decide(costs: CostPair) -> int:
    """Pick the cheaper symbol; a tie goes to 1."""
    return 1 if costs.c1 <= costs.c0 else 0


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


@dataclass(frozen=True)
class VoterTable:
    """A k-input voter, stored both as an explicit table and as its threshold.

    `decisions[p]` is the output for replica pattern p, where replica 1 is
    the most significant bit of p.  The invariant `decisions[p] = 1 iff
    popcount(p) >= threshold` is checked at construction.
    """

    k: int
    threshold: int
    decisions: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "decisions", tuple(int(b) for b in self.decisions))
        if not 1 <= self.k <= MAX_REPLICAS:
            raise ValueError(f"replica count must be between 1 and {MAX_REPLICAS}, got {self.k}")
        if not 1 <= self.threshold <= self.k:
            raise ValueError(f"threshold must be between 1 and {self.k}, got {self.threshold}")
        if len(self.decisions) != 1 << self.k:
            raise ValueError(
                f"expected {1 << self.k} decisions for k={self.k}, got {len(self.decisions)}"
            )
        for pattern, value in enumerate(self.decisions):
            if value != (1 if pattern.bit_count() >= self.threshold else 0):
                raise ValueError(
                    f"decision for pattern {pattern:0{self.k}b} does not match threshold"
                )

    @classmethod
    def from_threshold(cls, k: int, threshold: int) -> "VoterTable":
        decisions = tuple(
            1 if pattern.bit_count() >= threshold else 0 for pattern in range(1 << k)
        )
        return cls(k, threshold, decisions)

    @classmethod
    def from_decisions(cls, decisions: Sequence[int]) -> "VoterTable":
        bits = tuple(int(b) for b in decisions)
        t = threshold_of(bits)
        return cls(len(bits).bit_length() - 1, t, bits)

    def apply(self, replica_bits: Sequence[int]) -> int:
        """Vote on one replica pattern (replica 1 first)."""
        if len(replica_bits) != self.k:
            raise ValueError(f"expected {self.k} replica bits, got {len(replica_bits)}")
        index = 0
        for b in replica_bits:
            if b not in (0, 1):
                raise ValueError("replica bits must be 0 or 1")
            index = (index << 1) | b
        return self.decisions[index]

    def as_table(self, names: Sequence[str] | None = None) -> TruthTable:
        """The voter as an ordinary truth table over replica inputs."""
        return TruthTable(_replica_names(self.k, names), self.decisions)


def synthesize_probabilistic(profile: ErrorProfile, k: int) -> VoterTable:
    """Build the cost-based voter for a function's error profile.

    Since the tally of a pattern depends only on its popcount, the decision
    rule is evaluated once per count class.  The all-zeros pattern always
    decides 0 and all-ones always decides 1 (the missing symbol has
    infinite cost), so a threshold always exists.
    """
    if not 1 <= k <= MAX_REPLICAS:
        raise ValueError(f"replica count must be between 1 and {MAX_REPLICAS}, got {k}")
    by_count = [decide(cost(profile, VoteTally(k - ones, ones))) for ones in range(k + 1)]
    decisions = tuple(by_count[pattern.bit_count()] for pattern in range(1 << k))
    return VoterTable(k, by_count.index(1), decisions)


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
    return VoterTable.from_threshold(k, t)


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


def emit_minterm_sop(voter: VoterTable, names: Sequence[str] | None = None) -> str:
    """Canonical sum of minterms, one term per accepted pattern, ascending."""
    names = _replica_names(voter.k, names)
    terms = []
    for pattern in range(1 << voter.k):
        if not voter.decisions[pattern]:
            continue
        literals = []
        for j, name in enumerate(names):
            bit = (pattern >> (voter.k - 1 - j)) & 1
            literals.append(name if bit else "!" + name)
        terms.append("&".join(literals))
    return " + ".join(terms)


def emit_threshold_sop(
    voter: VoterTable, names: Sequence[str] | None = None
) -> tuple[str, SopMetrics]:
    """Minimal SOP of a t-of-k threshold: one positive term per t-subset.

    Returns the expression and its size (C(k, t) terms of t literals each).
    """
    names = _replica_names(voter.k, names)
    terms = [
        "&".join(names[j] for j in subset)
        for subset in combinations(range(voter.k), voter.threshold)
    ]
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
