"""Pattern-class reference for the threshold formula in `probvoter.voter`.

This is the paper's cost rule written out literally: each replica pattern
is tallied, both symbols are scored as `Fraction` error rates spread over
their supporters (a symbol nobody shows costs infinity), and the cheaper
symbol wins.  The runtime replaces it with the closed form
t = max(1, ceil(k * N0 / 2^n)); the tests require both to agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from probvoter.voter import MAX_REPLICAS, ErrorProfile, SopMetrics, VoterTable

# The sole float: it marks a symbol no replica shows and only ever sits on
# one side of a comparison with an exact Fraction.
INFINITY = float("inf")


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


def cost_rule_threshold(profile: ErrorProfile, k: int) -> int:
    """The smallest count of 1s the cost rule decides 1 for.

    A pattern's tally depends only on its popcount, so the rule is
    evaluated once per count class.  All-zeros always decides 0 and
    all-ones always decides 1, so the result lies in 1..k.
    """
    if not 1 <= k <= MAX_REPLICAS:
        raise ValueError(f"replica count must be between 1 and {MAX_REPLICAS}, got {k}")
    by_count = [decide(cost(profile, VoteTally(k - ones, ones))) for ones in range(k + 1)]
    t = by_count.index(1)
    assert all(by_count[t:]), "the cost rule is not monotone"
    return t


def popcount_table(k: int, t: int) -> bytes:
    """One byte (0 or 1) per replica pattern: 1 iff popcount >= t."""
    return bytes(int(pattern.bit_count() >= t) for pattern in range(1 << k))


def minterm_sop(voter: VoterTable) -> str:
    """The canonical sum of minterms, built one pattern and one literal at a time."""
    names = [f"y{i}" for i in range(1, voter.k + 1)]
    terms = []
    for pattern in range(1 << voter.k):
        if pattern.bit_count() < voter.threshold:
            continue
        literals = []
        for j, name in enumerate(names):
            bit = (pattern >> (voter.k - 1 - j)) & 1
            literals.append(name if bit else "!" + name)
        terms.append("&".join(literals))
    return " + ".join(terms)


def threshold_sop(voter: VoterTable) -> tuple[str, SopMetrics]:
    """The minimal SOP of a t-of-k threshold, one `"&".join` per t-subset,
    and its size."""
    names = [f"y{i}" for i in range(1, voter.k + 1)]
    t = voter.threshold
    terms = comb(voter.k, t)
    return " + ".join(map("&".join, combinations(names, t))), SopMetrics(terms, t * terms)
