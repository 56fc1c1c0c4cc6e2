"""References for the integer closed form in `probvoter.analytic`.

`fraction_availability` is the closed form summed term by term over
`Fraction`s.  `enumerated_availability` does not use the closed form at
all: it applies the voter to every one of the 2^k flip patterns, once per
distinct (k, t, golden symbol), counts the patterns it recovers by their
number of flips, and only then weights those counts by p.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb

from probvoter.voter import ErrorProfile, VoterTable


def binomial_cdf(k: int, m: int, p: Fraction) -> Fraction:
    """P[Binomial(k, p) <= m], exact."""
    if m < 0:
        return Fraction(0)
    if m >= k:
        return Fraction(1)
    q = 1 - p
    return sum(comb(k, j) * p**j * q ** (k - j) for j in range(m + 1))


def fraction_availability(profile: ErrorProfile, voter: VoterTable, p) -> Fraction:
    p = Fraction(p)
    k, t = voter.k, voter.threshold
    w0 = Fraction(profile.n0, 1 << profile.n)
    w1 = Fraction(profile.n1, 1 << profile.n)
    return w0 * binomial_cdf(k, t - 1, p) + w1 * binomial_cdf(k, k - t, p)


@lru_cache(maxsize=None)
def recovered_by_flips(voter: VoterTable, golden: int) -> tuple[int, ...]:
    """Entry c: how many flip patterns with c flips the voter still recovers.

    Voters are equal exactly when their (k, t) are, so the walk runs once
    per distinct (k, t, golden).
    """
    k = voter.k
    counts = [0] * (k + 1)
    for pattern in product((0, 1), repeat=k):
        if voter.apply(pattern) == golden:
            # the replicas that disagree with the golden symbol flipped
            ones = sum(pattern)
            counts[k - ones if golden else ones] += 1
    return tuple(counts)


def enumerated_availability(profile: ErrorProfile, voter: VoterTable, p) -> Fraction:
    p = Fraction(p)
    k = voter.k
    # probability of one flip pattern depends only on how many flips it has
    by_flips = [p**c * (1 - p) ** (k - c) for c in range(k + 1)]
    total = Fraction(0)
    for golden, rows in ((0, profile.n0), (1, profile.n1)):
        counts = recovered_by_flips(voter, golden)
        total += rows * sum(count * chance for count, chance in zip(counts, by_flips))
    return total / (1 << profile.n)
