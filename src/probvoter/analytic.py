"""Closed-form availability of k replicated modules behind a threshold voter.

Each replica independently flips its output bit with probability p, and the
module input is uniform over all 2^n assignments.  With F ~ Binomial(k, p)
flipped replicas, a threshold-t voter recovers a golden 0 iff F <= t-1 and
a golden 1 iff F <= k-t, so the probability that the voted output is
correct is

    A(p) = (N0/2^n) * P[F <= t-1] + (N1/2^n) * P[F <= k-t]

with N0, N1 the 0-rows and 1-rows of the truth table.  Writing p = a/d,

    P[F <= m] = S[m] / d^k,   S[m] = sum_{j <= m} C(k, j) a^j (d-a)^(k-j),

so one pass over j gives the integer partial sums S for every threshold,
and A(p) is the single `Fraction((N0*S[t-1] + N1*S[k-t]), d^k * 2^n)`.
Results are exact for rational p; no float enters an availability.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

from .voter import ErrorProfile, VoterTable, synthesize_majority, synthesize_probabilistic


def _as_probability(p) -> Fraction:
    value = Fraction(p)
    if not 0 <= value <= 1:
        raise ValueError(f"probability must be in [0, 1], got {p!r}")
    return value


@dataclass(frozen=True)
class SystemModel:
    """One redundant system: error profile, voter, and per-replica flip rate."""

    profile: ErrorProfile
    voter: VoterTable
    p: Fraction

    def __post_init__(self):
        object.__setattr__(self, "p", _as_probability(self.p))


def module_availability(p) -> Fraction:
    """Probability a single unguarded replica is correct: 1 - p."""
    return 1 - _as_probability(p)


def _cdf_numerators(k: int, p: Fraction) -> list[int]:
    """S[m] = d^k * P[Binomial(k, p) <= m] for m = 0..k, where p = a/d."""
    a, d = p.numerator, p.denominator
    b = d - a
    b_powers = [1]
    for _ in range(k):
        b_powers.append(b_powers[-1] * b)
    sums = []
    total = 0
    a_power = 1
    for j in range(k + 1):
        total += comb(k, j) * a_power * b_powers[k - j]
        sums.append(total)
        a_power *= a
    return sums


def _availability_numerator(profile: ErrorProfile, t: int, sums: list[int]) -> int:
    """A(p) * d^k * 2^n for a threshold-t voter, from `_cdf_numerators`."""
    k = len(sums) - 1
    return profile.n0 * sums[t - 1] + profile.n1 * sums[k - t]


def _availability_ratio(model: SystemModel) -> tuple[int, int]:
    """A(p) as an unreduced numerator and the denominator d^k * 2^n."""
    sums = _cdf_numerators(model.voter.k, model.p)
    numerator = _availability_numerator(model.profile, model.voter.threshold, sums)
    return numerator, sums[-1] << model.profile.n


def system_availability(model: SystemModel) -> Fraction:
    return Fraction(*_availability_ratio(model))


def expected_errors(model: SystemModel, trials: int) -> Fraction:
    """Expected number of wrong voted outputs over `trials` uniform inputs."""
    if trials < 0:
        raise ValueError(f"trial count must be non-negative, got {trials}")
    numerator, denominator = _availability_ratio(model)
    return Fraction(trials * (denominator - numerator), denominator)


@dataclass(frozen=True)
class ComparisonPoint:
    p: Fraction
    prob_availability: Fraction
    majority_availability: Fraction


@dataclass(frozen=True)
class CurveComparison:
    """Both voter curves over a probability grid, plus sign-change intervals.

    Each crossover is an open grid interval (a, b): the curves' difference
    has opposite (nonzero) signs at a and b, so they cross somewhere
    between.  Grid points where the difference is exactly zero separate the
    surrounding signs but are not themselves endpoints.
    """

    points: tuple[ComparisonPoint, ...]
    crossovers: tuple[tuple[Fraction, Fraction], ...]


def compare_and_crossover(
    profile: ErrorProfile,
    k: int,
    p_grid: Sequence,
    tie_policy: int | None = None,
) -> CurveComparison:
    grid = tuple(_as_probability(p) for p in p_grid)
    if not grid:
        raise ValueError("probability grid is empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("probability grid must be strictly ascending")
    prob_t = synthesize_probabilistic(profile, k).threshold
    majority_t = synthesize_majority(k, tie_policy).threshold
    points = []
    crossovers = []
    last_sign = 0
    last_signed_p = None
    for p in grid:
        # both availabilities share the denominator d^k * 2^n, so the sign
        # of their difference is the sign of the numerators' difference
        sums = _cdf_numerators(k, p)
        denominator = sums[-1] << profile.n
        prob = _availability_numerator(profile, prob_t, sums)
        majority = _availability_numerator(profile, majority_t, sums)
        points.append(
            ComparisonPoint(p, Fraction(prob, denominator), Fraction(majority, denominator))
        )
        sign = (prob > majority) - (prob < majority)
        if sign != 0:
            if last_sign != 0 and sign != last_sign:
                crossovers.append((last_signed_p, p))
            last_sign = sign
            last_signed_p = p
    return CurveComparison(tuple(points), tuple(crossovers))
