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

Every voter at one p shares the denominator D = d^k * 2^n, and so does
every expected error count: `trials` inputs give `trials * (D - N)` wrong
outputs over D for an availability N over D.  `compare_and_crossover`
therefore makes one pass per grid point for the two voters its caller
built and keeps each `ComparisonPoint` as two integer numerators over D.
The crossover sign is the sign of their difference, and a caller printing
the values never needs a gcd.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb
from typing import Sequence

from .voter import ErrorProfile, VoterTable

# Not called here: the benchmark's tracer (bench/spans.py) wraps them by name.
from .voter import synthesize_majority, synthesize_probabilistic  # noqa: F401


def _as_probability(p) -> Fraction:
    value = p if isinstance(p, Fraction) else Fraction(p)
    # a Fraction's denominator is positive: compare integers, not Fractions
    if not 0 <= value.numerator <= value.denominator:
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


@cache
def _binomial_row(k: int) -> tuple[int, ...]:
    """C(k, j) for j = 0..k; k is a validated replica count, so at most 16 rows."""
    return tuple(comb(k, j) for j in range(k + 1))


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
    for binomial, b_power in zip(_binomial_row(k), reversed(b_powers)):
        total += binomial * a_power * b_power
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
    """Both voters' availabilities at one p, as numerators over D = d^k * 2^n."""

    p: Fraction
    prob_numerator: int
    majority_numerator: int
    denominator: int

    @property
    def prob_availability(self) -> Fraction:
        return Fraction(self.prob_numerator, self.denominator)

    @property
    def majority_availability(self) -> Fraction:
        return Fraction(self.majority_numerator, self.denominator)


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
    majority: VoterTable,
    prob: VoterTable,
    p_grid: Sequence,
) -> CurveComparison:
    """Both voters' availabilities at every grid point, and where they cross."""
    if majority.k != prob.k:
        raise ValueError(f"voters differ in replica count: {majority.k} and {prob.k}")
    grid = tuple(_as_probability(p) for p in p_grid)
    if not grid:
        raise ValueError("probability grid is empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("probability grid must be strictly ascending")
    k, prob_t, majority_t = prob.k, prob.threshold, majority.threshold
    points = []
    crossovers = []
    last_sign = 0
    last_signed_p = None
    for p in grid:
        # both availabilities share the denominator d^k * 2^n, so the sign
        # of their difference is the sign of the numerators' difference
        sums = _cdf_numerators(k, p)
        prob_n = _availability_numerator(profile, prob_t, sums)
        majority_n = _availability_numerator(profile, majority_t, sums)
        points.append(ComparisonPoint(p, prob_n, majority_n, sums[-1] << profile.n))
        sign = (prob_n > majority_n) - (prob_n < majority_n)
        if sign != 0:
            if last_sign != 0 and sign != last_sign:
                crossovers.append((last_signed_p, p))
            last_sign = sign
            last_signed_p = p
    return CurveComparison(tuple(points), tuple(crossovers))
