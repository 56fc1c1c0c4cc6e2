"""Closed-form availability of k replicated modules behind a threshold voter.

Each replica independently flips its output bit with probability p, and the
module input is uniform over all 2^n assignments.  With F ~ Binomial(k, p)
flipped replicas, a threshold-t voter recovers a golden 0 iff F <= t-1 and
a golden 1 iff F <= k-t, so the probability that the voted output is
correct is

    A(p) = (N0/2^n) * P[F <= t-1] + (N1/2^n) * P[F <= k-t]

with N0, N1 the 0-rows and 1-rows of the truth table.  In powers of p,

    P[F <= m] = 1 + sum_{i > m} (-1)^(i-m) C(k, i) C(i-1, m) p^i,

so writing p = a/d, each voter's availability is one integer polynomial

    A(p) * d^k * 2^n = sum_{i=0..k} e_i a^i d^(k-i),   e_0 = N0 + N1 = 2^n,
    e_i = C(k, i) * (N0 (-1)^(i-t+1) C(i-1, t-1) + N1 (-1)^(i-k+t) C(i-1, k-t)).

e_1 .. e_(r-1) vanish, where r = min(t, k-t+1) is the voter's fault-masking
order (t when N1 = 0, k-t+1 when N0 = 0), so 1 - A(p) = Theta(p^r).  The
e_i are built once per voter, the terms e_i d^(k-i) once per distinct
denominator d, and each grid point a/d is then one Horner pass in a.
Results are exact for rational p; no float enters an availability.

Every voter at one p shares the denominator D = d^k * 2^n, and so does
every expected error count: `trials` inputs give `trials * (D - N)` wrong
outputs over D for an availability N over D.  `compare_and_crossover`
therefore evaluates the two voters its caller built at each grid point
and keeps each `ComparisonPoint` as two integer numerators over D.  The
crossover sign is the sign of their difference, and a caller printing the
values never needs a gcd.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

from .voter import ErrorProfile, VoterTable, _check_int

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


# A voter's masking order and its nonzero terms, highest power of a first.
_Polynomial = tuple[int, tuple[int, ...]]
# d^k * 2^n for one denominator d, and each polynomial's terms scaled by d.
_Table = tuple[int, list[tuple[int, list[int]]]]


def _power_coefficients(profile: ErrorProfile, k: int, t: int) -> tuple[int, ...]:
    """e_0..e_k with A(p) * d^k * 2^n = sum_i e_i a^i d^(k-i) for p = a/d.

    The module docstring's formula: comb(i - 1, m) is 0 for i <= m, which
    zeroes e_1 .. e_(r-1).  Each sign is -1 to its exponent's parity, since
    -1 to a negative power would be a float.
    """
    n0, n1 = profile.n0, profile.n1
    return (n0 + n1,) + tuple(
        comb(k, i) * (n0 * (-1) ** ((i - t + 1) & 1) * comb(i - 1, t - 1)
                      + n1 * (-1) ** ((i - k + t) & 1) * comb(i - 1, k - t))
        for i in range(1, k + 1)
    )


def _polynomial(profile: ErrorProfile, voter: VoterTable) -> _Polynomial:
    """The voter's masking order r and its terms e_k, ..., e_r.

    With e_0 = 2^n and e_1 .. e_(r-1) zero, A(p) * d^k * 2^n is
    d^k * 2^n + a^r * sum_{i >= r} e_i a^(i-r) d^(k-i).
    """
    e = _power_coefficients(profile, voter.k, voter.threshold)
    order = next(i for i in range(1, voter.k + 1) if e[i])
    return order, e[: order - 1 : -1]


def _scale(polynomials: Sequence[_Polynomial], k: int, d: int, n: int) -> _Table:
    """d^k * 2^n, and each polynomial's order with its terms e_i * d^(k-i)."""
    scaled = []
    for order, terms in polynomials:
        power = 1
        row = []
        for term in terms:
            row.append(term * power)
            power *= d
        scaled.append((order, row))
    return d**k << n, scaled


def _evaluate(table: _Table, a: int) -> list[int]:
    """Each polynomial's numerator at p = a/d over the table's d^k * 2^n,
    by Horner in a."""
    denominator, scaled = table
    numerators = []
    for order, terms in scaled:
        total = 0
        for term in terms:
            total = total * a + term
        numerators.append(denominator + total * a**order)
    return numerators


def system_availability(model: SystemModel) -> Fraction:
    """A(p) for one model: its numerator over d^k * 2^n, reduced."""
    p = model.p
    polynomial = _polynomial(model.profile, model.voter)
    table = _scale([polynomial], model.voter.k, p.denominator, model.profile.n)
    (numerator,) = _evaluate(table, p.numerator)
    return Fraction(numerator, table[0])


def expected_errors(model: SystemModel, trials: int) -> Fraction:
    """Expected number of wrong voted outputs over `trials` uniform inputs."""
    _check_int("trial count", trials)
    if trials < 0:
        raise ValueError(f"trial count must be non-negative, got {trials}")
    return trials * (1 - system_availability(model))


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
    ratios = [(p.numerator, p.denominator) for p in grid]
    # a/d < b/e for neighbours, by cross-multiplying positive denominators
    if any(a * e >= b * d for (a, d), (b, e) in zip(ratios, ratios[1:])):
        raise ValueError("probability grid must be strictly ascending")
    polynomials = [_polynomial(profile, voter) for voter in (prob, majority)]
    # a denominator's table is kept only until its last grid point
    last = {d: i for i, (_, d) in enumerate(ratios)}
    tables = {}
    points = []
    signed = []  # (whether prob leads, p) at each point where the curves differ
    for i, (p, (a, d)) in enumerate(zip(grid, ratios)):
        table = tables.get(d)
        if table is None:
            table = tables[d] = _scale(polynomials, prob.k, d, profile.n)
        if last[d] == i:
            del tables[d]
        # both availabilities share the denominator d^k * 2^n, so the sign
        # of their difference is the sign of the numerators' difference
        prob_n, majority_n = _evaluate(table, a)
        points.append(ComparisonPoint(p, prob_n, majority_n, table[0]))
        if prob_n != majority_n:
            signed.append((prob_n > majority_n, p))
    crossovers = tuple((low, high) for (s, low), (u, high) in zip(signed, signed[1:]) if s != u)
    return CurveComparison(tuple(points), crossovers)
