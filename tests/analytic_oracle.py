"""References for the integer closed form in `probvoter.analytic`.

`fraction_availability` is the closed form summed term by term over
`Fraction`s.  `enumerated_availability` does not use the closed form at
all: it votes on every one of the 2^k replica patterns by counting its
ones against t, once per distinct (k, t, golden symbol), counts the
patterns it recovers by their number of flips, and only then weights those
counts by p.

`partial_sum_coefficients` is the partial-sum form the power-basis
coefficients of `probvoter.analytic` replaced, expanded term by term in
a^i d^(k-i): the O(k^2) binomial expansion they are checked against.

`analytic_csv` is the `analytic` command's CSV built one model at a time
from `fraction_availability`, with errors = trials * (1 - A), each value a
reduced `Fraction` printed by `format_exact`.  It shares no arithmetic
with the program.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb

from probvoter.cli import CSV_HEADER
from probvoter.voter import ErrorProfile, VoterTable, synthesize_majority, synthesize_probabilistic


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


def partial_sum_coefficients(k: int, m: int) -> list[int]:
    """Entry i: the coefficient of a^i d^(k-i) in the integer partial sum
    S[m] = sum_{j <= m} C(k, j) a^j (d-a)^(k-j) = d^k * P[Binomial(k, a/d) <= m].
    """
    coefficients = [0] * (k + 1)
    for j in range(m + 1):
        # (d-a)^(k-j) = sum_l C(k-j, l) (-a)^l d^(k-j-l)
        for l in range(k - j + 1):
            coefficients[j + l] += comb(k, j) * comb(k - j, l) * (-1) ** l
    return coefficients


def expanded_power_coefficients(profile: ErrorProfile, k: int, t: int) -> list[int]:
    """A(p) * d^k * 2^n = N0 S[t-1] + N1 S[k-t] in the basis a^i d^(k-i)."""
    below_t = partial_sum_coefficients(k, t - 1)
    below_mirror = partial_sum_coefficients(k, k - t)
    return [profile.n0 * x + profile.n1 * y for x, y in zip(below_t, below_mirror)]


@lru_cache(maxsize=None)
def recovered_by_flips(voter: VoterTable, golden: int) -> tuple[int, ...]:
    """Entry c: how many flip patterns with c flips the voter still recovers.

    Voters are equal exactly when their (k, t) are, so the walk runs once
    per distinct (k, t, golden).
    """
    k = voter.k
    counts = [0] * (k + 1)
    for pattern in product((0, 1), repeat=k):
        ones = sum(pattern)
        if (ones >= voter.threshold) == golden:
            # the replicas that disagree with the golden symbol flipped
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


def format_exact(x: Fraction) -> str:
    """Exact decimal string when the denominator is 2^a * 5^b, else float repr."""
    den = x.denominator
    twos = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    fives = 0
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return repr(float(x))
    places = max(twos, fives)
    scaled = x.numerator * 2 ** (places - twos) * 5 ** (places - fives)
    if places == 0:
        return str(scaled)
    digits = str(scaled).rjust(places + 1, "0")
    whole, fractional = digits[:-places], digits[-places:].rstrip("0")
    return whole if not fractional else f"{whole}.{fractional}"


def analytic_csv(profile: ErrorProfile, k: int, tie_policy, grid, trials: int) -> str:
    majority = synthesize_majority(k, tie_policy)
    prob = synthesize_probabilistic(profile, k)
    lines = [CSV_HEADER]
    for p in grid:
        p = Fraction(p)
        availabilities = [fraction_availability(profile, voter, p) for voter in (majority, prob)]
        values = [p, 1 - p, *availabilities]
        values += [trials * (1 - availability) for availability in availabilities]
        lines.append(",".join(map(format_exact, values)) + ",0")
    return "\n".join(lines) + "\n"
