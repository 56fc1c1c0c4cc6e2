import tracemalloc
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from analytic_oracle import (
    enumerated_availability,
    expanded_power_coefficients,
    fraction_availability,
)
from probvoter import analytic
from probvoter.analytic import (
    SystemModel,
    _polynomial,
    _power_coefficients,
    compare_and_crossover,
    expected_errors,
    module_availability,
    system_availability,
)
from probvoter.voter import (
    ErrorProfile,
    VoterTable,
    error_profile,
    synthesize_majority,
    synthesize_probabilistic,
)


def _enumerated_availability(profile, voter, p):
    """Independent oracle: sum over golden symbol and all 2^k flip patterns."""
    p = Fraction(p)
    k = voter.k
    weights = {
        0: Fraction(profile.n0, 1 << profile.n),
        1: Fraction(profile.n1, 1 << profile.n),
    }
    total = Fraction(0)
    for golden in (0, 1):
        for flips in range(1 << k):
            chance = Fraction(1)
            for r in range(k):
                chance *= p if (flips >> r) & 1 else 1 - p
            pattern = [golden ^ ((flips >> (k - 1 - j)) & 1) for j in range(k)]
            if (sum(pattern) >= voter.threshold) == golden:
                total += weights[golden] * chance
    return total


def _compare(profile, k, grid):
    """The crossover scan of the probabilistic voter against odd-k majority."""
    majority = synthesize_majority(k)
    return compare_and_crossover(profile, majority, synthesize_probabilistic(profile, k), grid)


def test_module_availability_is_complement():
    assert module_availability(Fraction(1, 10)) == Fraction(9, 10)
    with pytest.raises(ValueError):
        module_availability(Fraction(11, 10))
    with pytest.raises(ValueError):
        module_availability(-1)


def test_unanimity_tmr_at_one_half(two_ones):
    profile = error_profile(two_ones)
    voter = synthesize_probabilistic(profile, 3)
    model = SystemModel(profile, voter, Fraction(1, 2))
    assert system_availability(model) == Fraction(25, 32)


def test_majority_tmr_at_one_tenth(two_ones):
    # with an odd threshold-(k+1)/2 voter the weights drop out: both symbols
    # survive the same number of flips, so any profile gives the same curve
    profile = error_profile(two_ones)
    model = SystemModel(profile, synthesize_majority(3), Fraction(1, 10))
    assert system_availability(model) == Fraction(243, 250)


def test_perfect_and_hopeless_extremes(two_ones):
    profile = error_profile(two_ones)
    for voter in (synthesize_majority(3), synthesize_probabilistic(profile, 3)):
        assert system_availability(SystemModel(profile, voter, Fraction(0))) == 1
        assert system_availability(SystemModel(profile, voter, Fraction(1))) == 0


def test_closed_form_matches_enumeration_on_fixtures(two_ones, four_ones):
    for table, k in ((two_ones, 3), (four_ones, 5)):
        profile = error_profile(table)
        for voter in (synthesize_majority(k), synthesize_probabilistic(profile, k)):
            for p in (Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(1)):
                model = SystemModel(profile, voter, p)
                assert system_availability(model) == _enumerated_availability(
                    profile, voter, p
                )


@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=1 << n))
    ),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.fractions(min_value=0, max_value=1, max_denominator=16),
)
def test_closed_form_matches_enumeration(shape, k, t, p):
    n, n1 = shape
    profile = ErrorProfile(n, (1 << n) - n1, n1)
    voter = VoterTable(k, min(t, k))
    model = SystemModel(profile, voter, p)
    assert system_availability(model) == _enumerated_availability(profile, voter, p)


_replicas_and_threshold = st.integers(min_value=1, max_value=16).flatmap(
    lambda k: st.tuples(st.just(k), st.integers(min_value=1, max_value=k))
)


@settings(deadline=None)
@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=1 << n))
    ),
    _replicas_and_threshold,
    st.one_of(
        st.sampled_from([Fraction(0), Fraction(1)]),
        st.fractions(min_value=0, max_value=1, max_denominator=10**6),
    ),
)
def test_integer_closed_form_matches_both_oracles(shape, kt, p):
    n, n1 = shape
    profile = ErrorProfile(n, (1 << n) - n1, n1)
    voter = VoterTable(*kt)
    model = SystemModel(profile, voter, p)
    exact = system_availability(model)
    assert exact == fraction_availability(profile, voter, p)
    assert exact == enumerated_availability(profile, voter, p)
    assert expected_errors(model, 5000) == 5000 * (1 - exact)
    # the crossover scan reports the same values for both voters it is given
    majority = synthesize_majority(voter.k, 1)
    prob = synthesize_probabilistic(profile, voter.k)
    point = compare_and_crossover(profile, majority, prob, [p]).points[0]
    assert point.majority_availability == fraction_availability(profile, majority, p)
    assert point.prob_availability == fraction_availability(profile, prob, p)


def test_expected_errors_at_one_half(two_ones):
    profile = error_profile(two_ones)
    voter = synthesize_probabilistic(profile, 3)
    model = SystemModel(profile, voter, Fraction(1, 2))
    assert expected_errors(model, 5000) == Fraction(4375, 4)  # 1093.75
    assert expected_errors(SystemModel(profile, synthesize_majority(3), Fraction(1, 2)), 5000) == 2500
    assert expected_errors(model, 0) == 0
    with pytest.raises(ValueError):
        expected_errors(model, -1)


def test_total_inversion_defeats_every_voter():
    for n in (1, 2, 3):
        for n1 in range((1 << n) + 1):
            profile = ErrorProfile(n, (1 << n) - n1, n1)
            for k in range(1, 8):
                voter = synthesize_probabilistic(profile, k)
                assert system_availability(SystemModel(profile, voter, Fraction(1))) == 0


def test_odd_majority_is_strictly_decreasing_below_one_half():
    profile = ErrorProfile(2, 3, 1)  # weights don't matter for odd majority
    for k in (1, 3, 5, 7):
        voter = synthesize_majority(k)
        values = [
            system_availability(SystemModel(profile, voter, Fraction(i, 20)))
            for i in range(11)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_probability_validation(two_ones):
    profile = error_profile(two_ones)
    voter = synthesize_majority(3)
    with pytest.raises(ValueError):
        SystemModel(profile, voter, Fraction(3, 2))
    assert SystemModel(profile, voter, 0.5).p == Fraction(1, 2)


def test_crossover_interval_brackets_the_root(two_ones):
    profile = error_profile(two_ones)
    grid = [Fraction(n, 100) for n in (6, 10, 11, 12, 13, 14, 15, 30)]
    comparison = _compare(profile, 3, grid)
    assert comparison.crossovers == ((Fraction(12, 100), Fraction(13, 100)),)
    # majority leads below the crossing, the probabilistic voter above
    small = comparison.points[0]
    assert small.p == Fraction(6, 100)
    assert small.majority_availability > small.prob_availability
    high = comparison.points[-1]
    assert high.prob_availability == Fraction(89425, 100000)
    assert high.majority_availability == Fraction(784, 1000)


def test_crossover_skips_exact_tie_points(two_ones):
    profile = error_profile(two_ones)
    grid = (Fraction(12, 100), Fraction(1, 8), Fraction(13, 100))
    comparison = _compare(profile, 3, grid)
    tie = comparison.points[1]
    assert tie.prob_availability == tie.majority_availability
    assert comparison.crossovers == ((Fraction(12, 100), Fraction(13, 100)),)


def test_balanced_function_has_no_crossover():
    balanced = ErrorProfile(1, 1, 1)
    grid = [Fraction(n, 10) for n in range(1, 6)]
    comparison = _compare(balanced, 3, grid)
    assert comparison.crossovers == ()
    assert all(
        point.prob_availability == point.majority_availability
        for point in comparison.points
    )


def test_grid_validation(monkeypatch, two_ones):
    # every grid is refused before a polynomial is built
    def refuse(*args):
        raise AssertionError("a polynomial was built")

    monkeypatch.setattr(analytic, "_polynomial", refuse)
    profile = error_profile(two_ones)
    with pytest.raises(ValueError):
        _compare(profile, 3, [])
    with pytest.raises(ValueError):
        _compare(profile, 3, [Fraction(1, 2), Fraction(1, 4)])
    with pytest.raises(ValueError, match="ascending"):
        _compare(profile, 3, [Fraction(1, 2), Fraction(1, 3)])
    with pytest.raises(ValueError):
        _compare(profile, 3, [Fraction(1, 4), Fraction(1, 4)])


def test_crossover_rejects_voters_of_different_k(two_ones):
    profile = error_profile(two_ones)
    grid = [Fraction(1, 10)]
    for majority, prob in (
        (synthesize_majority(3), synthesize_probabilistic(profile, 5)),
        (synthesize_majority(4, 1), synthesize_probabilistic(profile, 3)),
    ):
        with pytest.raises(ValueError, match="replica count"):
            compare_and_crossover(profile, majority, prob, grid)


# --- at most one crossover -------------------------------------------------------
#
# In the Bernstein basis B_j(p) = C(k, j) p^j (1-p)^(k-j), for t1 < t2,
#
#     2^n (A_t2 - A_t1) = N0 P[t1 <= F <= t2-1] - N1 P[k-t2+1 <= F <= k-t1]
#
# has coefficient +N0 on the first index range and -N1 on its mirror image
# under j -> k-j, so its coefficient signs change at most once.  By
# Descartes' rule of signs in the Bernstein basis, two threshold voters
# with the same k then cross at most once in (0, 1).


def _bernstein_difference(profile, k, t1, t2):
    """Coefficients of 2^n (A_t2 - A_t1) in the basis B_j, converted from
    the power-basis coefficients the availabilities are evaluated from.

    With d = a + b, a^i d^(k-i) = sum_{j >= i} C(k-i, j-i) a^j b^(k-j),
    and d^k B_j = C(k, j) a^j b^(k-j).
    """
    low, high = (_power_coefficients(profile, k, t) for t in (t1, t2))
    e = [y - x for x, y in zip(low, high)]
    coefficients = []
    for j in range(k + 1):
        c, remainder = divmod(sum(e[i] * comb(k - i, j - i) for i in range(j + 1)), comb(k, j))
        assert remainder == 0
        coefficients.append(c)
    return coefficients


def _sign_changes(values):
    signs = [(v > 0) - (v < 0) for v in values if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


_CROSSOVER_PROFILES = [
    ErrorProfile(4, n0, 16 - n0) for n0 in (0, 1, 3, 8, 12, 16)
] + [ErrorProfile(10, 449, 575)]


@pytest.mark.parametrize("profile", _CROSSOVER_PROFILES, ids=lambda p: f"{p.n0}-{p.n1}")
def test_threshold_voters_differ_by_at_most_one_sign_change(profile):
    p = Fraction(1, 3)
    for k in range(1, 17):
        basis = [comb(k, j) * p**j * (1 - p) ** (k - j) for j in range(k + 1)]
        for t2 in range(2, k + 1):
            for t1 in range(1, t2):
                c = _bernstein_difference(profile, k, t1, t2)
                assert c == [
                    profile.n0 * (t1 <= j <= t2 - 1) - profile.n1 * (k - t2 + 1 <= j <= k - t1)
                    for j in range(k + 1)
                ]
                assert _sign_changes(c) <= 1, (k, t1, t2, c)
        if k > 1:
            # the coefficients are those of the availabilities themselves
            c = _bernstein_difference(profile, k, 1, k)
            a1, ak = (
                system_availability(SystemModel(profile, VoterTable(k, t), p)) for t in (1, k)
            )
            assert sum(cj * bj for cj, bj in zip(c, basis)) == (ak - a1) * (1 << profile.n)


@st.composite
def _voter_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    n1 = draw(st.integers(min_value=0, max_value=1 << n))
    k = draw(st.integers(min_value=1, max_value=16))
    thresholds = st.integers(min_value=1, max_value=k)
    first, second = draw(thresholds), draw(thresholds)
    return ErrorProfile(n, (1 << n) - n1, n1), VoterTable(k, first), VoterTable(k, second)


@settings(deadline=None, max_examples=300)
@given(
    _voter_pairs(),
    st.lists(
        st.fractions(min_value=0, max_value=1, max_denominator=64), min_size=1, max_size=40, unique=True
    ).map(sorted),
)
def test_any_two_threshold_voters_cross_at_most_once(voters, grid):
    profile, first, second = voters
    assert len(compare_and_crossover(profile, first, second, grid).crossovers) <= 1


# --- the power basis -------------------------------------------------------------
#
# A(p) d^k 2^n = sum_i e_i a^i d^(k-i) for p = a/d.  The runtime builds the
# e_i from P[F <= m] = 1 + sum_{i > m} (-1)^(i-m) C(k, i) C(i-1, m) p^i; the
# oracle expands the binomial partial sums term by term.

_BASIS_PROFILES = [ErrorProfile(1, 2, 0), ErrorProfile(1, 0, 2), ErrorProfile(1, 1, 1)] + [
    ErrorProfile(4, 3, 13),
    ErrorProfile(4, 13, 3),
    ErrorProfile(10, 449, 575),
]


def _masking_order(profile, k, t):
    if profile.n1 == 0:
        return t
    if profile.n0 == 0:
        return k - t + 1
    return min(t, k - t + 1)


@pytest.mark.parametrize("profile", _BASIS_PROFILES, ids=lambda p: f"{p.n0}-{p.n1}")
def test_power_coefficients_expand_the_binomial_sums(profile):
    for k in range(1, 17):
        for t in range(1, k + 1):
            e = _power_coefficients(profile, k, t)
            assert list(e) == expanded_power_coefficients(profile, k, t), (k, t)
            assert e[0] == 1 << profile.n
            # the closed form of each coefficient, as the module docstring states it;
            # adding 2k keeps each exponent non-negative, so the powers stay ints
            for i in range(1, k + 1):
                assert e[i] == comb(k, i) * (
                    profile.n0 * (-1) ** (i - t + 1 + 2 * k) * comb(i - 1, t - 1)
                    + profile.n1 * (-1) ** (i - k + t + 2 * k) * comb(i - 1, k - t)
                )


@pytest.mark.parametrize("profile", _BASIS_PROFILES, ids=lambda p: f"{p.n0}-{p.n1}")
def test_first_nonzero_coefficient_is_the_masking_order(profile):
    # 1 - A(p) = -sum_{i >= 1} e_i a^i d^(k-i) / (d^k 2^n) = Theta(p^r)
    for k in range(1, 17):
        for t in range(1, k + 1):
            e = _power_coefficients(profile, k, t)
            # exact integers only: no float enters an availability
            assert all(type(x) is int for x in e), (k, t)
            order = _masking_order(profile, k, t)
            assert not any(e[1:order]), (k, t)
            assert e[order] < 0, (k, t)
            assert _polynomial(profile, VoterTable(k, t)) == (order, tuple(reversed(e[order:])))


def test_the_higher_masking_order_leads_at_small_p():
    # at p = 2^-64 the p^r term outweighs every higher one, so the voter that
    # masks more flips is the more available: this is why majority leads a
    # skewed probabilistic voter at small p
    p = Fraction(1, 1 << 64)
    for profile in _BASIS_PROFILES:
        for k in range(1, 17):
            for t1 in range(1, k + 1):
                for t2 in range(t1 + 1, k + 1):
                    r1, r2 = _masking_order(profile, k, t1), _masking_order(profile, k, t2)
                    if r1 == r2:
                        continue
                    point = compare_and_crossover(
                        profile, VoterTable(k, t1), VoterTable(k, t2), [p]
                    ).points[0]
                    # the second voter is passed as `prob`
                    assert (point.prob_numerator > point.majority_numerator) == (r2 > r1)
    profile = ErrorProfile(4, 14, 2)  # the README's 3-replica example
    majority, prob = synthesize_majority(3), synthesize_probabilistic(profile, 3)
    assert (_polynomial(profile, majority)[0], _polynomial(profile, prob)[0]) == (2, 1)
    point = compare_and_crossover(profile, majority, prob, [Fraction(1, 100)]).points[0]
    assert point.majority_numerator > point.prob_numerator


def test_scan_drops_each_denominator_table_after_its_last_point():
    # 1,000 distinct denominators: a table kept per denominator would hold
    # about 1.5 MB next to the 0.26 MB of points the scan returns
    profile = ErrorProfile(8, 225, 31)
    grid = [Fraction(j, 2 * j + 1) for j in range(1, 1001)]
    majority, prob = synthesize_majority(16, 1), synthesize_probabilistic(profile, 16)
    compare_and_crossover(profile, majority, prob, grid)
    tracemalloc.start()
    try:
        comparison = compare_and_crossover(profile, majority, prob, grid)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(comparison.points) == 1000
    assert peak < 1.5 * kept, (peak, kept)


# A 2^7000 denominator: d^k alone has up to 112,000 bits.
_HUGE = (Fraction(1, 1 << 7000), Fraction((1 << 6999) - 1, 1 << 7000))


@st.composite
def _mixed_grids(draw):
    """Sorted grids that mix repeated and distinct denominators, 0, 1 and
    a point over 2^7000."""
    points = set()
    d = draw(st.sampled_from([3, 7, 12, 1000, 2000]))
    points.update(Fraction(a, d) for a in draw(st.lists(st.integers(0, d), max_size=5)))
    points.update(
        draw(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=10**6), max_size=5))
    )
    points.update(draw(st.lists(st.sampled_from([Fraction(0), Fraction(1)]), max_size=2)))
    # the Fraction oracle takes up to 0.3 s per voter at such a point
    if draw(st.integers(0, 19)) == 0:
        points.add(draw(st.sampled_from(_HUGE)))
    if not points:
        points.add(Fraction(1, 2))
    return sorted(points)


@settings(deadline=None, max_examples=100)
@example(
    (20, 1000), (16, 8), 15, sorted([0, 1, *_HUGE, Fraction(1, 7), Fraction(2, 7), Fraction(3, 10)])
)
@given(
    st.integers(min_value=1, max_value=20).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.one_of(st.sampled_from([0, 1, (1 << n) - 1, 1 << n]), st.integers(0, 1 << n)),
        )
    ),
    _replicas_and_threshold,
    st.integers(min_value=1, max_value=16),
    _mixed_grids(),
)
def test_scan_numerators_equal_the_fraction_oracle(shape, kt, t2, grid):
    n, n1 = shape
    profile = ErrorProfile(n, (1 << n) - n1, n1)
    k, t1 = kt
    majority, prob = VoterTable(k, t1), VoterTable(k, min(t2, k))
    comparison = compare_and_crossover(profile, majority, prob, grid)
    signs = []
    for p, point in zip(grid, comparison.points):
        denominator = p.denominator**k << n
        assert (point.p, point.denominator) == (p, denominator)
        prob_a = fraction_availability(profile, prob, p)
        majority_a = fraction_availability(profile, majority, p)
        assert point.prob_numerator == prob_a * denominator
        assert point.majority_numerator == majority_a * denominator
        signs.append(((prob_a > majority_a) - (prob_a < majority_a), p))
    signed = [(sign, p) for sign, p in signs if sign]
    assert comparison.crossovers == tuple(
        (low, high) for (s1, low), (s2, high) in zip(signed, signed[1:]) if s1 != s2
    )
