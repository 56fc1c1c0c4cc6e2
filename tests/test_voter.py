import hashlib
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from probvoter.logic import parse_expression
from probvoter.voter import (
    ErrorProfile,
    SopMetrics,
    VoterTable,
    emit_minterm_sop,
    emit_threshold_sop,
    error_profile,
    render_generic_table,
    synthesize_majority,
    synthesize_probabilistic,
)
from voter_oracle import (
    INFINITY,
    CostPair,
    VoteTally,
    cost,
    cost_rule_threshold,
    decide,
    minterm_sop,
    popcount_table,
)


def test_error_profile_of_fixtures(two_ones, four_ones):
    skewed = error_profile(two_ones)
    assert (skewed.n0, skewed.n1) == (14, 2)
    assert skewed.e0 == Fraction(2, 16)
    assert skewed.e1 == Fraction(14, 16)
    quad = error_profile(four_ones)
    assert quad.e0 == Fraction(4, 16)
    assert quad.e1 == Fraction(12, 16)


def test_error_profile_validation():
    with pytest.raises(ValueError):
        ErrorProfile(2, 3, 2)  # 3 + 2 != 4
    with pytest.raises(ValueError):
        ErrorProfile(0, 0, 1)
    with pytest.raises(ValueError):
        ErrorProfile(2, -1, 5)


def test_cost_and_decide_on_split_pattern():
    profile = ErrorProfile(4, 14, 2)
    pair = cost(profile, VoteTally(v0=1, v1=2))
    assert pair == CostPair(Fraction(1, 8), Fraction(7, 16))
    assert decide(pair) == 0  # the lone 0 is cheaper than two 1s here


def test_cost_of_unanimous_patterns():
    profile = ErrorProfile(4, 14, 2)
    assert cost(profile, VoteTally(v0=2, v1=1)) == CostPair(Fraction(2, 32), Fraction(14, 16))
    lone = cost(profile, VoteTally(v0=0, v1=3))
    assert (lone.c0, lone.c1) == (INFINITY, Fraction(14, 48))
    assert decide(lone) == 1
    other = cost(profile, VoteTally(v0=3, v1=0))
    assert (other.c0, other.c1) == (Fraction(2, 48), INFINITY)
    assert decide(other) == 0


def test_decide_agrees_with_integer_cross_multiplication():
    # independent route: C1 <= C0 reduces to N0*V0 <= N1*V1 for present symbols
    for n in range(1, 7):
        for n1 in range((1 << n) + 1):
            profile = ErrorProfile(n, (1 << n) - n1, n1)
            for k in range(1, 8):
                for v1 in range(k + 1):
                    v0 = k - v1
                    if v1 == 0:
                        expected = 0
                    elif v0 == 0:
                        expected = 1
                    else:
                        expected = 1 if profile.n0 * v0 <= profile.n1 * v1 else 0
                    assert decide(cost(profile, VoteTally(v0, v1))) == expected


def test_threshold_formula_equals_the_cost_rule():
    # exhaustive: every profile with n <= 6 and every replica count
    for n in range(1, 7):
        for n1 in range((1 << n) + 1):
            profile = ErrorProfile(n, (1 << n) - n1, n1)
            for k in range(1, 17):
                assert synthesize_probabilistic(profile, k).threshold == cost_rule_threshold(
                    profile, k
                ), (n, n1, k)


def test_tie_goes_to_one():
    balanced = ErrorProfile(1, 1, 1)
    assert decide(cost(balanced, VoteTally(v0=1, v1=1))) == 1


def test_cost_pair_rejects_double_infinity():
    with pytest.raises(ValueError):
        CostPair(INFINITY, INFINITY)


def test_vote_tally_validation():
    with pytest.raises(ValueError):
        VoteTally(0, 0)
    with pytest.raises(ValueError):
        VoteTally(-1, 2)
    assert VoteTally(2, 1).k == 3


def test_probabilistic_tmr_is_unanimity(two_ones):
    voter = synthesize_probabilistic(error_profile(two_ones), 3)
    assert voter == VoterTable(3, 3)
    assert popcount_table(3, voter.threshold) == bytes((0, 0, 0, 0, 0, 0, 0, 1))


def test_probabilistic_5mr_threshold(four_ones):
    voter = synthesize_probabilistic(error_profile(four_ones), 5)
    assert voter.threshold == 4
    accepted = {p for p in range(32) if popcount_table(5, voter.threshold)[p]}
    assert accepted == {0b01111, 0b10111, 0b11011, 0b11101, 0b11110, 0b11111}


def test_majority_three():
    voter = synthesize_majority(3)
    assert voter == VoterTable(3, 2)
    assert popcount_table(3, voter.threshold) == bytes((0, 0, 0, 1, 0, 1, 1, 1))


def test_majority_odd_thresholds():
    assert synthesize_majority(1).threshold == 1
    assert synthesize_majority(5).threshold == 3
    assert synthesize_majority(7).threshold == 4


def test_majority_even_needs_tie_policy():
    with pytest.raises(ValueError):
        synthesize_majority(4)
    assert synthesize_majority(4, tie_policy=1).threshold == 2
    assert synthesize_majority(4, tie_policy=0).threshold == 3
    # 2-2 split lands on the chosen symbol
    for tie_policy in (0, 1):
        assert (2 >= synthesize_majority(4, tie_policy).threshold) == tie_policy


def test_replica_count_bounds():
    profile = ErrorProfile(1, 1, 1)
    with pytest.raises(ValueError):
        synthesize_probabilistic(profile, 0)
    with pytest.raises(ValueError):
        synthesize_probabilistic(profile, 17)
    with pytest.raises(ValueError):
        synthesize_majority(0)


def test_voter_table_construction_checks_consistency():
    for k, t in ((3, 0), (3, 4), (0, 1), (17, 1)):
        with pytest.raises(ValueError):
            VoterTable(k, t)
    assert VoterTable(1, 1).threshold == 1
    assert VoterTable(16, 16).threshold == 16


def test_minterm_sop_of_unanimity(two_ones):
    voter = synthesize_probabilistic(error_profile(two_ones), 3)
    assert emit_minterm_sop(voter) == "y1&y2&y3"


def test_decisions_are_the_popcount_threshold():
    for k in range(1, 11):
        for t in range(1, k + 1):
            assert VoterTable(k, t).as_table().outputs == popcount_table(k, t)


@pytest.mark.parametrize(
    "k, t",
    [(k, t) for k in range(1, 13) for t in range(1, k + 1)]
    + [(k, t) for k in range(13, 17) for t in (1, k // 2, k)],
)
def test_minterm_sop_equals_the_literal_loop(k, t):
    voter = VoterTable(k, t)
    assert emit_minterm_sop(voter) == minterm_sop(voter)


def test_minterm_sop_of_majority():
    assert (
        emit_minterm_sop(synthesize_majority(3))
        == "!y1&y2&y3 + y1&!y2&y3 + y1&y2&!y3 + y1&y2&y3"
    )


def test_threshold_sop_of_majority():
    expression, metrics = emit_threshold_sop(synthesize_majority(3))
    assert expression == "y1&y2 + y1&y3 + y2&y3"
    assert metrics == SopMetrics(terms=3, literals=6)


def test_sop_with_custom_names():
    voter = synthesize_majority(3)
    expression, _ = emit_threshold_sop(voter, ("a", "b", "c"))
    assert expression == "a&b + a&c + b&c"
    with pytest.raises(ValueError):
        emit_minterm_sop(voter, ("a", "b"))
    with pytest.raises(ValueError):
        emit_minterm_sop(voter, ("a", "a", "a"))


def test_generic_table_k2_rendering():
    assert render_generic_table(2) == (
        "y1  y2  C0    C1    y\n"
        "0   0   E0/2  inf   0\n"
        "0   1   E0    E1    X\n"
        "1   0   E0    E1    X\n"
        "1   1   inf   E1/2  1"
    )


def test_generic_table_marks_contested_rows():
    lines = render_generic_table(3).splitlines()
    assert len(lines) == 9
    assert lines[1].endswith("0")  # all-zeros row is settled
    assert lines[-1].endswith("1")  # all-ones row is settled
    assert sum(line.endswith("X") for line in lines[1:]) == 6


# sha256 of render_generic_table(k): every row, cost and column width of the
# table is pinned byte for byte for every k
_GENERIC_TABLE_SHA256 = {
    1: "9b20613793a39bfd30ba4b9a59efe0c4834426d08f0aeac7a649f044964116d5",
    2: "a8186ac876370e9e70e740bce1eb94b07bc4ea7cc48919aceb64f6d400201fa0",
    3: "582e0dc0d3a68c4376db620ddee42cc0466858aa27eb66b41b8361752993817e",
    4: "3042897d34c5d084a071914931e509dd4bd146928e5d6e7a88b3894a7448893a",
    5: "58684942c7fa695a65af887370b3f368a63bb674960ce29fff512755126c05e8",
    6: "62b1d975120fbd8a11784673660d0e83cfac010d39d95730bf47395e15937a5f",
    7: "fa7ebe2742fbec8b9755e6155448278f4143083e273e045b45fb416b520213ee",
    8: "5800dd15bf4bac6a97c81bdd219e5e8f82f0b850449d22e3ce8eb7dfe643b28c",
    9: "5fcdb944ec416fb614e68d05423dbf049b2d13cf73f3e1f82140f31336c9c60a",
    10: "db2c7f5d9497ef8a98dd0bc7c2829c6282fff11549ba158fdb4fa7256a7bf64c",
    11: "58d2d2ffd0cff7667394357afd66250c936e57ae30abdde7d1ae82344451aaa7",
    12: "b9effaf83315c2a616c109ea0828aced85663fb0a30527e7b5f4c8f3632b7915",
    13: "32f157f25277eed25dc80f5848bff80b5247fcbb80f33f56168c4a07b19982b5",
    14: "1012a2ceabdfce1c6f0cee55f8da5d75024d13081461f275f5192a2a82ddeb1d",
    15: "2d4aabbe7a730f996359dce05a5f3aef8a5fa9ee52b73bc4f8721666e7ccf837",
    16: "8bad8d234bde8509916d0f692a834c489f9ed99d147e0682ca0ab38dc6f6ffa3",
}


@pytest.mark.parametrize("k", sorted(_GENERIC_TABLE_SHA256))
def test_generic_table_is_unchanged(k):
    text = render_generic_table(k)
    assert hashlib.sha256(text.encode()).hexdigest() == _GENERIC_TABLE_SHA256[k]


def test_as_table_round_trip():
    voter = synthesize_majority(3)
    table = voter.as_table()
    assert table.variables == ("y1", "y2", "y3")
    assert table.outputs == popcount_table(3, 2)


# --- properties ---------------------------------------------------------------

_profiles = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.integers(min_value=0, max_value=1 << n).map(
        lambda n1: ErrorProfile(n, (1 << n) - n1, n1)
    )
)


@given(_profiles, st.integers(min_value=1, max_value=8))
def test_synthesis_always_yields_a_threshold(profile, k):
    voter = synthesize_probabilistic(profile, k)
    # 1 <= t <= k: all-zeros decides 0 and all-ones decides 1
    assert voter.k == k
    assert 1 <= voter.threshold <= k


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=3).map(lambda i: 2 * i + 1),
)
def test_balanced_profile_reduces_to_majority(n, k):
    balanced = ErrorProfile(n, 1 << (n - 1), 1 << (n - 1))
    assert synthesize_probabilistic(balanced, k) == synthesize_majority(k)


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=8))
def test_degenerate_profiles_become_and_or(n, k):
    all_zeros = ErrorProfile(n, 1 << n, 0)
    all_ones = ErrorProfile(n, 0, 1 << n)
    assert synthesize_probabilistic(all_zeros, k).threshold == k  # AND of replicas
    assert synthesize_probabilistic(all_ones, k).threshold == 1  # OR of replicas


@given(_profiles, st.integers(min_value=1, max_value=6))
def test_sop_round_trips(profile, k):
    voter = synthesize_probabilistic(profile, k)
    names = tuple(f"y{i}" for i in range(1, k + 1))
    expected = popcount_table(k, voter.threshold)
    assert parse_expression(emit_minterm_sop(voter), names).outputs == expected
    expression, metrics = emit_threshold_sop(voter)
    assert parse_expression(expression, names).outputs == expected
    assert metrics.literals == metrics.terms * voter.threshold
