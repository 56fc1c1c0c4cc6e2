import hashlib
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from probvoter.logic import TruthTable, parse_expression
from probvoter.sim import SimConfig
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
    threshold_sop,
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
    function = TruthTable(("a",), b"\x00\x01")
    for k in (-1, 0, 17, 40):
        message = f"^replica count must be between 1 and 16, got {k}$"
        with pytest.raises(ValueError, match=message):
            synthesize_probabilistic(profile, k)
        # An even k with no tie policy must still get the replica-count message.
        with pytest.raises(ValueError, match=message):
            synthesize_majority(k)
        with pytest.raises(ValueError, match=message):
            VoterTable(k, 1)
        with pytest.raises(ValueError, match=message):
            render_generic_table(k)
        with pytest.raises(ValueError, match=message):
            SimConfig(function=function, k=k, voters=(), pe_values=(Fraction(1, 2),))


@pytest.mark.parametrize("k", [3.0, True, False, 2.5, "3", None])
def test_replica_count_must_be_a_plain_int(k):
    function = TruthTable(("a",), b"\x00\x01")
    message = f"^replica count must be an int, got {type(k).__name__}$"
    with pytest.raises(TypeError, match=message):
        VoterTable(k, 1)
    with pytest.raises(TypeError, match=message):
        synthesize_majority(k, 1)
    with pytest.raises(TypeError, match=message):
        synthesize_probabilistic(ErrorProfile(1, 1, 1), k)
    with pytest.raises(TypeError, match=message):
        render_generic_table(k)
    with pytest.raises(TypeError, match=message):
        SimConfig(function=function, k=k, voters=(), pe_values=(Fraction(1, 2),))


@pytest.mark.parametrize("threshold", [2.0, True, Fraction(2)])
def test_threshold_must_be_a_plain_int(threshold):
    with pytest.raises(TypeError, match=f"^threshold must be an int, got {type(threshold).__name__}$"):
        VoterTable(3, threshold)


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
    + [(k, t) for k in range(13, 17) for t in (1, k // 2, k - 1, k)],
)
def test_minterm_sop_equals_the_literal_loop(k, t):
    voter = VoterTable(k, t)
    assert emit_minterm_sop(voter) == minterm_sop(voter)


# k = 1 (an empty low half), t <= floor(k/2) (the empty high subset takes
# terms) and t = k (only the full high subset does) are all among these
@pytest.mark.parametrize("k, t", [(k, t) for k in range(1, 17) for t in range(1, k + 1)])
def test_threshold_sop_equals_one_join_per_subset(k, t):
    voter = VoterTable(k, t)
    assert emit_threshold_sop(voter) == threshold_sop(voter)


def test_threshold_sop_peak_is_near_its_text():
    # the blocks and the joined text, not a list of 12,870 term strings
    voter = VoterTable(16, 8)
    emit_threshold_sop(voter)  # first-call caches stay out of the peak
    tracemalloc.start()
    try:
        expression, _ = emit_threshold_sop(voter)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(expression) == 379_662
    assert peak < 2.5 * len(expression), f"traced peak {peak} bytes"


def _sop_digests(voter: VoterTable) -> tuple[str, str]:
    """sha256 of the minterm SOP, and of the threshold SOP with its metrics."""
    expression, metrics = emit_threshold_sop(voter)
    return (
        hashlib.sha256(emit_minterm_sop(voter).encode()).hexdigest(),
        hashlib.sha256(f"{expression}\n{metrics.terms} {metrics.literals}".encode()).hexdigest(),
    )


# For each k: sha256 over t = 1..k of each emitter's `_sop_digests` entry,
# one per line, so every byte of both SOPs is pinned for every (k, t)
_SOP_SHA256 = {
    1: (
        "b7dbe39d88f2123db04ce4383f15bbb97b7122cee9611c6106932dba79d829d5",
        "66cde16c3bce3f0ae79d3904c7e42dee229e0f9f7d5af0a1601593e4b06f8581",
    ),
    2: (
        "34d3ba628e46c676d6ab0fc0b88a370f252f8749518f41b8661657025bb03054",
        "e5b9e20efbefcef8d76216cac10c4696722a360688a271a9278491f807875a1f",
    ),
    3: (
        "0fb90c6d5e058a195eb928b54b48bbbd6e99e2296bf1d5fd0e7174a00fab9100",
        "6b5deb4ae220feb6968e3f517ceb78a23dae8512923e2453aa0990eda793fa8e",
    ),
    4: (
        "d77d11f23ae51287eeae055a1fad9b07bd81a4ffc28a75ffbe186e45b79380e0",
        "7850f656385e5db4d03aad059a0ba32da15c773fed90985a30c3579635c5bc28",
    ),
    5: (
        "709c63533d5a707c6358ba93845db49ba95bbb782f473734d0a02da4735cf610",
        "01274d0af576b0179333726aa400a40e95ac491204abdb08473893e5f4a74fe9",
    ),
    6: (
        "6caa6c59ee0bd93d15b53d3d2890717b766249b4ea5dae0c8c9aec1bed697833",
        "300b5a16880f9489467dc13a88d1966ff03fa588891484483177cfd9ba14d700",
    ),
    7: (
        "9ef43f111c909804eeaf1ac76f0a1ad2f84f674119b5fc26d84dc126a7570c8f",
        "535e48a4b0cc27a04a592485c3e7f16c3a15fd7b72ee63ec6463d59cf6944c80",
    ),
    8: (
        "f1bb994a56bad2cf75e8ac854b92b8d28748c896b44120c7923560e6108cfc25",
        "6b67f8fafe5aa5fa65df546b4656eb9d429276e781824b48d70e415ec4ba1364",
    ),
    9: (
        "ffb75061ef22cd3bdc7b32bcff48668d6cf4d362cb92c08cda1496fe6146867d",
        "d2b5843f759c6bc38775468a069a900f91e4a08116fdff013b88d9ff99101124",
    ),
    10: (
        "7fbea34ae7f3d273086b8b2169c36c057c7ab65cb90042ac2e851de0c2ab5314",
        "0004a86c889a7b55908ab9b0c3fa7d5c7e8adf2d91ce5b7c6234c5fc305295a7",
    ),
    11: (
        "316efd805d0d300e4b20792167e0ed56e95e4f0c25eb05e0fc47a45cdc70f415",
        "cb770975c70b0525676d221952e3dfb68496e044ed8cb1bf0a8f8f354151b1b5",
    ),
    12: (
        "ed858897fb547fdc753c1f08fd003c847c9bb1b43832beb8193d37e09f203023",
        "059ab35a5336a884bf8f2bc18cf10042083406b62685c409cff7af16d766b421",
    ),
    13: (
        "872b89d0f1cc652340f1871bbe17279f935a95509ac25242633c5d712df71b84",
        "f6908775f77ea34a014560c370f42201acab5d2e02ea61cd5f33964fc58f9b68",
    ),
    14: (
        "ee125f3eb1c3b04acd552522ce4ae7b4d918a06925834ffbf570f8cc68b0e708",
        "7f14ca8f7a45fc5c1e05b872e260efc8eb2a067970c838057ebafeb95023a536",
    ),
    15: (
        "6e94ad2b7fce07654f16fc24a865a7b6828a1e2f72bc7b5afa34674477c943ae",
        "15da8fb732117ece7fd3613448f4c609dacea4cea0249fc07dc2943ce11d8c62",
    ),
    16: (
        "b6c8938d4a38ce6c1667c6679f3d5c4e160cd16e6c154a1ddd1e963a57c28e94",
        "286c6a5388700e5dc7913cf7f6a4a0b36098e1c918ff277344badf3e33f48dd4",
    ),
}


@pytest.mark.parametrize("k", range(1, 17))
def test_sop_text_is_unchanged(k):
    minterm, threshold = hashlib.sha256(), hashlib.sha256()
    for t in range(1, k + 1):
        minterm_digest, threshold_digest = _sop_digests(VoterTable(k, t))
        minterm.update(f"{minterm_digest}\n".encode())
        threshold.update(f"{threshold_digest}\n".encode())
    assert (minterm.hexdigest(), threshold.hexdigest()) == _SOP_SHA256[k]


@pytest.mark.parametrize("k", range(1, 17))
def test_sop_of_unanimity_is_one_term(k):
    # t = k: every high half but the all-ones one takes no low half, and at
    # k = 1 the low half is empty; neither may leave a bare head or a " + "
    voter = VoterTable(k, k)
    names = tuple(f"y{i}" for i in range(1, k + 1))
    assert emit_minterm_sop(voter) == minterm_sop(voter) == "&".join(names)
    assert emit_threshold_sop(voter) == ("&".join(names), SopMetrics(terms=1, literals=k))


def test_minterm_sop_of_majority():
    assert (
        emit_minterm_sop(synthesize_majority(3))
        == "!y1&y2&y3 + y1&!y2&y3 + y1&y2&!y3 + y1&y2&y3"
    )


def test_threshold_sop_of_majority():
    expression, metrics = emit_threshold_sop(synthesize_majority(3))
    assert expression == "y1&y2 + y1&y3 + y2&y3"
    assert metrics == SopMetrics(terms=3, literals=6)


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
