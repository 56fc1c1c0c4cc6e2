import random
import tracemalloc
from fractions import Fraction
from functools import cache
from math import ceil, floor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probvoter import sim
from probvoter.logic import TruthTable
from probvoter.sim import (
    CHUNK,
    AvailabilityRecord,
    SimConfig,
    flip_cutoff,
    rng_next,
    run_sweep,
    substream_state,
)
from probvoter.voter import (
    MAX_REPLICAS,
    VoterTable,
    error_profile,
    synthesize_majority,
    synthesize_probabilistic,
)

from sim_oracle import _GOLDEN, _MASK64, inject, loop_cell, run_trial, unit_interval

# First five outputs of the generator from state 0; any change to these
# breaks bit-reproducibility of every published sweep.
_REFERENCE_STREAM = (
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
    0x1B39896A51A8749B,
)


def test_generator_reference_stream():
    state = 0
    outputs = []
    for _ in range(5):
        state, value = rng_next(state)
        outputs.append(value)
    assert tuple(outputs) == _REFERENCE_STREAM


def test_unit_interval_range():
    assert unit_interval(0) == 0.0
    top = unit_interval((1 << 64) - 1)
    assert 0.0 < top < 1.0
    assert top == (2**53 - 1) / 2**53


def test_substreams_are_distinct_and_deterministic():
    states = [substream_state(0xC0FFEE, i) for i in range(4)]
    assert len(set(states)) == 4
    assert states == [substream_state(0xC0FFEE, i) for i in range(4)]


def test_inject_extremes():
    state = substream_state(7, 0)
    for _ in range(50):
        bit, state = inject(0, Fraction(0), state)
        assert bit == 0
    for _ in range(50):
        bit, state = inject(0, Fraction(1), state)
        assert bit == 1


def test_inject_consumes_exactly_one_draw():
    state = 123456
    _, after = inject(1, Fraction(1, 3), state)
    assert after == rng_next(state)[0]


@given(
    st.integers(min_value=0, max_value=(1 << 64) - 1),
    st.fractions(min_value=0, max_value=1, max_denominator=10**9),
    st.sampled_from([None, -1, 0]),
)
def test_flip_cutoff_matches_float_comparison(value, pe, boundary):
    if boundary is not None:
        # the last draw below the exact cutoff ceil(pe * 2^53), or the first at it;
        # a uniform draw hits either one with chance 2^-64
        value = min(max((ceil(pe * (1 << 53)) << 11) + boundary, 0), (1 << 64) - 1)
    assert ((value >> 11) < flip_cutoff(pe)) == (unit_interval(value) < pe)


def test_flip_cutoff_smallest_representable():
    assert flip_cutoff(Fraction(1, 1 << 53)) == 1
    assert flip_cutoff(Fraction(0)) == 0
    assert flip_cutoff(Fraction(1)) == 1 << 53


@pytest.mark.parametrize(
    "pe", [Fraction(1, 3), Fraction(2, 3), Fraction(1, 10), Fraction(1, (1 << 53) + 1)]
)
def test_flip_cutoff_is_the_exact_ceiling(pe):
    # pe * 2^53 is not an integer here, so rounding down would differ by one
    assert flip_cutoff(pe) == ceil(pe * (1 << 53)) == floor(pe * (1 << 53)) + 1


def _unshift(y: int, shift: int) -> int:
    """The z with z ^ (z >> shift) == y."""
    z = y
    for _ in range(64 // shift):
        z = y ^ z >> shift
    return z


def _unmix(value: int) -> int:
    """The z with sim._mix(z) == value: each xorshift and odd multiply inverts."""
    z = _unshift(value, 31)
    z = _unshift(z * pow(0x94D049BB133111EB, -1, 1 << 64) & _MASK64, 27)
    return _unshift(z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & _MASK64, 30)


def _seed_for_draw(value: int, draw: int, cell: int) -> int:
    """The master seed whose sweep cell `cell` gives `value` as its draw `draw`.

    Draw d of a cell is mix(s0 + (d + 1) * GOLDEN) with s0 its substream state,
    and s0 = mix((seed ^ (cell + 1) * GOLDEN) + GOLDEN).
    """
    first = (_unmix(value) - (draw + 1) * _GOLDEN) & _MASK64
    return ((_unmix(first) - _GOLDEN) & _MASK64) ^ ((cell + 1) * _GOLDEN & _MASK64)


_THIRD = Fraction(1, 3)
_THIRD_CUTOFF = ceil(_THIRD * (1 << 53))


@pytest.mark.parametrize("kept", [False, True])
@pytest.mark.parametrize(
    "trials, trial, cell",
    [(1, 0, 0), (CHUNK, CHUNK - 1, 0), (CHUNK + 1, CHUNK, 1)],
    ids=["only-trial", "last-lane-of-a-full-chunk", "one-trial-last-chunk"],
)
def test_a_draw_next_to_the_flip_cutoff(trials, trial, cell, kept):
    # k = 1: trial j draws its row at 2j and its one replica at 2j + 1.  The
    # last draw below c << 11 flips at pe = 1/3, and c << 11 itself keeps.
    value = (_THIRD_CUTOFF << 11) - (not kept)
    draw = 2 * trial + 1
    seed = _seed_for_draw(value, draw, cell)
    assert rng_next((substream_state(seed, cell) + draw * _GOLDEN) & _MASK64)[1] == value
    config = SimConfig(
        _table(1, 0b10), 1, (("v", VoterTable(1, 1)),), (_THIRD,) * (cell + 1), trials, seed
    )
    record = run_sweep(config)[cell]
    assert record == loop_cell(config, cell, _THIRD)
    if trials == 1:
        assert record.module_correct == record.voter_correct["v"] == kept


def test_run_trial_draw_accounting(two_ones):
    voters = [synthesize_majority(3)]
    state = substream_state(99, 0)
    expected = state
    for _ in range(1 + 3):
        expected, _ = rng_next(expected)
    _, _, after = run_trial(two_ones, 3, voters, Fraction(1, 4), state)
    assert after == expected


def test_run_trial_without_faults_is_always_correct(two_ones):
    voters = [synthesize_majority(3), synthesize_probabilistic(error_profile(two_ones), 3)]
    state = 0
    for _ in range(32):
        flags, module_ok, state = run_trial(two_ones, 3, voters, Fraction(0), state)
        assert module_ok
        assert all(flags)


def test_run_trial_with_certain_faults_inverts_everything(two_ones):
    # every replica flips, so both voters see a unanimous wrong pattern
    voters = [synthesize_majority(3), synthesize_probabilistic(error_profile(two_ones), 3)]
    state = 0
    for _ in range(32):
        flags, module_ok, state = run_trial(two_ones, 3, voters, Fraction(1), state)
        assert not module_ok
        assert flags == (False, False)


def test_inject_flip_rate_tracks_pe():
    state = substream_state(0xC0FFEE, 0)
    flips = 0
    draws = 100_000
    for _ in range(draws):
        bit, state = inject(0, Fraction(1, 2), state)
        flips += bit
    assert abs(flips / draws - 0.5) <= 3 * (0.25 / draws) ** 0.5


def test_sweep_matches_trial_chain(two_ones):
    profile = error_profile(two_ones)
    voters = (
        ("majority", synthesize_majority(3)),
        ("prob", synthesize_probabilistic(profile, 3)),
    )
    config = SimConfig(
        function=two_ones,
        k=3,
        voters=voters,
        pe_values=(Fraction(3, 10), Fraction(1, 100)),
        trials=400,
        master_seed=12345,
    )
    records = run_sweep(config)
    tables = [voter for _, voter in voters]
    for index, pe in enumerate(config.pe_values):
        state = substream_state(12345, index)
        counts = [0, 0]
        module = 0
        for _ in range(config.trials):
            flags, module_ok, state = run_trial(two_ones, 3, tables, pe, state)
            module += module_ok
            counts[0] += flags[0]
            counts[1] += flags[1]
        record = records[index]
        assert record.module_correct == module
        assert record.voter_correct == {"majority": counts[0], "prob": counts[1]}


def test_all_voters_see_the_same_patterns(two_ones):
    # two labels wrapping the same table must score identically in every cell
    majority = synthesize_majority(3)
    config = SimConfig(
        function=two_ones,
        k=3,
        voters=(("first", majority), ("second", majority)),
        pe_values=(Fraction(1, 10), Fraction(2, 5)),
        trials=500,
    )
    for record in run_sweep(config):
        assert record.voter_correct["first"] == record.voter_correct["second"]


def test_sweep_is_deterministic(two_ones):
    profile = error_profile(two_ones)
    config = SimConfig(
        function=two_ones,
        k=3,
        voters=(("prob", synthesize_probabilistic(profile, 3)),),
        pe_values=(Fraction(1, 10), Fraction(1, 2)),
        trials=300,
    )
    assert run_sweep(config) == run_sweep(config)


def test_cells_do_not_depend_on_later_grid_points(two_ones):
    base = dict(
        function=two_ones,
        k=3,
        voters=(("majority", synthesize_majority(3)),),
        trials=200,
        master_seed=77,
    )
    short = run_sweep(SimConfig(pe_values=(Fraction(1, 5),), **base))
    long = run_sweep(SimConfig(pe_values=(Fraction(1, 5), Fraction(2, 5)), **base))
    assert short[0] == long[0]


def test_record_accessors():
    record = AvailabilityRecord(
        pe=Fraction(1, 10),
        trials=200,
        module_correct=180,
        voter_correct={"majority": 190},
    )
    assert record.module_availability == Fraction(9, 10)
    assert record.module_errors == 20
    assert record.availability("majority") == Fraction(19, 20)
    assert record.errors("majority") == 10


def test_config_validation(two_ones):
    majority = synthesize_majority(3)
    good = dict(
        function=two_ones,
        k=3,
        voters=(("majority", majority),),
        pe_values=(Fraction(1, 10),),
    )
    SimConfig(**good)
    with pytest.raises(ValueError):
        SimConfig(**{**good, "voters": (("m", majority), ("m", majority))})
    with pytest.raises(ValueError):
        SimConfig(**{**good, "voters": (("", majority),)})
    with pytest.raises(ValueError):
        SimConfig(**{**good, "k": 5})  # voter built for k=3
    with pytest.raises(ValueError):
        SimConfig(**{**good, "trials": 0})
    with pytest.raises(ValueError):
        SimConfig(**{**good, "pe_values": ()})
    with pytest.raises(ValueError):
        SimConfig(**{**good, "pe_values": (Fraction(3, 2),)})
    with pytest.raises(ValueError):
        SimConfig(**{**good, "master_seed": 1 << 64})
    with pytest.raises(ValueError):
        SimConfig(**{**good, "master_seed": -1})


@pytest.mark.parametrize("field, name", [("trials", "trial count"), ("master_seed", "master seed")])
@pytest.mark.parametrize("value", [2.5, 3.0, True, False, Fraction(3), "3", None])
def test_trials_and_seed_must_be_plain_ints(two_ones, field, name, value):
    good = dict(
        function=two_ones,
        k=3,
        voters=(("majority", synthesize_majority(3)),),
        pe_values=(Fraction(1, 10),),
    )
    with pytest.raises(TypeError, match=f"^{name} must be an int, got {type(value).__name__}$"):
        SimConfig(**{**good, field: value})


def _table(n: int, bits: int) -> TruthTable:
    # bit i of `bits` is the output for row i
    outputs = tuple(map(int, reversed(format(bits, f"0{1 << n}b"))))
    return TruthTable(tuple(f"x{i}" for i in range(n)), outputs)


def _assert_matches_oracle(config: SimConfig) -> None:
    expected = [loop_cell(config, i, pe) for i, pe in enumerate(config.pe_values)]
    assert run_sweep(config) == expected


_EDGE_PES = (Fraction(0), Fraction(1), Fraction(1, 1 << 53), 1 - Fraction(1, 1 << 53))


@st.composite
def _sim_configs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    function = _table(n, draw(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1)))
    k = draw(st.integers(min_value=1, max_value=MAX_REPLICAS))
    tie_policy = draw(st.sampled_from((0, 1))) if k % 2 == 0 else None
    voters = (
        ("majority", synthesize_majority(k, tie_policy)),
        ("prob", synthesize_probabilistic(error_profile(function), k)),
        ("threshold", VoterTable(k, draw(st.integers(1, k)))),
    )
    pe_values = draw(
        st.lists(
            st.one_of(
                st.sampled_from(_EDGE_PES),
                st.fractions(min_value=0, max_value=1, max_denominator=10**9),
            ),
            min_size=1,
            max_size=3,
        )
    )
    trials = draw(st.sampled_from((1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7)))
    seed = draw(st.integers(min_value=0, max_value=(1 << 64) - 1))
    return SimConfig(function, k, voters, tuple(pe_values), trials, seed)


@settings(max_examples=30, deadline=None)
@given(_sim_configs())
def test_packed_cells_match_the_trial_loop(config):
    _assert_matches_oracle(config)


def test_packed_cells_match_the_trial_loop_at_twenty_inputs():
    rows = random.Random(20).getrandbits(1 << 20)
    function = _table(20, rows)
    voters = (
        ("majority", synthesize_majority(3)),
        ("prob", synthesize_probabilistic(error_profile(function), 3)),
    )
    config = SimConfig(
        function, 3, voters, (Fraction(1, 10), *_EDGE_PES), CHUNK + 1, 2026
    )
    _assert_matches_oracle(config)


@cache
def _skewed_function(n: int) -> TruthTable:
    # about one row in eight is a 1, so the cost-based voter is not majority
    rng = random.Random(n)
    return TruthTable(
        tuple(f"x{i}" for i in range(n)),
        bytes(rng.getrandbits(3) == 0 for _ in range(1 << n)),
    )


_KERNEL_TRIALS = (1, 2, CHUNK - 1, CHUNK + 1, CHUNK + 904)
_KERNEL_PES = (*_EDGE_PES, Fraction(1, 10))


@pytest.mark.parametrize("n", (1, 6, 20))
@pytest.mark.parametrize("k, tie_policy", ((1, None), (3, None), (16, 0), (16, 1)))
def test_packed_cells_match_the_trial_loop_on_a_fixed_grid(n, k, tie_policy):
    # one and two lanes, a chunk less a lane, a one-lane tail and a 904-lane
    # tail, against the edge flip probabilities, with the lowest and highest
    # thresholds beside the two synthesized voters
    function = _skewed_function(n)
    voters = (
        ("majority", synthesize_majority(k, tie_policy)),
        ("prob", synthesize_probabilistic(error_profile(function), k)),
        ("lowest", VoterTable(k, 1)),
        ("highest", VoterTable(k, k)),
    )
    for seed, trials in enumerate(_KERNEL_TRIALS):
        _assert_matches_oracle(SimConfig(function, k, voters, _KERNEL_PES, trials, seed))


def test_lane_constants_are_built_once_per_chunk_size(monkeypatch, two_ones):
    built = []
    build = sim._chunk_lanes

    def counting_build(config, size):
        built.append(size)
        return build(config, size)

    monkeypatch.setattr(sim, "_chunk_lanes", counting_build)
    voters = (("majority", synthesize_majority(3)),)
    grid = tuple(Fraction(i, 16) for i in range(9))
    for trials, sizes in (
        (1, [1]),
        (CHUNK - 1, [CHUNK - 1]),
        (CHUNK, [CHUNK]),
        (3 * CHUNK, [CHUNK]),
        (2 * CHUNK + 5, [5, CHUNK]),
    ):
        built.clear()
        records = run_sweep(SimConfig(two_ones, 3, voters, grid, trials))
        assert len(records) == len(grid)
        assert sorted(built) == sizes, trials


def test_cell_memory_does_not_grow_with_trials(two_ones):
    config = SimConfig(
        function=two_ones,
        k=16,
        voters=(("majority", synthesize_majority(16, 1)),),
        pe_values=(Fraction(1, 10),),
        trials=200_000,
    )
    tracemalloc.start()
    try:
        run_sweep(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a few chunk-sized (64 KiB) integers; one integer over all trials is 3.2 MB
    assert peak <= 2 << 20, f"traced peak {peak} bytes"


@pytest.mark.parametrize("count", [1, 3, 904, CHUNK])
def test_lane_constants_fill_exactly_count_lanes(count):
    ones, ramp = sim._lane_constants(count)
    lane = (1 << 128) - 1
    assert [ones >> 128 * j & lane for j in range(count)] == [1] * count
    assert [ramp >> 128 * j & lane for j in range(count)] == list(range(count))
    assert ones.bit_length() <= 128 * count and ramp.bit_length() <= 128 * count


@pytest.mark.parametrize("size", [1, 904, CHUNK])
def test_chunk_lanes_are_plain_integers(two_ones, size):
    voters = (("majority", synthesize_majority(3)), ("prob", VoterTable(3, 2)))
    config = SimConfig(two_ones, 3, voters, (Fraction(1, 10),))
    for value in sim._chunk_lanes(config, size):
        if type(value) is list:
            assert len(value) == len(voters)
            assert all(
                type(pair) is tuple and [type(v) for v in pair] == [int, int]
                for pair in value
            )
        else:
            assert type(value) is int


def test_sim_module_holds_no_lane_sized_integers():
    wide = {
        name: value.bit_length()
        for name, value in vars(sim).items()
        if isinstance(value, int) and value.bit_length() > 128
    }
    assert wide == {}
