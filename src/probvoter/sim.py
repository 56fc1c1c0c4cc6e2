"""Seeded Monte Carlo fault injection for replicated modules.

The random stream is pinned so that runs are bit-reproducible across
machines and versions: a SplitMix64 generator supplies 64-bit values, each
trial consumes exactly 1 + k draws (one to pick the input row, then one per
replica in index order to decide whether its output bit flips), and every
sweep cell runs on its own substream derived from the master seed.  Adding
or removing observers therefore never perturbs the stream, and each flip
probability sees freshly drawn inputs -- nothing is reused across cells.

SplitMix64 is counter-based: draw d of a substream that starts at state s0
is mix(s0 + d*GOLDEN mod 2^64).  A cell is therefore evaluated a chunk of
trials at a time, with one draw per 128-bit lane of a Python int.  Lane j
of the row integer holds trial j's first state and the replica-r integer
holds the state r + 1 draws later; the mixer, the flip test and the vote
thresholds all run lane-wise as whole-integer operations, and `bit_count`
tallies the lanes.  The only per-trial step left is looking up each
trial's golden output.  The counts equal those of drawing the stream one
value at a time, trial after trial (the tests keep that loop as the oracle).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .logic import TruthTable
from .voter import MAX_REPLICAS, VoterTable

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Trials per chunk: bounds a cell's memory to a few 64 KiB integers for any
# trial count.
CHUNK = 4096
_LANE_BITS = 128
_LANE_BYTES = _LANE_BITS // 8
# The low 64-bit word of every lane, in lane order, when a packed integer
# is written out in the machine's byte order and cast to native words.
_LOW_WORDS = slice(None, None, 2 if sys.byteorder == "little" else -2)


def _lane_constants(count: int) -> tuple[int, int]:
    """(ONES, RAMP) for `count` lanes (a power of two): lane j holds 1 and j."""
    ones, ramp, filled = 1, 0, 1
    while filled < count:
        ramp |= (ramp + filled * ones) << (_LANE_BITS * filled)
        ones |= ones << (_LANE_BITS * filled)
        filled *= 2
    return ones, ramp


_ONES, _RAMP = _lane_constants(CHUNK)
_LANES = _ONES * _MASK64
_LOW53 = _ONES * ((1 << 53) - 1)
_STEPS = _ONES * _GOLDEN


def _mix(z: int, lanes: int = _MASK64) -> int:
    """SplitMix64's output function, applied to every 64-bit lane of z.

    `lanes` holds 2^64 - 1 in each lane; the default treats z as a single
    64-bit value.  Masking each shift keeps bits from crossing into the
    next lane, and lanes 128 bits apart leave room for each 64x64-bit
    product, so no carry reaches a neighbour either.
    """
    z = ((z ^ (z >> 30 & lanes)) * 0xBF58476D1CE4E5B9) & lanes
    z = ((z ^ (z >> 27 & lanes)) * 0x94D049BB133111EB) & lanes
    return z ^ (z >> 31 & lanes)


def rng_next(state: int) -> tuple[int, int]:
    """One SplitMix64 step: (new_state, 64-bit output)."""
    state = (state + _GOLDEN) & _MASK64
    return state, _mix(state)


def substream_state(master_seed: int, index: int) -> int:
    """Initial state for sweep cell `index`: mix the seed once through the generator."""
    mixed = (master_seed ^ ((index + 1) * _GOLDEN & _MASK64)) & _MASK64
    return rng_next(mixed)[1]


def flip_cutoff(pe: Fraction) -> int:
    """Integer c with (value >> 11) < c  iff  (value >> 11) * 2^-53 < pe.

    The right-hand side is the flip test on a draw's 53-bit unit-interval
    value.  Both of its sides are exact -- the draw is a dyadic rational and
    the comparison against a `Fraction` happens in exact arithmetic -- so
    c = ceil(pe * 2^53) reproduces it with pure integers.
    """
    return -(-(pe.numerator << 53) // pe.denominator)


@dataclass(frozen=True)
class SimConfig:
    """A full sweep: one Monte Carlo cell per flip probability.

    `voters` pairs a label with a voter table; every record reports the
    bare module alongside all voters.  `pe_values` are normalised to exact
    `Fraction`s so the flip comparison is reproducible.
    """

    function: TruthTable
    k: int
    voters: tuple[tuple[str, VoterTable], ...]
    pe_values: tuple[Fraction, ...]
    trials: int = 5000
    master_seed: int = 0xC0FFEE

    def __post_init__(self):
        object.__setattr__(self, "voters", tuple(self.voters))
        object.__setattr__(
            self, "pe_values", tuple(Fraction(pe) for pe in self.pe_values)
        )
        # _run_cell counts each trial's unflipped replicas in an 8-bit field
        # of its lane, which holds only while MAX_REPLICAS < 256.
        if not 1 <= self.k <= MAX_REPLICAS:
            raise ValueError(
                f"replica count must be between 1 and {MAX_REPLICAS}, got {self.k}"
            )
        labels = [label for label, _ in self.voters]
        if len(set(labels)) != len(labels):
            raise ValueError("voter labels must be unique")
        for label, voter in self.voters:
            if not label:
                raise ValueError("voter labels must be non-empty")
            if voter.k != self.k:
                raise ValueError(
                    f"voter {label!r} is for k={voter.k}, config says k={self.k}"
                )
        if not self.pe_values:
            raise ValueError("need at least one flip probability")
        if any(not 0 <= pe <= 1 for pe in self.pe_values):
            raise ValueError("flip probabilities must be in [0, 1]")
        if self.trials < 1:
            raise ValueError(f"trial count must be positive, got {self.trials}")
        if not 0 <= self.master_seed < 1 << 64:
            raise ValueError("master seed must be a 64-bit unsigned integer")


@dataclass(frozen=True)
class AvailabilityRecord:
    """Counts of correct outputs for one sweep cell."""

    pe: Fraction
    trials: int
    module_correct: int
    voter_correct: dict[str, int] = field(hash=False)

    @property
    def module_availability(self) -> Fraction:
        return Fraction(self.module_correct, self.trials)

    @property
    def module_errors(self) -> int:
        return self.trials - self.module_correct

    def availability(self, label: str) -> Fraction:
        return Fraction(self.voter_correct[label], self.trials)

    def errors(self, label: str) -> int:
        return self.trials - self.voter_correct[label]


def _run_cell(config: SimConfig, index: int, pe: Fraction) -> AvailabilityRecord:
    k = config.k
    outputs = config.function.outputs
    thresholds = [voter.threshold for _, voter in config.voters]
    counts = [0] * len(thresholds)
    module_correct = 0
    first_state = substream_state(config.master_seed, index)

    # Lane constants for a full chunk.  Only `ones` and `lanes` are cut to
    # a short last chunk: every other constant meets one of them in an `&`
    # before its extra lanes could reach a count.
    trial_steps = _RAMP * ((k + 1) * _GOLDEN & _MASK64)
    row_masks = _ONES * ((1 << config.function.arity) - 1)
    # A replica keeps its bit iff (draw >> 11) >= cutoff, i.e. iff adding
    # 2^53 - cutoff to the 53-bit value carries into bit 53.
    flip_bias = _ONES * ((1 << 53) - flip_cutoff(pe))
    # A voter with threshold t is right on a golden-1 trial iff kept >= t
    # and on a golden-0 trial iff kept >= k - t + 1.  `kept` is at most
    # MAX_REPLICAS, so bit 8 of kept + 256 - a tests kept >= a per lane.
    vote_biases = [(_ONES * (256 - t), _ONES * (255 - k + t)) for t in thresholds]

    for start in range(0, config.trials, CHUNK):
        size = min(CHUNK, config.trials - start)
        keep = (1 << _LANE_BITS * size) - 1
        ones, lanes = _ONES & keep, _LANES & keep
        row_state = (first_state + (start * (k + 1) + 1) * _GOLDEN) & _MASK64
        state = (row_state * ones + trial_steps) & lanes

        width = size * _LANE_BYTES
        rows = (_mix(state, lanes) & row_masks).to_bytes(width, sys.byteorder)
        golden_bytes = bytearray(width)
        golden_bytes[::_LANE_BYTES] = bytes(
            map(outputs.__getitem__, memoryview(rows).cast("Q")[_LOW_WORDS].tolist())
        )
        golden = int.from_bytes(golden_bytes, "little")

        kept = 0
        for r in range(k):
            state = (state + _STEPS) & lanes
            bits = ((_mix(state, lanes) >> 11 & _LOW53) + flip_bias) >> 53 & ones
            if r == 0:
                module_correct += bits.bit_count()
            kept += bits

        golden_zero = golden ^ ones
        for i, (one_bias, zero_bias) in enumerate(vote_biases):
            counts[i] += (golden & ((kept + one_bias) >> 8)).bit_count()
            counts[i] += (golden_zero & ((kept + zero_bias) >> 8)).bit_count()

    return AvailabilityRecord(
        pe=pe,
        trials=config.trials,
        module_correct=module_correct,
        voter_correct={label: counts[i] for i, (label, _) in enumerate(config.voters)},
    )


def run_sweep(config: SimConfig) -> list[AvailabilityRecord]:
    """Run every cell of the sweep; purely a function of the config.

    Cell i always uses substream i regardless of which cells exist, so a
    sub-grid of a larger sweep reproduces that sweep's cells only when the
    retained cells keep their original indices.
    """
    return [_run_cell(config, i, pe) for i, pe in enumerate(config.pe_values)]
