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
thresholds all run lane-wise as whole-integer operations.  A kept replica
carries into bit 64 of its lane, so bits 64-72 count the kept replicas,
and one `bit_count` per voter tallies the votes that match the golden bit
at bit 72.  The lane constants are plain integers, built once per sweep and
chunk size.  Only the golden-output lookup is left per trial: each lane's
row index is every second 64-bit word of the little-endian row integer.
The counts equal those of drawing the stream one value at a time, trial
after trial (the tests keep that loop as the oracle).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter

from .logic import TruthTable
from .voter import VoterTable, _check_int, check_replica_count

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Trials per chunk: bounds a cell's memory to a few 64 KiB integers for any
# trial count.
CHUNK = 4096
_LANE_BITS = 128
_LANE_BYTES = _LANE_BITS // 8

DEFAULT_TRIALS = 5000
DEFAULT_SEED = 0xC0FFEE


def _lane_constants(count: int) -> tuple[int, int]:
    """(ONES, RAMP) for `count` lanes: lane j holds 1 and j."""
    ones, ramp, filled = 1, 0, 1
    while filled < count:
        ramp |= (ramp + filled * ones) << (_LANE_BITS * filled)
        ones |= ones << (_LANE_BITS * filled)
        filled *= 2
    mask = (1 << _LANE_BITS * count) - 1
    return ones & mask, ramp & mask


def _mix(z: int, lanes: int = _MASK64) -> int:
    """SplitMix64's output function, applied to every 64-bit lane of z.

    `lanes` holds 2^64 - 1 in each lane; the default treats z as a single
    64-bit value.  Masking each shift keeps bits from crossing into the
    next lane, and lanes 128 bits apart leave room for each 64x64-bit
    product, so no carry reaches a neighbour either.  The last shift is
    unmasked: it leaves the next lane's low bits in bits 97-127 of a lane.
    """
    z = ((z ^ (z >> 30 & lanes)) * 0xBF58476D1CE4E5B9) & lanes
    z = ((z ^ (z >> 27 & lanes)) * 0x94D049BB133111EB) & lanes
    return z ^ z >> 31


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
    trials: int = DEFAULT_TRIALS
    master_seed: int = DEFAULT_SEED

    def __post_init__(self):
        object.__setattr__(self, "voters", tuple(self.voters))
        object.__setattr__(
            self, "pe_values", tuple(Fraction(pe) for pe in self.pe_values)
        )
        # _run_cell counts each trial's kept replicas in bits 64-71 of its
        # lane and votes on bit 72, which holds only while MAX_REPLICAS < 256.
        check_replica_count(self.k)
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
        _check_int("trial count", self.trials)
        if self.trials < 1:
            raise ValueError(f"trial count must be positive, got {self.trials}")
        _check_int("master seed", self.master_seed)
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


def _chunk_lanes(config: SimConfig, size: int) -> tuple:
    """Plain-integer lane constants of a `size`-trial chunk; no cell changes
    them, and `_run_cell` reads row indices with one `struct` format code."""
    ones, ramp = _lane_constants(size)
    lanes = ones * _MASK64
    carry = ones << 64
    thresholds = [voter.threshold for _, voter in config.voters]
    offsets = ramp * ((config.k + 1) * _GOLDEN & _MASK64)
    row_mask = ones * ((1 << config.function.arity) - 1)
    # A voter with threshold t is right on a golden-1 trial iff kept >= t
    # and on a golden-0 trial iff kept >= k - t + 1.  Kept counts (at most
    # MAX_REPLICAS) sit in bits 64-71, so adding 256 - a carries into bit 72
    # iff kept >= a.
    votes = [(carry * (256 - t), carry * (255 - config.k + t)) for t in thresholds]
    return ones, lanes, offsets, row_mask, ones * _GOLDEN, carry, votes


def _run_cell(
    config: SimConfig, index: int, pe: Fraction, chunks: dict[int, tuple]
) -> AvailabilityRecord:
    k = config.k
    outputs = config.function.outputs
    counts = [0] * len(config.voters)
    module_correct = 0
    first_state = substream_state(config.master_seed, index)
    # A replica keeps its bit iff (draw >> 11) >= cutoff: iff adding 2^64 -
    # (cutoff << 11) carries into bit 64, under _mix's leftovers at 97-127.
    bias = (1 << 64) - (flip_cutoff(pe) << 11)

    for start in range(0, config.trials, CHUNK):
        size = min(CHUNK, config.trials - start)
        ones, lanes, offsets, row_mask, steps, carry, votes = chunks[size]
        flip_bias = ones * bias
        row_state = (first_state + (start * (k + 1) + 1) * _GOLDEN) & _MASK64
        state = (row_state * ones + offsets) & lanes

        width = size * _LANE_BYTES
        rows = (_mix(state, lanes) & row_mask).to_bytes(width, "little")
        # A little-endian row integer's even 64-bit words are its lanes' rows.
        golden = itemgetter(*struct.unpack(f"<{2 * size}Q", rows)[::2])(outputs)
        # Byte 9 of a lane holds bit 72.  itemgetter returns a lone item, not
        # a 1-tuple, for a single row.
        golden_bytes = bytearray(width)
        golden_bytes[9::_LANE_BYTES] = bytes(golden if size > 1 else (golden,))
        golden = int.from_bytes(golden_bytes, "little")
        del rows, golden_bytes  # no byte buffer lives through the draws

        kept = 0
        for r in range(k):
            state = (state + steps) & lanes
            bits = (_mix(state, lanes) + flip_bias) & carry
            if r == 0:
                module_correct += bits.bit_count()
            kept += bits

        golden_zero = golden ^ carry << 8
        for i, (one_bias, zero_bias) in enumerate(votes):
            counts[i] += (
                golden & (kept + one_bias) | golden_zero & (kept + zero_bias)
            ).bit_count()

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
    # Full chunks and the last one: at most two sizes.
    sizes = {min(CHUNK, config.trials), config.trials % CHUNK} - {0}
    chunks = {size: _chunk_lanes(config, size) for size in sizes}
    return [_run_cell(config, i, pe, chunks) for i, pe in enumerate(config.pe_values)]
