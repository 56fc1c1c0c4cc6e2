"""Draw-for-draw reference for the packed simulator in `probvoter.sim`.

These are the simulator's definitions written one draw at a time: a float
flip test per replica, a voter applied to each replica pattern, and the
whole cell as a plain loop over trials.  The tests require the packed cell
to reproduce them record for record.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from probvoter.logic import TruthTable
from probvoter.sim import (
    AvailabilityRecord,
    SimConfig,
    flip_cutoff,
    rng_next,
    substream_state,
)
from probvoter.voter import VoterTable

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_TO_UNIT = 2.0**-53


def unit_interval(value: int) -> float:
    """Map a 64-bit output to [0, 1) with 53-bit resolution."""
    return (value >> 11) * _TO_UNIT


def inject(bit: int, pe, state: int) -> tuple[int, int]:
    """Flip `bit` with probability pe, consuming exactly one draw."""
    state, value = rng_next(state)
    if unit_interval(value) < pe:
        bit ^= 1
    return bit, state


def run_trial(
    function: TruthTable,
    k: int,
    voters: Sequence[VoterTable],
    pe,
    state: int,
) -> tuple[tuple[bool, ...], bool, int]:
    """One fault-injection trial.

    Draws a uniform input row, computes the golden output, derives each
    replica's (possibly flipped) bit in order, and scores every voter plus
    the bare module (replica 1) against the golden bit.  Returns
    (per-voter correctness, module correctness, new rng state).
    """
    state, value = rng_next(state)
    golden = function.outputs[value & ((1 << function.arity) - 1)]
    bits = []
    for _ in range(k):
        bit, state = inject(golden, pe, state)
        bits.append(bit)
    flags = tuple((sum(bits) >= v.threshold) == golden for v in voters)
    return flags, bits[0] == golden, state


def loop_cell(config: SimConfig, index: int, pe: Fraction) -> AvailabilityRecord:
    """One sweep cell as a loop over trials, with the generator and the
    threshold votes inlined (equal draw for draw to a `run_trial` chain)."""
    state = substream_state(config.master_seed, index)
    outputs = config.function.outputs
    row_mask = (1 << config.function.arity) - 1
    k = config.k
    cutoff = flip_cutoff(pe)
    thresholds = [voter.threshold for _, voter in config.voters]
    counts = [0] * len(thresholds)
    module_correct = 0

    for _ in range(config.trials):
        state = (state + _GOLDEN) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        golden = outputs[(z ^ (z >> 31)) & row_mask]

        ones = 0
        first = golden
        for r in range(k):
            state = (state + _GOLDEN) & _MASK64
            z = state
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            bit = golden ^ (((z ^ (z >> 31)) >> 11) < cutoff)
            ones += bit
            if r == 0:
                first = bit

        module_correct += first == golden
        for i, t in enumerate(thresholds):
            counts[i] += (1 if ones >= t else 0) == golden

    return AvailabilityRecord(
        pe=pe,
        trials=config.trials,
        module_correct=module_correct,
        voter_correct={label: counts[i] for i, (label, _) in enumerate(config.voters)},
    )
