#!/usr/bin/env python3
"""Regenerate the full experiment: voters, sweeps, CSVs and plot scripts.

For each bundled fixture this synthesizes both voters, writes the exact
availability curves and a seeded Monte Carlo sweep side by side, emits
gnuplot scripts for the availability and error figures, and prints a
measured-vs-exact summary at a few representative flip probabilities.

Run from the repository root:

    python3 scripts/reproduce.py --outdir out
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from probvoter.analytic import compare_and_crossover
from probvoter.cli import DEFAULT_PE, main as cli_main
from probvoter.logic import TruthTable, parse_expression, parse_table_file, serialize_table
from probvoter.sim import DEFAULT_SEED, DEFAULT_TRIALS, SimConfig, run_sweep
from probvoter.voter import (
    ErrorProfile,
    VoterTable,
    emit_threshold_sop,
    error_profile,
    synthesize_majority,
    synthesize_probabilistic,
)


@dataclass(frozen=True)
class Fixture:
    name: str
    table: TruthTable
    k: int


FIXTURES = (
    Fixture("tmr_two_ones", parse_table_file(b"a b c d\n0000000000001010\n"), 3),
    Fixture("fivemr_four_ones", parse_expression("!a&!b&c + a&b&!d", ("a", "b", "c", "d")), 5),
)

SPOT_CHECKS = (Fraction(1, 20), Fraction(1, 8), Fraction(3, 10), Fraction(1, 2))


def describe_voters(fixture: Fixture, profile: ErrorProfile, majority: VoterTable, prob: VoterTable) -> None:
    size = 1 << profile.n
    print(f"== {fixture.name} (k={fixture.k}) ==")
    print(f"profile: N0={profile.n0} N1={profile.n1} E0={profile.n1}/{size} E1={profile.n0}/{size}")
    for label, voter in (("majority", majority), ("probabilistic", prob)):
        expression, metrics = emit_threshold_sop(voter)
        print(f"{label}: t={voter.threshold}  {metrics.terms} terms / {metrics.literals} literals  y = {expression}")


def spot_check(
    fixture: Fixture, profile: ErrorProfile, majority: VoterTable, prob: VoterTable, trials: int, seed: int
) -> None:
    config = SimConfig(
        function=fixture.table,
        k=fixture.k,
        voters=(("majority", majority), ("prob", prob)),
        pe_values=SPOT_CHECKS,
        trials=trials,
        master_seed=seed,
    )
    exact = compare_and_crossover(profile, majority, prob, SPOT_CHECKS).points
    print(f"{'pe':>8}  {'exact maj':>10} {'meas maj':>9}  {'exact prob':>10} {'meas prob':>9}")
    for record, point in zip(run_sweep(config), exact):
        print(
            f"{str(record.pe):>8}  "
            f"{float(point.majority_availability):>10.5f} {float(record.availability('majority')):>9.4f}  "
            f"{float(point.prob_availability):>10.5f} {float(record.availability('prob')):>9.4f}"
        )
    comparison = compare_and_crossover(profile, majority, prob, DEFAULT_PE)
    if comparison.crossovers:
        for low, high in comparison.crossovers:
            print(f"voters swap rank between pe={low} and pe={high}")
    else:
        print("no rank change across the default grid")
    print()


def emit_artifacts(fixture: Fixture, outdir: Path, trials: int, seed: int) -> None:
    table_path = outdir / f"{fixture.name}.tt"
    table_path.write_text(serialize_table(fixture.table))
    base = [
        "--table", str(table_path),
        "-k", str(fixture.k),
        "--trials", str(trials),
    ]
    targets = {
        "sim": ["simulate", *base, "--seed", str(seed), "--out", str(outdir / f"{fixture.name}_sim.csv")],
        "exact": ["analytic", *base, "--out", str(outdir / f"{fixture.name}_exact.csv")],
    }
    for argv in targets.values():
        code = cli_main(argv)
        if code != 0:
            raise SystemExit(code)
    for flavour in ("sim", "exact"):
        csv_path = outdir / f"{fixture.name}_{flavour}.csv"
        code = cli_main(["plot", str(csv_path), "--out", str(outdir / f"{fixture.name}_{flavour}.gp")])
        if code != 0:
            raise SystemExit(code)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", type=Path, default=Path("out"), help="artifact directory (default: out)")
    parser.add_argument("--trials", type=int, default=DEFAULT_TRIALS, help="Monte Carlo inputs per probability")
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED, help="master seed")
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)
    for fixture in FIXTURES:
        profile = error_profile(fixture.table)
        majority = synthesize_majority(fixture.k)
        prob = synthesize_probabilistic(profile, fixture.k)
        describe_voters(fixture, profile, majority, prob)
        spot_check(fixture, profile, majority, prob, args.trials, args.seed)
        emit_artifacts(fixture, args.outdir, args.trials, args.seed)
    print(f"CSV, manifest and gnuplot artifacts in {args.outdir}/")


if __name__ == "__main__":
    main()
