"""End-to-end acceptance gate.

Each test covers one numbered claim about the package and prints a single
PASS/FAIL line (run with -s to see them).  Expected values fall in three
buckets: reference values for the two bundled fixture functions, values
derived from the exact availability oracle, and statistical bands around
that oracle for the seeded Monte Carlo runs.
"""

import math
import random
import time
from fractions import Fraction

from analytic_oracle import enumerated_availability
from probvoter.analytic import SystemModel, compare_and_crossover, system_availability
from probvoter.cli import DEFAULT_PE, main
from probvoter.logic import TruthTable, parse_expression
from probvoter.sim import SimConfig, run_sweep
from probvoter.voter import (
    ErrorProfile,
    emit_minterm_sop,
    emit_threshold_sop,
    error_profile,
    synthesize_majority,
    synthesize_probabilistic,
)
from voter_oracle import popcount_table

PRIMARY_SEED = 0xC0FFEE
RETRY_SEED = 0x5EEDFACE


def _verdict(number, name, check):
    try:
        check()
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    print(f"criterion {number} ({name}): PASS")


def test_criterion_1_error_profiles(two_ones, four_ones):
    def check():
        skewed = error_profile(two_ones)
        assert skewed.e1 == Fraction(14, 16)
        assert skewed.e0 == Fraction(2, 16)
        quad = error_profile(four_ones)
        assert quad.e1 == Fraction(12, 16)
        assert quad.e0 == Fraction(4, 16)

    _verdict(1, "exact error profiles", check)


def test_criterion_2_synthesized_voters(two_ones, four_ones):
    def check():
        tmr = synthesize_probabilistic(error_profile(two_ones), 3)
        assert popcount_table(tmr.k, tmr.threshold) == bytes((0, 0, 0, 0, 0, 0, 0, 1))
        assert emit_minterm_sop(tmr) == "y1&y2&y3"
        fivemr = synthesize_probabilistic(error_profile(four_ones), 5)
        accepted = {p for p in range(32) if popcount_table(fivemr.k, fivemr.threshold)[p]}
        assert accepted == {0b01111, 0b10111, 0b11011, 0b11101, 0b11110, 0b11111}

    _verdict(2, "synthesized voter tables", check)


def test_criterion_3_majority_baseline():
    def check():
        majority = synthesize_majority(3)
        assert popcount_table(majority.k, majority.threshold) == bytes((0, 0, 0, 1, 0, 1, 1, 1))

    _verdict(3, "majority baseline", check)


def test_criterion_4_oracle_vs_enumeration(two_ones, four_ones):
    def check():
        start = time.perf_counter()
        rng = random.Random(0x5EC7)
        tables = [two_ones, four_ones]
        for _ in range(20):
            n = rng.randint(1, 4)
            bits = tuple(rng.randint(0, 1) for _ in range(1 << n))
            tables.append(TruthTable(tuple(f"v{i}" for i in range(n)), bits))
        probabilities = (Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(1))
        for table in tables:
            profile = error_profile(table)
            for k in (1, 3, 5, 7):
                voters = (synthesize_probabilistic(profile, k), synthesize_majority(k))
                for voter in voters:
                    for p in probabilities:
                        model = SystemModel(profile, voter, p)
                        assert system_availability(model) == enumerated_availability(
                            profile, voter, p
                        )
        assert time.perf_counter() - start < 1.0

    _verdict(4, "closed form equals pattern enumeration", check)


def _fixture_sweep(table, k, seed):
    profile = error_profile(table)
    config = SimConfig(
        function=table,
        k=k,
        voters=(
            ("majority", synthesize_majority(k)),
            ("prob", synthesize_probabilistic(profile, k)),
        ),
        pe_values=DEFAULT_PE,
        trials=5000,
        master_seed=seed,
    )
    return run_sweep(config)


def test_criterion_5_monte_carlo_fidelity(two_ones, four_ones):
    def check():
        start = time.perf_counter()
        for table, k in ((two_ones, 3), (four_ones, 5)):
            profile = error_profile(table)
            voters = {
                "majority": synthesize_majority(k),
                "prob": synthesize_probabilistic(profile, k),
            }
            records = _fixture_sweep(table, k, PRIMARY_SEED)
            retry = None
            for index, record in enumerate(records):
                exact = {"module": float(1 - record.pe)}
                for label, voter in voters.items():
                    exact[label] = float(
                        system_availability(SystemModel(profile, voter, record.pe))
                    )
                for series, target in exact.items():
                    band = 3 * math.sqrt(target * (1 - target) / record.trials)

                    def measured(rec):
                        correct = (
                            rec.module_correct
                            if series == "module"
                            else rec.voter_correct[series]
                        )
                        return correct / rec.trials

                    if abs(measured(record) - target) <= band:
                        continue
                    # one fixed-seed retry per cell
                    if retry is None:
                        retry = _fixture_sweep(table, k, RETRY_SEED)
                    assert abs(measured(retry[index]) - target) <= band, (
                        f"k={k} pe={record.pe} {series}: "
                        f"{measured(record)} and retry {measured(retry[index])} "
                        f"both outside {target} +/- {band}"
                    )
        assert time.perf_counter() - start < 5.0

    _verdict(5, "Monte Carlo within 3-sigma of oracle", check)


def test_criterion_6_curve_claims(two_ones, four_ones, tmp_path, capsys):
    def check():
        # exact analytics: the probabilistic voter strictly wins at high pe
        for table, k in ((two_ones, 3), (four_ones, 5)):
            profile = error_profile(table)
            majority = synthesize_majority(k)
            prob = synthesize_probabilistic(profile, k)
            for pe in (Fraction(3, 10), Fraction(2, 5), Fraction(1, 2)):
                a_prob = system_availability(SystemModel(profile, prob, pe))
                a_maj = system_availability(SystemModel(profile, majority, pe))
                assert a_prob > a_maj, f"k={k} pe={pe}"
        tmr_profile = error_profile(two_ones)
        assert system_availability(
            SystemModel(tmr_profile, synthesize_probabilistic(tmr_profile, 3), Fraction(3, 10))
        ) == Fraction(8942500, 10**7)
        assert system_availability(
            SystemModel(tmr_profile, synthesize_majority(3), Fraction(3, 10))
        ) == Fraction(784, 1000)

        # the CSV's error columns are exactly trials - correct, per row
        csv_path = tmp_path / "acc.csv"
        table_path = tmp_path / "acc.tt"
        table_path.write_text("a b c d\n0000000000001010\n")
        assert main(["simulate", "--table", str(table_path), "--out", str(csv_path)]) == 0
        for line in csv_path.read_text().splitlines()[1:]:
            cells = line.split(",")
            trials = int(cells[6])
            for avail_col, err_col in ((2, 4), (3, 5)):
                correct = round(float(cells[avail_col]) * trials)
                assert int(cells[err_col]) == trials - correct

        # the small-pe regime where majority leads is reported, not hidden
        grid = [Fraction(n, 100) for n in range(10, 16)]
        comparison = compare_and_crossover(
            tmr_profile, synthesize_majority(3), synthesize_probabilistic(tmr_profile, 3), grid
        )
        assert comparison.crossovers == ((Fraction(12, 100), Fraction(13, 100)),)
        assert Fraction(12, 100) < Fraction(1, 8) < Fraction(13, 100)
        low = comparison.points[0]
        assert low.majority_availability > low.prob_availability
        assert main(
            ["analytic", "--table", str(table_path), "--pe", "0.1,0.11,0.12,0.13",
             "--out", str(tmp_path / "acc2.csv")]
        ) == 0
        assert "crossover: pe in (0.12, 0.13)" in capsys.readouterr().out

    _verdict(6, "curve-level claims", check)


def test_criterion_7_property_suite(two_ones, four_ones):
    def check():
        start = time.perf_counter()
        # a (k, t) voter is symmetric and monotone by construction; unanimity
        # and the special cases: exhaustive over every profile shape with
        # n <= 3 and every k <= 7
        for n in (1, 2, 3):
            for n1 in range((1 << n) + 1):
                profile = ErrorProfile(n, (1 << n) - n1, n1)
                for k in range(1, 8):
                    voter = synthesize_probabilistic(profile, k)
                    table = popcount_table(voter.k, voter.threshold)
                    assert len(table) == 1 << k and table[0] == 0 and table[-1] == 1
                    if n1 == 1 << (n - 1) and k % 2 == 1:
                        assert voter == synthesize_majority(k)
                    if n1 == 0:
                        assert voter.threshold == k  # AND of replicas
                    if n1 == 1 << n:
                        assert voter.threshold == 1  # OR of replicas
        # SOP round-trips for the fixture voters and both baselines
        voters = [
            synthesize_probabilistic(error_profile(two_ones), 3),
            synthesize_probabilistic(error_profile(four_ones), 5),
            synthesize_majority(3),
            synthesize_majority(5),
        ]
        for voter in voters:
            names = tuple(f"y{i}" for i in range(1, voter.k + 1))
            table = popcount_table(voter.k, voter.threshold)
            assert parse_expression(emit_minterm_sop(voter), names).outputs == table
            expression, _ = emit_threshold_sop(voter)
            assert parse_expression(expression, names).outputs == table
        # sweep determinism under a fixed seed
        profile = error_profile(two_ones)
        config = SimConfig(
            function=two_ones,
            k=3,
            voters=(("prob", synthesize_probabilistic(profile, 3)),),
            pe_values=(Fraction(1, 10), Fraction(1, 2)),
            trials=1000,
            master_seed=PRIMARY_SEED,
        )
        assert run_sweep(config) == run_sweep(config)
        assert time.perf_counter() - start < 10.0

    _verdict(7, "property suite", check)


def test_criterion_8_voter_complexity(two_ones):
    def check():
        prob = synthesize_probabilistic(error_profile(two_ones), 3)
        majority = synthesize_majority(3)
        prob_sop, prob_metrics = emit_threshold_sop(prob)
        majority_sop, majority_metrics = emit_threshold_sop(majority)
        assert (prob_metrics.terms, prob_metrics.literals) == (1, 3)
        assert (majority_metrics.terms, majority_metrics.literals) == (3, 6)
        # the minimized forms are equivalence-checked against the tables
        names = ("y1", "y2", "y3")
        assert parse_expression(prob_sop, names).outputs == popcount_table(3, prob.threshold)
        assert parse_expression(majority_sop, names).outputs == popcount_table(3, majority.threshold)

    _verdict(8, "voter complexity metrics", check)
