#!/usr/bin/env python3
"""Check that tier-1 kills a fixed list of single-edit mutants.

Each mutant replaces one exact piece of text in one source file.  For each
mutant, one after another, the script copies the whole tree to a temporary
directory (bench/ included: tests/test_bench_tracer.py imports it), applies
the mutant to the copy and runs tier-1 there.  A mutant is killed when a
test fails.  A mutant listed as equivalent computes the same results by a
different route, so no test can kill it; its reason is printed with it.
The source tree itself is never written.

Each mutant costs up to one tier-1 run (about 40 s on 2 vCPUs), so this is
not part of tier-1.  Run from the repository root:

    python3 scripts/mutants.py

The exit status is 1 when a mutant not listed as equivalent survives.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors"]


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    equivalent: str | None = None


SIM = "src/probvoter/sim.py"
ANALYTIC = "src/probvoter/analytic.py"
CLI = "src/probvoter/cli.py"
MUTANTS = (
    Mutant(
        "flip-cutoff-rounds-down", SIM,
        "return -(-(pe.numerator << 53) // pe.denominator)",
        "return (pe.numerator << 53) // pe.denominator",
    ),
    Mutant(
        "flip-bias-off-by-one", SIM,
        "flip_bias = ones * ((1 << 64) - (flip_cutoff(pe) << 11))",
        "flip_bias = ones * ((1 << 64) - (flip_cutoff(pe) << 11) + 1)",
    ),
    Mutant(
        "dead-lanes-counted", SIM,
        "+ flip_bias) & live",
        "+ flip_bias) & carry",
    ),
    Mutant(
        "tail-mask-one-lane-wide", SIM,
        "(trials - start)",
        "(trials - start + 1)",
    ),
    Mutant(
        "chunk-size-rounded-down", SIM,
        "_chunk_lanes(config, -(-config.trials // chunks))",
        "_chunk_lanes(config, config.trials // chunks)",
    ),
    Mutant(
        "e-n0-sign", ANALYTIC,
        "n0 * (-1) ** ((i - t + 1) & 1)",
        "n0 * (-1) ** ((i - t) & 1)",
    ),
    Mutant(
        "e-n0-index", ANALYTIC,
        "comb(i - 1, t - 1)",
        "comb(i - 1, t)",
    ),
    Mutant(
        "e-n1-sign", ANALYTIC,
        "n1 * (-1) ** ((i - k + t) & 1)",
        "n1 * (-1) ** ((i - k + t + 1) & 1)",
    ),
    Mutant(
        "e-n1-index", ANALYTIC,
        "comb(i - 1, k - t)",
        "comb(i, k - t)",
    ),
    Mutant(
        "e-n0-sign-plus-t", ANALYTIC,
        "n0 * (-1) ** ((i - t + 1) & 1)",
        "n0 * (-1) ** ((i + t + 1) & 1)",
        equivalent="i - t and i + t differ by 2t, so they have the same parity",
    ),
    Mutant(
        "ascending-allows-ties", ANALYTIC,
        "a * e >= b * d",
        "a * e > b * d",
    ),
    Mutant(
        "crossover-from-neighbouring-points", ANALYTIC,
        "        if prob_n != majority_n:\n            signed.append((prob_n > majority_n, p))\n",
        "        signed.append((prob_n > majority_n, p))\n",
    ),
    Mutant(
        "parser-for-any-first-word", CLI,
        "argv[0] if argv and argv[0] in _COMMANDS else None",
        "argv[0] if argv else None",
    ),
    Mutant(
        "parser-for-the-wrong-command", CLI,
        "parser = build_parser(command)",
        'parser = build_parser(command and "synth")',
    ),
    Mutant(
        "missing-directory-not-refused", CLI,
        "        if parent and not os.path.isdir(parent):\n",
        "        if False:\n",
    ),
)


def run_mutant(mutant: Mutant) -> tuple[bool, str]:
    """(killed, the first failing test or the run's last line)."""
    with tempfile.TemporaryDirectory(prefix="probvoter-mutant-") as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(
            ROOT, copy,
            ignore=shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache", ".bench_out", "__pycache__"),
        )
        target = copy / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: {mutant.old!r} does not occur exactly once in {mutant.path}")
        target.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(TIER1, cwd=copy, env=env, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    failed = [line for line in lines if line.startswith(("FAILED ", "ERROR "))]
    detail = failed[0] if failed else lines[-1] if lines else ""
    return proc.returncode != 0, detail


def main() -> int:
    survivors = 0
    for mutant in MUTANTS:
        killed, detail = run_mutant(mutant)
        if killed:
            verdict = "killed, though listed as equivalent" if mutant.equivalent else "killed"
        elif mutant.equivalent:
            verdict = f"survived, equivalent: {mutant.equivalent}"
        else:
            verdict = "SURVIVED"
            survivors += 1
        print(f"{mutant.name}: {verdict} ({detail})", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
