"""Seeded inputs and command lists for the benchmark workloads.

Each workload is a fixed list of `probvoter` CLI invocations over functions
generated here from the workload seed.  The generator computes every truth
table itself (as an integer bitmask, bit i = output of row i) so the checker
knows N0 and N1 without asking the package.  The program only ever sees the
written `.tt` files, the expression text and the derived `--seed`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

# The CLI's default 15-point grid; commands that rely on it omit --pe.
DEFAULT_GRID = tuple(
    Fraction(text)
    for text in (
        "0.001", "0.002", "0.005", "0.01", "0.02", "0.05", "0.1", "0.15",
        "0.2", "0.25", "0.3", "0.35", "0.4", "0.45", "0.5",
    )
)

ANALYTIC_TRIALS = 5000


@dataclass(frozen=True)
class Function:
    """A generated function: variable names, output bitmask, and its SOP text."""

    name: str
    variables: tuple[str, ...]
    mask: int
    expression: str | None = None

    @property
    def n(self) -> int:
        return len(self.variables)

    @property
    def n1(self) -> int:
        return self.mask.bit_count()

    @property
    def n0(self) -> int:
        return (1 << self.n) - self.n1

    def bits(self) -> str:
        """Output line of the table file: character i is row i."""
        return format(self.mask, f"0{1 << self.n}b")[::-1]

    def table_text(self) -> str:
        return " ".join(self.variables) + "\n" + self.bits() + "\n"

    @property
    def table_path(self) -> str:
        return f"{self.name}.tt"


@dataclass(frozen=True)
class Command:
    """One CLI invocation plus what the checker needs to know about it."""

    kind: str
    function: Function
    argv: tuple[str, ...]
    k: int = 0
    tie_policy: int | None = None
    grid: tuple[Fraction, ...] = ()
    trials: int = 0
    seed: int | None = None
    out: str | None = None
    label: str = ""

    @property
    def outputs(self) -> tuple[str, ...]:
        if self.out is None:
            return ()
        return (self.out, self.out + ".manifest.json")


@dataclass(frozen=True)
class Workload:
    name: str
    functions: tuple[Function, ...]
    commands: tuple[Command, ...]

    def write_inputs(self, directory: Path) -> None:
        for function in self.functions:
            (directory / function.table_path).write_bytes(function.table_text().encode("ascii"))


# --- function generators ---------------------------------------------------------


def _names(n: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(n))


def _variable_mask(position: int, n: int) -> int:
    """Rows where variable `position` (0 = first = MSB of the row index) is 1."""
    # Period 2^(bit+1): 2^bit zero rows then 2^bit one rows, doubled up to 2^n rows.
    block = 1 << (n - 1 - position)
    mask = ((1 << block) - 1) << block
    width = block << 1
    while width < 1 << n:
        mask |= mask << width
        width <<= 1
    return mask


def _cube_text(cube: list[tuple[int, int]], names: tuple[str, ...]) -> str:
    return "&".join(names[var] if value else "!" + names[var] for var, value in cube)


def minterm_function(rng: random.Random, name: str, n: int, ones: int) -> Function:
    """`ones` random rows set to 1, written as a sum of minterms (small n only)."""
    rows = sorted(rng.sample(range(1 << n), ones))
    names = _names(n)
    terms = [
        _cube_text([(j, row >> (n - 1 - j) & 1) for j in range(n)], names) for row in rows
    ]
    return Function(name, names, sum(1 << row for row in rows), " + ".join(terms))


def balanced_function(rng: random.Random, name: str, n: int, zeros: int) -> Function:
    """`zeros` random rows set to 0 and the rest to 1; table file only."""
    rows = rng.sample(range(1 << n), (1 << n) - zeros)
    return Function(name, _names(n), sum(1 << row for row in rows))


def cube_function(rng: random.Random, name: str, n: int, cubes: int, literals: int) -> Function:
    """An SOP of `cubes` random cubes with `literals` literals each."""
    names = _names(n)
    full = (1 << (1 << n)) - 1
    var_masks = [_variable_mask(j, n) for j in range(n)]
    mask = 0
    terms = []
    for _ in range(cubes):
        cube = sorted((var, rng.getrandbits(1)) for var in rng.sample(range(n), literals))
        cube_mask = full
        for var, value in cube:
            cube_mask &= var_masks[var] if value else var_masks[var] ^ full
        mask |= cube_mask
        terms.append(_cube_text(cube, names))
    return Function(name, names, mask, " + ".join(terms))


# --- commands ----------------------------------------------------------------------


def _source_args(function: Function, source: str) -> tuple[str, ...]:
    if source == "expr":
        return ("--expr", function.expression, "--vars", ",".join(function.variables))
    return ("--table", function.table_path)


def profile(function: Function, source: str) -> Command:
    argv = ("profile",) + _source_args(function, source)
    return Command("profile", function, argv, label=f"profile --{source}")


def synth(function: Function, k: int) -> Command:
    argv = ("synth",) + _source_args(function, "table") + ("-k", str(k))
    return Command("synth", function, argv, k=k, label=f"synth -k {k}")


def _sweep(kind, function, k, tie_policy, grid, trials, seed=None) -> Command:
    out = f"{kind}-{function.name}-k{k}.csv"
    argv = [kind, *_source_args(function, "table"), "-k", str(k)]
    if tie_policy is not None:
        argv += ["--tie-policy", str(tie_policy)]
    if grid != DEFAULT_GRID:
        argv += ["--pe", ",".join(decimal(p) for p in grid)]
    argv += ["--trials", str(trials), "--out", out]
    if seed is not None:
        argv += ["--seed", hex(seed)]
    return Command(
        kind, function, tuple(argv), k=k, tie_policy=tie_policy, grid=grid,
        trials=trials, seed=seed, out=out, label=f"{kind} -k {k} ({len(grid)} points)",
    )


def analytic(function, k, tie_policy=None, grid=DEFAULT_GRID) -> Command:
    return _sweep("analytic", function, k, tie_policy, grid, ANALYTIC_TRIALS)


def simulate(function, k, trials, seed, tie_policy=None, grid=DEFAULT_GRID) -> Command:
    return _sweep("simulate", function, k, tie_policy, grid, trials, seed)


def decimal(x: Fraction) -> str:
    """Shortest exact decimal of a fraction whose denominator is 2^a * 5^b."""
    den = x.denominator
    twos = (den & -den).bit_length() - 1
    rest = den >> twos
    fives = 0
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        raise ValueError(f"{x} has no finite decimal expansion")
    places = max(twos, fives)
    digits = str(abs(x.numerator) * 10**places // den).rjust(places + 1, "0")
    sign = "-" if x < 0 else ""
    if places == 0:
        return sign + digits
    fractional = digits[-places:].rstrip("0")
    return sign + digits[:-places] + ("." + fractional if fractional else "")


# --- the workloads -----------------------------------------------------------------
#
# Every workload runs every command kind, so every run can report every
# metric, but each is sized so that one layer dominates its wall time.


def _mc_k16(rng: random.Random) -> Workload:
    # The trial loop at k=16 is >90% of the pass: the per-replica draw dominates.
    # The other commands run at k=3 so that building 2^16-entry voters stays
    # inside simulate; 5,000 trials per cell keep a pass near 1 s, so a run
    # holds enough passes for a stable median.
    f = minterm_function(rng, "skewed6", 6, 8)
    commands = (
        profile(f, "expr"),
        profile(f, "table"),
        synth(f, 3),
        analytic(f, 3),
        simulate(f, 16, 5_000, rng.getrandbits(64), tie_policy=1),
    )
    return Workload("mc-k16", (f,), commands)


def _wide_n20(rng: random.Random) -> Workload:
    # Every command loads the 1M-row table, and analytic and simulate write it
    # back into their manifests; simulate at k=3 does golden-row lookups in it.
    # 32 cubes of 8 literals set about 1/8 of the rows.
    f = cube_function(rng, "wide20", 20, cubes=32, literals=8)
    commands = (
        profile(f, "expr"),
        profile(f, "table"),
        synth(f, 3),
        analytic(f, 3),
        simulate(f, 3, 2_000, rng.getrandbits(64)),
    )
    return Workload("wide-n20", (f,), commands)


FINE_GRID = tuple(Fraction(i, 2000) for i in range(1, 1001))


def _exact_k16(rng: random.Random) -> Workload:
    # Exact Fraction binomial sums on a 1000-point grid, plus a voter at k=16
    # whose minterm SOP is about 3 MB.  449 <= N0 <= 511 of 1024 rows gives
    # t = ceil(16*N0/1024) = 8 for every seed, so the load does not depend on
    # the seed.  The simulate step is a token one.
    skewed = minterm_function(rng, "skewed8", 8, 32)
    balanced = balanced_function(rng, "balanced10", 10, rng.randint(449, 511))
    commands = (
        profile(skewed, "expr"),
        profile(balanced, "table"),
        synth(balanced, 16),
        analytic(skewed, 16, tie_policy=1, grid=FINE_GRID),
        simulate(skewed, 16, 500, rng.getrandbits(64), tie_policy=1,
                 grid=(Fraction(1, 4), Fraction(1, 2))),
    )
    return Workload("exact-k16", (skewed, balanced), commands)


BUILDERS = {"mc-k16": _mc_k16, "wide-n20": _wide_n20, "exact-k16": _exact_k16}


def build(name: str, seed: int) -> Workload:
    """The workload `name` for `seed`; the same pair always gives the same inputs."""
    return BUILDERS[name](random.Random(f"probvoter-bench:{name}:{seed}"))
