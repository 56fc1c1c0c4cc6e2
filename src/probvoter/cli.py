"""Command-line front end.

Subcommands:

  profile    print a function's output-symbol counts and error rates
  synth      synthesize a voter; print its table, threshold and SOP forms
  simulate   seeded Monte Carlo fault-injection sweep -> CSV
  analytic   exact availability sweep -> CSV, plus a crossover report
  plot       turn a results CSV into a gnuplot script and data file

Exit codes: 0 success, 2 usage or configuration error, 3 input parse error.
A reader that closes stdout early (`probvoter synth ... | head`) ends the
run quietly with 0.
"""

from __future__ import annotations

import argparse
import decimal
import math
import os
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from . import __version__
from .analytic import ComparisonPoint, compare_and_crossover

# Not called here: the benchmark's tracer (bench/spans.py) wraps these two
# names on this module, so they must stay importable from it.
from .analytic import expected_errors, module_availability  # noqa: F401
from .logic import (
    _TO_ASCII,
    ExpressionError,
    TableFormatError,
    TruthTable,
    output_line,
    parse_expression,
    parse_table_file,
)
from .sim import DEFAULT_SEED, DEFAULT_TRIALS, SimConfig, run_sweep
from .voter import (
    ErrorProfile,
    VoterTable,
    emit_threshold_sop,
    error_profile,
    minterm_sop_blocks,
    render_generic_table,
    synthesize_majority,
    synthesize_probabilistic,
)

# Not called here: `synth` streams the blocks that emit_minterm_sop joins,
# but the benchmark's tracer (bench/spans.py) still wraps this name.
from .voter import emit_minterm_sop  # noqa: F401

CSV_HEADER = "pe,module_avail,majority_avail,prob_avail,majority_errors,prob_errors,trials"

DEFAULT_PE = tuple(
    Fraction(text)
    for text in (
        "0.001", "0.002", "0.005", "0.01", "0.02", "0.05", "0.1", "0.15",
        "0.2", "0.25", "0.3", "0.35", "0.4", "0.45", "0.5",
    )
)

# Fraction("1e999999999") builds 10**999999999 before any range check could
# run, so a --pe value's decimal exponent is bounded first.
MAX_PE_EXPONENT = 1000
_EXPONENT_RE = re.compile(r"e([-+]?[\d_]+)\Z", re.IGNORECASE)
# A plain ASCII decimal such as "0.001", the common --pe value, is read
# without Fraction's general string parser.
_PLAIN_DECIMAL_RE = re.compile(r"([0-9]*)\.([0-9]+)")

# Keeps every error count inside a 64-bit signed integer and its float repr
# finite.
MAX_TRIALS = (1 << 63) - 1

EXIT_CONFIG = 2
EXIT_PARSE = 3


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _integer(text: str) -> int:
    return int(text, 0)


# Python refuses to convert an int of more than sys.get_int_max_str_digits()
# digits (4,300 by default, never below 640) to text.  Longer ints are split
# on a power of two and recombined in exact `decimal` arithmetic, which is
# subquadratic where int `divmod` by a power of ten is not.
_TEXT_LIMIT = 10**600
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX)


def _int_text(n: int) -> str:
    """str(n) for an int n >= 0 of any length."""
    if n < _TEXT_LIMIT:
        return str(n)
    powers = {}

    def convert(n: int) -> decimal.Decimal:
        if n < _TEXT_LIMIT:
            return decimal.Decimal(n)
        half = n.bit_length() >> 1
        power = powers.get(half) or powers.setdefault(half, _EXACT.power(2, half))
        return _EXACT.fma(convert(n >> half), power, convert(n & ((1 << half) - 1)))

    return str(convert(n))


def _decimal_form(den: int) -> tuple[int, int, int, int]:
    """What `_format_decimals` needs for values over den = 2^a * 5^b * r,
    r prime to 10: the decimal places max(a, b), the scale to 10^places, r,
    and den."""
    twos = (den & -den).bit_length() - 1
    rest = den >> twos
    # 5^(2^i) for as long as it divides, then divided out from the largest
    # down: dividing by 5 once per factor is quadratic in den's length, and
    # a --pe of 5,000 decimal places makes a k=16 denominator of 80,000 fives
    powers = [5]
    while rest % powers[-1] == 0:
        powers.append(powers[-1] ** 2)
    fives = 0
    for i in range(len(powers) - 2, -1, -1):
        if rest % powers[i] == 0:
            rest //= powers[i]
            fives += 1 << i
    places = max(twos, fives)
    return places, (1 << (places - twos)) * 5 ** (places - fives), rest, den


def _format_decimals(numerators: Iterable[int], form: tuple[int, int, int, int]) -> list[str]:
    """Each num / den, num >= 0, for `form` = `_decimal_form(den)`: an exact
    decimal if it has one, else a float repr.

    With den = 2^a * 5^b * r and r prime to 10, the value is a finite
    decimal iff r divides num.  Stripping trailing zeros from num / r scaled
    to 10^max(a, b) gives the text of the reduced fraction.  Int true
    division rounds correctly, so the float is the reduced fraction's.
    """
    places, scale, rest, den = form
    texts = []
    for num in numerators:
        if rest > 1:
            if num % rest:
                texts.append(repr(num / den))
                continue
            num //= rest
        num *= scale
        digits = str(num) if num < _TEXT_LIMIT else _int_text(num)
        if places:
            # digits has no leading zero: a value below 1 is "0.", the
            # zeros its digits fall short of `places` by, then the digits
            cut = len(digits) - places
            if cut > 0:
                fractional = digits[cut:].rstrip("0")
                digits = f"{digits[:cut]}.{fractional}" if fractional else digits[:cut]
            else:
                fractional = digits.rstrip("0")
                digits = f"0.{'0' * -cut}{fractional}" if fractional else "0"
        texts.append(digits)
    return texts


def _format_exact(x: Fraction) -> str:
    """Exact decimal of x >= 0 if it has one, else float repr."""
    return _format_decimals((x.numerator,), _decimal_form(x.denominator))[0]


def _fraction_text(x: Fraction) -> str:
    """str(x) for a Fraction x >= 0 of any size."""
    if x.numerator < _TEXT_LIMIT and x.denominator < _TEXT_LIMIT:
        return str(x)
    if x.denominator == 1:
        return _int_text(x.numerator)
    return f"{_int_text(x.numerator)}/{_int_text(x.denominator)}"


def _parse_pe_grid(entries: list[str] | None) -> tuple[Fraction, ...]:
    if entries is None:
        return DEFAULT_PE
    values = []
    for entry in entries:
        for part in entry.split(","):
            part = part.strip()
            if not part:
                raise _CliError("empty value in --pe list", EXIT_CONFIG)
            try:
                plain = _PLAIN_DECIMAL_RE.fullmatch(part)
                if plain:
                    # Fraction(part)'s own arithmetic, so an over-long part
                    # fails int()'s digit limit exactly where Fraction would
                    whole, digits = plain.groups()
                    scale = 10 ** len(digits)
                    value = Fraction(int(whole or "0") * scale + int(digits), scale)
                else:
                    exponent = _EXPONENT_RE.search(part)
                    if exponent and abs(int(exponent.group(1))) > MAX_PE_EXPONENT:
                        raise _CliError(
                            f"probability {part} has a decimal exponent beyond {MAX_PE_EXPONENT}",
                            EXIT_CONFIG,
                        )
                    value = Fraction(part)
            except (ValueError, ZeroDivisionError):
                raise _CliError(f"cannot parse probability {part!r}", EXIT_CONFIG) from None
            if not 0 <= value.numerator <= value.denominator:
                raise _CliError(f"probability {part} is outside [0, 1]", EXIT_CONFIG)
            values.append(value)
    return tuple(values)


def _load_function(args):
    """Resolve --table/--expr into a truth table plus manifest source info."""
    if args.table is not None and args.expr is not None:
        raise _CliError("give exactly one of --table or --expr, not both", EXIT_CONFIG)
    if args.vars is not None and args.expr is None:
        raise _CliError("--vars only makes sense with --expr", EXIT_CONFIG)
    if args.table is not None:
        try:
            data = Path(args.table).read_bytes()
        except OSError as exc:
            raise _CliError(f"cannot read {args.table}: {exc}", EXIT_PARSE) from exc
        try:
            table = parse_table_file(data)
        except TableFormatError as exc:
            raise _CliError(f"{args.table}: {exc}", EXIT_PARSE) from exc
        return table, {"kind": "table", "path": str(args.table)}
    if args.expr is not None:
        names = None
        if args.vars is not None:
            names = tuple(part.strip() for part in args.vars.split(","))
        try:
            table = parse_expression(args.expr, names)
        except ExpressionError as exc:
            raise _CliError(f"expression: {exc}", EXIT_PARSE) from exc
        except ValueError as exc:
            raise _CliError(f"--vars: {exc}", EXIT_CONFIG) from exc
        return table, {
            "kind": "expr",
            "text": args.expr,
            "vars": list(names) if names is not None else None,
        }
    raise _CliError("a function is required: --table PATH or --expr TEXT", EXIT_CONFIG)


def _write_bytes(path: str, *parts: bytes) -> None:
    try:
        with open(path, "wb") as file:
            for part in parts:
                file.write(part)
    except OSError as exc:
        raise _CliError(f"cannot write {path}: {exc}", EXIT_CONFIG) from exc


def _write_text(path: str, text: str) -> None:
    _write_bytes(path, text.encode("utf-8"))


def _refuse_outputs(inputs, *paths) -> None:
    """Exit 2 if any of `paths` is empty, is in a directory that does not
    exist, is a directory or is the same file as one of `inputs` (None
    entries skipped).  Called before a command's first write, so a path
    refused late leaves none of the earlier files behind."""
    for path in paths:
        if not path:
            raise _CliError("cannot write to an empty path", EXIT_CONFIG)
        parent = os.path.dirname(path)
        if parent and not os.path.isdir(parent):
            raise _CliError(f"cannot write {path}: there is no directory {parent}", EXIT_CONFIG)
        if os.path.isdir(path):
            raise _CliError(f"cannot write {path}: it is a directory", EXIT_CONFIG)
        for source in filter(None, inputs):
            if os.path.exists(path) and os.path.samefile(path, source):
                raise _CliError(
                    f"cannot write {path}: it is the same file as the input {source}",
                    EXIT_CONFIG,
                )


# A function's output line holds only '0' and '1', which JSON writes as they
# are, so it is not passed through the encoder: the payload is dumped with
# this pair empty, and the file is the text before the pair's closing quote,
# the line's bytes, then the rest.  Every '"' inside a JSON string is
# escaped, so the pair can only be the function's own.
_EMPTY_OUTPUTS = '"outputs": ""'


def _write_manifest(out_path: str, payload: dict, outputs: bytes | None = None) -> None:
    """Write `payload` plus the version; `outputs`, ASCII '0'/'1' bytes,
    fills its function's empty "outputs" pair."""
    import json  # only the manifest writers use it; a bare launch skips it

    payload = dict(payload, version=__version__)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    path = str(out_path) + ".manifest.json"
    if outputs is None:
        _write_text(path, text)
        return
    split = text.index(_EMPTY_OUTPUTS) + len(_EMPTY_OUTPUTS) - 1
    _write_bytes(path, text[:split].encode("utf-8"), outputs, text[split:].encode("utf-8"))


# --- subcommands --------------------------------------------------------------


def cmd_profile(args) -> int:
    table, _ = _load_function(args)
    n0, n1 = table.symbol_counts()
    size = 1 << table.arity
    print(f"N0={n0} N1={n1} E0={n1}/{size} E1={n0}/{size}")
    return 0


def cmd_synth(args) -> int:
    table, _ = _load_function(args)
    profile = error_profile(table)
    k = args.replicas
    try:
        if args.kind == "prob":
            voter = synthesize_probabilistic(profile, k)
        else:
            voter = synthesize_majority(k, args.tie_policy)
    except ValueError as exc:
        raise _CliError(str(exc), EXIT_CONFIG) from exc
    decisions = voter.as_table()
    print(" ".join(decisions.variables))
    print(output_line(decisions))
    print(f"t={voter.threshold}")
    # The k=16 SOP is megabytes of text: it goes out block by block, and
    # the threshold SOP as it is, without building a line around either.
    write = sys.stdout.write
    write("minterm_sop=")
    blocks = minterm_sop_blocks(voter)
    write(next(blocks))
    for block in blocks:
        write(" + ")
        write(block)
    expression, metrics = emit_threshold_sop(voter)
    write("\nthreshold_sop=")
    write(expression)
    write("\n")
    print(f"terms={metrics.terms} literals={metrics.literals}")
    if args.dump_generic:
        print()
        print(render_generic_table(k))
    return 0


class _Sweep(NamedTuple):
    """What `simulate` and `analytic` both build from their arguments."""

    table: TruthTable
    source: dict
    profile: ErrorProfile
    grid: tuple[Fraction, ...]
    majority: VoterTable
    prob: VoterTable


def _load_sweep(args) -> _Sweep:
    table, source = _load_function(args)
    profile = error_profile(table)
    grid = _parse_pe_grid(args.pe)
    try:
        majority = synthesize_majority(args.replicas, args.tie_policy)
        prob = synthesize_probabilistic(profile, args.replicas)
    except ValueError as exc:
        raise _CliError(str(exc), EXIT_CONFIG) from exc
    if args.trials > MAX_TRIALS:
        raise _CliError(f"--trials must be at most {MAX_TRIALS}", EXIT_CONFIG)
    return _Sweep(table, source, profile, grid, majority, prob)


def _write_sweep(args, sweep: _Sweep, rows: list[str], **manifest) -> None:
    """Write the CSV and its manifest; `manifest` adds command-specific keys.
    The command has already refused a directory or an input at either path."""
    _write_text(args.out, "\n".join([CSV_HEADER, *rows]) + "\n")
    _write_manifest(
        args.out,
        {
            "command": args.command,
            "function": {
                "variables": list(sweep.table.variables),
                "outputs": "",  # filled by _write_manifest
                "source": sweep.source,
            },
            "k": args.replicas,
            "tie_policy": args.tie_policy,
            "pe": [_fraction_text(pe) for pe in sweep.grid],
            "trials": args.trials,
            "out": str(args.out),
            **manifest,
        },
        sweep.table.outputs.translate(_TO_ASCII),
    )


def cmd_simulate(args) -> int:
    sweep = _load_sweep(args)
    try:
        config = SimConfig(
            function=sweep.table,
            k=args.replicas,
            voters=(("majority", sweep.majority), ("prob", sweep.prob)),
            pe_values=sweep.grid,
            trials=args.trials,
            master_seed=args.seed,
        )
    except ValueError as exc:
        raise _CliError(str(exc), EXIT_CONFIG) from exc
    _refuse_outputs([args.table], args.out, f"{args.out}.manifest.json")
    records = run_sweep(config)
    rows = [
        ",".join(
            (
                _format_exact(rec.pe),
                repr(rec.module_correct / rec.trials),
                repr(rec.voter_correct["majority"] / rec.trials),
                repr(rec.voter_correct["prob"] / rec.trials),
                str(rec.errors("majority")),
                str(rec.errors("prob")),
                str(rec.trials),
            )
        )
        for rec in records
    ]
    _write_sweep(args, sweep, rows, seed=args.seed)
    print(f"wrote {args.out} ({len(records)} rows)")
    return 0


def analytic_rows(points: Iterable[ComparisonPoint], trials: int) -> list[str]:
    """The `analytic` CSV rows: p, 1 - p, both availabilities and both
    expected error counts over `trials` inputs.  For p = a/d, p and 1 - p
    are printed by `_format_decimals` from their numerators over d, and the
    other four from theirs over the point's own denominator; the
    `_decimal_form` of each distinct pair of the two is worked out once.
    """
    forms = {}
    rows = []
    for point in points:
        a, d, den = point.p.numerator, point.p.denominator, point.denominator
        if (d, den) not in forms:
            forms[d, den] = _decimal_form(d), _decimal_form(den)
        p_form, value_form = forms[d, den]
        numerators = (
            point.majority_numerator,
            point.prob_numerator,
            trials * (den - point.majority_numerator),
            trials * (den - point.prob_numerator),
        )
        cells = _format_decimals((a, d - a), p_form)
        cells += _format_decimals(numerators, value_form)
        cells.append("0")
        rows.append(",".join(cells))
    return rows


def cmd_analytic(args) -> int:
    sweep = _load_sweep(args)
    if args.trials < 0:
        raise _CliError(f"trial count must be non-negative, got {args.trials}", EXIT_CONFIG)
    _refuse_outputs([args.table], args.out, f"{args.out}.manifest.json")
    try:
        comparison = compare_and_crossover(sweep.profile, sweep.majority, sweep.prob, sweep.grid)
    except ValueError as exc:
        raise _CliError(str(exc), EXIT_CONFIG) from exc
    rows = analytic_rows(comparison.points, args.trials)
    _write_sweep(args, sweep, rows)
    for low, high in comparison.crossovers:
        print(f"crossover: pe in ({_format_exact(low)}, {_format_exact(high)})")
    if not comparison.crossovers:
        print("crossover: none")
    print(f"wrote {args.out} ({len(comparison.points)} rows)")
    return 0


_PLOT_SCRIPT = """\
# generated by probvoter plot; run with: gnuplot {script}
set terminal svg size 820,560 dynamic
set xlabel "per-replica flip probability"
set key bottom left

set output "{stem}_availability.svg"
set ylabel "availability"
plot "{data}" using 1:2 with linespoints lw 2 title "module (no voting)", \\
     "{data}" using 1:3 with linespoints lw 2 title "majority voter", \\
     "{data}" using 1:4 with linespoints lw 2 title "probabilistic voter"

set output "{stem}_errors.svg"
set ylabel "wrong outputs"
plot "{data}" using 1:5 with linespoints lw 2 title "majority voter", \\
     "{data}" using 1:6 with linespoints lw 2 title "probabilistic voter"
"""


def cmd_plot(args) -> int:
    import hashlib  # only plot uses it; a bare launch skips it

    try:
        data = Path(args.csv).read_bytes()
        text = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError(f"cannot read {args.csv}: {exc}", EXIT_PARSE) from exc
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise _CliError(f"{args.csv}: unexpected CSV header", EXIT_PARSE)
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 7:
            raise _CliError(f"{args.csv}: expected 7 columns, got {len(parts)}", EXIT_PARSE)
        # float() also reads `_` separators and non-ASCII digits, which the
        # .dat would then carry to gnuplot as they are
        try:
            if not line.isascii() or "_" in line:
                raise ValueError
            values = [float(part) for part in parts]
        except ValueError:
            raise _CliError(f"{args.csv}: malformed row {line!r}", EXIT_PARSE) from None
        # pe and the three availabilities are probabilities; the error and
        # trial columns are counts
        if not (
            all(map(math.isfinite, values))
            and all(0 <= value <= 1 for value in values[:4])
            and min(values[4:]) >= 0
        ):
            raise _CliError(f"{args.csv}: value out of range in row {line!r}", EXIT_PARSE)
        rows.append(parts)
    if not rows:
        raise _CliError(f"{args.csv}: no data rows", EXIT_PARSE)
    out = Path(args.out)
    if not out.name:
        raise _CliError(f"--out {args.out!r} has no file name", EXIT_CONFIG)
    data_path = out.with_suffix(".dat")
    if data_path == out:
        raise _CliError("--out must not itself end in .dat", EXIT_CONFIG)
    _refuse_outputs([args.csv], data_path, out, f"{out}.manifest.json")
    data_lines = ["# " + CSV_HEADER.replace(",", " ")]
    data_lines.extend(" ".join(parts) for parts in rows)
    _write_text(str(data_path), "\n".join(data_lines) + "\n")
    script = _PLOT_SCRIPT.format(script=out.name, stem=out.stem, data=data_path.name)
    _write_text(str(out), script)
    _write_manifest(
        str(out),
        {
            "command": "plot",
            "csv": str(args.csv),
            "csv_sha256": hashlib.sha256(data).hexdigest(),
            "out": str(args.out),
        },
    )
    print(f"wrote {out} and {data_path}")
    return 0


# --- parser -------------------------------------------------------------------


def _add_function_arguments(parser) -> None:
    group = parser.add_argument_group("function source (exactly one)")
    group.add_argument("--table", metavar="PATH", help="truth-table file: a line of variable names, then 2^n output bits")
    group.add_argument("--expr", metavar="TEXT", help="boolean expression over !~ & * . + | ( ) 0 1")
    group.add_argument("--vars", metavar="A,B,...", help="explicit variable order for --expr (first name = MSB of the row index)")


def _add_replicas_argument(parser) -> None:
    parser.add_argument("-k", "--replicas", type=int, default=3, help="replica count (default %(default)s)")


def _add_tie_policy_argument(parser) -> None:
    parser.add_argument("--tie-policy", type=int, choices=(0, 1), default=None, help="which symbol wins an even split (required for even k)")


def _add_sweep_arguments(parser) -> None:
    _add_replicas_argument(parser)
    _add_tie_policy_argument(parser)
    parser.add_argument("--pe", action="append", metavar="P[,P...]", help="flip probabilities (decimals or fractions); repeatable or comma-separated; default is a 15-point grid from 0.001 to 0.5")
    parser.add_argument("--trials", type=int, default=DEFAULT_TRIALS, help="inputs per probability (default %(default)s)")
    parser.add_argument("--out", required=True, metavar="PATH", help="CSV output path")


def _add_profile(sub) -> None:
    profile = sub.add_parser("profile", help="print symbol counts and error rates")
    _add_function_arguments(profile)
    profile.set_defaults(func=cmd_profile)


def _add_synth(sub) -> None:
    synth = sub.add_parser("synth", help="synthesize a voter table")
    _add_function_arguments(synth)
    _add_replicas_argument(synth)
    synth.add_argument("--kind", choices=("prob", "majority"), default="prob", help="voter flavour (default %(default)s)")
    _add_tie_policy_argument(synth)
    synth.add_argument("--dump-generic", action="store_true", help="also print the symbolic cost table for k replicas")
    synth.set_defaults(func=cmd_synth)


def _add_simulate(sub) -> None:
    simulate = sub.add_parser("simulate", help="Monte Carlo fault-injection sweep")
    _add_function_arguments(simulate)
    _add_sweep_arguments(simulate)
    simulate.add_argument("--seed", type=_integer, default=DEFAULT_SEED, help="64-bit master seed, decimal or 0x-hex (default 0xC0FFEE)")
    simulate.set_defaults(func=cmd_simulate)


def _add_analytic(sub) -> None:
    analytic = sub.add_parser("analytic", help="exact availability sweep")
    _add_function_arguments(analytic)
    _add_sweep_arguments(analytic)
    analytic.set_defaults(func=cmd_analytic)


def _add_plot(sub) -> None:
    plot = sub.add_parser("plot", help="emit a gnuplot script for a results CSV")
    plot.add_argument("csv", metavar="CSV", help="results file from simulate or analytic")
    plot.add_argument("--out", required=True, metavar="PATH", help="gnuplot script path (data file lands next to it)")
    plot.set_defaults(func=cmd_plot)


_COMMANDS = {
    "profile": _add_profile,
    "synth": _add_synth,
    "simulate": _add_simulate,
    "analytic": _add_analytic,
    "plot": _add_plot,
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with every subcommand, or with `command`'s alone."""
    parser = argparse.ArgumentParser(
        prog="probvoter",
        description="Synthesize function-aware probabilistic voters and measure how much better they mask replica faults than plain majority voting.",
        epilog="exit codes: 0 success, 2 usage/configuration error, 3 input parse error",
    )
    parser.add_argument("--version", action="version", version=f"probvoter {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for add in _COMMANDS.values() if command is None else (_COMMANDS[command],):
        add(sub)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # A call builds only the subparser its first word names.  Any other first
    # word (-h, --version, --, an unknown command) or none gets every
    # subcommand, so help, usage and error texts are those of the full tree.
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    parser = build_parser(command)
    try:
        args = parser.parse_args(argv)
        # argparse may drop a "--" given as an option's value ("--out=--")
        # and store an empty list in place of the string
        for dest, value in vars(args).items():
            if isinstance(value, list) and (not value or [] in value):
                parser.error(f"argument --{dest.replace('_', '-')}: expected one argument")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"probvoter: {exc}", file=sys.stderr)
        return exc.code


def app() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull so the interpreter's own flush at exit
        # cannot hit the closed pipe again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    raise SystemExit(code)
