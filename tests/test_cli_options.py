"""Every knob the command line offers, pinned in order.

A change that adds, drops, renames or re-defaults an option, or edits its
help text, has to edit this census too, so such a change is always seen.
"""

import argparse

import pytest

from probvoter import cli
from probvoter.cli import _integer, build_parser, main

SUPPRESS = argparse.SUPPRESS
HELP = (("-h", "--help"), "help", None, SUPPRESS, None, False, "show this help message and exit")
FUNCTION = [
    HELP,
    (("--table",), "table", None, None, None, False, "truth-table file: a line of variable names, then 2^n output bits"),
    (("--expr",), "expr", None, None, None, False, "boolean expression over !~ & * . + | ( ) 0 1"),
    (("--vars",), "vars", None, None, None, False, "explicit variable order for --expr (first name = MSB of the row index)"),
]
REPLICAS = (("-k", "--replicas"), "replicas", int, 3, None, False, "replica count (default %(default)s)")
TIE_POLICY = (
    ("--tie-policy",), "tie_policy", int, None, (0, 1), False,
    "which symbol wins an even split (required for even k)",
)
SWEEP = [
    REPLICAS,
    TIE_POLICY,
    (
        ("--pe",), "pe", None, None, None, False,
        "flip probabilities (decimals or fractions); repeatable or comma-separated; "
        "default is a 15-point grid from 0.001 to 0.5",
    ),
    (("--trials",), "trials", int, 5000, None, False, "inputs per probability (default %(default)s)"),
    (("--out",), "out", None, None, None, True, "CSV output path"),
]

# (option strings, dest, type, default, choices, required, help)
CENSUS = {
    None: [
        HELP,
        (("--version",), "version", None, SUPPRESS, None, False, "show program's version number and exit"),
    ],
    "profile": FUNCTION,
    "synth": [
        *FUNCTION,
        REPLICAS,
        (("--kind",), "kind", None, "prob", ("prob", "majority"), False, "voter flavour (default %(default)s)"),
        TIE_POLICY,
        (("--dump-generic",), "dump_generic", None, False, None, False, "also print the symbolic cost table for k replicas"),
    ],
    "simulate": [
        *FUNCTION,
        *SWEEP,
        (
            ("--seed",), "seed", _integer, 0xC0FFEE, None, False,
            "64-bit master seed, decimal or 0x-hex (default 0xC0FFEE)",
        ),
    ],
    "analytic": [*FUNCTION, *SWEEP],
    "plot": [
        HELP,
        ((), "csv", None, None, None, True, "results file from simulate or analytic"),
        (("--out",), "out", None, None, None, True, "gnuplot script path (data file lands next to it)"),
    ],
}


def _options(parser: argparse.ArgumentParser) -> list[tuple]:
    return [
        (
            tuple(action.option_strings), action.dest, action.type, action.default,
            action.choices, action.required, action.help,
        )
        for action in parser._actions
        if not isinstance(action, argparse._SubParsersAction)
    ]


def test_the_command_line_offers_exactly_the_pinned_options():
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    census = {None: _options(parser)}
    census.update((name, _options(sub)) for name, sub in commands.choices.items())
    assert list(census) == list(CENSUS)
    for name, options in CENSUS.items():
        assert census[name] == options, name


def _commands(parser: argparse.ArgumentParser) -> dict:
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return commands.choices


@pytest.mark.parametrize("name", [name for name in CENSUS if name is not None])
def test_one_command_parser_offers_that_command_alone(name):
    parser = build_parser(name)
    assert _options(parser) == CENSUS[None]
    assert list(_commands(parser)) == [name]
    assert _options(_commands(parser)[name]) == CENSUS[name]


PARITY_ARGVS = [
    [],
    ["-h"],
    ["--version"],
    ["bogus"],
    ["--"],
    ["--", "synth"],
    *([name, "-h"] for name in CENSUS if name is not None),
    ["synth", "--version"],
    ["synth", "--expr", "a", "--bogus"],
    ["analytic", "--expr", "a"],
    ["synth", "--expr", "a", "--kind", "vote"],
    ["synth", "--expr", "a", "--dump"],
    ["synth", "--t", "t.tt"],
    ["synth", "--tab", "t.tt"],
    ["profile", "--expr", "a", "extra"],
    ["analytic", "--expr", "a", "--out=--"],
    ["plot"],
]


@pytest.mark.parametrize("argv", PARITY_ARGVS, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_one_command_parser_says_what_the_full_tree_says(capsys, monkeypatch, tmp_path, argv):
    # main builds only the named command's subparser; every exit code, help
    # text, usage line and error must be the full tree's
    monkeypatch.chdir(tmp_path)
    one = (main(argv), *capsys.readouterr())
    monkeypatch.setattr(cli, "build_parser", lambda command=None: build_parser())
    full = (main(argv), *capsys.readouterr())
    assert one == full
    assert one[1] or one[2]
