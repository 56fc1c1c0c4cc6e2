"""Reference for the --pe grid parser in `probvoter.cli`.

This is the parser with every part going through `Fraction(part)`, after
the same bound on a decimal exponent.  The runtime reads a plain ASCII
decimal such as "0.001" with integer arithmetic instead; the tests require
both to give the same `Fraction`s, or the same error message and exit code,
for every string.
"""

from __future__ import annotations

import re
from fractions import Fraction

from probvoter.cli import DEFAULT_PE, EXIT_CONFIG, MAX_PE_EXPONENT, _CliError

_EXPONENT_RE = re.compile(r"e([-+]?[\d_]+)\Z", re.IGNORECASE)


def parse_pe_grid(entries: list[str] | None) -> tuple[Fraction, ...]:
    if entries is None:
        return DEFAULT_PE
    values = []
    for entry in entries:
        for part in entry.split(","):
            part = part.strip()
            if not part:
                raise _CliError("empty value in --pe list", EXIT_CONFIG)
            try:
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
