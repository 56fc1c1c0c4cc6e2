"""Output checks that take nothing from the package.

Every expected value is derived here from the generator's own truth table:
the cost-rule threshold t = max(1, ceil(k*N0 / 2^n)), the exact availability

    A(p) = (N0 * P[F <= t-1] + N1 * P[F <= k-t]) / 2^n,   F ~ Binomial(k, p),

and the CLI's documented output formats.  `analytic` output must match
exactly.  A `simulate` cell passes when its exact two-sided binomial tail
probability is at least that of |z| = 5 under the normal law: that is
|z| <= 5 wherever the normal approximation holds, and it stays valid for
cells that expect almost no errors.  Each check returns a list of problems;
an empty list means the output is correct.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations
from math import comb, erfc, exp, lgamma, log, sqrt

from workloads import Command, Function, decimal

CSV_HEADER = "pe,module_avail,majority_avail,prob_avail,majority_errors,prob_errors,trials"

FIVE_SIGMA_TAIL = erfc(5 / sqrt(2))


def prob_threshold(function: Function, k: int) -> int:
    return max(1, -(-k * function.n0 // (1 << function.n)))


def majority_threshold(k: int, tie_policy: int | None) -> int:
    if k % 2:
        return (k + 1) // 2
    return k // 2 + (1 if tie_policy == 0 else 0)


def _cdf(k: int, m: int, p: Fraction) -> Fraction:
    """P[Binomial(k, p) <= m], exact."""
    if m < 0:
        return Fraction(0)
    if m >= k:
        return Fraction(1)
    a, d = p.numerator, p.denominator
    return Fraction(sum(comb(k, j) * a**j * (d - a) ** (k - j) for j in range(m + 1)), d**k)


def availability(function: Function, k: int, t: int, p: Fraction) -> Fraction:
    return (function.n0 * _cdf(k, t - 1, p) + function.n1 * _cdf(k, k - t, p)) / (1 << function.n)


def binomial_tail(errors: int, trials: int, q: Fraction) -> float:
    """Two-sided exact tail probability of `errors` under Binomial(trials, q)."""
    if q == 0 or q == 1:
        return 1.0 if errors == trials * q else 0.0
    log_q, log_r = log(float(q)), log(float(1 - q))
    base = lgamma(trials + 1)
    step = 1 if errors >= trials * q else -1
    total = 0.0
    j = errors
    while 0 <= j <= trials:
        term = exp(base - lgamma(j + 1) - lgamma(trials - j + 1) + j * log_q + (trials - j) * log_r)
        total += term
        if term <= total * 1e-17:
            break
        j += step
    return min(1.0, 2 * total)


def _first_difference(name: str, got: str, expected: str) -> list[str]:
    if got == expected:
        return []
    got_lines, expected_lines = got.split("\n"), expected.split("\n")
    for i, (g, e) in enumerate(zip(got_lines, expected_lines)):
        if g != e:
            return [f"{name} line {i + 1}: got {g[:80]!r}, expected {e[:80]!r}"]
    return [f"{name}: got {len(got_lines)} lines, expected {len(expected_lines)}"]


def check_profile(command: Command, stdout: str) -> list[str]:
    f = command.function
    size = 1 << f.n
    expected = f"N0={f.n0} N1={f.n1} E0={f.n1}/{size} E1={f.n0}/{size}\n"
    return _first_difference("profile stdout", stdout, expected)


def check_synth(command: Command, stdout: str) -> list[str]:
    k = command.k
    t = prob_threshold(command.function, k)
    names = [f"y{i}" for i in range(1, k + 1)]
    minterms = " + ".join(
        "&".join(name if pattern >> (k - 1 - j) & 1 else "!" + name for j, name in enumerate(names))
        for pattern in range(1 << k)
        if pattern.bit_count() >= t
    )
    thresholds = " + ".join("&".join(names[j] for j in subset) for subset in combinations(range(k), t))
    expected = "\n".join((
        " ".join(names),
        "".join("1" if pattern.bit_count() >= t else "0" for pattern in range(1 << k)),
        f"t={t}",
        f"minterm_sop={minterms}",
        f"threshold_sop={thresholds}",
        f"terms={comb(k, t)} literals={t * comb(k, t)}",
    )) + "\n"
    return _first_difference("synth stdout", stdout, expected)


def check_manifest(command: Command, text: str) -> list[str]:
    try:
        manifest = json.loads(text)
    except ValueError as exc:
        return [f"manifest is not JSON: {exc}"]
    f = command.function
    expected = {
        "command": command.kind,
        "function": {
            "variables": list(f.variables),
            "outputs": f.bits(),
            "source": {"kind": "table", "path": f.table_path},
        },
        "k": command.k,
        "tie_policy": command.tie_policy,
        "pe": [str(p) for p in command.grid],
        "trials": command.trials,
        "out": command.out,
    }
    if command.seed is not None:
        expected["seed"] = command.seed
    got = {key: manifest.get(key) for key in expected}
    problems = [f"manifest {key}: got {str(got[key])[:80]}" for key in expected if got[key] != expected[key]]
    if set(manifest) != set(expected) | {"version"}:
        problems.append(f"manifest keys: {sorted(manifest)}")
    return problems


def check_analytic(command: Command, stdout: str, csv: str) -> list[str]:
    f, k = command.function, command.k
    t_maj = majority_threshold(k, command.tie_policy)
    t_prob = prob_threshold(f, k)
    lines = [CSV_HEADER]
    crossovers = []
    last_sign, last_p = 0, None
    for p in command.grid:
        a_maj = availability(f, k, t_maj, p)
        a_prob = availability(f, k, t_prob, p)
        lines.append(",".join((
            decimal(p), decimal(1 - p), decimal(a_maj), decimal(a_prob),
            decimal(command.trials * (1 - a_maj)), decimal(command.trials * (1 - a_prob)), "0",
        )))
        sign = (a_prob > a_maj) - (a_prob < a_maj)
        if sign:
            if last_sign and sign != last_sign:
                crossovers.append(f"crossover: pe in ({decimal(last_p)}, {decimal(p)})")
            last_sign, last_p = sign, p
    report = crossovers or ["crossover: none"]
    expected_stdout = "\n".join(report + [f"wrote {command.out} ({len(command.grid)} rows)"]) + "\n"
    return _first_difference("analytic csv", csv, "\n".join(lines) + "\n") + _first_difference(
        "analytic stdout", stdout, expected_stdout
    )


def _count(field: str, trials: int, what: str, problems: list[str]) -> int | None:
    """Correct-output count behind an availability column (repr of correct/trials)."""
    try:
        correct = round(float(field) * trials)
    except ValueError:
        problems.append(f"{what}: not a number: {field!r}")
        return None
    if not 0 <= correct <= trials or repr(correct / trials) != field:
        problems.append(f"{what}: {field!r} is not a count out of {trials}")
        return None
    return correct


def check_simulate(command: Command, stdout: str, csv: str) -> list[str]:
    f, k, trials = command.function, command.k, command.trials
    t_maj = majority_threshold(k, command.tie_policy)
    t_prob = prob_threshold(f, k)
    lines = csv.split("\n")
    if lines[0] != CSV_HEADER or lines[-1] != "" or len(lines) != len(command.grid) + 2:
        return [f"simulate csv: bad layout ({len(lines)} lines)"]
    problems = _first_difference(
        "simulate stdout", stdout, f"wrote {command.out} ({len(command.grid)} rows)\n"
    )
    for p, line in zip(command.grid, lines[1:-1]):
        fields = line.split(",")
        if len(fields) != 7:
            problems.append(f"simulate row {line[:80]!r}: expected 7 fields")
            continue
        where = f"simulate pe={decimal(p)}"
        if fields[0] != decimal(p) or fields[6] != str(trials):
            problems.append(f"{where}: row is {line!r}")
            continue
        module = _count(fields[1], trials, f"{where} module_avail", problems)
        expectations = [(module, 1 - p, "module")]
        for column, error_column, t, label in ((2, 4, t_maj, "majority"), (3, 5, t_prob, "prob")):
            correct = _count(fields[column], trials, f"{where} {label}_avail", problems)
            if correct is not None and fields[error_column] != str(trials - correct):
                problems.append(f"{where}: {label}_errors {fields[error_column]} != {trials - correct}")
            expectations.append((correct, availability(f, k, t, p), label))
        for correct, exact, label in expectations:
            if correct is None:
                continue
            tail = binomial_tail(trials - correct, trials, 1 - exact)
            if tail < FIVE_SIGMA_TAIL:
                problems.append(
                    f"{where} {label}: {trials - correct} errors in {trials} trials, "
                    f"exact availability {float(exact):.6g}, two-sided tail {tail:.3g}"
                )
    return problems


def check_command(command: Command, stdout: str, files: dict[str, bytes]) -> list[str]:
    """Problems with one command's stdout and output files."""
    if command.kind == "profile":
        return check_profile(command, stdout)
    if command.kind == "synth":
        return check_synth(command, stdout)
    missing = [name for name in command.outputs if name not in files]
    if missing:
        return [f"{command.kind}: missing output {name}" for name in missing]
    csv = files[command.out].decode("utf-8", "replace")
    manifest = check_manifest(command, files[command.outputs[1]].decode("utf-8", "replace"))
    if command.kind == "analytic":
        return check_analytic(command, stdout, csv) + manifest
    return check_simulate(command, stdout, csv) + manifest
