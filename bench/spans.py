"""Spans recorded around the calls `probvoter.cli` makes into each layer.

The tracer replaces module attributes with timing wrappers, so the package
itself is not modified.  Each span keeps its name, start, end, parent span
and the id of the CLI command it belongs to; spans stay in memory and are
written out once, when the benchmark ends.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    name: str
    parent: int | None
    command: int
    start: float = 0.0
    end: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.command = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, counts=None):
        """`fn` recording one span per call; `counts(args, result)` gives its work."""

        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None, self.command)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if counts is not None:
                span.counts = counts(args, result)
            return result

        return traced

    def install(self, module, attr: str, name: str, counts=None) -> None:
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, counts))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def dump(self) -> list[list]:
        return [[s.name, s.start, s.end, s.parent, s.command, s.counts] for s in self.spans]


def self_times(spans: list[Span], first: int = 0) -> tuple[dict[str, float], dict[str, int]]:
    """Self seconds per span name and summed counts, over spans[first:].

    A span's self time is its duration minus the durations of its direct
    children, which never overlap in this single-threaded run.
    """
    child_time = defaultdict(float)
    for span in spans[first:]:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    seconds: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    for index in range(first, len(spans)):
        span = spans[index]
        seconds[span.name] += span.end - span.start - child_time[index]
        for key, value in span.counts.items():
            counts[key] += value
    return dict(seconds), dict(counts)


def install_layers(tracer: Tracer, cli, analytic) -> None:
    """Wrap every function `probvoter.cli` imports from the layers below it.

    `probvoter.analytic` builds its own voters, so its references to the
    synthesis functions are wrapped too: every voter built is then counted.
    """

    def rows(args, table):
        return {"logic.rows": 1 << table.arity}

    def entries(args, voter):
        return {"voter.decision_entries": 1 << voter.k}

    def points(args, comparison):
        return {"analytic.points": len(comparison.points)}

    def trials(args, records):
        n = sum(record.trials for record in records)
        return {"sim.trials": n, "sim.draws": n * (1 + args[0].k)}

    for module, attr, name, counts in (
        (cli, "parse_expression", "logic.parse_expression", rows),
        (cli, "parse_table_file", "logic.parse_table_file", rows),
        (cli, "error_profile", "voter.error_profile", None),
        (cli, "synthesize_majority", "voter.synthesize", entries),
        (cli, "synthesize_probabilistic", "voter.synthesize", entries),
        (analytic, "synthesize_majority", "voter.synthesize", entries),
        (analytic, "synthesize_probabilistic", "voter.synthesize", entries),
        (cli, "emit_minterm_sop", "voter.emit_sop", None),
        (cli, "emit_threshold_sop", "voter.emit_sop", None),
        (cli, "render_generic_table", "voter.render_generic_table", None),
        (cli, "compare_and_crossover", "analytic.compare_and_crossover", points),
        (cli, "expected_errors", "analytic.expected_errors", None),
        (cli, "module_availability", "analytic.module_availability", None),
        (cli, "run_sweep", "sim.run_sweep", trials),
    ):
        tracer.install(module, attr, name, counts)
