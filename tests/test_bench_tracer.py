"""The benchmark's tracer still finds every name it wraps.

`bench/spans.py` replaces attributes of `probvoter.cli` and
`probvoter.analytic` by name.  A change that removes one of those names
fails here rather than in a traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import probvoter.analytic
import probvoter.cli

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_name_and_uninstalls(monkeypatch):
    spans = _load_spans(monkeypatch)
    modules = (probvoter.cli, probvoter.analytic)
    before = [dict(vars(module)) for module in modules]
    tracer = spans.Tracer()
    spans.install_layers(tracer, *modules)
    try:
        assert tracer._patched
        for module, attr, original in tracer._patched:
            assert getattr(module, attr) is not original
    finally:
        tracer.uninstall()
    assert [dict(vars(module)) for module in modules] == before
