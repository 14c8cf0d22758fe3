"""The benchmark tracer's seams: ``perfbench/spans.py`` wraps names inside
the package (``indices.aggregate``, ``sliding._SCORERS``, ``cli.io``, ...)
and counts the work of the public calls the workloads make.  A refactor
that removes or renames one of those names breaks the traced benchmark
run; these tests make it fail tier-1 as well.

``spans.py`` is loaded by path and compiled in memory, so the tests
write no bytecode under ``perfbench/``."""

import sys
import types
from pathlib import Path

import pytest

import msetsim
import msetsim.cli
from msetsim.sliding import SlideIndex

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
MODULES = ("msetops", "indices", "stats", "sliding", "fields", "io", "cli")


@pytest.fixture(scope="module")
def spans():
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), module.__dict__)
    return module


def namespaces() -> dict[str, dict]:
    return {name: dict(vars(sys.modules[f"msetsim.{name}"])) for name in MODULES}


@pytest.fixture
def traced(spans):
    """A tracer, its call site and its installed wrappers, removed after
    the test however it ends."""
    tracer = spans.Tracer()
    installed = spans.Installed(tracer)
    try:
        yield tracer, spans.call_site(tracer, msetsim)
    finally:
        installed.remove()


def test_install_then_remove_restores_every_name(spans):
    before = namespaces()
    scorers = dict(msetsim.sliding._SCORERS)
    installed = spans.Installed(spans.Tracer())
    try:
        during = namespaces()
        changed = {name for name in MODULES
                   if any(during[name][k] is not v for k, v in before[name].items())}
        # every layer the tracer patches by attribute still has its seams
        assert changed == {"indices", "stats", "sliding", "io", "cli"}
        assert msetsim.sliding._SCORERS.keys() == scorers.keys()
        assert all(msetsim.sliding._SCORERS[k] is not fn for k, fn in scorers.items())
    finally:
        installed.remove()
    after = namespaces()
    for name in MODULES:
        assert after[name].keys() == before[name].keys(), name
        moved = [k for k, v in before[name].items() if after[name][k] is not v]
        assert moved == [], name
    assert msetsim.sliding._SCORERS == scorers


@pytest.mark.parametrize("index", list(SlideIndex))
def test_slide_counts_its_windows(traced, index):
    tracer, calls = traced
    template = msetsim.Signal([(-1.0) ** k * (k + 1) for k in range(8)])
    signal = msetsim.Signal([((7 * k) % 11) - 5.0 for k in range(64)])
    profile = calls["slide"](template, signal, index)
    assert len(profile.lags) == 57
    assert tracer.counts["windows"] == 57
    assert tracer.counts["degenerate_windows"] == len(profile.degenerate_lags)
    assert "sliding.slide" in tracer.names
    assert tracer.layer_metrics()["sliding.windows"] == 57


def test_read_csv_counts_its_rows(traced, tmp_path):
    tracer, calls = traced
    p = tmp_path / "d.csv"
    p.write_text("x,y\n" + "".join(f"{k},{-k / 3}\n" for k in range(10)), encoding="utf-8")
    f, g = calls["read_csv"](p, ["x", "y"])
    assert len(f.values) == len(g.values) == 10
    assert tracer.counts["rows_read"] == 10
    assert tracer.counts["bytes_read"] == p.stat().st_size
    metrics = tracer.layer_metrics()
    assert metrics["io.rows_read"] == 10 and metrics["msetops.signals_built"] == 2


def test_traced_field_export_succeeds(traced, tmp_path, capsys):
    tracer, calls = traced
    out, pgm = tmp_path / "f.csv", tmp_path / "f.pgm"
    assert calls["cli_main"](["field", "--expr", "jr", "--nx", "21", "--ny", "21",
                              "--out", str(out), "--pgm", str(pgm)]) == 0
    assert capsys.readouterr().err == ""
    assert len(out.read_text(encoding="utf-8").splitlines()) == 1 + 21 * 21
    assert pgm.stat().st_size > 21 * 21
    assert "cli.main" in tracer.names
