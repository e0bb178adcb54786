"""The benchmark traces library functions by name; every name must exist.

``bench/tracing.py`` lists, per workload, the functions a traced run must
reach.  A refactor that moves or renames one of them, or stops calling it,
would only show up in a traced benchmark run, so these tests resolve each
name here, run one small lift under the tracer, and run the first ops of
the places-eval workload, fresh and again once their places hold their
tables, and all ops of the gallery workload under the tracer and the
element counter.
Counter keys (``*.calls`` and ``*.calls.*``) name element-operation
counts, not functions, and are skipped where only functions are checked.
"""

import importlib
import importlib.util
import io
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

from valuedfields import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracing():
    return _load("tracing")


def _functions(names):
    return sorted(n for n in set(names) if not (n.endswith(".calls") or ".calls." in n))


def test_traced_function_names_resolve():
    names = _functions(n for names in _tracing().EXERCISED.values() for n in names)
    assert names
    for name in names:
        module, *path = name.split(".")
        obj = importlib.import_module(f"valuedfields.{module}")
        for attr in path:
            assert hasattr(obj, attr), f"{name}: no attribute {attr!r}"
            obj = getattr(obj, attr)
        assert callable(obj), name


def test_small_lift_reaches_every_traced_lift_function():
    # a quadratic over F_3 whose X coefficient is rational, so the command
    # line also inverts a denominator, as two of the lift-deep shapes do
    tracing = _tracing()
    out = io.StringIO()
    with tracing.Spans() as spans, redirect_stdout(out):
        code = cli.main(
            ["lift", "--p", "3", "--precision", "4", "--", "2*t + 2", "(t + t^2)/(1 + t^2)", "1"]
        )
    assert code == 0, out.getvalue()
    missing = [n for n in _functions(tracing.EXERCISED["lift-deep"]) if not spans.calls.get(n)]
    assert not missing


def _unreached(workload, ops):
    """The names EXERCISED lists for workload that ops neither call nor
    count, once each result has passed its op's check."""
    tracing = _tracing()
    with tracing.Spans() as spans:
        results = [op.run() for op in ops]
    with tracing.ElementCounter() as counter:
        for op in ops:
            op.run()
    assert [op.check(r) for op, r in zip(ops, results)] == [None] * len(ops)
    names = tracing.EXERCISED[workload]
    return [n for n in names if not spans.calls.get(n, counter.counts.get(n, 0))]


def test_first_places_eval_ops_reach_every_traced_name(monkeypatch):
    # what a traced benchmark run asserts, on 10 ops of each place kind:
    # every function listed is called and every counter listed is nonzero,
    # on fresh places and again once the places hold their tables, as they
    # do when a benchmark run traces after its warm-up and plain pass
    monkeypatch.syspath_prepend(str(BENCH))  # workloads imports oracles
    workloads = _load("workloads")
    ops = workloads.build("places-eval", 1).ops[:50]
    kinds = Counter(op.label.split()[0] for op in ops)
    assert kinds == {kind: 10 for kind in workloads.PLACE_KINDS}
    assert not _unreached("places-eval", ops)
    assert not _unreached("places-eval", ops)


def test_gallery_ops_reach_every_traced_name(monkeypatch):
    # every op, since few ops reach some names: series.unit_nth_root only
    # G9, and fields.embed only G4 (the BadResidue expansion) and G6
    monkeypatch.syspath_prepend(str(BENCH))
    ops = _load("workloads").build("gallery", 1).ops
    assert len(ops) == 13
    assert not _unreached("gallery", ops)
