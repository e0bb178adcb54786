"""The benchmark traces library functions by name; every name must exist.

``bench/tracing.py`` lists, per workload, the functions a traced run must
reach.  A refactor that moves or renames one of them, or stops calling it,
would only show up in a traced benchmark run, so these tests resolve each
name here and run one small lift under the tracer.  Counter keys
(``*.calls`` and ``*.calls.*``) name element-operation counts, not
functions, and are skipped.
"""

import importlib
import importlib.util
import io
from contextlib import redirect_stdout
from pathlib import Path

from valuedfields import cli

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


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
