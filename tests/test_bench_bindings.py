"""The benchmark traces library functions by name; every name must exist.

``bench/tracing.py`` lists, per workload, the functions a traced run must
reach.  A refactor that moves or renames one of them would only show up in
a traced benchmark run, so this test resolves each name here.  Counter keys
(``*.calls`` and ``*.calls.*``) name element-operation counts, not
functions, and are skipped.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _exercised():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return sorted({name for names in tracing.EXERCISED.values() for name in names})


def test_traced_function_names_resolve():
    names = [n for n in _exercised() if not (n.endswith(".calls") or ".calls." in n)]
    assert names
    for name in names:
        module, *path = name.split(".")
        obj = importlib.import_module(f"valuedfields.{module}")
        for attr in path:
            assert hasattr(obj, attr), f"{name}: no attribute {attr!r}"
            obj = getattr(obj, attr)
        assert callable(obj), name
