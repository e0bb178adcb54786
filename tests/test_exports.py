"""Every name a module exports through ``__all__`` must exist.

A routine deleted without its ``__all__`` entry leaves a stale export that
only ``from valuedfields.<module> import *`` would trip over.
"""

import pkgutil

import valuedfields


def test_every_all_entry_resolves():
    names = [info.name for info in pkgutil.iter_modules(valuedfields.__path__)]
    assert "artinschreier" in names and "groups" in names
    for name in names:
        # a stale __all__ entry makes the star import raise AttributeError
        exec(f"from valuedfields.{name} import *", {})
