"""Every name a module exports through ``__all__`` must exist, and must serve
code outside the tests.

A routine deleted without its ``__all__`` entry leaves a stale export that
only ``from valuedfields.<module> import *`` would trip over.  A public
routine that only tests call either gains a caller or goes; the few kept
for a reason are listed in ALLOWED with that reason.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import valuedfields

REPO = Path(__file__).parent.parent

# exported names with no caller outside the tests yet, and why each stays
ALLOWED = {
    "hensel.newton_system": "Hensel's lemma in several variables; ROADMAP item 1 times its 8x8 system",
    "places.place_invariants": "ROADMAP item 9's uniformize command prints it",
    "places.place_to_json": (
        "README names it as the producer of the place-file schema, and the round-trip"
        " tests pin place_from_json against it"
    ),
}


def _modules():
    return [info.name for info in pkgutil.iter_modules(valuedfields.__path__)]


def _referenced_outside_tests() -> set[str]:
    """Every name read, read as an attribute, or imported (with or without
    an alias) by the code in src, bench and demos, except inside the body of
    a definition of the same name: a routine calling itself is no caller."""
    used = set()
    for folder in ("src", "bench", "demos"):
        for path in (REPO / folder).rglob("*.py"):
            todo = [(ast.parse(path.read_text(encoding="utf-8")), frozenset())]
            while todo:
                node, enclosing = todo.pop()
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    enclosing = enclosing | {node.name}
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    name = None
                if name is not None and name not in enclosing:
                    used.add(name)
                todo += [(child, enclosing) for child in ast.iter_child_nodes(node)]
    return used


def test_every_all_entry_resolves():
    names = _modules()
    assert "artinschreier" in names and "groups" in names
    for name in names:
        # a stale __all__ entry makes the star import raise AttributeError
        exec(f"from valuedfields.{name} import *", {})


def test_every_all_entry_has_a_caller_outside_the_tests():
    used = _referenced_outside_tests()
    unused = set()
    for name in _modules():
        module = importlib.import_module(f"valuedfields.{name}")
        unused |= {f"{name}.{n}" for n in getattr(module, "__all__", ()) if n not in used}
    assert unused == set(ALLOWED)
