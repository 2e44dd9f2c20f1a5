"""The traced benchmark run wraps linser functions by module and name.

bench/tracing.py lists every (module, attribute) it replaces; a name that
no longer resolves makes `bench/run.py --trace 1` crash, so each must
still exist in linser.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import linser

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_places(tracing):
    return [
        place
        for table in (tracing.SPANS, tracing.COUNTERS)
        for places in table.values()
        for place in places
    ]


def _resolve(mod_name, attr):
    owner = importlib.import_module(f"linser.{mod_name}")
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    return owner


def test_every_traced_name_resolves():
    tracing = _load_tracing()
    places = _traced_places(tracing)
    assert places
    missing = []
    for mod_name, attr in places:
        if not callable(_resolve(mod_name, attr)):
            missing.append(f"linser.{mod_name}.{attr}")
    assert missing == []


def test_every_binding_of_a_traced_function_is_listed():
    # A module that imports a traced function by name holds its own
    # reference; unless that name is listed, a traced run misses its calls.
    tracing = _load_tracing()
    places = set(_traced_places(tracing))
    traced = [_resolve(mod_name, attr) for mod_name, attr in places]
    unlisted = []
    for info in pkgutil.iter_modules(linser.__path__):
        module = importlib.import_module(f"linser.{info.name}")
        for attr, value in vars(module).items():
            listed = (info.name, attr) in places
            if not listed and callable(value) and any(value is f for f in traced):
                unlisted.append(f"linser.{info.name}.{attr}")
    assert unlisted == []
