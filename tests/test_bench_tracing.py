"""The traced benchmark run wraps linser functions by module and name.

bench/tracing.py lists every (module, attribute) it replaces; a name that
no longer resolves makes `bench/run.py --trace 1` crash, so each must
still exist in linser.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _load_tracing()
    places = [
        place
        for table in (tracing.SPANS, tracing.COUNTERS)
        for places in table.values()
        for place in places
    ]
    assert places
    missing = []
    for mod_name, attr in places:
        owner = importlib.import_module(f"linser.{mod_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"linser.{mod_name}.{attr}")
    assert missing == []
